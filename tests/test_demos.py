"""The narrative demos run to completion; demo 01's recursion balances."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_profiles_and_recursion", "02_shellability_certificates",
         "03_crossing_bounds")


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_recursion_demo_residuals_are_zero():
    proc = run_demo("01_profiles_and_recursion")
    residuals = re.findall(r"\(residual (-?\d+)\)", proc.stdout)
    assert residuals and set(residuals) == {"0"}, proc.stdout

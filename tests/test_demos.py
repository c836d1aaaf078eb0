"""The demos run to completion; demo 01's recursion balances, and demo 04
prints the same paths in every checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_profiles_and_recursion", "02_shellability_certificates",
         "03_crossing_bounds", "04_gallery")


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


def test_gallery_prints_paths_relative_to_the_demos():
    # demo 04 writes its SVGs into the git-ignored demos/out/
    proc = run_demo("04_gallery")
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert "wrote out/convex_k8.svg" in proc.stdout
    assert str(ROOT) not in proc.stdout

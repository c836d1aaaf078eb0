"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10                 # every workload
    python3 perfbench/sweep.py --workloads certify --seeds 1-5 --trace 1
    python3 perfbench/sweep.py --seeds 1,2 --repeat         # determinism check

Run from the repository root. Each run is a fresh ``perfbench/run.py``
process. For every workload the table lists each metric by name and unit
with its median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the interquartile distance as a share of the median, next to the
bound fixed in BENCHMARK.json. ``--repeat`` runs every seed twice and
checks that both runs report the same output digest. ``--out`` writes the
summary as JSON, with every run's values and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench", "results",
                           f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        details = json.load(fh)
    return line, details


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true",
                        help="run every seed twice and compare output digests")
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    status = 0
    for workload in args.workloads:
        values = {}
        units = {}
        runs = []
        for seed in args.seeds:
            for _ in range(2 if args.repeat else 1):
                line, details = run_once(workload, seed, args.seconds, args.trace)
                runs.append({"seed": seed, "correct": line["correct"],
                             "attempted": line["attempted"], "failed": line["failed"],
                             "digest": details["digest"]})
                print(f"{workload} seed {seed}: correct={line['correct']} "
                      f"attempted={line['attempted']} failed={line['failed']} "
                      f"digest={details['digest'][:16]}", file=sys.stderr, flush=True)
                if not line["correct"]:
                    status = 1
                for name, metric in line["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        if args.repeat:
            for seed in args.seeds:
                digests = {r["digest"] for r in runs if r["seed"] == seed}
                same = len(digests) == 1
                print(f"{workload} seed {seed}: digests {'agree' if same else 'DIFFER'}")
                status |= 0 if same else 1
        print(f"\n{workload} ({len(runs)} runs, seeds {args.seeds[0]}..{args.seeds[-1]})")
        print(f"  {'metric':36s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        summary[workload] = {"runs": runs, "metrics": {},
                             "env": {k: details[k] for k in ("python", "nproc", "commit",
                                                             "run_seconds", "jobs_per_round")}}
        for name in sorted(values):
            stats = summarize(values[name] * (2 if len(values[name]) == 1 else 1))
            stats["unit"] = units[name]
            summary[workload]["metrics"][name] = stats
            bound = bounds.get(name)
            print(f"  {name:36s} {units[name]:6s} {stats['median']:12.5g} {stats['q1']:12.5g} "
                  f"{stats['q3']:12.5g} {stats['spread']:7.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Check that the benchmark is steady: run it on several seeds and report,
for each end-to-end metric, the quartile spread against its bound.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload hotset-serve --runs 10

The spread is (Q3 - Q1) / median of the runs' values, with quartiles
from ``statistics.quantiles(values, n=4)``.  A metric is steady when its
spread is below a third of its bound in BENCHMARK.json (``setup_s`` is
listed but not judged: its bound limits a change's median, not the
spread).  Exit code 1 when any judged metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    steady = True
    for workload in args.workload:
        values = {metric["name"]: [] for metric in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=180
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            stolen = re.search(
                r"stolen by the host while measuring: (\S+)", done.stdout
            )
            print(
                workload, seed, {k: round(v[-1], 6) for k, v in values.items()},
                f"steal {stolen.group(1) if stolen else 'unknown'}",
                flush=True,
            )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            observed = spread(values[name])
            judged = name != "setup_s"
            ok = observed < bound / 3 or not judged
            steady &= ok
            print(
                f"{workload:14s} {name:12s}"
                f" median {statistics.median(values[name]):12.6g}"
                f"  spread {observed:7.4f}  bound/3 {bound / 3:7.4f}"
                f"  {'ok' if ok else 'UNSTEADY'}{'' if judged else ' (not judged)'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

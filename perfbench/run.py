"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload authors-loop --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json
with no instrumentation installed.  ``--trace 1`` measures half the
window untraced and half with the benchmark's span wrappers installed,
and reports the per-layer metrics of the traced half plus
``trace.overhead_ratio`` (traced over untraced wall time per request).

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output-check violation
makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _load_repro() -> bool:
    """Put the checkout's ``src`` on the import path; False when absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    if src not in sys.path:
        sys.path.insert(0, src)
    return True


def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit declared in BENCHMARK.json for ``kind``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """Set up ``workload`` several times, measure it once and return the
    result object (the JSON line's content plus printable detail)."""
    from host import StealClock, calm
    from layers import charged_devices, instrument, layer_metrics, reset_peaks
    from spans import Recorder
    from stats import median
    from workloads import REGISTRY, WORKLOADS, Metric

    setup, measure, measure_half = REGISTRY[workload]
    violations: List[str] = []
    setup_times, setup_steal = [], []
    clock = StealClock()
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            violations += state.close()
            state = None
            gc.collect()
        clock.lap()
        started = time.perf_counter()
        state = setup(seed, scale)
        setup_times.append(time.perf_counter() - started)
        setup_steal.append(clock.lap())
    setup_calm = calm(setup_times, setup_steal)
    try:
        if trace:
            base = measure_half(state, seconds / 2)
            recorder = Recorder()
            instrument(state, recorder)
            reset_peaks(state)
            window = measure_half(state, seconds / 2, recorder)
            window.attempted += base.attempted
            window.failed += base.failed
            window.violations += base.violations
            layers = layer_metrics(
                recorder,
                window,
                state,
                overhead_ratio=window.wall_per_op_s / base.wall_per_op_s,
            )
        else:
            window = measure(state, seconds)
            layers = {}
    finally:
        violations += state.close()
    violations = window.violations + violations
    window.notes.append(
        f"cpu time stolen by the host while measuring: {clock.lap():.1%}"
    )
    window.metrics["setup_s"] = Metric(median(setup_calm), "s", len(setup_calm))
    window.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    window.metrics["failed_ratio"] = Metric(
        window.failed / max(window.attempted, 1), "ratio", window.attempted
    )
    return {
        "workload": workload,
        "record": WORKLOADS[workload],
        "violations": violations,
        "attempted": window.attempted,
        "failed": window.failed,
        "named": window.metrics,
        "layers": layers,
        "devices": charged_devices(window),
        "notes": window.notes,
    }


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the JSON line's object."""
    from stats import tail_quantile

    print(f"# workload {result['workload']}")
    for key, value in result["record"].items():
        print(f"#   {key}: {value}")
    devices = ", ".join(result["devices"]) or "none"
    print(f"#   simulated devices charged in this run: {devices}")
    for note in result["notes"]:
        print(f"#   {note}")
    if trace:
        print("# per-layer metrics (traced half; self times exclude sim.* charges)")
        for name, (value, unit) in result["layers"].items():
            print(f"{name:32s} {value:16.6g} {unit}")
    else:
        print(f"# {'metric':30s} {'value':>16s} unit   samples")
        for name, metric in result["named"].items():
            thin = name.endswith("_p99_s") and tail_quantile(metric.count) != 0.99
            print(
                f"{name:32s} {metric.value:16.6g} {metric.unit:6s} {metric.count}"
                + ("  (fewer than 10 samples beyond p99)" if thin else "")
            )
    for violation in result["violations"]:
        print(f"# VIOLATION: {violation}")
    if trace:
        declared = _declared("per_layer")
        metrics = {
            name: {"value": result["layers"][name][0], "unit": unit}
            for name, unit in declared.items()
        }
    else:
        declared = _declared("end_to_end")
        metrics = {
            name: {"value": result["named"][name].value, "unit": unit}
            for name, unit in declared.items()
        }
    return {
        "correct": not result["violations"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_repro():
        print(
            "error: no src/repro next to perfbench/; run from a checkout",
            file=sys.stderr,
        )
        return 2
    from workloads import REGISTRY

    if args.workload not in REGISTRY:
        parser.error(f"unknown workload {args.workload!r} (one of {sorted(REGISTRY)})")
    # Keep the program's scratch files (the sqlite store) in the checkout.
    tempfile.tempdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
    line = report(result, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

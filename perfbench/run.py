"""Benchmark of the tea pipeline: prepare, train and evaluate on a seeded corpus.

    python3 perfbench/run.py --workload short-seq --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ./src. With
`--trace 0` the run reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. Every earlier output line is
human-readable (one `name value unit` line per metric, then a `report`
line with the corpus properties, checks and environment); the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs each workload in a fresh process, one after another.
Exit codes: 0 when every output check held, 1 when an operation failed,
2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("short-seq", "long-seq", "wide-catalog")
# The machine's BLAS and OpenMP pools would otherwise start one thread per core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
        status = max(status, proc.returncode)
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tea", "__init__.py")):
        print(f"perfbench: no tea package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import pipeline  # after the thread variables: numpy reads them on import

    workload = pipeline.WORKLOADS[args.workload]
    return emit(*pipeline.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                       os.path.join(ROOT, ".perfbench-work")))


def emit(run, metrics: dict, report: dict) -> int:
    """Print one line per metric, the report line, then the result object."""
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {report['fail_ratio']:.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the `heavenly` toolkit: one workload per run, checked answers.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
name the metrics of the workload (`cold_total_s`, `classify_per_s`, ...),
the report digest and every failed operation.  `--workload all` runs the
three workloads and the rest of the exit-code contract, and prints every
named metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNITS = {"setup_s": "s", "failed_frac": "ratio", "peak_rss_mb": "MB", "ops_per_s": "1/s",
         "cold_total_s": "s", "cold_max_s": "s",
         "classify_per_s": "1/s", "classify_p50_s": "s", "lax3d_per_s": "1/s",
         "lax3d_p50_s": "s", "lax3d_p90_s": "s"}
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s")


def end_to_end(result):
    """The bounded metrics.  Medians and tails are only printed: on a shared
    machine whose speed drifts by a quarter within a minute they spread by
    more than any bound the benchmark may set."""
    return {
        "setup_s": statistics.median(result.setup),
        "peak_rss_mb": result.rss_mb,
        "ops_per_s": len(result.durations) / sum(result.durations),
    }


def named(workload, result, metrics):
    """The metrics by the names of the benchmark's definition, per workload."""
    out = {"setup_s": metrics["setup_s"], "failed_frac": result.failed / len(result.durations),
           "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "cli-cold":
        out["cold_total_s"] = statistics.mean(result.passes)
        out["cold_max_s"] = max(result.durations)
    elif workload == "classify-warm":
        out["classify_per_s"] = metrics["ops_per_s"]
        out["classify_p50_s"] = statistics.median(result.durations)
    else:
        out["lax3d_per_s"] = metrics["ops_per_s"]
        out["lax3d_p50_s"] = statistics.median(result.durations)
        out["lax3d_p90_s"] = statistics.quantiles(result.durations, n=10,
                                                  method="inclusive")[8]
    return out


def run_one(workload, seed, seconds, trace):
    import tracer
    import workloads

    result = workloads.WORKLOADS[workload](seed, seconds, trace)
    for failure in result.failures:
        print(f"FAILED {failure.strip()}")
    for group, times in sorted(result.groups.items()):
        print(f"stratum {group}: {len(times)} ops, median {statistics.median(times):.4f} s")
    print(f"report sha256 {result.digest.hexdigest()}  ({len(result.durations)} operations, "
          f"{len(result.passes)} passes)")
    if trace:
        metrics = tracer.report(result.layers, result.overhead_s)
    else:
        values = end_to_end(result)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
        summary = named(workload, result, values)
        for k, v in summary.items():
            print(f"{workload} {k} {v:.6g} {UNITS[k]}")
        print("summary " + json.dumps(summary))
    print(json.dumps({"correct": result.failed == 0, "attempted": len(result.durations),
                      "failed": result.failed, "metrics": metrics}))


def run_all(seed, seconds):
    """Every workload, untraced, then the rest of the exit-code contract."""
    import inputs
    import workloads

    attempted = failed = 0
    metrics = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} did not finish: {proc.stderr.strip()[-500:]}")
        for line in lines[:-1]:
            if not line.startswith("summary "):
                print(line)
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        summary = next(json.loads(line[8:]) for line in lines if line.startswith("summary "))
        metrics.update({f"{workload}.{k}": {"value": v, "unit": UNITS[k]}
                        for k, v in summary.items()})
    for op in inputs.CONTRACT_OPS:
        _, proc = workloads.run_command(op["argv"])
        errors = inputs.check_cli(op, proc.returncode, proc.stdout, proc.stderr)
        attempted += 1
        failed += bool(errors)
        for e in errors:
            print(f"FAILED {' '.join(op['argv'])}: {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-cold", "classify-warm", "lax-3d", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "heavenly" / "__init__.py").is_file():
        sys.exit(f"no package source at {src / 'heavenly'}; run from a checkout of the repo")
    sys.path[:0] = [str(src)]
    if args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()

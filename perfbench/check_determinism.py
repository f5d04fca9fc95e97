"""Run every workload traced twice at one seed and compare what must repeat.

    python3 perfbench/check_determinism.py --seed 1

Every count metric of the traced run (`*.calls`, `linalg.rref.cells`, the
no-point, fallback, zero and degenerate counters and the nondegenerate
ratio) must be equal in both runs, and so must the digest of the rendered
reports.  Prints each difference and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=BENCH.parent, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.startswith("report sha256 "))
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}
    return digest, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    differences = 0
    for workload in WORKLOADS:
        (d1, c1), (d2, c2) = traced_run(workload, args.seed), traced_run(workload, args.seed)
        diff = [k for k in c1 if c1[k] != c2.get(k)]
        for k in diff:
            print(f"{workload}: {k} {c1[k]} != {c2.get(k)}")
        if d1 != d2:
            print(f"{workload}: report digests differ")
        differences += len(diff) + (d1 != d2)
        print(f"{workload}: {len(c1)} counts, digest {d1[:16]}, "
              f"{'equal' if not diff and d1 == d2 else 'DIFFERENT'}")
    sys.exit(1 if differences else 0)


if __name__ == "__main__":
    main()

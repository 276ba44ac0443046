"""Run a workload once per seed and report each metric's run-to-run spread.

The spread is the distance between the first and third quartile of the
per-run values, as a share of their median (``statistics.quantiles`` with
n=4). Runs go one after another, each in its own process.

Usage:
    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 30]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % kv for kv in values.items())), flush=True)
    print("%s over %d seeds:" % (args.workload, len(runs)))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        print("  %-28s median %12.6g  spread %.3f" % (
            name, statistics.median(values), spread(values)))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("  failed share: %s; all correct: %s" % (
        sorted(shares), all(r["correct"] for r in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

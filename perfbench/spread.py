"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload random-sweep --seeds 1-10

For each metric it prints the median of the runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  ``--json``
writes the same figures, with every run's values, to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (median, median, median)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="40")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)
        runs.append(result)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "metrics": summary}, fh,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

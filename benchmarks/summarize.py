"""Run the benchmark several times and summarize each metric.

    python3 benchmarks/summarize.py --workload exp2-16d --seeds 0-9 --seconds 30 --trace 0 1

For every workload and trace setting it runs ``run.py`` once per seed, one
run at a time, and prints each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median). When both trace
settings are run it also prints the traced run's overhead: untraced
``throughput`` over traced ``trace.throughput``, minus one.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    args = parser.parse_args()
    report = {}
    for workload in args.workload:
        for trace in args.trace:
            runs = [run_once(workload, s, args.seconds, trace) for s in seed_list(args.seeds)]
            names = runs[0]["metrics"]
            summary = {
                name: describe([r["metrics"][name]["value"] for r in runs]) for name in names
            }
            summary["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
            summary["correct"] = all(r["correct"] for r in runs)
            report[f"{workload} trace={trace}"] = summary
            print(f"== {workload} trace={trace} ({len(runs)} runs)")
            for name in names:
                d = summary[name]
                print(f"  {name:40s} median {d['median']:.6g}  q1 {d['q1']:.6g}  "
                      f"q3 {d['q3']:.6g}  spread {d['spread']:.4f}")
            print(f"  failed share {summary['failed_share']}  correct {summary['correct']}")
        if set(args.trace) == {0, 1}:
            plain = report[f"{workload} trace=0"]["throughput"]["median"]
            traced = report[f"{workload} trace=1"]["trace.throughput"]["median"]
            print(f"  trace overhead {plain / traced - 1.0:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: repeat a workload and report the spread of every metric.

Run from the repository root:

    python3 perfbench/steady.py --workload conjugate-batch
    python3 perfbench/steady.py --workload probit-large --seeds 1-10 --reps 1 --second-seeds ""

Each set runs perfbench/run.py once per seed and repetition, one run at a
time. For each metric it prints the median, the quartiles and the spread
(q3 - q1) / median, and flags an end-to-end metric whose spread exceeds
its bound in BENCHMARK.json. With --trace 0 it also summarizes
raw_wall_s, each run's median pass before scaling to the reference host
speed, which shows how much the host moved while the set ran. With a second set it also flags an
end-to-end metric whose median got worse by more than its bound, and a
change in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RAW_LINE = "raw pass wall s / mean probe ms:"  # printed by run.py


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_set(args, seeds: list[int]) -> list[dict]:
    results = []
    for seed in seeds:
        for _ in range(args.reps):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"seed {seed}: exit code {proc.returncode}\n"
                         f"{proc.stderr}")
            res = json.loads(lines[-1])
            if args.trace == 0:
                raw = [float(item.split("/")[0]) for line in lines
                       if line.startswith(RAW_LINE)
                       for item in line[len(RAW_LINE):].split()]
                res["metrics"]["raw_wall_s"] = {
                    "value": statistics.median(raw), "unit": "s"}
            print(f"  seed {seed}: attempted {res['attempted']} failed "
                  f"{res['failed']} correct {res['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in res["metrics"].items()
                             if k in args.e2e or k == "raw_wall_s"),
                  flush=True)
            results.append(res)
    return results


def summarize(args, label: str, results: list[dict]) -> dict:
    print(f"{label}: {len(results)} runs")
    medians = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = args.e2e.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  SPREAD OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  spread over a third of the bound"
        medians[name] = med
        print(f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.3%}"
              + (f" (bound {bound:.0%})" if bound is not None else "") + flag)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share: {sorted(shares)}")
    return {"medians": medians, "shares": shares}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--second-seeds", default="2")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.e2e = ({m["name"]: m["bound"] for m in bench["end_to_end"]}
                if args.trace == 0 else {})

    first = summarize(args, "set 1", run_set(args, seed_list(args.seeds)))
    if not seed_list(args.second_seeds):
        return 0
    second = summarize(args, "set 2",
                       run_set(args, seed_list(args.second_seeds)))
    print("set 2 against set 1:")
    for name, bound in args.e2e.items():
        a, b = first["medians"][name], second["medians"][name]
        change = (b - a) / a
        print(f"  {name}: {change:+.3%} (bound {bound:.0%})"
              + ("  WORSE THAN BOUND" if change > bound else ""))
    if first["shares"] != second["shares"]:
        print("  failed share differs between the sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())

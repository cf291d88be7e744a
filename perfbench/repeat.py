#!/usr/bin/env python3
"""Run the benchmark N times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload tomography --runs 10 --seed 100

Each run is an untraced run of run_seconds (BENCHMARK.json); run i uses
seed (--seed + i).  For every end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and that spread as a share of the metric's bound.  It
also prints the failed/attempted shares seen, and re-runs the first seed
to check that the op list and every output digest repeat.  The summary
is written to perfbench/out/repeat-<workload>-seed<s>.json; the exit code
is 1 if a run was not correct or the first seed did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, shares, records, correct = {}, set(), [], True
    for i in range(args.runs):
        record, result = run_once(args.workload, args.seed + i, seconds)
        records.append(record)
        correct &= result["correct"]
        shares.add((result["failed"] / result["attempted"], result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + i}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
        ) + f" failed={result['failed']}/{result['attempted']} steal={record['steal_s']:.2f}s",
            flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "seeds": [args.seed, args.seed + args.runs - 1],
               "seconds": seconds, "correct": correct,
               "failed_shares": sorted(shares), "metrics": {}}
    print(f"\n{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'/bound':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound, "values": vals}
        print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {spread / bound:7.2f}")
    print(f"\nfailed/attempted: {sorted(shares)}  correct: {correct}")
    print("quality (last run):", json.dumps(records[-1]["quality"]))

    again, _ = run_once(args.workload, args.seed, seconds)
    same = (again["ops_digest"], again["outputs_digest"]) == (
        records[0]["ops_digest"], records[0]["outputs_digest"])
    summary["same_seed_repeats"] = same
    summary["records"] = records
    print(f"same seed {args.seed} gives the same op list and outputs: {same}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if correct and same else 1


if __name__ == "__main__":
    sys.exit(main())

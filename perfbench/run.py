#!/usr/bin/env python3
"""povmrank benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a povmrank checkout; the package is imported from
./src.  The op list comes from --seed alone.  Ops run back to back, each
waiting for the previous result, in whole rounds of the same list until
--seconds have passed and at least ten ops lie beyond the workload's tail
percentile.  After each round, outside the timed region, every op's
output digest is compared with the first round's, and a fresh process is
timed through its set-up (the first seven rounds only; this time is kept
off the run clock).  Once the rounds are done and peak memory is read,
the last round's outputs are checked against independent computations
(checks.py, which imports scipy); equal digests carry that outcome to
every round.

wall_s is the median round in wall-clock time.  op_p50_s and op_tail_s
are per-op thread CPU time: on a shared VM the host steals the CPU in
bursts, which lands whole in a wall-clock tail but not in the op's own
CPU time.  The record also keeps the wall-clock op figures.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics (tracing.py).  The
metric names and units are those of BENCHMARK.json.  The
last line of stdout is the result as one JSON object; the line before it
is the run record (round times, steal seconds, BLAS, numpy, quality
figures, digests of the op list and outputs), also written to
perfbench/out/.  --smoke runs one round of a reduced op list.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7  # fresh-process set-ups per run, spread over its first rounds
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
PROBE_TIMEOUT_S = 60

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="povmrank benchmark")
    p.add_argument("--workload", required=True,
                   choices=["rank-sweep", "binned-povm", "tomography"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="one round of a reduced op list")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(name: str, seed: int, smoke: bool):
    """Everything a run does before its first timed op: import povmrank,
    build the op list, run one untimed warm-up op."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    ops = workload.make_ops(seed, smoke)
    if hasattr(workload, "install"):
        workload.install()
    workload.run(ops[0])
    return workload, ops


def setup_probe(args) -> float:
    """Seconds from launching a fresh process to the end of its prepare(),
    as a user's first call would see them.  The probe prints its
    perf_counter reading, the system-wide monotonic clock, at that point;
    waiting on the child with a timeout polls in 50 ms steps, so the
    parent's own clock at exit would be too coarse."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, cwd=HERE.parent,
                          capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


def steal_seconds() -> float:
    """Host steal time of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return math.nan


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        return {}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile q (0..100) of values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(names: list, rounds: list, untraced_walls: list, traced_walls: list) -> dict:
    """Per-layer metrics "<module>.<function>.<stat>": medians over traced
    rounds of per-round totals (Tracer.totals), plus the derived
    ".per_iter_s" and "trace.overhead_s"."""
    out = {}
    for name in names:
        layer, stat = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            out[name] = statistics.median(traced_walls) - statistics.median(untraced_walls)
            continue
        per_round = []
        for totals in rounds:
            agg = totals.get(layer, {})
            if stat == "per_iter_s":
                per_round.append(agg["total_s"] / agg["iterations"] if agg.get("iterations") else 0.0)
            else:
                per_round.append(agg.get(stat, 0))
        out[name] = statistics.median(per_round)
    return out


def summarize_quality(name: str, outcomes: list) -> dict:
    q = [o.quality for o in outcomes if o.quality]
    passed = [o.quality for o in outcomes if o.reason is None and o.quality]
    if name == "tomography":
        its = [x["iterations"] for x in q]
        return {
            "min_fidelity": min((x["fidelity"] for x in q), default=None),
            "max_fidelity_mismatch": max((x["fidelity_mismatch"] for x in q), default=None),
            "max_ml_bound": max((x["ml_bound"] for x in q), default=None),
            "ml_iterations_min_median_max": [min(its), statistics.median(its), max(its)] if its else None,
            "converged_ops": sum(x["converged"] for x in q),
            "overflow_counts": sum(x["overflow_counts"] for x in q),
        }
    summary = {
        "worst_rank_gap": max((abs(x["rank_gap"]) for x in q), default=0),
        "worst_rank_gap_passing": max((abs(x["rank_gap"]) for x in passed), default=0),
    }
    if name == "rank-sweep":
        summary["min_spectral_gap_passing"] = min((x["spectral_gap"] for x in passed), default=None)
    else:
        summary["max_deficit"] = max((x["deficit"] for x in q), default=None)
        summary["max_entry_err"] = max((x["entry_err"] for x in q), default=None)
    return summary


def run_round(workload, ops):
    """All ops once, back to back: (outputs, per-op wall seconds, per-op
    thread CPU seconds, round wall seconds, round thread CPU seconds).  An
    op that raises yields its exception."""
    outputs, walls, cpus = [], [], []
    clock, cpu_clock = time.perf_counter, time.thread_time
    round_start, round_cpu = clock(), cpu_clock()
    for op in ops:
        t0, c0 = clock(), cpu_clock()
        try:
            out = workload.run(op)
        except Exception as exc:  # the check reports it as a failed op
            out = exc
        cpus.append(cpu_clock() - c0)
        walls.append(clock() - t0)
        outputs.append(out)
    return outputs, walls, cpus, clock() - round_start, cpu_clock() - round_cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "povmrank" / "__init__.py").is_file():
        print(f"povmrank sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload, args.seed, args.smoke)
        print(time.perf_counter())
        return 0

    steal_start = steal_seconds()
    workload, ops = prepare(args.workload, args.seed, args.smoke)
    ops_repeatable = workload.make_ops(args.seed, args.smoke) == ops
    import numpy as np
    from tracing import Tracer

    min_ops = math.ceil(TAIL_BEYOND / (1.0 - workload.tail_percentile / 100.0))
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    tracer = None
    if args.trace:
        tracer = Tracer(sorted({n.rsplit(".", 1)[0] for n in layer_names} - {"trace"}))
    probes_wanted = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    probes = []  # one after each of the first rounds, off the run clock
    walls = {False: [], True: []}  # traced? -> round wall seconds
    cpus = {False: [], True: []}
    op_walls, op_cpus = [], []  # untraced rounds only
    layer_rounds = []
    first_digests, deterministic = None, True
    gc.collect()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            span0 = len(tracer.spans)
            with tracer:
                outputs, _, _, wall, cpu = run_round(workload, ops)
            layer_rounds.append(tracer.totals(span0))
        else:
            outputs, times, cpu_times, wall, cpu = run_round(workload, ops)
            op_walls.extend(times)
            op_cpus.extend(cpu_times)
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        digests = [repr(out) if isinstance(out, Exception) else workload.digest(out)
                   for out in outputs]
        first_digests = first_digests or digests
        deterministic &= digests == first_digests

        if len(probes) < probes_wanted:
            probe_start = time.perf_counter()
            probes.append(setup_probe(args))
            start += time.perf_counter() - probe_start
        elapsed = time.perf_counter() - start
        if args.smoke:
            if not args.trace or walls[True]:
                break
        elif args.trace:
            if elapsed >= args.seconds and len(walls[False]) == len(walls[True]):
                break
        elif elapsed >= args.seconds and len(op_cpus) >= min_ops:
            break

    steal_end = steal_seconds()
    # Read before the checks import scipy, so that it is povmrank's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from checks import CHECKS, raised

    outcomes = [raised(out) if isinstance(out, Exception) else CHECKS[args.workload](op, out)
                for op, out in zip(ops, outputs)]
    rounds = len(walls[False]) + len(walls[True])
    failing = [(op, o.reason) for op, o in zip(ops, outcomes) if o.reason is not None]
    reasons = {}
    for _op, reason in failing:
        reasons[reason] = reasons.get(reason, 0) + rounds
    unexpected = [{"op": op, "reason": reason} for op, reason in failing if not op["fault"]]
    correct = ops_repeatable and deterministic and not unexpected
    if args.trace:
        values = layer_metrics(layer_names, layer_rounds, walls[False], walls[True])
        metrics_spec = SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(walls[False]),
            "op_p50_s": statistics.median(op_cpus),
            "op_tail_s": percentile(op_cpus, workload.tail_percentile),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics_spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops_per_round": len(ops),
        "fault_ops_per_round": sum(op["fault"] for op in ops),
        "rounds_untraced": len(walls[False]),
        "rounds_traced": len(walls[True]),
        "round_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "round_cpu_s": {"untraced": cpus[False], "traced": cpus[True]},
        "setup_probes_s": probes,
        "tail_percentile": workload.tail_percentile,
        "untraced_ops": len(op_cpus),
        "ops_beyond_tail": sum(t > values.get("op_tail_s", math.inf) for t in op_cpus),
        "op_wall_p50_s": statistics.median(op_walls) if op_walls else None,
        "op_wall_tail_s": percentile(op_walls, workload.tail_percentile) if op_walls else None,
        "steal_s": steal_end - steal_start,
        "blas": blas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "ops_repeatable": ops_repeatable,
        "deterministic": deterministic,
        "ops_digest": _digest_json(ops),
        "outputs_digest": _digest_json(first_digests),
        "failure_reasons": reasons,
        "unexpected_failures": unexpected[:20],
        "quality": summarize_quality(args.workload, outcomes),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops),
                      "failed": rounds * len(failing), "metrics": metrics}))
    return 0


def _digest_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())

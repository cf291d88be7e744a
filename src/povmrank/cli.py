"""Command-line front-end for the completeness analysis pipeline.

Subcommands: predict (closed-form count), table (rank sweep vs the
prediction), rank (numerical rank report for a support), and
simulate-reconstruct (sample -> bin -> maximum likelihood -> fidelity).

Exit codes: 0 success/agreement, 1 verified disagreement between numerics
and prediction, 2 usage error (an unwritable --out path among them).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .completeness import default_phases, measurement_rank, predicted_rank, rank_for, sweep_table
from .fock import DensityMatrix, SupportSet, coherent_amplitudes
from .povm import BinLayout, BinnedHomodyne, default_x_max
from .tomo import fidelity, ml_reconstruct, simulate_dataset

__all__ = ["main", "build_parser", "parse_state_spec"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _phase_list(text: str) -> list:
    try:
        phases = [float(p) for p in text.split(",")]
        if all(map(math.isfinite, phases)):
            return phases
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite reals, got {text!r}")


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or the --out file opened on entry so that an unwritable path fails
    before the work: a usage error, exit 2, not 1 (disagreement)."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        print(f"povmrank: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _write_output(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def parse_state_spec(spec: str, dim_override: int | None = None) -> DensityMatrix:
    """Build a density matrix from the state mini-language.

    Forms: ``fock:IDX,...@AMP,...`` (pure state, amplitudes normalized on
    input), ``mixed:maximally@D`` and ``coherent:ALPHA@D`` (truncated and
    renormalized inside the D-level subspace).
    """
    try:
        kind, rest = spec.split(":", 1)
        body, at = rest.split("@", 1)
    except ValueError:
        raise ValueError(f"malformed state spec {spec!r}") from None
    if kind == "fock":
        indices = [int(i) for i in body.split(",")]
        amps = [complex(a) for a in at.split(",")]
        if len(indices) != len(amps):
            raise ValueError("fock state needs one amplitude per index")
        if min(indices) < 0 or len(set(indices)) != len(indices):
            raise ValueError("fock indices must be non-negative and distinct")
        dim = dim_override if dim_override is not None else max(indices) + 1
        if max(indices) >= dim:
            raise ValueError("fock index outside the working dimension")
        vec = np.zeros(dim, dtype=complex)
        vec[indices] = amps
        return DensityMatrix.pure(vec)
    if kind == "mixed":
        if body != "maximally":
            raise ValueError(f"unknown mixed state {body!r}")
        dim = dim_override if dim_override is not None else int(at)
        return DensityMatrix.maximally_mixed(dim)
    if kind == "coherent":
        alpha = complex(body)
        dim = dim_override if dim_override is not None else int(at)
        return DensityMatrix.pure(coherent_amplitudes(alpha, dim))
    raise ValueError(f"unknown state kind {kind!r}")


def _cmd_predict(args, parser) -> int:
    _write_output(str(predicted_rank(args.d, args.m)), args.out)
    return 0


def _cmd_table(args, parser) -> int:
    if args.d_max < 2:
        parser.error("--d-max must be at least 2 and --m-max at least 1")
    table = sweep_table(range(2, args.d_max + 1), range(1, args.m_max + 1))
    if args.format == "json":
        _write_output(json.dumps(table.to_json_dict()), args.out)
    else:
        _write_output(table.to_csv(), args.out)
    mismatches = table.mismatches()
    if mismatches:
        for d, m, rank, pred in mismatches:
            print(f"disagreement at d={d}, m={m}: numerical {rank} != predicted {pred}",
                  file=sys.stderr)
        return 1
    return 0


def _support_from_args(args, parser) -> SupportSet:
    if args.support is not None:
        try:
            return SupportSet(tuple(int(i) for i in args.support.split(",")))
        except ValueError as exc:
            parser.error(f"bad --support: {exc}")
    return SupportSet.contiguous(args.d)


def _cmd_rank(args, parser) -> int:
    support = _support_from_args(args, parser)
    m = len(args.phases) if args.phases else args.m
    try:
        report = rank_for(support, m, phases=args.phases)
    except ValueError as exc:
        parser.error(str(exc))
    _write_output(json.dumps(report.to_json_dict()), args.out)
    return 0


def _cmd_simulate_reconstruct(args, parser) -> int:
    try:
        rho_true = parse_state_spec(args.state, args.d)
        dim = rho_true.dim
        phases = args.phases or default_phases(SupportSet.contiguous(dim), args.m)
        n_bins = args.bins if args.bins is not None else 2 * dim - 1
        layout = BinLayout(x_max=default_x_max(dim), n_bins=n_bins, include_overflow=True)
        measurement = BinnedHomodyne(phases, layout, dim)
        data = simulate_dataset(rho_true, measurement, args.samples, args.seed)  # seed checked first
    except ValueError as exc:
        parser.error(str(exc))
    with _output(args.out) as out:  # opened before the run, written after it
        report = measurement_rank(data.measurement)
        if report.numerical_rank < dim * dim:
            # with m >= d phases, offset block r holds the d - r coherences at offsets +-r alone
            short = [f"±{r}" if r else "0" for r, n in enumerate(report.block_ranks or ()) if n < dim - r]
            where = f"; short at Fock offsets {', '.join(short)}" if short and len(phases) >= dim else ""
            print(f"warning: measurement not IC: rank {report.numerical_rank} < {dim * dim}{where}",
                  file=sys.stderr)
        result = ml_reconstruct(data, max_iters=args.max_iters)
        payload = result.to_json_dict()
        payload["fidelity"] = fidelity(result.estimate, rho_true)
        out.write(json.dumps(payload) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmrank",
        description="Informational completeness of truncated continuous-variable measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="closed-form independent-element count")
    p_predict.add_argument("--d", type=_positive_int, required=True)
    p_predict.add_argument("--m", type=_positive_int, required=True)
    p_predict.add_argument("--out", default=None)
    p_predict.set_defaults(func=_cmd_predict)

    p_table = sub.add_parser("table", help="rank sweep over d and m vs the prediction")
    p_table.add_argument("--d-max", type=_positive_int, default=8)
    p_table.add_argument("--m-max", type=_positive_int, default=6)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=_cmd_table)

    p_rank = sub.add_parser("rank", help="numerical rank report for a support")
    support = p_rank.add_mutually_exclusive_group(required=True)
    support.add_argument("--support", help="comma-separated Fock indices, e.g. 0,4,8")
    support.add_argument("--d", type=_positive_int, help="contiguous support 0..d-1")
    phases = p_rank.add_mutually_exclusive_group(required=True)
    phases.add_argument("--m", type=_positive_int, help="number of default phases")
    phases.add_argument("--phases", type=_phase_list, help="explicit comma-separated phases")
    p_rank.add_argument("--out", default=None)
    p_rank.set_defaults(func=_cmd_rank)

    p_sim = sub.add_parser(
        "simulate-reconstruct",
        help="simulate homodyne data and reconstruct by maximum likelihood",
    )
    p_sim.add_argument("--state", required=True, help="fock:0,1@1,1 | mixed:maximally@3 | coherent:0.5@4")
    p_sim.add_argument("--d", type=_positive_int, default=None, help="working dimension override")
    phases = p_sim.add_mutually_exclusive_group(required=True)
    phases.add_argument("--m", type=_positive_int, help="equispaced phase count")
    phases.add_argument("--phases", type=_phase_list, help="explicit comma-separated phases")
    p_sim.add_argument("--bins", type=_positive_int, default=None, help="finite bins per phase (default 2d-1)")
    p_sim.add_argument("--samples", type=_positive_int, default=100_000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--max-iters", type=_positive_int, default=5000)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate_reconstruct)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call.
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)

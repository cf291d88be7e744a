"""Homodyne data simulation and maximum-likelihood state reconstruction.

Informationally complete settings must recover the state operationally;
incomplete ones must leave the corresponding ambiguities visible.  The
caller's measurement (see MeasurementData) carries its Born matrix
B_j = v(E_j) (fock.real_coordinates), so p = B v(rho) is every outcome
probability: simulated count matrices are multinomial draws from it
(sample_homodyne and bin_samples are for raw samples), and the estimator
maximizes L(rho) = sum_j n_j log p_j by a log-barrier Newton method (Boyd
and Vandenberghe, Convex Optimization, ch. 11) whose line search starts
BOUNDARY_FRACTION of the way to the boundary of rho > 0 when the full step
would cross it.  It stops once the concavity bound
L_max - L(rho) <= N (lambda_max(R) - 1), R = sum_j (f_j / p_j) E_j
(Glancy, Knill and Girard, NJP 14, 095017 (2012)), certifies the estimate
to within ML_GAP_TOL nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    DensityMatrix,
    _checked_integer,
    _coordinates_to_hermitian,
    _real_parts,
    _Rebuilt,
    homodyne_pdf_grid,
    real_coordinates,
)
from .povm import BinLayout, default_x_max

__all__ = [
    "MeasurementData",
    "ReconstructionResult",
    "sample_homodyne",
    "bin_samples",
    "simulate_dataset",
    "ml_reconstruct",
    "fidelity",
    "ambiguity_witness",
]

SAMPLING_GRID_POINTS = 4096
LOGLIK_GAIN_TOL = 1e-10
PROBABILITY_FLOOR = 1e-300
MAX_SEED = 2**64
ML_GAP_TOL = 0.1  # nats: the certified bound on L_max - L(estimate) that stops ML
STOPS = ("certified", "max_iters", "singular")
CENTRED_RISE = 0.25  # nats of (L + mu log det rho) / mu: a smaller Newton gain means centred
BARRIER_FLOOR = 1e-3  # mu * dim at which centring stops shrinking mu
BOUNDARY_FRACTION = 0.95  # of the way to rho > 0's boundary: a line search's first t when 1 crosses it


@dataclass(frozen=True, eq=False)
class MeasurementData(_Rebuilt):
    """Counts of one measurement, simulated or measured: a read-only int64 matrix,
    a row per entry of its ``settings``, a column per outcome like its ``elements``
    (stacked by setting); every row has one positive sum, ``total_per_setting``."""

    measurement: object
    counts: np.ndarray
    total_per_setting: int = field(init=False)

    def __post_init__(self):
        for name in ("settings", "elements"):
            if not hasattr(self.measurement, name):
                raise TypeError(f"measurement has no {name!r}")
        rows = len(self.measurement.settings)
        try:
            counts = np.array(self.counts)
        except ValueError:  # ragged rows: keep their number, lose their length
            counts = np.empty(len(self.counts))
        if counts.shape[:1] != (rows,):  # a scalar has no rows
            raise ValueError("one count vector per setting is required")
        if counts.ndim != 2 or counts.size != len(self.measurement.elements):
            raise ValueError("count vector length does not match the setting's outcomes")
        # NaN and inf fail the bound, so the cast never sees them
        whole = counts.dtype.kind in "iuf" and np.all(np.abs(counts) < 2.0**63)
        if not (whole and np.array_equal(counts.astype(np.int64), counts)):
            raise ValueError("counts must be whole numbers")
        counts = counts.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        totals = counts.sum(axis=1)
        if totals[0] < 1 or np.any(totals != totals[0]):
            raise ValueError("every setting's counts must have the same positive sum")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_per_setting", int(totals[0]))

    @property
    def settings(self) -> tuple:
        return self.measurement.settings


@dataclass(frozen=True)
class ReconstructionResult:
    """Maximum-likelihood estimate with its convergence record: why the
    solver stopped ("certified", "max_iters" or "singular") and the final
    bound N (lambda_max(R) - 1) on how far L(estimate) lies below L_max."""

    estimate: DensityMatrix
    log_likelihood_trace: tuple
    stop: str
    gap_bound: float

    def __post_init__(self):
        if not isinstance(self.estimate, DensityMatrix):
            raise TypeError("estimate must be a DensityMatrix")
        if self.stop not in STOPS:
            raise ValueError(f"stop must be one of {STOPS}")
        trace = tuple(float(v) for v in self.log_likelihood_trace)
        if not trace:
            raise ValueError("log-likelihood trace must be non-empty")
        if any(b - a < -LOGLIK_GAIN_TOL for a, b in zip(trace, trace[1:])):
            raise ValueError("log-likelihood trace decreased beyond tolerance")
        object.__setattr__(self, "log_likelihood_trace", trace)
        object.__setattr__(self, "gap_bound", float(self.gap_bound))

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood_trace) - 1

    @property
    def converged(self) -> bool:
        return self.stop == "certified"

    @property
    def singular_data(self) -> bool:
        return self.stop == "singular"

    def to_json_dict(self) -> dict:
        return {
            "estimate": [[z.real, z.imag] for z in self.estimate.entries.ravel()],
            "iterations": self.iterations,
            "converged": self.converged,
            "final_loglik": self.log_likelihood_trace[-1],
            "singular_data": self.singular_data,
            "gap_bound": self.gap_bound,
            "stop": self.stop,
        }


def _checked_seed(seed) -> int:
    seed = _checked_integer(seed, "seed")
    if not 0 <= seed < MAX_SEED:
        raise ValueError("seed must be a 64-bit non-negative integer")
    return seed


def sample_homodyne(rho: DensityMatrix, theta: float, n_samples: int, seed: int) -> np.ndarray:
    """i.i.d. quadrature outcomes drawn from the homodyne density at theta.

    Inverse-CDF sampling on a 4096-point grid over [-x_max, x_max] with
    linear interpolation; bit-reproducible for a fixed seed.
    """
    n_samples = _checked_integer(n_samples, "n_samples", 1)
    seed = _checked_seed(seed)
    x_max = default_x_max(rho.dim)
    xs = np.linspace(-x_max, x_max, SAMPLING_GRID_POINTS)
    pdf = np.clip(homodyne_pdf_grid(rho, theta, xs), 0.0, None)
    dx = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(n_samples)
    return np.interp(u, cdf, xs)


def bin_samples(samples, layout: BinLayout) -> np.ndarray:
    """Counts per bin, ordered like the layout's intervals.

    NaN is rejected.  With overflow bins the tails (+-inf too) are captured and
    the counts always sum to the sample count; without them, outliers are dropped.
    """
    samples = np.asarray(samples, dtype=float)
    if np.isnan(samples).any():
        raise ValueError("samples must not be NaN")
    edges = layout.edges()
    inner, _ = np.histogram(samples, bins=edges)
    if not layout.include_overflow:
        return inner.astype(np.int64)
    left = int(np.sum(samples < edges[0]))
    right = int(np.sum(samples > edges[-1]))
    return np.concatenate([[left], inner, [right]]).astype(np.int64)


def simulate_dataset(
    rho: DensityMatrix, measurement, total_per_setting: int, seed: int
) -> MeasurementData:
    """Multinomial counts drawn from the exact Tr(rho E_j) for each setting.

    Setting i draws from its own stream, default_rng([seed, i]), so no two
    (seed, setting) pairs share one and the result does not depend on
    evaluation order.  A draw outside a setting's outcomes (a homodyne
    layout without overflow bins) raises ValueError, since the setting's
    counts would then fall short of total_per_setting.
    """
    if rho.dim != measurement.dim:
        raise ValueError(f"state dim {rho.dim} != measurement dim {measurement.dim}")
    total_per_setting = _checked_integer(total_per_setting, "total_per_setting", 1)
    seed = _checked_seed(seed)
    probs = np.clip(measurement.born @ real_coordinates(rho.entries), 0.0, None)
    counts = []
    for i, p in enumerate(probs.reshape(len(measurement.settings), -1)):
        outcomes = np.append(p, max(0.0, 1.0 - p.sum()))  # last: mass outside the outcomes
        draw = np.random.default_rng([seed, i]).multinomial(total_per_setting, outcomes)
        if draw[-1]:
            raise ValueError("draws fell outside the outcomes: counts must sum to total_per_setting")
        counts.append(draw[:-1])
    return MeasurementData(measurement=measurement, counts=counts)


def _congruence(s: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """s^+ A s for a stack of A: two products over the stack, 3x faster than stacked matmul."""
    right = (ops.reshape(-1, len(s)) @ s).reshape(ops.shape).transpose(0, 2, 1)  # (A s)^T
    return (right.reshape(-1, len(s)) @ s.conj()).reshape(ops.shape).transpose(0, 2, 1)


def ml_reconstruct(data: MeasurementData, *, max_iters: int = 5000) -> ReconstructionResult:
    """Maximum-likelihood estimate on the POVM elements data carries.

    Newton's method on L(rho) + mu log det rho under Tr rho = 1, L summed
    over the observed bins (n_j > 0), from I / dim with mu = N / dim.  mu
    shrinks tenfold once the iterate is centred (a Newton step would raise
    the objective over mu by under CENTRED_RISE nats), down to
    mu dim = BARRIER_FLOOR, and further while the step would not raise L.
    The line search tries t = 1, or t = BOUNDARY_FRACTION / worst when the
    boundary lies at t = 1 / worst <= 1 (worst the largest of -lambda(Y) and
    -dp_j / p_j), then halves t; it keeps rho > 0 and takes a step only if L
    rises and the objective rises enough, so the trace (L at the start plus
    the rise of each Newton step, 0 for a failed line search) never
    decreases.  Stops "certified" once N (lambda_max(R) - 1) <= ML_GAP_TOL,
    checked before the first step and after every one, else "max_iters"; an
    observed bin whose p reaches the 1e-300 floor stops it "singular" and
    warns.
    """
    max_iters = _checked_integer(max_iters, "max_iters", 0)
    dim = data.measurement.dim
    counts = data.counts.ravel().astype(float)
    total = counts.sum()
    seen = np.flatnonzero(counts)
    seen_counts = counts[seen]
    root_counts = np.sqrt(seen_counts)
    born = data.measurement.born[seen]
    elements = data.measurement.elements[seen]
    unit, eye = real_coordinates(np.eye(dim)), np.eye(dim * dim)  # v(I), and I on y
    bordered, rhs = np.zeros((dim * dim + 1,) * 2), np.zeros(dim * dim + 1)  # [H, c; c^T, 0], [slope; 0]

    def gap(p):  # N (lambda_max(R) - 1), R = sum_j (f_j / p_j) E_j
        r_op = ((seen_counts / (total * p)) @ elements.reshape(len(p), -1)).reshape(dim, dim)
        return total * (np.linalg.eigvalsh(r_op)[-1] - 1.0)

    rho = np.eye(dim, dtype=complex) / dim
    p = np.maximum(born @ real_coordinates(rho), PROBABILITY_FLOOR)
    bound = gap(p)
    loglik = math.fsum((seen_counts * np.log(p)).tolist())
    trace = [loglik]
    mu, mu_min = total / dim, BARRIER_FLOOR / dim

    for _ in range(max_iters):
        if p.min() <= PROBABILITY_FLOOR or bound <= ML_GAP_TOL:
            break
        # Steps d_rho = S Y S^+ with S S^+ = rho: in y = v(Y) the barrier's
        # Hessian is mu I however ill-conditioned rho is (Newton is affine invariant)
        evals, evecs = np.linalg.eigh(rho)
        scale = evecs * np.sqrt(evals)
        scaled = _real_parts(_congruence(scale, elements))  # v(S^+ E_j S)
        grad = scaled.T @ (seen_counts / p)
        weighted = scaled * (root_counts / p)[:, None]
        curvature = weighted.T @ weighted
        bordered[-1, :dim] = bordered[:dim, -1] = evals  # Tr(S Y S^+) = Tr(Lambda Y)
        while True:
            bordered[:-1, :-1] = curvature + mu * eye
            slope = rhs[:-1] = grad + mu * unit
            step = np.linalg.solve(bordered, rhs)[:-1]
            decrement = slope @ step  # lambda^2: a Newton step gains about half of it
            # centred on the scale of the objective over mu (self-concordant there);
            # the ascent rule stops where mu is lost against the N-sized curvature
            if mu > mu_min and decrement <= 2.0 * CENTRED_RISE * mu:
                mu = max(mu / 10.0, mu_min)
            elif grad @ step <= 0.0 and mu > total * np.finfo(float).eps:
                mu /= 10.0
            else:
                break
        ratio = (scaled @ step) / p  # dp_j / p_j
        y = _coordinates_to_hermitian(step)
        lam = np.linalg.eigvalsh(y)  # rho + t d_rho > 0 iff all 1 + t lam > 0
        worst = max(-lam[0], -ratio.min())  # the boundary lies at t = 1 / worst
        t, gain = (BOUNDARY_FRACTION / worst if worst >= 1.0 else 1.0), 0.0
        for _ in range(50):  # the rise comes from dp / p: L(new) - L(old) would be rounding noise
            rise = math.fsum((seen_counts * np.log1p(t * ratio)).tolist())
            if rise > 0.0 and rise + mu * np.log1p(t * lam).sum() >= 0.01 * t * decrement:
                gain = rise
                break
            t *= 0.5
        if gain > 0.0:
            move = scale @ (t * y) @ scale.conj().T
            rho = rho + 0.5 * (move + move.conj().T)
            p = np.maximum(p * (1.0 + t * ratio), PROBABILITY_FLOOR)  # p + B v(t d_rho)
            bound = gap(p)
            loglik += gain
        trace.append(loglik)

    if p.min() <= PROBABILITY_FLOOR:
        stop = "singular"
        warnings.warn(
            "zero-probability bins held non-zero counts; likelihood floored at 1e-300",
            RuntimeWarning,
        )
    else:
        stop = "certified" if bound <= ML_GAP_TOL else "max_iters"
    return ReconstructionResult(
        estimate=DensityMatrix(rho),
        log_likelihood_trace=trace,
        stop=stop,
        gap_bound=bound,
    )


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise ValueError("density matrices must share the same dim")
    w, v = np.linalg.eigh(rho.entries)
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    mid = sqrt_rho @ sigma.entries @ sqrt_rho
    lam = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    lam = np.clip(lam, 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2)


def ambiguity_witness(states, measurement) -> float:
    """Largest spread of predicted outcome probabilities across the states.

    Zero means no outcome of the measurement can tell the states apart.
    """
    states = list(states)
    if not states:
        raise ValueError("at least one state is required")
    if any(state.dim != measurement.dim for state in states):
        raise ValueError(f"state dims {[s.dim for s in states]} != measurement dim {measurement.dim}")
    # Tr((rho_s - rho_0) E_j): a copy of the first state gives exactly 0
    rhos = real_coordinates(np.stack([state.entries for state in states]))
    shifts = (rhos - rhos[0]) @ measurement.born.T
    return float(np.max(shifts.max(axis=0) - shifts.min(axis=0), initial=0.0))

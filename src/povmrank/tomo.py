"""Homodyne data simulation and maximum-likelihood state reconstruction.

Informationally complete settings must recover the state operationally;
incomplete ones must leave the corresponding ambiguities visible.  One Born
map rho -> Tr(rho E_j) gives every bin probability: simulated counts are
multinomial draws from it (sample_homodyne and bin_samples are for raw
samples), and the estimator maximizes L(rho) = sum_j n_j log p_j by
accelerated projected gradient with restarts (Shang, Zhang and Ng, PRA 95,
062336 (2017)).  It stops once the concavity bound
L_max - L(rho) <= N (lambda_max(R) - 1), R = sum_j (f_j / p_j) E_j
(Glancy, Knill and Girard, NJP 14, 095017 (2012)), certifies the estimate
to within ML_GAP_TOL nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityMatrix, _checked_integer, _checked_phases, homodyne_pdf_grid
from .povm import BinLayout, build_binned_quadrature_povm, default_x_max

__all__ = [
    "BinnedHomodyne",
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


@dataclass(frozen=True, eq=False)
class BinnedHomodyne:
    """Binned homodyne on dim levels, one layout at every phase, with the one
    POVM set per phase that ``povms`` always builds from them."""

    phases: tuple
    layout: BinLayout
    dim: int
    povms: tuple = field(init=False)

    def __post_init__(self):
        phases = _checked_phases(self.phases)
        if not isinstance(self.layout, BinLayout):
            raise TypeError("layout must be a BinLayout")
        dim = _checked_integer(self.dim, "dim")
        povms = tuple(build_binned_quadrature_povm(t, self.layout, dim) for t in phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "povms", povms)


@dataclass(frozen=True, eq=False)
class MeasurementData:
    """Per-setting, per-bin event counts of one measurement, simulated or
    measured; the estimator reads the POVM sets from it.  Every setting's
    counts share one positive sum, ``total_per_setting``."""

    measurement: BinnedHomodyne
    counts: tuple  # of read-only int64 vectors, one per POVM set of the measurement
    total_per_setting: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.measurement, BinnedHomodyne):
            raise TypeError("measurement must be a BinnedHomodyne")
        if len(self.counts) != len(self.measurement.povms):
            raise ValueError("one count vector per setting is required")
        counts = []
        for povm, vec in zip(self.measurement.povms, self.counts):
            arr = np.asarray(vec)  # NaN and inf fail the bound, so the cast never sees them
            if not (np.all(np.abs(arr) < 2.0**63) and np.array_equal(arr.astype(np.int64), arr)):
                raise ValueError("counts must be whole numbers")
            arr = arr.astype(np.int64)
            if arr.size != len(povm.elements):
                raise ValueError("count vector length does not match the POVM set")
            if np.any(arr < 0):
                raise ValueError("counts must be non-negative")
            arr.flags.writeable = False
            counts.append(arr)
        totals = {int(arr.sum()) for arr in counts}
        if len(totals) != 1 or min(totals) < 1:
            raise ValueError("every setting's counts must have the same positive sum")
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "total_per_setting", totals.pop())

    @property
    def settings(self) -> tuple:
        return tuple((theta, self.measurement.layout) for theta in self.measurement.phases)


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
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
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


def _born_rows(povms) -> np.ndarray:
    """B_j = conj(vec E_j): real(B @ vec rho) is Tr(rho E_j), (w @ B).conj() is sum_j w_j E_j."""
    return np.concatenate([ps.elements.reshape(len(ps.elements), -1) for ps in povms]).conj()


def simulate_dataset(
    rho: DensityMatrix, phases, layout: BinLayout, total_per_setting: int, seed: int
) -> MeasurementData:
    """Multinomial bin counts drawn from the exact Tr(rho E_j) for each phase.

    Setting i uses the derived seed (seed XOR i), so settings can be drawn
    independently and the result does not depend on evaluation order.  A
    draw outside the layout (possible only without overflow bins) raises
    ValueError, since the setting's counts would then fall short of
    total_per_setting.
    """
    total_per_setting = _checked_integer(total_per_setting, "total_per_setting")
    if total_per_setting < 1:
        raise ValueError("total_per_setting must be positive")
    seed = _checked_seed(seed)
    measurement = BinnedHomodyne(phases, layout, rho.dim)
    probs = np.clip(np.real(_born_rows(measurement.povms) @ rho.entries.ravel()), 0.0, None)
    counts = []
    for i, p in enumerate(probs.reshape(len(measurement.phases), layout.n_elements)):
        outcomes = np.append(p, max(0.0, 1.0 - p.sum()))  # last: mass outside the layout
        draw = np.random.default_rng(seed ^ i).multinomial(total_per_setting, outcomes)
        if draw[-1]:
            raise ValueError("draws fell outside the layout: counts must sum to total_per_setting")
        counts.append(draw[:-1])
    return MeasurementData(measurement=measurement, counts=counts)


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix to the Hermitian h in Frobenius norm: its
    eigenvalues projected onto the probability simplex."""
    w, v = np.linalg.eigh(h)
    # eigh sorts w ascending; the simplex shift tau comes from the largest r values
    excess = np.cumsum(w[::-1]) - 1.0
    r = np.flatnonzero(w[::-1] * np.arange(1, len(w) + 1) > excess)[-1]
    x = np.maximum(w - excess[r] / (r + 1), 0.0)
    return (v * x) @ v.conj().T


def ml_reconstruct(data: MeasurementData, *, max_iters: int = 5000) -> ReconstructionResult:
    """Maximum-likelihood estimate on the POVM sets data carries.

    Accelerated projected gradient on L(rho) = sum_j n_j log p_j over the
    observed bins (n_j > 0), from the maximally mixed state, with
    deterministic step halving and momentum restarts, so the trace (L at the
    start plus the rise of every step tried, 0 for a rejected one) never
    decreases.  Stops "certified" once N (lambda_max(R) - 1) <= ML_GAP_TOL,
    checked before the first step and after every accepted one, else
    "max_iters".  p is floored at 1e-300; an observed bin at the floor stops
    it "singular" and warns.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    born = _born_rows(data.measurement.povms)
    dim = data.measurement.dim
    counts = np.concatenate(data.counts).astype(float)
    total = counts.sum()
    frequencies = counts / total
    seen = np.flatnonzero(counts)
    seen_counts = counts[seen]
    born_seen = born[seen]

    def probabilities(rho):  # floored, since R divides by them
        return np.maximum(np.real(born @ rho.ravel()), PROBABILITY_FLOOR)

    def rise(p, move):
        # L(x + move) - L(x) from p = p(x) and the change of p itself, exact to
        # rounding of the rise: near the optimum rises fall below the rounding
        # of L(x) (2e-10 at |L| = 1e6), where L(x + move) - L(x) is noise
        dp = np.real(born_seen @ move.ravel())
        return math.fsum((seen_counts * np.log1p(dp / p[seen])).tolist())

    def gradient(p):  # R = sum_j (f_j / p_j) E_j, the gradient of L / N
        r_op = ((frequencies / p) @ born).conj().reshape(dim, dim)
        return 0.5 * (r_op + r_op.conj().T)

    def gap(r_op):
        return total * (np.linalg.eigvalsh(r_op)[-1] - 1.0)

    rho = np.eye(dim, dtype=complex) / dim
    p = probabilities(rho)
    lowest = p[seen].min()
    loglik = math.fsum((seen_counts * np.log(p[seen])).tolist())
    grad = gradient(p)
    bound = gap(grad)
    trace = [loglik]
    # the momentum point sigma, with its p, R and L(sigma) - L(rho)
    base, base_p, base_grad, ahead = rho, p, grad, 0.0
    theta, step = 1.0, 1.0

    for _ in range(max_iters):
        if lowest <= PROBABILITY_FLOOR or bound <= ML_GAP_TOL:
            break
        cand = _project_to_states(base + step * base_grad)
        p_cand = probabilities(cand)
        lowest = min(lowest, p_cand[seen].min())
        move = (cand - base).ravel()
        gain = rise(base_p, move)
        # sufficient rise L(cand) - L(sigma) >= N (<R, move> - |move|^2 / 2t), times 2t;
        # written as "not >=" so that a NaN rise (p rounded below 0) also fails it
        if not 2 * step * gain >= total * (2 * step * np.vdot(base_grad.ravel(), move).real
                                           - np.vdot(move, move).real):
            step *= 0.5  # too long for the local curvature
        elif ahead + gain < 0:  # would lower L: restart the momentum from rho
            if base is rho:  # no momentum to blame, only rounding
                step *= 0.5
            base, base_p, base_grad, ahead, theta = rho, p, grad, 0.0, 1.0
        else:
            prev, rho, p = rho, cand, p_cand
            loglik += ahead + gain
            grad = gradient(p)
            bound = gap(grad)
            step *= 1.25
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            momentum = (theta - 1.0) / theta_next
            theta = theta_next
            base, base_p, base_grad, ahead = rho, p, grad, 0.0
            if momentum > 0.0:
                point = rho + momentum * (rho - prev)
                point_p = probabilities(point)
                if point_p[seen].min() > PROBABILITY_FLOOR:
                    base, base_p, base_grad = point, point_p, gradient(point_p)
                    ahead = rise(p, point - rho)
                else:  # the momentum left the states every observed bin allows
                    theta = 1.0
        trace.append(loglik)

    if lowest <= PROBABILITY_FLOOR:
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


def ambiguity_witness(states, phases, layout: BinLayout) -> float:
    """Largest spread of predicted bin probabilities across the states.

    Zero means no setting/bin of the measurement can tell the states apart.
    """
    states = list(states)
    if not states:
        raise ValueError("at least one state is required")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("states must share the same dim")
    phases = tuple(phases)
    if not phases:  # no setting, so nothing tells the states apart
        return 0.0
    born = _born_rows(BinnedHomodyne(phases, layout, dim).povms)
    # Tr((rho_s - rho_0) E_j): a copy of the first state gives exactly 0
    rhos = np.stack([state.entries.ravel() for state in states])
    shifts = np.real((rhos - rhos[0]) @ born.T)
    return float(np.max(shifts.max(axis=0) - shifts.min(axis=0), initial=0.0))

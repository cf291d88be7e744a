"""Homodyne data simulation and maximum-likelihood state reconstruction.

Informationally complete settings must recover the state operationally;
incomplete ones must leave the corresponding ambiguities visible.  One Born
map rho -> Tr(rho E_j) gives every bin probability: simulated counts are
multinomial draws from it (sample_homodyne and bin_samples are for raw
samples), and the estimator is the diluted R-rho-R iteration of Rehacek et al.,
PRA 75, 042108 (2007): rho <- N[(1-e+eR) rho (1-e+eR)] with
R(rho) = sum_j (f_j / p_j(rho)) E_j and the constant dilution e = 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import DensityMatrix, homodyne_pdf_grid
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
DILUTION = 0.5


@dataclass(frozen=True, eq=False)
class BinnedHomodyne:
    """Binned homodyne on dim levels, one layout at every phase, with the one
    POVM set per phase that ``povms`` always builds from them."""

    phases: tuple
    layout: BinLayout
    dim: int
    povms: tuple = field(init=False)

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if not phases:
            raise ValueError("at least one phase is required")
        if not isinstance(self.layout, BinLayout):
            raise TypeError("layout must be a BinLayout")
        povms = tuple(build_binned_quadrature_povm(t, self.layout, self.dim) for t in phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "povms", povms)


@dataclass(frozen=True, eq=False)
class MeasurementData:
    """Per-setting, per-bin event counts drawn from one measurement, with
    sampling provenance; the estimator reads the POVM sets from it."""

    measurement: BinnedHomodyne
    counts: tuple  # of read-only int64 vectors, one per POVM set of the measurement
    total_per_setting: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.measurement, BinnedHomodyne):
            raise TypeError("measurement must be a BinnedHomodyne")
        if self.total_per_setting < 1:
            raise ValueError("total_per_setting must be positive")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError("seed must be a 64-bit non-negative integer")
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
            if int(arr.sum()) != self.total_per_setting:
                raise ValueError("per-setting counts must sum to total_per_setting")
            arr.flags.writeable = False
            counts.append(arr)
        object.__setattr__(self, "counts", tuple(counts))

    @property
    def settings(self) -> tuple:
        return tuple((theta, self.measurement.layout) for theta in self.measurement.phases)

    def to_json_dict(self) -> dict:
        return {
            "settings": list(self.measurement.phases),
            "layouts": [self.measurement.layout.to_json_dict() for _ in self.counts],
            "counts": [[int(c) for c in vec] for vec in self.counts],
            "seed": self.seed,
            "totals": [self.total_per_setting] * len(self.counts),
            "dim": self.measurement.dim,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MeasurementData":
        totals = set(int(t) for t in data["totals"])
        layouts = set(BinLayout.from_json_dict(d) for d in data["layouts"])
        if len(totals) != 1 or len(layouts) != 1:
            raise ValueError("totals and layouts must be uniform across settings")
        return cls(
            measurement=BinnedHomodyne(data["settings"], layouts.pop(), int(data["dim"])),
            counts=data["counts"],
            total_per_setting=totals.pop(),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class ReconstructionResult:
    """Maximum-likelihood estimate with its convergence record."""

    estimate: DensityMatrix
    log_likelihood_trace: tuple
    converged: bool
    singular_data: bool = False

    def __post_init__(self):
        if not isinstance(self.estimate, DensityMatrix):
            raise TypeError("estimate must be a DensityMatrix")
        trace = tuple(float(v) for v in self.log_likelihood_trace)
        if not trace:
            raise ValueError("log-likelihood trace must be non-empty")
        if any(b - a < -LOGLIK_GAIN_TOL for a, b in zip(trace, trace[1:])):
            raise ValueError("log-likelihood trace decreased beyond tolerance")
        object.__setattr__(self, "log_likelihood_trace", trace)

    @property
    def iterations(self) -> int:
        return len(self.log_likelihood_trace) - 1

    def to_json_dict(self) -> dict:
        return {
            "estimate": [[z.real, z.imag] for z in self.estimate.entries.ravel()],
            "iterations": self.iterations,
            "converged": self.converged,
            "final_loglik": self.log_likelihood_trace[-1],
            "singular_data": self.singular_data,
        }


def sample_homodyne(rho: DensityMatrix, theta: float, n_samples: int, seed: int) -> np.ndarray:
    """i.i.d. quadrature outcomes drawn from the homodyne density at theta.

    Inverse-CDF sampling on a 4096-point grid over [-x_max, x_max] with
    linear interpolation; bit-reproducible for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0 <= seed < MAX_SEED:
        raise ValueError("seed must be a 64-bit non-negative integer")
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
    independently and the result does not depend on evaluation order.  Draws
    outside the layout (possible only without overflow bins) are dropped.
    """
    if total_per_setting < 1:
        raise ValueError("total_per_setting must be positive")
    if not 0 <= seed < MAX_SEED:
        raise ValueError("seed must be a 64-bit non-negative integer")
    measurement = BinnedHomodyne(phases, layout, rho.dim)
    probs = np.clip(np.real(_born_rows(measurement.povms) @ rho.entries.ravel()), 0.0, None)
    counts = []
    for i, p in enumerate(probs.reshape(len(measurement.phases), layout.n_elements)):
        outcomes = np.append(p, max(0.0, 1.0 - p.sum()))  # last: mass outside the layout
        counts.append(np.random.default_rng(seed ^ i).multinomial(total_per_setting, outcomes)[:-1])
    return MeasurementData(
        measurement=measurement,
        counts=counts,
        total_per_setting=total_per_setting,
        seed=seed,
    )


def ml_reconstruct(data: MeasurementData, *, max_iters: int = 5000) -> ReconstructionResult:
    """Diluted R-rho-R maximum-likelihood estimate on the POVM sets data carries.

    Starts from the maximally mixed state and iterates with e = DILUTION
    until the log-likelihood sum_j n_j log p_j over the observed bins
    (n_j > 0) gains less than 1e-10 or max_iters is reached.  A step that
    would lower it halves e (deterministically), so the trace never
    decreases.  p is floored at 1e-300; an observed bin at the floor sets
    singular_data and warns.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    born = _born_rows(data.measurement.povms)
    dim = data.measurement.dim
    counts = np.concatenate(data.counts).astype(float)
    frequencies = counts / counts.sum()
    seen = np.flatnonzero(counts)
    seen_counts = counts[seen]
    eye = np.eye(dim, dtype=complex)

    def likelihood(rho):
        # floored p for all bins (R divides by it); loglik and min p over seen
        p = np.maximum(np.real(born @ rho.ravel()), PROBABILITY_FLOOR)
        p_seen = p[seen]
        return p, math.fsum((seen_counts * np.log(p_seen)).tolist()), p_seen.min()

    rho = eye / dim
    p, loglik, lowest = likelihood(rho)
    trace = [loglik]
    converged = False

    for _ in range(max_iters):
        r_op = ((frequencies / p) @ born).conj().reshape(dim, dim)
        r_op = 0.5 * (r_op + r_op.conj().T)
        step = DILUTION
        for _ in range(40):
            grow = (1.0 - step) * eye + step * r_op
            cand = grow @ rho @ grow
            cand = 0.5 * (cand + cand.conj().T)
            cand /= np.trace(cand).real
            p_cand, loglik, p_low = likelihood(cand)
            lowest = min(lowest, p_low)
            if loglik >= trace[-1]:
                break
            step *= 0.5
        else:  # no dilution raised the likelihood
            converged = True
            break
        rho, p = cand, p_cand
        trace.append(loglik)
        if trace[-1] - trace[-2] < LOGLIK_GAIN_TOL:
            converged = True
            break

    singular = bool(lowest <= PROBABILITY_FLOOR)
    if singular:
        warnings.warn(
            "zero-probability bins held non-zero counts; likelihood floored at 1e-300",
            RuntimeWarning,
        )
    return ReconstructionResult(
        estimate=DensityMatrix(rho),
        log_likelihood_trace=trace,
        converged=converged,
        singular_data=singular,
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

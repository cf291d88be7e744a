"""Homodyne data simulation and maximum-likelihood state reconstruction.

Informationally complete settings must recover the state operationally;
incomplete ones must leave the corresponding ambiguities visible.  One Born
map rho -> Tr(rho E_j) gives every bin probability: simulated counts are
multinomial draws from it (sample_homodyne and bin_samples are for raw
samples), and the estimator is the diluted fixed-point iteration
rho <- N[(1-e+eR) rho (1-e+eR)] with R(rho) = sum_j (f_j / p_j(rho)) E_j.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, homodyne_pdf_grid
from .povm import BinLayout, PovmSet, build_binned_quadrature_povm, default_x_max

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


@dataclass
class MeasurementData:
    """Per-setting, per-bin event counts with sampling provenance."""

    settings: list  # of (phase, BinLayout)
    counts: list  # of integer vectors, aligned with the settings
    total_per_setting: int
    seed: int

    def __post_init__(self):
        if self.total_per_setting < 1:
            raise ValueError("total_per_setting must be positive")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError("seed must be a 64-bit non-negative integer")
        if len(self.settings) != len(self.counts) or not self.settings:
            raise ValueError("settings and counts must align and be non-empty")
        settings = []
        counts = []
        for (phase, layout), vec in zip(self.settings, self.counts):
            if not isinstance(layout, BinLayout):
                raise TypeError("each setting needs a BinLayout")
            arr = np.asarray(vec, dtype=np.int64)
            if arr.size != layout.n_elements:
                raise ValueError("count vector length does not match the layout")
            if np.any(arr < 0):
                raise ValueError("counts must be non-negative")
            if int(arr.sum()) != self.total_per_setting:
                raise ValueError("per-setting counts must sum to total_per_setting")
            settings.append((float(phase), layout))
            counts.append(arr)
        self.settings = settings
        self.counts = counts

    def to_json_dict(self) -> dict:
        return {
            "settings": [phase for phase, _ in self.settings],
            "layouts": [layout.to_json_dict() for _, layout in self.settings],
            "counts": [[int(c) for c in vec] for vec in self.counts],
            "seed": self.seed,
            "totals": [self.total_per_setting] * len(self.settings),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MeasurementData":
        totals = set(int(t) for t in data["totals"])
        if len(totals) != 1:
            raise ValueError("totals must be uniform across settings")
        layouts = [BinLayout.from_json_dict(d) for d in data["layouts"]]
        return cls(
            settings=list(zip((float(p) for p in data["settings"]), layouts)),
            counts=[np.array(vec, dtype=np.int64) for vec in data["counts"]],
            total_per_setting=totals.pop(),
            seed=int(data["seed"]),
        )


@dataclass
class ReconstructionResult:
    """Maximum-likelihood estimate with its convergence record."""

    estimate: DensityMatrix
    log_likelihood_trace: list
    iterations: int
    converged: bool
    singular_data: bool = False

    def __post_init__(self):
        if not isinstance(self.estimate, DensityMatrix):
            raise TypeError("estimate must be a DensityMatrix")
        trace = [float(v) for v in self.log_likelihood_trace]
        if not trace:
            raise ValueError("log-likelihood trace must be non-empty")
        if any(b - a < -LOGLIK_GAIN_TOL for a, b in zip(trace, trace[1:])):
            raise ValueError("log-likelihood trace decreased beyond tolerance")
        self.log_likelihood_trace = trace

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

    With overflow bins the two tails are captured and the counts always sum
    to the sample count; without them, outliers are dropped.
    """
    samples = np.asarray(samples, dtype=float)
    edges = layout.edges()
    inner, _ = np.histogram(samples, bins=edges)
    if not layout.include_overflow:
        return inner.astype(np.int64)
    left = int(np.sum(samples < edges[0]))
    right = int(np.sum(samples > edges[-1]))
    return np.concatenate([[left], inner, [right]]).astype(np.int64)


def _born_rows(povms, dim: int) -> np.ndarray:
    """B_j = conj(vec E_j): real(B @ vec rho) is Tr(rho E_j), (w @ B).conj() is sum_j w_j E_j."""
    return np.array([el for povm in povms for el in povm.elements]).reshape(-1, dim * dim).conj()


def simulate_dataset(
    rho: DensityMatrix, phases, layout: BinLayout, total_per_setting: int, seed: int
) -> MeasurementData:
    """Multinomial bin counts drawn from the exact Tr(rho E_j) for each phase.

    Setting i uses the derived seed (seed XOR i), so settings can be drawn
    independently and the result does not depend on evaluation order.  Draws
    outside the layout (possible only without overflow bins) are dropped.
    """
    if total_per_setting < 1:
        raise ValueError("n_samples must be positive")
    if not 0 <= seed < MAX_SEED:
        raise ValueError("seed must be a 64-bit non-negative integer")
    phases = [float(p) for p in phases]
    povms = [build_binned_quadrature_povm(theta, layout, rho.dim) for theta in phases]
    probs = np.clip(np.real(_born_rows(povms, rho.dim) @ rho.entries.ravel()), 0.0, None)
    counts = []
    for i, p in enumerate(probs.reshape(len(phases), layout.n_elements)):
        outcomes = np.append(p, max(0.0, 1.0 - p.sum()))  # last: mass outside the layout
        counts.append(np.random.default_rng(seed ^ i).multinomial(total_per_setting, outcomes)[:-1])
    return MeasurementData(
        settings=[(theta, layout) for theta in phases],
        counts=counts,
        total_per_setting=total_per_setting,
        seed=seed,
    )


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    mask = counts > 0
    terms = counts[mask] * np.log(probs[mask])
    return math.fsum(terms.tolist())


def ml_reconstruct(
    data: MeasurementData,
    povms: list,
    dim: int,
    max_iters: int = 5000,
    epsilon: float = 0.5,
) -> ReconstructionResult:
    """Diluted R-rho-R maximum-likelihood reconstruction.

    Starts from the maximally mixed state and iterates
    rho <- N[(1-e+eR) rho (1-e+eR)] until the log-likelihood gain drops
    below 1e-10 or max_iters is reached.  If a full step ever lowers the
    likelihood, the dilution is halved for that step (deterministically),
    which keeps the recorded trace non-decreasing.  Bins with zero model
    probability but non-zero counts are flagged and floored at 1e-300.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    if len(povms) != len(data.settings):
        raise ValueError("one POVM set per measurement setting is required")
    for povm, vec in zip(povms, data.counts):
        if not isinstance(povm, PovmSet) or povm.dim != dim:
            raise ValueError("POVM sets must match dim")
        if len(povm.elements) != vec.size:
            raise ValueError("POVM element count does not match the data bins")
    born = _born_rows(povms, dim)
    counts = np.concatenate(data.counts).astype(float)
    frequencies = counts / counts.sum()
    eye = np.eye(dim, dtype=complex)

    singular = False

    def probs(rho):
        nonlocal singular
        p = np.real(born @ rho.ravel())
        singular |= bool(np.any((p <= PROBABILITY_FLOOR) & (counts > 0)))
        return np.clip(p, PROBABILITY_FLOOR, None)

    rho = eye / dim
    p = probs(rho)
    trace = [_log_likelihood(counts, p)]
    converged = False

    for _ in range(max_iters):
        r_op = ((frequencies / p) @ born).conj().reshape(dim, dim)
        r_op = 0.5 * (r_op + r_op.conj().T)
        step = epsilon
        for _ in range(40):
            grow = (1.0 - step) * eye + step * r_op
            cand = grow @ rho @ grow
            cand = 0.5 * (cand + cand.conj().T)
            cand /= np.trace(cand).real
            p_cand = probs(cand)
            ll_cand = _log_likelihood(counts, p_cand)
            if ll_cand >= trace[-1]:
                break
            step *= 0.5
        else:  # no dilution raised the likelihood
            converged = True
            break
        rho, p = cand, p_cand
        trace.append(ll_cand)
        if trace[-1] - trace[-2] < LOGLIK_GAIN_TOL:
            converged = True
            break

    if singular:
        warnings.warn(
            "zero-probability bins held non-zero counts; likelihood floored at 1e-300",
            RuntimeWarning,
        )
    return ReconstructionResult(
        estimate=DensityMatrix(rho),
        log_likelihood_trace=trace,
        iterations=len(trace) - 1,
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
    povms = [build_binned_quadrature_povm(float(theta), layout, dim) for theta in phases]
    # Tr((rho_s - rho_0) E_j): a copy of the first state gives exactly 0
    rhos = np.stack([state.entries.ravel() for state in states])
    shifts = np.real((rhos - rhos[0]) @ _born_rows(povms, dim).T)
    return float(np.max(shifts.max(axis=0) - shifts.min(axis=0), initial=0.0))

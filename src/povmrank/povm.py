"""Finite POVM construction on truncated Fock subspaces.

Binned quadrature projectors, the binned homodyne measurement and
displaced photon-number detectors.  A binned homodyne measurement is the
one type that holds and checks binned elements: one read-only stack with
its identity deficit.  A quadrature bin at phase theta is the phase-zero
bin turned by the phase shifter diag(e^{in theta}), entrywise a product
with ``_phase_shift``, so a measurement builds its bins once and turns
them to every phase.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    EIGENVALUE_FLOOR, _checked_integer, _checked_phases, hermite_function_table, real_coordinates,
)

__all__ = [
    "BinLayout",
    "BinnedHomodyne",
    "default_x_max",
    "quadrature_bin_operator",
    "build_binned_quadrature_povm",
    "displaced_number_operator",
]


def default_x_max(dim: int) -> float:
    """Half-width covering the classical turning point of level dim-1 with margin."""
    return math.sqrt(4.0 * dim + 8.0)


def _antiderivative(x: np.ndarray, dim: int) -> np.ndarray:
    """G[e, k, l] = int_{-inf}^{x_e} psi_k psi_l for finite x_e and k, l < dim.

    Off the diagonal by the Wronskian identity
    2(k-l) G_kl = psi_k psi_l' - psi_k' psi_l = psi_k phi_l - phi_k psi_l, where
    phi_n = sqrt(2n) psi_{n-1} is psi_n' + x psi_n (the x terms cancel).  On
    the diagonal by F_n = F_{n-1} - psi_n psi_{n-1} / sqrt(2n), F_0 = erfc(-x)/2.
    """
    n = np.arange(dim)
    psi = hermite_function_table(dim - 1, x).T  # [edge, n]
    phi = np.zeros_like(psi)
    phi[:, 1:] = np.sqrt(2.0 * n[1:]) * psi[:, :-1]
    wronskian = psi[:, :, None] * phi[:, None, :] - phi[:, :, None] * psi[:, None, :]
    gap = np.subtract.outer(n, n)
    np.fill_diagonal(gap, 1)
    g = wronskian / (2.0 * gap)
    diag = np.empty_like(psi)
    diag[:, 0] = [0.5 * math.erfc(-v) for v in x]
    for k in range(1, dim):
        diag[:, k] = diag[:, k - 1] - psi[:, k] * phi[:, k] / (2.0 * k)
    g[:, n, n] = diag
    return g


def _phase_shift(theta: float, dim: int) -> np.ndarray:
    """e^{i(k-l)theta}: entrywise, it conjugates an operator by diag(e^{in theta})."""
    phase = np.exp(1j * theta * np.arange(dim))
    return np.outer(phase, phase.conj())


def quadrature_bin_operator(theta: float, a, b, dim: int) -> np.ndarray:
    """Quadrature projectors integrated over the bin [a, b] on dim levels.

    Entries are M_kl = (int_a^b psi_k psi_l dx) e^{i(k-l)theta}; endpoints
    may be +-inf.  Each entry is G(b) - G(a) for the closed-form
    antiderivative G (Wronskian off the diagonal, a recursion from erfc on
    it), with G(-inf) = 0 and G(+inf) = identity, so the entries are exact
    to rounding and a full layout sums to the subspace identity to rounding.
    A bin with a >= 0 is (-1)^(k+l) times the bin (-b, -a), as psi_n is of
    parity n, so right-tail bins keep full relative precision.
    a and b may be equal-shape arrays of endpoints; the result is then the
    stack of their bins, shape a.shape + (dim, dim), with G evaluated once
    per distinct finite endpoint.
    """
    (theta,) = _checked_phases((theta,))
    dim = _checked_integer(dim, "dim")
    if dim < 1:
        raise ValueError("dim must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("bin endpoint arrays must have equal shapes")
    if not np.all(a < b):
        raise ValueError("bin requires a < b")
    right = a >= 0
    a, b = np.where(right, -b, a), np.where(right, -a, b)
    edges, where = np.unique(np.concatenate([a.ravel(), b.ravel()]), return_inverse=True)
    finite = np.isfinite(edges)
    g = np.zeros((edges.size, dim, dim))
    g[finite] = _antiderivative(edges[finite], dim)
    g[edges == math.inf] = np.eye(dim)
    g_a, g_b = g[where.reshape(2, -1)]
    bins = g_b - g_a
    bins[right.ravel()] *= (-1.0) ** np.add.outer(np.arange(dim), np.arange(dim))
    return bins.reshape(a.shape + (dim, dim)) * _phase_shift(theta, dim)


@dataclass(frozen=True)
class BinLayout:
    """Equal-width partition of [-x_max, x_max], optionally flanked by two
    half-infinite overflow bins."""

    x_max: float
    n_bins: int
    include_overflow: bool = True

    def __post_init__(self):
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise ValueError("x_max must be positive and finite")
        n_bins = self.n_bins
        if isinstance(n_bins, float) and n_bins.is_integer():
            n_bins = int(n_bins)
        if isinstance(n_bins, bool) or not isinstance(n_bins, numbers.Integral):
            raise TypeError("n_bins must be an integer")
        if n_bins < 1:
            raise ValueError("n_bins must be positive")
        object.__setattr__(self, "n_bins", int(n_bins))

    @property
    def n_elements(self) -> int:
        return self.n_bins + (2 if self.include_overflow else 0)

    def edges(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.n_bins + 1)

    def intervals(self):
        """Bin endpoints in ascending order, overflow bins outermost."""
        edges = self.edges()
        finite = list(zip(edges[:-1], edges[1:]))
        if self.include_overflow:
            return [(-math.inf, -self.x_max)] + finite + [(self.x_max, math.inf)]
        return finite


def build_binned_quadrature_povm(theta: float, layout: BinLayout, dim: int) -> BinnedHomodyne:
    """One operator per bin of the layout at phase theta, in ascending bin order."""
    return BinnedHomodyne((theta,), layout, dim)


@dataclass(frozen=True, eq=False)
class BinnedHomodyne:
    """Binned homodyne on dim levels, one layout at every phase: every phase's
    bins, ascending, in one read-only stack ``elements`` [m * n_el, dim, dim].
    The phase-0 bins are built and checked PSD once; each phase's block is
    their exact rotation, which keeps every spectrum and ``deficit``, the
    spectral norm of (identity - sum of one phase's bins).  ``born``, the real
    coordinates (born @ v(rho) is Tr(rho E_j)), is formed on first read."""

    phases: tuple
    layout: BinLayout
    dim: int
    elements: np.ndarray = field(init=False)
    deficit: float = field(init=False)

    def __post_init__(self):
        phases = _checked_phases(self.phases)
        if not isinstance(self.layout, BinLayout):
            raise TypeError("layout must be a BinLayout")
        dim = _checked_integer(self.dim, "dim")
        base = quadrature_bin_operator(0.0, *np.array(self.layout.intervals()).T, dim)
        eig_min = float(np.min(np.linalg.eigvalsh(base)))
        if eig_min < EIGENVALUE_FLOOR:
            raise ValueError(f"element is not PSD (min eigenvalue {eig_min:.3e})")
        deficit = float(np.linalg.norm(np.eye(dim) - np.sum(base, axis=0), ord=2))
        shifts = np.stack([_phase_shift(t, dim) for t in phases])[:, None]
        elements = (base * shifts).reshape(-1, dim, dim)  # one product, no copy
        elements.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "deficit", deficit)

    @functools.cached_property
    def born(self) -> np.ndarray:
        born = real_coordinates(self.elements)
        born.flags.writeable = False
        return born


def _displaced_projectors(beta: complex, n_detect: int, dim: int) -> np.ndarray:
    """Top-left dim-blocks of D(b)|n><n|D(b)^+ for n < n_detect, shape
    [n_detect, dim, dim].  D(b) = exp(b a^+ - b* a) is exponentiated on a
    truncated ladder through the eigendecomposition of its Hermitian
    generator, which keeps it exactly unitary; the ladder's
    dim + 4 ceil(|b|^2) + 20 levels (or n_detect, if more) keep truncation
    error in D(b)'s dim-block below ~1e-9."""
    work_dim = max(dim + 4 * math.ceil(abs(beta) ** 2) + 20, n_detect)
    displacement = np.eye(work_dim, dtype=complex)
    if beta != 0:
        lower = np.diag(np.sqrt(np.arange(1.0, work_dim)), 1)  # annihilation
        generator = beta * lower.T - beta.conjugate() * lower
        lam, vec = np.linalg.eigh(-1j * generator)
        displacement = (vec * np.exp(1j * lam)) @ vec.conj().T
    cols = displacement[:dim, :n_detect].T  # D(b)|n>, n < n_detect
    return cols[:, :, None] * cols[:, None, :].conj()


def displaced_number_operator(beta: complex, n: int, dim: int) -> np.ndarray:
    """Top-left dim-block of the displaced number projector D(b)|n><n|D(b)^+."""
    beta = complex(beta)
    n = _checked_integer(n, "n")
    dim = _checked_integer(dim, "dim")
    if n < 0:
        raise ValueError("n must be non-negative")
    if dim < 1:
        raise ValueError("dim must be positive")
    return _displaced_projectors(beta, n + 1, dim)[n]

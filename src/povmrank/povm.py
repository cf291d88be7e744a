"""Finite POVM construction on truncated Fock subspaces.

Binned quadrature projectors and two measurements, binned homodyne and
displaced photon counting, each holding its elements setting by setting
in one read-only stack.  A quadrature bin at phase theta is the phase-zero
bin turned by the phase shifter diag(e^{in theta}), entrywise a product
with ``_phase_shift``.  The phase-zero bins are real; a ``BinLayout``
builds and checks them once per dim and keeps them as long as it lives,
so every measurement on that layout, of one phase or many, turns the
same stack to its phases.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    EIGENVALUE_FLOOR, _checked_integer, _checked_phases, _Rebuilt, hermite_function_table,
    real_coordinates,
)

__all__ = [
    "BinLayout",
    "BinnedHomodyne",
    "DisplacedCounting",
    "default_x_max",
    "quadrature_bin_operator",
    "build_binned_quadrature_povm",
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
    """e^{i(k-l)theta}: entrywise, it conjugates an operator by diag(e^{in theta}).
    ValueError when n theta overflows for some n < dim."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(1j * theta * np.arange(dim))
    if not np.isfinite(phase).all():
        raise ValueError(f"phase {theta!r} on dim={dim} levels leaves the float range")
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
class BinLayout(_Rebuilt):
    """Equal-width partition of [-x_max, x_max], optionally flanked by two
    half-infinite overflow bins."""

    x_max: float
    n_bins: int
    include_overflow: bool = True
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.x_max, bool) or not isinstance(self.x_max, numbers.Real):
            raise TypeError("x_max must be a real number")
        x_max = float(self.x_max)
        if not (x_max > 0 and math.isfinite(x_max)):
            raise ValueError("x_max must be positive and finite")
        n_bins = self.n_bins
        if isinstance(n_bins, float) and n_bins.is_integer():
            n_bins = int(n_bins)
        if isinstance(n_bins, bool) or not isinstance(n_bins, numbers.Integral):
            raise TypeError("n_bins must be an integer")
        if n_bins < 1:
            raise ValueError("n_bins must be positive")
        if not isinstance(self.include_overflow, (bool, np.bool_)):
            raise TypeError("include_overflow must be a bool")
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "n_bins", int(n_bins))
        object.__setattr__(self, "include_overflow", bool(self.include_overflow))

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

    def _bins(self, dim: int) -> tuple:
        """(phase-0 bins on dim levels, their deficit): the bins as one real
        read-only stack, checked PSD, and the spectral norm of (identity -
        their sum).  Built on a layout's first use at dim; kept only if the
        check passes."""
        if dim not in self._memo:
            # copied: .real alone is a view that would keep the complex stack alive
            bins = quadrature_bin_operator(0.0, *np.array(self.intervals()).T, dim).real.copy()
            eig_min = float(np.min(np.linalg.eigvalsh(bins)))
            if eig_min < EIGENVALUE_FLOOR:
                raise ValueError(f"element is not PSD (min eigenvalue {eig_min:.3e})")
            deficit = float(np.linalg.norm(np.eye(dim) - np.sum(bins, axis=0), ord=2))
            bins.flags.writeable = False
            self._memo[dim] = (bins, deficit)
        return self._memo[dim]


def build_binned_quadrature_povm(theta: float, layout: BinLayout, dim: int) -> BinnedHomodyne:
    """One operator per bin of the layout at phase theta, in ascending bin order."""
    return BinnedHomodyne((theta,), layout, dim)


class _Measurement(_Rebuilt):
    @functools.cached_property
    def born(self) -> np.ndarray:
        """The elements' real coordinates, read-only: born @ v(rho) is Tr(rho E_j)."""
        born = real_coordinates(self.elements)
        born.flags.writeable = False
        return born


@dataclass(frozen=True, eq=False)
class BinnedHomodyne(_Measurement):
    """Binned homodyne on dim levels, one layout at every phase: every phase's
    bins, ascending, in ``elements`` [m * n_el, dim, dim].  Each phase's block
    is an exact rotation of the layout's checked phase-0 bins, which keeps
    every spectrum and ``deficit``, the spectral norm of (identity - sum of
    one phase's bins)."""

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
        base, deficit = self.layout._bins(dim)
        shifts = np.stack([_phase_shift(t, dim) for t in phases])[:, None]
        elements = (base * shifts).reshape(-1, dim, dim)  # one product, no copy
        elements.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "deficit", deficit)

    @property
    def settings(self) -> tuple:  # a (phase, layout) pair per block of elements
        return tuple((theta, self.layout) for theta in self.phases)


def _displaced_projectors(beta: complex, n_detect: int, dim: int) -> np.ndarray:
    """D(b)|n><n|D(b)^+ on dim levels for n < n_detect, from <k|D(b)|n> =
    sqrt(lo!/hi!) e^{-|b|^2/2} c^a L_lo^(a)(|b|^2), lo = min(k, n), a = |k - n|,
    c = b if k > n else -b* (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)):
    exact to rounding in O(n_detect dim^2), or ValueError outside the float range."""
    cols = np.eye(n_detect, dim, dtype=complex)
    if beta != 0:
        n, k = np.ogrid[:n_detect, :dim]
        with np.errstate(over="ignore", invalid="ignore"):
            lo, a, r = np.minimum(n, k), np.abs(n - k), np.abs(beta)
            x, unit, prev, cur, lag = r * r, beta / r, 0.0, 1.0, 1.0  # Python's division: finite at subnormal r
            for j in range(1, dim):  # Laguerre recurrence; lag keeps L_lo^(a)(x)
                prev, cur = cur, ((2 * j - 1 + a - x) * cur - (j - 1 + a) * prev) / j
                lag = np.where(lo == j, cur, lag)
            log_fact = np.cumsum(np.log(np.maximum(np.arange(n_detect), 1.0)))  # log n!
            size = np.exp(0.5 * (log_fact[lo] - log_fact[lo + a]) + a * np.log(r) - x / 2)
            cols = size * lag * np.where(k > n, unit, -unit.conjugate()) ** a
        if not np.isfinite(cols).all():
            raise ValueError(f"|beta|={r:.6g} on dim={dim} levels leaves the float range")
    return cols[:, :, None] * cols[:, None, :].conj()


@dataclass(frozen=True, eq=False)
class DisplacedCounting(_Measurement):
    """Photon counting behind a displacement D(b), a setting per b, on dim levels:
    ``elements`` [len(betas) * n_detect, dim, dim] are the projectors for n < n_detect
    (at least dim), n ascending, each exact to rounding.  With no remainder element
    I - sum_n E_n, a count of n >= n_detect falls outside the outcomes."""

    betas: tuple
    n_detect: int
    dim: int
    elements: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = tuple(complex(b) for b in self.betas)
        if not betas:
            raise ValueError("at least one displacement is required")
        if not np.isfinite(betas).all():
            raise ValueError("displacements must be finite")
        n_detect, dim = _checked_integer(self.n_detect, "n_detect"), _checked_integer(self.dim, "dim")
        if dim < 1:
            raise ValueError("dim must be positive")
        if n_detect < dim:
            raise ValueError("n_detect must be at least dim")
        elements = np.concatenate([_displaced_projectors(b, n_detect, dim) for b in betas])
        elements.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "n_detect", n_detect)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "elements", elements)

    @property
    def settings(self) -> tuple:  # a displacement per block of elements
        return self.betas

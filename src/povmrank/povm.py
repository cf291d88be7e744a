"""Finite POVM construction on truncated Fock subspaces.

Binned quadrature projectors and displaced photon-number detectors, each
set carrying a resolution-of-identity deficit certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import hermite_function_table

__all__ = [
    "BinLayout",
    "PovmSet",
    "default_x_max",
    "quadrature_bin_operator",
    "build_binned_quadrature_povm",
    "displaced_number_operator",
    "povm_deficit",
]

ELEMENT_HERMITIAN_TOL = 1e-10
ELEMENT_EIGENVALUE_FLOOR = -1e-10


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
    phase = np.exp(1j * theta * np.arange(dim))
    return bins.reshape(a.shape + (dim, dim)) * np.outer(phase, phase.conj())


def _identity_deficit(dim: int, elements) -> float:
    return float(np.linalg.norm(np.eye(dim) - np.sum(elements, axis=0), ord=2))


@dataclass
class PovmSet:
    """POVM elements on a dim-level subspace plus a completeness certificate.

    ``deficit`` is the spectral norm of (identity - sum of elements); it is
    computed at construction unless restored from serialized form.
    """

    dim: int
    elements: list
    label: str = ""
    deficit: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.elements) == 0:
            raise ValueError("a POVM set needs at least one element")
        if any(np.shape(el) != (self.dim, self.dim) for el in self.elements):
            raise ValueError("element shape does not match dim")
        els = np.asarray(self.elements, dtype=complex)
        adjoint = els.conj().swapaxes(-1, -2)
        asym = float(np.max(np.abs(els - adjoint)))
        if asym > ELEMENT_HERMITIAN_TOL:
            raise ValueError(f"element is not Hermitian (max asymmetry {asym:.3e})")
        eig_min = float(np.min(np.linalg.eigvalsh(0.5 * (els + adjoint))))
        if eig_min < ELEMENT_EIGENVALUE_FLOOR:
            raise ValueError(f"element is not PSD (min eigenvalue {eig_min:.3e})")
        self.elements = list(els)
        if self.deficit is None:
            self.deficit = _identity_deficit(self.dim, els)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "label": self.label,
            "deficit": self.deficit,
            "elements": [[[z.real, z.imag] for z in el.ravel()] for el in self.elements],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PovmSet":
        dim = int(data["dim"])
        # each [re, im] pair is one complex128, so a view restores it bit for bit
        pairs = np.asarray(data["elements"], dtype=float)
        elements = list(pairs.view(complex).reshape(len(pairs), dim, dim))
        return cls(dim=dim, elements=elements, label=data["label"], deficit=data["deficit"])


@dataclass
class BinLayout:
    """Equal-width partition of [-x_max, x_max], optionally flanked by two
    half-infinite overflow bins."""

    x_max: float
    n_bins: int
    include_overflow: bool = True

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValueError("x_max must be positive")
        if self.n_bins < 1:
            raise ValueError("n_bins must be positive")

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

    def to_json_dict(self) -> dict:
        return {
            "x_max": self.x_max,
            "n_bins": self.n_bins,
            "include_overflow": self.include_overflow,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinLayout":
        return cls(
            x_max=float(data["x_max"]),
            n_bins=int(data["n_bins"]),
            include_overflow=bool(data["include_overflow"]),
        )


def build_binned_quadrature_povm(theta: float, layout: BinLayout, dim: int) -> PovmSet:
    """One operator per bin of the layout at phase theta, in ascending bin order."""
    lo, hi = np.array(layout.intervals()).T
    elements = list(quadrature_bin_operator(theta, lo, hi, dim))
    label = (
        f"binned-quadrature theta={theta:.12g} n_bins={layout.n_bins} "
        f"x_max={layout.x_max:g} overflow={layout.include_overflow}"
    )
    return PovmSet(dim=dim, elements=elements, label=label)


def povm_deficit(povm: PovmSet) -> float:
    """Spectral norm of (identity - sum of elements)."""
    return _identity_deficit(povm.dim, povm.elements)


def _displacement(beta: complex, work_dim: int) -> np.ndarray:
    """D(b) = exp(b a^+ - b* a) on a work_dim truncated ladder, exponentiated
    through the eigendecomposition of its Hermitian generator, which keeps
    it exactly unitary."""
    if beta == 0:
        return np.eye(work_dim, dtype=complex)
    lower = np.diag(np.sqrt(np.arange(1.0, work_dim)), 1)  # annihilation
    generator = beta * lower.T - beta.conjugate() * lower
    lam, vec = np.linalg.eigh(-1j * generator)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def displaced_number_operator(
    beta: complex, n: int, dim: int, work_dim: int | None = None
) -> np.ndarray:
    """Top-left dim-block of the displaced number projector D(b)|n><n|D(b)^+.

    The displacement is built on a work_dim truncated ladder (see
    _displacement).  The lower bound on work_dim keeps truncation error in
    the returned block below ~1e-9.
    """
    beta = complex(beta)
    if n < 0:
        raise ValueError("n must be non-negative")
    if dim < 1:
        raise ValueError("dim must be positive")
    guard = dim + 4 * math.ceil(abs(beta) ** 2) + 20
    if work_dim is None:
        work_dim = max(guard, n + 1)
    if work_dim < guard:
        raise ValueError(f"work_dim {work_dim} below truncation guard {guard}")
    if n >= work_dim:
        raise ValueError("detector index n must lie inside the work space")
    col = _displacement(beta, work_dim)[:dim, n]
    return np.outer(col, col.conj())

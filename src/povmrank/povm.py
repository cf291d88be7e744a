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

# Adaptive bin integration refines until entries move by less than this.
ENTRY_TOL = 1e-12
ELEMENT_HERMITIAN_TOL = 1e-10
ELEMENT_EIGENVALUE_FLOOR = -1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def default_x_max(dim: int) -> float:
    """Half-width covering the classical turning point of level dim-1 with margin."""
    return math.sqrt(4.0 * dim + 8.0)


def _tail_cut(dim: int) -> float:
    # psi_k psi_l is below ~1e-30 past the top turning point + 10, k,l < dim
    return math.sqrt(2.0 * dim + 1.0) + 10.0


def _overlap_block(a: float, b: float, dim: int) -> np.ndarray:
    """Integrals of psi_k psi_l over finite [a, b] for all k, l < dim.

    32-node Gauss-Legendre per panel, panels doubled until the whole block
    changes by less than ENTRY_TOL.
    """
    panels = max(1, math.ceil((b - a) / 4.0))
    prev = None
    while panels <= 1 << 14:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        xs = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
        weights = np.broadcast_to(half * _GL_WEIGHTS, (panels, _GL_WEIGHTS.size)).ravel()
        table = hermite_function_table(dim - 1, xs)
        block = (table * weights) @ table.T
        if prev is not None and float(np.max(np.abs(block - prev))) < ENTRY_TOL:
            return block
        prev = block
        panels *= 2
    raise RuntimeError("bin integral did not converge")


def quadrature_bin_operator(theta: float, a: float, b: float, dim: int) -> np.ndarray:
    """Quadrature projectors integrated over the bin [a, b] on dim levels.

    Entries are M_kl = (int_a^b psi_k psi_l dx) e^{i(k-l)theta}; endpoints
    may be +-inf.  Half-infinite bins are evaluated as the orthonormality
    identity minus the finite complement, so a full layout sums to the
    subspace identity at integration accuracy.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if not a < b:
        raise ValueError("bin requires a < b")
    cut = _tail_cut(dim)
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    if math.isinf(a) and math.isinf(b):
        base = eye
    elif math.isinf(a):
        if b <= -cut:
            base = zero
        elif b >= cut:
            base = eye
        else:
            base = _overlap_block(-cut, b, dim)
    elif math.isinf(b):
        if a >= cut:
            base = zero
        elif a <= -cut:
            base = eye
        else:
            base = eye - _overlap_block(-cut, a, dim)
    else:
        lo, hi = max(a, -cut), min(b, cut)
        base = _overlap_block(lo, hi, dim) if lo < hi else zero
    phase = np.exp(1j * theta * np.arange(dim))
    return base * np.outer(phase, phase.conj())


def _identity_deficit(dim: int, elements) -> float:
    total = np.zeros((dim, dim), dtype=complex)
    for el in elements:
        total = total + el
    return float(np.linalg.norm(np.eye(dim) - total, ord=2))


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
        els = []
        for el in self.elements:
            arr = np.asarray(el, dtype=complex)
            if arr.shape != (self.dim, self.dim):
                raise ValueError("element shape does not match dim")
            asym = float(np.max(np.abs(arr - arr.conj().T)))
            if asym > ELEMENT_HERMITIAN_TOL:
                raise ValueError(f"element is not Hermitian (max asymmetry {asym:.3e})")
            eig_min = float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0])
            if eig_min < ELEMENT_EIGENVALUE_FLOOR:
                raise ValueError(f"element is not PSD (min eigenvalue {eig_min:.3e})")
            els.append(arr)
        if not els:
            raise ValueError("a POVM set needs at least one element")
        self.elements = els
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
        elements = [
            np.array([complex(re, im) for re, im in el], dtype=complex).reshape(dim, dim)
            for el in data["elements"]
        ]
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
    elements = [quadrature_bin_operator(theta, a, b, dim) for a, b in layout.intervals()]
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

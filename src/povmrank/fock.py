"""Fock-basis numerics for a single bosonic mode.

Tables of normalized oscillator wavefunctions psi_n from one
Gaussian-damped recurrence, homodyne probability densities on a grid,
coherent-state amplitudes, and the real vectorization of Hermitian
operators used by the rank analysis.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "DensityMatrix",
    "SupportSet",
    "hermite_function_table",
    "homodyne_pdf_grid",
    "coherent_amplitudes",
    "photon_number_probability",
    "real_coordinates",
    "hermitian_to_real_vector",
]

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _checked_integer(value, what: str, low: int | None = None) -> int:
    """value as an int; a bool or a number that is not integral raises TypeError,
    and a value below low (1: positive, 0: non-negative) ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer")
    if low is not None and value < low:
        raise ValueError(f"{what} must be {'positive' if low else 'non-negative'}")
    return int(value)


def _checked_phases(phases, dim: int) -> tuple:
    """Quadrature phases as a non-empty tuple of finite floats.  On dim levels
    the shift e^{i n theta} must stay in the float range for every n < dim:
    ValueError naming the phase when theta (dim - 1) overflows."""
    phases = tuple(float(p) for p in phases)
    if not phases:
        raise ValueError("at least one phase is required")
    if not all(map(math.isfinite, phases)):
        raise ValueError("phases must be finite")
    for theta in phases:
        if not math.isfinite(theta * (dim - 1)):
            raise ValueError(f"phase {theta!r} on dim={dim} levels leaves the float range")
    return phases


class _Rebuilt:
    """A value whose copies and pickles are rebuilt by its constructor from its
    init fields: validated again, every array read-only, nothing cached carried."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Rebuilt):
    """Hermitian, unit-trace, positive-semidefinite read-only Fock-basis matrix."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.array(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
            raise ValueError("entries must be a square non-empty matrix")
        if not np.isfinite(rho).all():
            raise ValueError("entries must be finite")
        asym = float(np.max(np.abs(rho - rho.conj().T)))
        if asym > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        eig_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        if eig_min < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not PSD (min eigenvalue {eig_min:.3e})")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a pure state; amplitudes are normalized on input."""
        c = np.asarray(amplitudes, dtype=complex)
        if not np.isfinite(c).all():
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(c))
        if norm in (0.0, math.inf) and c.any():  # |c|^2 under- or overflowed
            top = max(np.max(np.abs(c.real)), np.max(np.abs(c.imag)))
            c = c.real / top + 1j * (c.imag / top)
            norm = float(np.linalg.norm(c))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        c = c / norm
        return cls(np.outer(c, c.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = _checked_integer(dim, "dim", 1)
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing Fock indices on which the signal state may live."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(_checked_integer(i, "Fock index") for i in self.indices)
        if not idx:
            raise ValueError("support must be non-empty")
        if idx[0] < 0:
            raise ValueError("Fock indices must be non-negative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def contiguous(cls, dim: int) -> "SupportSet":
        return cls(tuple(range(_checked_integer(dim, "dim", 1))))

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_contiguous(self) -> bool:
        return self.indices == tuple(range(len(self.indices)))


# log2 e^{-x^2/2} at the clamp |x| = 2^30 of hermite_function_table
_LOG2_GAUSSIAN_FLOOR = (-0.5 / math.log(2.0)) * 2.0**60


def hermite_function_table(n_max: int, x) -> np.ndarray:
    """All psi_n(x) for n = 0..n_max, shape (n_max+1,) + x.shape (a scalar x as (1,)).

    Gaussian-damped recurrence
    psi_{n+1} = x sqrt(2/(n+1)) psi_n - sqrt(n/(n+1)) psi_{n-1}, carried as
    mantissa rows and a binary exponent; from row 2 on, after each step both
    rows are divided by the power of two that brings the larger into
    [1/2, 1), an exact scaling the running exponent takes up.  The exponent
    also absorbs the seed pi^-1/4 e^{-x^2/2}, which underflows bare float64
    for |x| > ~37 even where psi_n is O(1), so each row stays accurate across
    the classically allowed region for n well beyond 1000.
    """
    n_max = _checked_integer(n_max, "n_max", 0)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    # psi_n vanishes to double precision beyond |x| = 2^30, where the Gaussian's
    # binary exponent still fits an int64: +-inf and huge x give 0, NaN stays NaN
    xa = np.maximum(np.minimum(xa, 2.0**30), -(2.0**30))
    t = (-0.5 / math.log(2.0)) * xa * xa
    # fmax changes no clamped value; it gives NaN an exponent that casts to
    # int64 without a warning, and its mantissa stays NaN
    exponent = np.floor(np.fmax(t, _LOG2_GAUSSIAN_FLOOR))
    p_prev = np.pi ** -0.25 * np.exp2(t - exponent)
    exponent = exponent.astype(np.int64)
    table = np.empty((n_max + 1,) + xa.shape)
    np.ldexp(p_prev, exponent, out=table[0])
    if n_max:
        p = math.sqrt(2.0) * xa * p_prev
        np.ldexp(p, exponent, out=table[1])
    for k in range(1, n_max):
        p_prev, p = p, math.sqrt(2.0 / (k + 1)) * xa * p - math.sqrt(k / (k + 1)) * p_prev
        shift = np.frexp(np.maximum(np.abs(p_prev), np.abs(p)))[1]
        p_prev, p, exponent = np.ldexp(p_prev, -shift), np.ldexp(p, -shift), exponent + shift
        np.ldexp(p, exponent, out=table[k + 1])
    return table


def homodyne_pdf_grid(rho: DensityMatrix, theta: float, xs) -> np.ndarray:
    """Vectorized homodyne density over a grid of quadrature values."""
    dim = rho.dim
    (theta,) = _checked_phases((theta,), dim)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    psi = hermite_function_table(dim - 1, xs)
    v = psi * np.exp(1j * theta * np.arange(dim))[:, None]
    return np.real(np.einsum("ki,kl,li->i", v.conj(), rho.entries, v))


def coherent_amplitudes(alpha: complex, n_cut: int) -> np.ndarray:
    """The first n_cut coherent-state amplitudes c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Built by the stable recurrence c_{n+1} = c_n * alpha / sqrt(n+1),
    avoiding explicit factorials.
    """
    n_cut = _checked_integer(n_cut, "n_cut", 1)
    alpha = complex(alpha)
    c = np.zeros(n_cut, dtype=complex)
    c[0] = math.exp(-0.5 * (alpha.real**2 + alpha.imag**2))
    for n in range(n_cut - 1):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1.0)
    return c


def photon_number_probability(alpha: complex, n: int) -> float:
    """Poissonian count probability e^{-|a|^2} |a|^{2n} / n!.

    Depends on alpha only through |alpha|^2, so coherent states of equal
    amplitude and arbitrary phase give identical statistics.
    """
    n = _checked_integer(n, "n", 0)
    alpha = complex(alpha)
    mu = alpha.real**2 + alpha.imag**2
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1.0))


def real_coordinates(ops) -> np.ndarray:
    """Isometric real coordinates of a batch of Hermitian matrices.

    ops has shape [..., s, s]; the result has shape [..., s^2].  Basis: the
    s diagonal units, then (E_kl + E_lk)/sqrt(2) and i(E_kl - E_lk)/sqrt(2)
    for k < l.  The Euclidean norm of each output row equals the Frobenius
    norm of its operator, and dot(v(A), v(B)) = Tr(A B).
    """
    ops = np.asarray(ops)
    if ops.ndim < 2 or ops.shape[-1] != ops.shape[-2]:
        raise ValueError("operators must be square matrices")
    k, l = _upper_pairs(ops.shape[-1])
    # max |A - A^+| entrywise, from the upper triangle and the diagonal,
    # against 1e-10 max(1, largest |entry|); the scale is read only when needed
    asym = max(float(np.abs(ops[..., k, l] - np.conj(ops[..., l, k])).max(initial=0.0)),
               2.0 * float(np.abs(np.imag(np.diagonal(ops, axis1=-2, axis2=-1))).max(initial=0.0)))
    if asym > 1e-10 and asym > 1e-10 * float(np.abs(ops).max()):
        raise ValueError(f"operator is not Hermitian (max asymmetry {asym:.3e})")
    return _real_parts(ops)


def _real_parts(ops: np.ndarray) -> np.ndarray:
    """real_coordinates without its Hermitian check, for matrices Hermitian by construction."""
    k, l = _upper_pairs(ops.shape[-1])
    upper = ops[..., k, l]
    diag = np.diagonal(ops, axis1=-2, axis2=-1)
    sq2 = math.sqrt(2.0)
    return np.concatenate(
        [
            np.real(diag),
            sq2 * np.real(upper),
            sq2 * np.imag(upper),
        ],
        axis=-1,
    )


@functools.lru_cache(maxsize=16)
def _upper_pairs(dim: int):
    """np.triu_indices(dim, k=1), read-only, built once per dim."""
    k, l = np.triu_indices(dim, k=1)
    k.flags.writeable = l.flags.writeable = False
    return k, l


def _coordinates_to_hermitian(x) -> np.ndarray:
    """The inverse of real_coordinates: x [..., s^2] -> Hermitian [..., s, s]."""
    x = np.asarray(x, dtype=float)
    dim = math.isqrt(x.shape[-1])
    k, l = _upper_pairs(dim)
    upper = (x[..., dim:dim + len(k)] + 1j * x[..., dim + len(k):]) / math.sqrt(2.0)
    ops = np.zeros(x.shape[:-1] + (dim, dim), dtype=complex)
    ops[..., k, l], ops[..., l, k] = upper, upper.conj()
    ops[..., range(dim), range(dim)] = x[..., :dim]
    return ops


def hermitian_to_real_vector(op) -> np.ndarray:
    """Isometric real coordinates of one Hermitian matrix: the
    single-operator form of real_coordinates."""
    op = np.asarray(op)
    if op.ndim != 2:
        raise ValueError("operator must be a square matrix")
    return real_coordinates(op)

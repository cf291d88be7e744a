"""Counting linearly independent POVM elements induced by quadrature and
photon-counting measurements on (possibly sparse) Fock supports.

The closed-form predictor m(2d-m) (capped at d^2) is checked against a
numerical rank oracle: the quadrature probability functionals of a support
and its phases, over the real parametrization of Hermitian operators on the
support, form a design matrix whose singular spectrum certifies the count.
Every homodyne rank takes one path: a real phase-0 stack closed under the
mirror x -> -x (the node projectors for rank_for, a layout's bins for a
BinnedHomodyne) is ranked at its phases from Fock-offset blocks when they
are equispaced mod pi, else from parity blocks.  design_matrix stays the
dense reference; other measurements take the SVD of their real coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import (
    SupportSet, _checked_integer, _checked_phases, _Rebuilt, _upper_pairs,
    hermite_function_table, real_coordinates,
)
from .povm import BinnedHomodyne

__all__ = [
    "MeasurementSpec",
    "RankReport",
    "SweepTable",
    "predicted_rank",
    "default_phases",
    "design_matrix",
    "numerical_rank",
    "measurement_rank",
    "rank_for",
    "min_phases_for_completeness",
    "sweep_table",
    "povm_span_rank",
]

PHASE_DISTINCT_TOL = 1e-9
ORBIT_PHASE_TOL = 1e-13  # rad: the offset blocks then describe the measurement to 1e-12
RANK_RTOL = 1e-12
ILL_CONDITIONED_GAP = 1e3

_GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def predicted_rank(d: int, m: int) -> int:
    """Closed-form count of independent elements induced by m quadrature
    phases on the full d-level subspace: m(2d-m) for m < d, else d^2."""
    d, m = _checked_integer(d, "d"), _checked_integer(m, "m")
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    if m >= d:
        return d * d
    return m * (2 * d - m)


def default_phases(support: SupportSet, m: int) -> list:
    """Default phase settings for m cuts.

    Contiguous supports use the equispaced grid j*pi/m.  For strided
    supports (e.g. every fourth level) rational multiples of pi can alias
    every off-diagonal phase factor back to a real number and lose matrix
    components, so those use golden-ratio placement, which avoids all such
    resonances.
    """
    m = _checked_integer(m, "m")
    if m < 1:
        raise ValueError("m must be positive")
    if support.is_contiguous:
        return [j * math.pi / m for j in range(m)]
    return sorted(math.fmod(j * _GOLDEN_FRAC, 1.0) * math.pi for j in range(m))


def _mod_pi(phases) -> list:
    """The phases reduced to [0, pi), ascending."""
    return sorted(math.fmod(math.fmod(p, math.pi) + math.pi, math.pi) for p in phases)


@dataclass(frozen=True)
class MeasurementSpec:
    """Quadrature settings on a Fock support: the support and its phases,
    pairwise distinct mod pi.  design_matrix derives everything else."""

    support: SupportSet
    phases: tuple

    def __post_init__(self):
        if not isinstance(self.support, SupportSet):
            raise TypeError("support must be a SupportSet")
        phases = _checked_phases(self.phases)
        red = _mod_pi(phases)  # the gaps between neighbours on the circle of length pi
        if any(b - a <= PHASE_DISTINCT_TOL for a, b in zip(red, red[1:] + [red[0] + math.pi])):
            raise ValueError("phases must be pairwise distinct mod pi")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True, eq=False)
class RankReport(_Rebuilt):
    """Numerical rank with its spectral certificate (read-only singular values).

    ``numerical_rank`` counts the singular values above ``tolerance_used``;
    ``gap`` is sigma_rank / sigma_{rank+1} (+inf when the trailing value is
    absent or exactly zero); anything below 1e3 is flagged ill-conditioned.
    Both are always computed from the singular values and the tolerance.
    ``block_ranks`` (not in the JSON): Fock-offset block ranks, if taken from them.
    """

    singular_values: np.ndarray
    tolerance_used: float
    predicted_rank: int | None = None
    block_ranks: tuple | None = None
    numerical_rank: int = field(init=False)
    gap: float = field(init=False)

    def __post_init__(self):
        sv = np.array(self.singular_values, dtype=float)
        sv.flags.writeable = False
        rank = int(np.sum(sv > self.tolerance_used))
        if rank == 0 or rank >= sv.size or sv[rank] == 0.0:
            gap = math.inf
        else:
            gap = float(sv[rank - 1] / sv[rank])
        object.__setattr__(self, "singular_values", sv)
        object.__setattr__(self, "numerical_rank", rank)
        object.__setattr__(self, "gap", gap)

    @property
    def is_ill_conditioned(self) -> bool:
        return self.gap < ILL_CONDITIONED_GAP

    def to_json_dict(self) -> dict:
        return {
            "rank": self.numerical_rank,
            "predicted": self.predicted_rank,
            "gap": self.gap,
            "tolerance": self.tolerance_used,
            "singular_values": [float(s) for s in self.singular_values],
        }


def _hermgauss_nodes(n: int) -> np.ndarray:
    """Gauss-Hermite node positions of order n: the eigenvalues of the
    Hermite Jacobi matrix (off-diagonal sqrt(k/2)), made exactly symmetric;
    no weights are formed, so nothing overflows at high order."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (nodes - nodes[::-1])


@functools.lru_cache(maxsize=32)
def _positive_node_table(top: int) -> np.ndarray:
    """psi_n, n = 0..top, at the top+1 positive Gauss-Hermite nodes of order
    2*top+2, read-only.  The nodes come in exact +-x pairs, none at 0, and the
    recurrence gives psi_n(-x) = (-1)^n psi_n(x) bit for bit, so this half
    holds the whole table."""
    table = hermite_function_table(top, _hermgauss_nodes(2 * top + 2)[top + 1 :])
    table.flags.writeable = False
    return table


def design_matrix(spec: MeasurementSpec) -> np.ndarray:
    """Measurement functionals over the s^2 real coordinates of Hermitian
    operators on the support: the dense reference that rank_for's count equals.

    One row per (phase, node): the density functional rho -> p(x_i, theta_j)
    at the Gauss-Hermite nodes x_i of order 2*max(support)+2, which the
    polynomial degree of p certifies to span every functional of the phase.
    A row is the real coordinates of the rank-one quadrature projector
    psi(x_i) psi(x_i)^T compressed to the support and turned to theta_j by
    diag(e^{i n theta_j}).
    """
    sup = np.array(spec.support.indices)
    psi = hermite_function_table(int(sup[-1]), _hermgauss_nodes(2 * int(sup[-1]) + 2))[sup].T
    turn = np.exp(1j * np.multiply.outer(spec.phases, sup))  # [phase, level]
    turn = turn[:, None, :, None] * turn[:, None, None, :].conj()
    return real_coordinates(turn * (psi[:, :, None] * psi[:, None, :])).reshape(-1, sup.size**2)


def _certified(sv: np.ndarray, shape, block_sv=None) -> RankReport:
    """RankReport of the singular values sv, in any order, of a matrix of the given
    shape: sorted descending and cut or padded with exact zeros to min(shape), with
    the rank of each block of block_sv [block, value] if given.
    Threshold: max(rows, cols) * sigma_max * 1e-12."""
    sv = np.sort(sv)[::-1][: min(shape)]
    sv = np.concatenate([sv, np.zeros(min(shape) - sv.size)])
    tol = max(shape) * float(sv[0]) * RANK_RTOL
    blocks = None if block_sv is None else tuple((block_sv > tol).sum(axis=1).tolist())
    return RankReport(sv, tol, block_ranks=blocks)


def numerical_rank(matrix) -> RankReport:
    """Singular-value rank of a finite matrix, with a gap certificate; see _certified."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.isfinite(mat).all():
        raise ValueError("matrix must be finite")
    return _certified(np.linalg.svd(mat, compute_uv=False), mat.shape)


def _orbit_rank(base: np.ndarray, levels: np.ndarray, K: int, shape) -> RankReport:
    """numerical_rank of the real coordinates, of the given shape, of the orbit
    {U^j E_b U^-j : j < K}, K even and U = diag(e^{2 pi i n/K}) on the Fock levels,
    of a real symmetric stack E_b [row, level, level].  A DFT over j splits it into
    blocks r = (k-l) mod K with entries (E_b)_kl; their spectra times sqrt(K) are its
    spectrum.  Blocks r and K-r are equal, so r <= K/2 take one batched SVD, and the
    report keeps their ranks."""
    offsets = (np.subtract.outer(levels, levels) % K).ravel()
    cols = np.argsort(offsets, kind="stable")
    cols = cols[offsets[cols] <= K // 2]  # grouped by block
    (k, l), offset = np.divmod(cols, levels.size), offsets[cols]
    widths = np.bincount(offset, minlength=K // 2 + 1)
    stack = np.zeros((K // 2 + 1, widths.max(), base.shape[0]))
    stack[offset, np.arange(offset.size) - np.searchsorted(offset, offset)] = base[:, k, l].T
    counts = np.minimum(widths, base.shape[0])
    kept = np.arange(counts.max()) < counts[:, None]
    block_sv = math.sqrt(K) * np.linalg.svd(stack, compute_uv=False) * kept
    twice = block_sv[1:-1][kept[1:-1]]  # blocks 0 < r < K/2 stand for K-r too
    return _certified(np.concatenate([block_sv[kept], twice]), shape, block_sv)


def _quadrature_rank(base: np.ndarray, levels: np.ndarray, phases, shape) -> RankReport:
    """numerical_rank of the real coordinates, of the given shape, of a real symmetric
    phase-0 stack base [row, level, level] and its mirror image (odd-(k+l) entries
    negated), both turned to each phase by diag(e^{i n theta}) on the Fock levels.

    The mirror image is base turned by pi.  At phases theta_0 + j*pi/m mod pi (each
    to ORBIT_PHASE_TOL) the matrix is thus the orbit of base, K = 2m, turned by
    theta_0, which keeps the spectrum; at any others it
    is orthogonally equivalent to sqrt(2) diag(E, O), E and O the even- and odd-(k+l)
    columns of base's closed-form rows at the phases: diagonal entries, then sqrt(2)
    (cos, sin)((k-l) theta) times the entries k < l.
    """
    red = _mod_pi(phases)
    m = len(red)
    if all(abs(t - red[0] - j * math.pi / m) <= ORBIT_PHASE_TOL for j, t in enumerate(red)):
        return _orbit_rank(base, levels, 2 * m, shape)
    s = levels.size
    k, l = _upper_pairs(s)
    pair = math.sqrt(2.0) * np.ascontiguousarray(base[:, k, l])  # [row, pair], C order: so is rows
    angle = np.multiply.outer(phases, levels[k] - levels[l])[:, None, :]  # [phase, 1, pair]
    diag = np.broadcast_to(np.diagonal(base, axis1=1, axis2=2), (m,) + base.shape[:2])
    rows = np.concatenate([diag, np.cos(angle) * pair, np.sin(angle) * pair], axis=2).reshape(-1, s * s)
    odd = np.concatenate([np.zeros(s, dtype=bool)] + 2 * [(levels[k] + levels[l]) % 2 == 1])
    return _certified(math.sqrt(2.0) * np.concatenate(
        [np.linalg.svd(rows[:, cols], compute_uv=False) for cols in (~odd, odd)]), shape)


def measurement_rank(measurement) -> RankReport:
    """numerical_rank(measurement.born), by povm_span_rank: a BinnedHomodyne
    is ranked from its layout's phase-0 bins without forming born."""
    return povm_span_rank([measurement])


def rank_for(support: SupportSet, m: int, phases=None) -> RankReport:
    """Rank of the functional span for m phase settings on the support.

    Phases default to default_phases(support, m); explicit phases must
    number m.  The closed-form prediction is attached when the support is
    contiguous 0..d-1.  The count is that of numerical_rank(design_matrix(spec)),
    taken by _quadrature_rank from the node projectors at the positive nodes:
    the rows at -x are their mirror image.
    """
    m = _checked_integer(m, "m")
    if m < 1:
        raise ValueError("m must be positive")
    if phases is None:
        phases = default_phases(support, m)  # distinct by construction
    else:
        phases = MeasurementSpec(support, phases).phases
        if len(phases) != m:
            raise ValueError(f"m={m} does not match the {len(phases)} phases given")
    sup = np.array(support.indices)
    psi = _positive_node_table(int(sup[-1]))[sup].T  # [node, level]
    shape = (2 * m * psi.shape[0], sup.size**2)
    report = _quadrature_rank(psi[:, :, None] * psi[:, None, :], sup, phases, shape)
    if support.is_contiguous:
        report = replace(report, predicted_rank=predicted_rank(support.size, m))
    return report


def min_phases_for_completeness(support: SupportSet, m_max: int) -> int | None:
    """Smallest m <= m_max whose default-phase rank reaches s^2, else None."""
    m_max = _checked_integer(m_max, "m_max")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    full = support.size**2
    for m in range(1, m_max + 1):
        if rank_for(support, m).numerical_rank == full:
            return m
    return None


@dataclass(frozen=True)
class SweepTable:
    """Grid of rank reports over contiguous dimensions and phase counts."""

    d_values: tuple
    m_values: tuple
    reports: dict

    def report(self, d: int, m: int) -> RankReport:
        return self.reports[(d, m)]

    def is_ic(self, d: int, m: int) -> bool:
        return self.reports[(d, m)].numerical_rank == d * d

    def mismatches(self) -> list:
        """(d, m, numerical, predicted) for every cell off the prediction."""
        out = []
        for d in self.d_values:
            for m in self.m_values:
                rep = self.reports[(d, m)]
                if rep.numerical_rank != rep.predicted_rank:
                    out.append((d, m, rep.numerical_rank, rep.predicted_rank))
        return out

    def _csv_row(self, d: int, numeric: bool) -> str:
        cells = []
        for m in self.m_values:
            rep = self.reports[(d, m)]
            value = rep.numerical_rank if numeric else rep.predicted_rank
            cells.append(f"{value}{'*' if value == d * d else ''}")
        return ",".join([str(d)] + cells)

    def to_csv(self) -> str:
        """Numerical table as data rows, the closed-form prediction appended
        as a comment block (asterisk marks informationally complete cells)."""
        header = ",".join(["d"] + [f"m={m}" for m in self.m_values])
        lines = [header]
        lines += [self._csv_row(d, numeric=True) for d in self.d_values]
        lines.append("# predicted")
        lines += ["# " + self._csv_row(d, numeric=False) for d in self.d_values]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "d_values": list(self.d_values),
            "m_values": list(self.m_values),
            "cells": [
                {
                    "d": d,
                    "m": m,
                    "rank": self.reports[(d, m)].numerical_rank,
                    "predicted": self.reports[(d, m)].predicted_rank,
                    "gap": self.reports[(d, m)].gap,
                    "ic": self.is_ic(d, m),
                }
                for d in self.d_values
                for m in self.m_values
            ],
        }


def sweep_table(d_range, m_range) -> SweepTable:
    """Rank reports for every (d, m) cell, equispaced phases, ascending order."""
    d_values = tuple(sorted({_checked_integer(d, "d") for d in d_range}))
    m_values = tuple(sorted({_checked_integer(m, "m") for m in m_range}))
    if not d_values or not m_values:
        raise ValueError("ranges must be non-empty")
    if d_values[0] < 1 or m_values[0] < 1:
        raise ValueError("d and m must be positive")
    reports = {}
    for d in d_values:
        for m in m_values:
            reports[(d, m)] = rank_for(SupportSet.contiguous(d), m)
    return SweepTable(d_values=d_values, m_values=m_values, reports=reports)


def povm_span_rank(sets) -> RankReport:
    """Rank of the real span of all elements of the given measurements, each
    with ``elements`` and ``dim``; no ``born`` is formed.  BinnedHomodyne sets on
    one layout are ranked by _quadrature_rank at all their phases, the base one bin
    of each mirror pair of the layout's phase-0 bins, B_{n-1-b} = (-1)^(k+l) B_b,
    and the middle bin over sqrt(2) with its odd-(k+l) entries (0 by parity, to
    rounding) set to 0.  Anything else takes the SVD of the elements' real coordinates."""
    sets = list(sets)
    if not sets:
        raise ValueError("at least one POVM set is required")
    if any(ps.dim != sets[0].dim for ps in sets):
        raise ValueError("all POVM sets must share the same dim")
    if not all(isinstance(ps, BinnedHomodyne) and ps.layout == sets[0].layout for ps in sets):
        return numerical_rank(real_coordinates(np.concatenate([ps.elements for ps in sets])))
    phases, dim = [theta for ps in sets for theta in ps.phases], sets[0].dim
    bins = sets[0].layout._bins(dim)[0]
    half, odd = divmod(bins.shape[0], 2)
    base = bins[: half + odd] / np.sqrt([1.0] * half + [2.0] * odd)[:, None, None]
    base[half:, ::2, 1::2] = base[half:, 1::2, ::2] = 0.0
    return _quadrature_rank(base, np.arange(dim), phases, (len(phases) * bins.shape[0], dim * dim))

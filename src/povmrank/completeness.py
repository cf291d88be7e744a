"""Counting linearly independent POVM elements induced by quadrature and
photon-counting measurements on (possibly sparse) Fock supports.

The closed-form predictor m(2d-m) (capped at d^2) is checked against a
numerical rank oracle: the quadrature probability functionals of a support
and its phases, over the real parametrization of Hermitian operators on the
support, form a design matrix whose singular spectrum certifies the count
(rank_for: from its Fock-offset blocks at equispaced phases, else parity blocks).
A measurement with elements and dim (a povm.BinnedHomodyne or
DisplacedCounting) is ranked by povm_span_rank or numerical_rank(m.born).
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

__all__ = [
    "MeasurementSpec",
    "RankReport",
    "SweepTable",
    "predicted_rank",
    "default_phases",
    "design_matrix",
    "numerical_rank",
    "rank_for",
    "min_phases_for_completeness",
    "sweep_table",
    "povm_span_rank",
]

PHASE_DISTINCT_TOL = 1e-9
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


def _reduced_distinct(phases) -> bool:
    red = sorted(math.fmod(math.fmod(p, math.pi) + math.pi, math.pi) for p in phases)
    if len(red) < 2:
        return True
    gaps = [b - a for a, b in zip(red, red[1:])]
    gaps.append(red[0] + math.pi - red[-1])
    return min(gaps) > PHASE_DISTINCT_TOL


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
        if not _reduced_distinct(phases):
            raise ValueError("phases must be pairwise distinct mod pi")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True, eq=False)
class RankReport(_Rebuilt):
    """Numerical rank with its spectral certificate (read-only singular values).

    ``numerical_rank`` counts the singular values above ``tolerance_used``;
    ``gap`` is sigma_rank / sigma_{rank+1} (+inf when the trailing value is
    absent or exactly zero); anything below 1e3 is flagged ill-conditioned.
    Both are always computed from the singular values and the tolerance.
    """

    singular_values: np.ndarray
    tolerance_used: float
    predicted_rank: int | None = None
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


def _positive_rows(spec: MeasurementSpec):
    """design_matrix's rows at the positive nodes, [phase, node, column], and
    the mask of the columns whose Fock indices k + l are odd: at -x those
    columns change sign and the others do not."""
    sup = np.array(spec.support.indices)
    psi = _positive_node_table(int(sup[-1]))[sup]
    s, n_nodes = psi.shape
    k, l = _upper_pairs(s)
    pair = math.sqrt(2.0) * (psi[k] * psi[l]).T  # [node, pair]
    angle = np.multiply.outer(spec.phases, sup[k] - sup[l])  # [phase, pair]
    rows = np.empty((len(spec.phases), n_nodes, s * s))
    rows[:, :, :s] = (psi * psi).T
    rows[:, :, s : s + k.size] = np.cos(angle)[:, None, :] * pair
    rows[:, :, s + k.size :] = np.sin(angle)[:, None, :] * pair
    odd_pair = (sup[k] + sup[l]) % 2 == 1
    return rows, np.concatenate([np.zeros(s, dtype=bool), odd_pair, odd_pair])


def design_matrix(spec: MeasurementSpec) -> np.ndarray:
    """Measurement functionals over the s^2 real coordinates of Hermitian
    operators on the support.

    One row per (phase, node): the density functional rho -> p(x_i, theta_j)
    at the Gauss-Hermite nodes x_i of order 2*max(support)+2, which the
    polynomial degree of p certifies to span every functional of the phase.
    A row is the real coordinates of the rank-one quadrature projector
    compressed to the support, written in closed form: psi_k^2 on the
    diagonal, sqrt(2) psi_k psi_l times (cos, sin)((k-l) theta) for support
    indices k < l.  The rows at the negative nodes mirror those at the
    positive ones, with the odd-(k+l) columns negated.
    """
    rows, odd = _positive_rows(spec)
    mirrored = rows[:, ::-1] * np.where(odd, -1.0, 1.0)
    return np.concatenate([mirrored, rows], axis=1).reshape(-1, odd.size)


def _certified(sv: np.ndarray, shape) -> RankReport:
    """RankReport of the descending spectrum sv of a matrix of the given
    shape.  Threshold: max(rows, cols) * sigma_max * 1e-12."""
    return RankReport(sv, max(shape) * float(sv[0]) * RANK_RTOL)


def numerical_rank(matrix) -> RankReport:
    """Singular-value rank of a finite matrix, with a gap certificate; see _certified."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.isfinite(mat).all():
        raise ValueError("matrix must be finite")
    return _certified(np.linalg.svd(mat, compute_uv=False), mat.shape)


def _parity_split_rank(spec: MeasurementSpec) -> RankReport:
    """numerical_rank(design_matrix(spec)) from two half-size blocks.

    With the rows at -x the rows at x with the odd columns negated, the
    design matrix is orthogonally equivalent to sqrt(2) diag(E, O), E and O
    the even and odd columns of the positive-node rows.  Its spectrum is
    sqrt(2) times theirs, padded with exact zeros to min(rows, cols); the
    threshold takes the full matrix's shape.
    """
    rows, odd = _positive_rows(spec)
    rows = rows.reshape(-1, odd.size)
    shape = (2 * rows.shape[0], rows.shape[1])
    sv = math.sqrt(2.0) * np.concatenate(
        [np.linalg.svd(rows[:, cols], compute_uv=False) for cols in (~odd, odd)]
    )
    sv = np.concatenate([np.sort(sv)[::-1], np.zeros(min(shape) - sv.size)])
    return _certified(sv, shape)


def _offset_block_rank(support: SupportSet, m: int) -> RankReport:
    """numerical_rank(design_matrix(spec)) at the phases j*pi/m from its
    Fock-offset blocks.  The rows at -x are those at x turned by pi; in
    complex entries X_kl (a unitary change of columns) and after a unitary
    DFT over the 2m phases j*pi/m, j < 2m, block r = (k-l) mod 2m has entries
    sqrt(2m) psi_k psi_l at the positive nodes.  Blocks r and 2m-r are equal
    up to swapping (k, l): r = 0..m take one batched SVD, r = 1..m-1 count twice."""
    sup = np.array(support.indices)
    psi = _positive_node_table(int(sup[-1]))[sup]  # [level, node]
    k, l = np.divmod(np.arange(sup.size**2), sup.size)
    offset = (sup[k] - sup[l]) % (2 * m)
    cols = np.argsort(offset, kind="stable")
    cols = cols[offset[cols] <= m]  # grouped by block
    k, l, offset = k[cols], l[cols], offset[cols]
    widths = np.bincount(offset, minlength=m + 1)
    stack = np.zeros((m + 1, widths.max(), psi.shape[1]))
    stack[offset, np.arange(offset.size) - np.searchsorted(offset, offset)] = psi[k] * psi[l]
    counts = np.minimum(widths, psi.shape[1])
    kept = np.linalg.svd(stack, compute_uv=False)[np.arange(counts.max()) < counts[:, None]]
    copies = np.repeat(np.where(np.arange(m + 1) % m == 0, 1, 2), counts)
    sv = math.sqrt(2.0 * m) * np.sort(np.repeat(kept, copies))[::-1]
    shape = (2 * m * psi.shape[1], sup.size**2)
    return _certified(np.concatenate([sv, np.zeros(min(shape) - sv.size)]), shape)


def rank_for(support: SupportSet, m: int, phases=None) -> RankReport:
    """Rank of the functional span for m phase settings on the support.

    Phases default to default_phases(support, m); explicit phases must
    number m.  The closed-form prediction is attached when the support is
    contiguous 0..d-1.  The count is that of numerical_rank(design_matrix(spec)),
    taken from its Fock-offset blocks when the phases are defaulted on a
    contiguous support (the grid j*pi/m), else from its parity blocks.
    """
    m = _checked_integer(m, "m")
    if m < 1:
        raise ValueError("m must be positive")
    if phases is None and support.is_contiguous:
        report = _offset_block_rank(support, m)
    else:
        spec = MeasurementSpec(support, default_phases(support, m) if phases is None else phases)
        if len(spec.phases) != m:
            raise ValueError(f"m={m} does not match the {len(spec.phases)} phases given")
        report = _parity_split_rank(spec)
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
    with ``elements`` and ``dim`` (such as a BinnedHomodyne); no ``born`` is formed."""
    sets = list(sets)
    if not sets:
        raise ValueError("at least one POVM set is required")
    if any(ps.dim != sets[0].dim for ps in sets):
        raise ValueError("all POVM sets must share the same dim")
    return numerical_rank(real_coordinates(np.concatenate([ps.elements for ps in sets])))

import copy
import dataclasses
import math
import pickle
import re
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from povmrank import (
    BinLayout,
    BinnedHomodyne,
    DisplacedCounting,
    build_binned_quadrature_povm,
    coherent_amplitudes,
    default_x_max,
    povm_span_rank,
    quadrature_bin_operator,
    real_coordinates,
)
from povmrank import povm as povm_module

INF = math.inf


def psi_product(k, l):
    """Independent integrand oracle from scipy Hermite values."""

    def f(x):
        nk = math.exp(-0.5 * (k * math.log(2.0) + math.lgamma(k + 1.0)))
        nl = math.exp(-0.5 * (l * math.log(2.0) + math.lgamma(l + 1.0)))
        return (
            nk * nl / math.sqrt(math.pi)
            * eval_hermite(k, x) * eval_hermite(l, x) * math.exp(-x * x)
        )

    return f


# -------------------------------------------------------- quadrature_bin_operator


def test_full_line_is_identity():
    for theta in (0.0, 1.1):
        op = quadrature_bin_operator(theta, -INF, INF, 5)
        assert np.max(np.abs(op - np.eye(5))) < 1e-10


def test_half_line_entry_against_quadrature_oracle():
    op = quadrature_bin_operator(0.0, 0.0, INF, 2)
    oracle, _ = quad(psi_product(0, 1), 0.0, INF, epsabs=1e-14)
    assert abs(op[0, 1] - oracle) < 1e-12
    assert op[0, 1].real == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_finite_bin_entries_against_quadrature_oracle():
    a, b, dim = 0.3, 1.4, 5
    op = quadrature_bin_operator(0.0, a, b, dim)
    for k in range(dim):
        for l in range(k, dim):
            oracle, _ = quad(psi_product(k, l), a, b, epsabs=1e-13)
            assert abs(op[k, l].real - oracle) < 1e-10


def test_symmetric_bin_has_parity_zeros():
    op = quadrature_bin_operator(0.7, -1.8, 1.8, 6)
    for k in range(6):
        for l in range(6):
            if (k + l) % 2 == 1:
                assert abs(op[k, l]) < 1e-14


def test_bin_additivity():
    dim = 4
    for (a, b, c) in [(-1.0, 0.4, 2.2), (-INF, -2.0, 1.0), (0.5, 3.0, INF)]:
        whole = quadrature_bin_operator(0.9, a, c, dim)
        split = quadrature_bin_operator(0.9, a, b, dim) + quadrature_bin_operator(0.9, b, c, dim)
        assert np.max(np.abs(whole - split)) < 1e-10


def test_bin_operator_is_psd_hermitian():
    for (a, b) in [(-0.4, 1.1), (2.0, INF), (-INF, -1.0)]:
        op = quadrature_bin_operator(1.3, a, b, 6)
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(op).min() > -1e-10


def test_bin_operator_phase_covariance():
    dim, phi = 5, 0.77
    rot = np.diag(np.exp(1j * np.arange(dim) * phi))
    base = quadrature_bin_operator(0.4, -0.5, 1.5, dim)
    shifted = quadrature_bin_operator(0.4 + phi, -0.5, 1.5, dim)
    assert np.max(np.abs(shifted - rot @ base @ rot.conj().T)) < 1e-10


def test_bin_operator_rejects_bad_interval():
    with pytest.raises(ValueError, match="a < b"):
        quadrature_bin_operator(0.0, 1.0, 0.5, 3)
    with pytest.raises(ValueError, match="a < b"):
        quadrature_bin_operator(0.0, 1.0, 1.0, 3)
    with pytest.raises(ValueError, match="a < b"):
        quadrature_bin_operator(0.0, [0.0, 1.0], [0.5, 1.0], 3)
    with pytest.raises(ValueError, match="equal shapes"):
        quadrature_bin_operator(0.0, [0.0, 1.0], [0.5], 3)


def _oracle_entry(k, l, a, b, dim):
    # psi_k psi_l < 1e-40 past the top turning point + 12, so an infinite
    # endpoint is cut there instead of handing quad an infinite range
    cut = math.sqrt(2.0 * dim + 1.0) + 12.0
    value, _ = quad(psi_product(k, l), max(a, -cut), min(b, cut), epsabs=1e-14, limit=400)
    return value


@pytest.mark.parametrize("dim", [10, 30, 60])
def test_closed_form_entries_against_quadrature_oracle(dim):
    rng = np.random.default_rng(dim)
    x_max = default_x_max(dim)
    lo = rng.uniform(-x_max, x_max, size=3)
    bins = [(x, x + w) for x, w in zip(lo, rng.uniform(0.05, 2.0, size=3))]
    bins += [(-INF, rng.uniform(-x_max, 0.0)), (rng.uniform(0.0, x_max), INF), (0.3, 0.3 + 1e-8)]
    for a, b in bins:
        op = quadrature_bin_operator(0.0, a, b, dim)
        pairs = [(0, 0), (dim - 1, dim - 1), (0, dim - 1)]
        pairs += [tuple(sorted(p)) for p in rng.integers(0, dim, size=(12, 2))]
        for k, l in pairs:
            assert abs(op[k, l] - _oracle_entry(k, l, a, b, dim)) < 1e-12, (a, b, k, l)


@pytest.mark.parametrize("dim", [10, 30, 60])
def test_bins_beyond_the_turning_point_vanish(dim):
    far = math.sqrt(2.0 * dim + 1.0) + 10.0
    for a, b in [(far, far + 3.0), (far, INF), (-INF, -far), (-far - 3.0, -far)]:
        assert np.max(np.abs(quadrature_bin_operator(0.8, a, b, dim))) <= 1e-15


@pytest.mark.parametrize("dim", [9, 12, 20])
def test_right_overflow_bin_is_parity_mirror_of_left(dim):
    # psi_n(-x) = (-1)^n psi_n(x), so E(x_max, inf) = P E(-inf, -x_max) P
    parity = np.diag((-1.0) ** np.arange(dim))
    povm = build_binned_quadrature_povm(0.37, BinLayout(default_x_max(dim), 2 * dim - 1), dim)
    left, right = povm.elements[0], povm.elements[-1]
    err = np.linalg.norm(right - parity @ left @ parity) / np.linalg.norm(left)
    assert err <= 1e-15


def every_layout():
    # d <= 15; n_bins 1, 2, 3, 7, 8, 2d - 1 and 4d; with and without overflow bins: 202 layouts
    for dim in range(1, 16):
        for n_bins in sorted({1, 2, 3, 7, 8, 2 * dim - 1, 4 * dim}):
            for overflow in (True, False):
                yield dim, BinLayout(default_x_max(dim), n_bins, overflow)


def test_array_endpoints_equal_stacked_scalar_calls():
    # a layout's phase-0 bins are its bins built one at a time, bit for bit (signed
    # zeros too), and their deficit is the spectral norm of identity - sum
    for dim, layout in every_layout():
        bins, deficit = layout._bins(dim)
        single = np.stack([quadrature_bin_operator(0.0, lo, hi, dim).real for lo, hi in layout.intervals()])
        assert bins.tobytes() == single.tobytes(), (dim, layout)
        assert abs(deficit - np.linalg.norm(np.eye(dim) - np.sum(bins, axis=0), ord=2)) <= 1e-15
    dim, theta = 7, 0.61
    lo, hi = np.array(BinLayout(default_x_max(dim), 2 * dim - 1).intervals()).T
    stack = quadrature_bin_operator(theta, lo, hi, dim)
    assert stack.shape == (lo.size, dim, dim)
    for j in range(lo.size):
        assert np.array_equal(stack[j], quadrature_bin_operator(theta, lo[j], hi[j], dim))
    grid_lo = np.array([[-1.0, 0.2], [-INF, 2.5]])
    grid_hi = np.array([[0.4, 0.9], [-0.7, INF]])
    grid = quadrature_bin_operator(theta, grid_lo, grid_hi, dim)
    assert grid.shape == (2, 2, dim, dim)
    for i in range(2):
        for j in range(2):
            single = quadrature_bin_operator(theta, grid_lo[i, j], grid_hi[i, j], dim)
            assert np.array_equal(grid[i, j], single)


# ---------------------------------------------------- build_binned_quadrature_povm


def test_build_binned_layout_with_overflow():
    povm = build_binned_quadrature_povm(0.0, BinLayout(5.0, 5, include_overflow=True), 3)
    assert len(povm.elements) == 7
    assert povm.deficit < 1e-8


def test_single_wide_bin_is_near_identity():
    povm = build_binned_quadrature_povm(0.3, BinLayout(10.0, 1, include_overflow=False), 3)
    assert len(povm.elements) == 1
    assert np.max(np.abs(povm.elements[0] - np.eye(3))) < 1e-10


def test_binned_elements_phase_covariance():
    dim, phi = 4, 1.21
    layout = BinLayout(default_x_max(dim), 6)
    rot = np.diag(np.exp(1j * np.arange(dim) * phi))
    base = build_binned_quadrature_povm(0.2, layout, dim)
    shifted = build_binned_quadrature_povm(0.2 + phi, layout, dim)
    for e0, e1 in zip(base.elements, shifted.elements):
        assert np.max(np.abs(e1 - rot @ e0 @ rot.conj().T)) < 1e-10


# ---------------------------------------------------------------------- rotation
# BinnedHomodyne builds its bins once, at phase 0, and turns them to every phase


ROTATION_PHASES = (0.0, 0.37, -1.1, 7.5)


def rotation_layouts(dim):
    x_max = default_x_max(dim)
    return [
        BinLayout(x_max, 2 * dim - 1),
        BinLayout(x_max, 2 * dim - 1, include_overflow=False),
        BinLayout(x_max, 4 * dim),
    ]


@pytest.mark.parametrize("dim", [1, 2, 5, 12, 30])
def test_rotated_set_is_bit_identical_to_a_build_at_that_phase(dim):
    phases = ROTATION_PHASES + (1e3, -4.2e4, 1e6 + 0.3)  # n theta rounds at large phases
    for layout in rotation_layouts(dim):
        measurement = BinnedHomodyne(phases, layout, dim)
        n_el = layout.n_elements
        assert measurement.elements.shape == (len(phases) * n_el, dim, dim)
        lo, hi = np.array(layout.intervals()).T
        for j, theta in enumerate(phases):  # setting-major, bins ascending
            built = quadrature_bin_operator(theta, lo, hi, dim)
            block = measurement.elements[j * n_el : (j + 1) * n_el]
            assert block.tobytes() == built.tobytes(), (layout, theta)
            assert np.array_equal(block, build_binned_quadrature_povm(theta, layout, dim).elements)
        assert np.array_equal(measurement.born, real_coordinates(measurement.elements))
        for array in (measurement.elements, measurement.born):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


@pytest.mark.parametrize("dim", [1, 2, 5, 12, 30])
def test_rotations_compose(dim):
    # the block at a + b is the block at a turned by the phase shifter at b;
    # the phase arguments n * theta round to eps * dim * |theta| absolute
    shifts = {b: np.diag(np.exp(1j * b * np.arange(dim))) for b in ROTATION_PHASES}
    for layout in rotation_layouts(dim):
        n_el = layout.n_elements
        for a in ROTATION_PHASES:
            at_a = BinnedHomodyne([a], layout, dim).elements
            sums = [a + b for b in ROTATION_PHASES]
            at_sums = BinnedHomodyne(sums, layout, dim).elements.reshape(-1, n_el, dim, dim)
            for b, at_sum in zip(ROTATION_PHASES, at_sums):
                turned = shifts[b] @ at_a @ shifts[b].conj().T
                tol = 1e-15 + np.finfo(float).eps * dim * (abs(a) + abs(b))
                assert np.max(np.abs(turned - at_sum)) <= tol, (a, b)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_phases_that_are_not_finite_are_rejected(theta):
    layout = BinLayout(default_x_max(3), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(ValueError, match="phases must be finite"):
            BinnedHomodyne([0.0, theta], layout, 3)
        with pytest.raises(ValueError, match="phases must be finite"):
            build_binned_quadrature_povm(theta, layout, 3)
        with pytest.raises(ValueError, match="phases must be finite"):
            quadrature_bin_operator(theta, -1.0, 1.0, 3)


@pytest.mark.parametrize("theta, dim", [(1e308, 3), (-1e308, 3), (1e307, 20)])
def test_phases_whose_shift_overflows_are_rejected(theta, dim):
    # n theta overflows for some level n < dim; the rank reads only the phase-0
    # bins, so NaN elements would otherwise go unnoticed
    layout, message = BinLayout(default_x_max(dim), 5), re.escape(f"phase {theta!r} on dim={dim} levels")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            BinnedHomodyne([0.0, theta], layout, dim)
        with pytest.raises(ValueError, match=message):
            quadrature_bin_operator(theta, -1.0, 1.0, dim)
    assert np.isfinite(BinnedHomodyne([1e308], layout, 1).elements).all()


@pytest.mark.parametrize("dim", [2.0, True, "3", None])
def test_dims_that_are_not_integers_are_rejected(dim):
    with pytest.raises(TypeError, match="dim must be an integer"):
        quadrature_bin_operator(0.0, -1.0, 1.0, dim)
    with pytest.raises(TypeError, match="dim must be an integer"):
        build_binned_quadrature_povm(0.0, BinLayout(3.0, 5), dim)


# ---------------------------------------------------------------------- deficit


def test_deficit_full_line_layout():
    dim = 6
    povm = build_binned_quadrature_povm(0.0, BinLayout(default_x_max(dim), 9), dim)
    assert povm.deficit < 1e-10


def test_deficit_of_default_layouts_is_rounding_level():
    for dim in [*range(1, 13), 20, 30, 40, 50, 60]:
        povm = build_binned_quadrature_povm(0.45, BinLayout(default_x_max(dim), 2 * dim - 1), dim)
        assert povm.deficit <= 1e-14, dim


def test_deficit_positive_without_overflow():
    # psi_5 keeps ~0.2 of its mass beyond |x| = 3
    povm = build_binned_quadrature_povm(0.0, BinLayout(3.0, 4, include_overflow=False), 6)
    assert povm.deficit > 1e-3


def test_deficit_is_that_of_one_phase():
    # a rotation keeps the sum's spectrum, so every phase has the phase-0 deficit
    dim = 5
    for layout in rotation_layouts(dim):
        one = BinnedHomodyne([0.8], layout, dim)
        many = BinnedHomodyne(ROTATION_PHASES, layout, dim)
        assert one.deficit == many.deficit
        n_el = layout.n_elements
        for block in many.elements.reshape(-1, n_el, dim, dim):
            direct = np.linalg.norm(np.eye(dim) - np.sum(block, axis=0), ord=2)
            assert abs(direct - many.deficit) <= 1e-15


# ------------------------------------------------------------- element checks


def test_povm_set_rejects_negative_element(monkeypatch):
    # the PSD check runs once, on the phase-0 bins every phase is turned from
    def negative_bins(theta, a, b, dim):
        return np.stack([np.diag([1.0, -0.5]).astype(complex)] * np.size(a))

    monkeypatch.setattr(povm_module, "quadrature_bin_operator", negative_bins)
    for build in (lambda: BinnedHomodyne([0.0, 1.3], BinLayout(3.0, 3), 2),
                  lambda: build_binned_quadrature_povm(0.4, BinLayout(3.0, 3), 2)):
        with pytest.raises(ValueError, match="not PSD"):
            build()


def test_povm_set_deficit_is_always_computed():
    layout = BinLayout(default_x_max(2), 3)
    with pytest.raises(TypeError):
        BinnedHomodyne([0.0], layout, 2, deficit=0.0)
    with pytest.raises(TypeError):
        BinnedHomodyne([0.0], layout, 2, elements=np.eye(2)[None])
    measurement = BinnedHomodyne([0.0], layout, 2)
    direct = np.linalg.norm(np.eye(2) - np.sum(measurement.elements, axis=0), ord=2)
    assert measurement.deficit == direct


def test_born_is_formed_on_first_read_and_kept_read_only():
    layout = BinLayout(default_x_max(3), 5)
    single = build_binned_quadrature_povm(0.3, layout, 3)
    povm_span_rank([single])  # the span rank reads the elements only
    assert "born" not in vars(single)
    measurement = BinnedHomodyne([0.0, 1.1], layout, 3)
    born = measurement.born
    assert measurement.born is born
    assert np.array_equal(born, real_coordinates(measurement.elements))
    assert not born.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        born[...] = 0
    with pytest.raises(FrozenInstanceError):
        measurement.born = born


def test_bin_layout_validation_and_intervals():
    layout = BinLayout(2.0, 4)
    assert layout.n_elements == 6
    ivals = layout.intervals()
    assert ivals[0] == (-INF, -2.0)
    assert ivals[-1] == (2.0, INF)
    assert ivals[1] == (-2.0, -1.0)
    with pytest.raises(ValueError):
        BinLayout(-1.0, 4)
    with pytest.raises(ValueError):
        BinLayout(2.0, 0)


@pytest.mark.parametrize("n_bins", [2.5, True, False, "3", None, INF, math.nan])
def test_bin_layout_rejects_bin_counts_that_are_not_integers(n_bins):
    with pytest.raises(TypeError, match="n_bins must be an integer"):
        BinLayout(3.0, n_bins)


@pytest.mark.parametrize("x_max", [INF, -INF, math.nan])
def test_bin_layout_rejects_x_max_that_is_not_finite(x_max):
    with pytest.raises(ValueError, match="x_max must be positive and finite"):
        BinLayout(x_max, 3)


def test_bin_layout_normalizes_integral_bin_counts():
    layout = BinLayout(3.0, np.int64(3))
    assert type(layout.n_bins) is int and layout.n_elements == 5
    assert layout == BinLayout(3.0, 3)
    for n_bins in (3.0, np.float64(3.0)):  # a float is not a count, integral or not
        with pytest.raises(TypeError, match="^n_bins must be an integer$"):
            BinLayout(3.0, n_bins)


@pytest.mark.parametrize("x_max", [True, False, np.True_, "5", None, 3.0 + 0j])
def test_bin_layout_rejects_x_max_that_is_not_a_real_number(x_max):
    with pytest.raises(TypeError, match="x_max must be a real number"):
        BinLayout(x_max, 3)


def test_bin_layout_stores_x_max_as_a_float():
    for x_max in (5, np.int64(5), np.float32(5.0), Fraction(5)):
        layout = BinLayout(x_max, 3)
        assert type(layout.x_max) is float
        assert layout == BinLayout(5.0, 3) and repr(layout) == repr(BinLayout(5.0, 3))


@pytest.mark.parametrize("include_overflow", [1, 0, 1.0, "yes", None])
def test_bin_layout_rejects_overflow_flags_that_are_not_bools(include_overflow):
    with pytest.raises(TypeError, match="include_overflow must be a bool"):
        BinLayout(3.0, 3, include_overflow)


def test_bin_layout_accepts_numpy_bools():
    for flag in (np.True_, np.False_):
        layout = BinLayout(3.0, 3, flag)
        assert type(layout.include_overflow) is bool
        assert layout == BinLayout(3.0, 3, bool(flag))


# ------------------------------------------------------------ phase-0 bin memo
# a layout builds and checks its phase-0 bins once per dim and keeps them


def count_bin_builds(monkeypatch):
    calls = []
    original = povm_module.quadrature_bin_operator

    def counted(theta, a, b, dim):
        calls.append(dim)
        return original(theta, a, b, dim)

    monkeypatch.setattr(povm_module, "quadrature_bin_operator", counted)
    return calls


def test_a_layout_builds_its_phase_zero_bins_once_per_dim(monkeypatch):
    dim, m = 4, 5
    layout = BinLayout(default_x_max(dim), 2 * dim - 1)
    calls = count_bin_builds(monkeypatch)
    phases = [j * math.pi / m for j in range(m)]
    singles = [build_binned_quadrature_povm(theta, layout, dim) for theta in phases]
    many = BinnedHomodyne(phases, layout, dim)
    assert calls == [dim]
    assert np.array_equal(many.elements, np.concatenate([s.elements for s in singles]))
    assert len({s.deficit for s in singles} | {many.deficit}) == 1
    # an equal layout is another instance and builds again; so does a replace
    copies = (BinLayout(default_x_max(dim), 2 * dim - 1), dataclasses.replace(layout),
              copy.copy(layout), copy.deepcopy(layout), pickle.loads(pickle.dumps(layout)))
    for other in copies:
        assert other == layout and other._memo == {}
        rebuilt = BinnedHomodyne(phases, other, dim)
        assert np.array_equal(rebuilt.elements, many.elements)
        assert rebuilt.deficit == many.deficit
    assert calls == [dim] * 6
    assert list(layout._memo) == [dim]


def test_dims_on_one_layout_are_kept_apart(monkeypatch):
    layout = BinLayout(default_x_max(6), 7)
    calls = count_bin_builds(monkeypatch)
    small, large = (BinnedHomodyne([0.3, 1.2], layout, dim) for dim in (3, 6))
    again = BinnedHomodyne([0.3, 1.2], layout, 3)
    assert calls == [3, 6]
    assert sorted(layout._memo) == [3, 6]
    assert small.elements.shape == (18, 3, 3) and large.elements.shape == (18, 6, 6)
    assert np.array_equal(again.elements, small.elements)
    for m in (small, large):
        fresh = BinnedHomodyne([0.3, 1.2], BinLayout(default_x_max(6), 7), m.dim)
        assert np.array_equal(m.elements, fresh.elements) and m.deficit == fresh.deficit


def test_a_failing_psd_check_is_not_kept(monkeypatch):
    layout = BinLayout(3.0, 3)
    calls = []

    def negative_bins(theta, a, b, dim):
        calls.append(dim)
        return np.stack([np.diag([1.0, -0.5]).astype(complex)] * np.size(a))

    monkeypatch.setattr(povm_module, "quadrature_bin_operator", negative_bins)
    for _ in range(2):
        with pytest.raises(ValueError, match="not PSD"):
            BinnedHomodyne([0.0, 1.3], layout, 2)
        assert layout._memo == {}
    assert calls == [2, 2]
    monkeypatch.undo()
    assert BinnedHomodyne([0.0], layout, 2).deficit < 1e-8
    assert list(layout._memo) == [2]


def test_memoized_phase_zero_bins_are_real_and_read_only():
    layout = BinLayout(default_x_max(3), 5)
    measurement = BinnedHomodyne([0.0, 0.8], layout, 3)
    base, deficit = layout._bins(3)
    assert layout._bins(3)[0] is base
    assert base.dtype == np.float64 and base.flags.c_contiguous and base.base is None
    assert not base.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        base[...] = 0
    assert deficit == measurement.deficit
    assert np.array_equal(measurement.elements[: layout.n_elements], base)


def test_the_memo_leaves_layout_equality_hash_and_repr_alone():
    layout = BinLayout(3.0, 5)
    before = (repr(layout), hash(layout))
    BinnedHomodyne([0.0], layout, 3)
    assert layout._memo
    assert (repr(layout), hash(layout)) == before
    assert repr(layout) == "BinLayout(x_max=3.0, n_bins=5, include_overflow=True)"
    assert layout == BinLayout(3.0, 5) and hash(layout) == hash(BinLayout(3.0, 5))
    assert layout != BinLayout(3.0, 5, include_overflow=False)
    with pytest.raises(TypeError):
        BinLayout(3.0, 5, _memo={})


# ------------------------------------------------------------ DisplacedCounting


def test_displaced_zero_is_exact_number_projector():
    elements = DisplacedCounting([0.0], 6, 6).elements
    for n in (0, 2, 5):
        expect = np.zeros((6, 6), dtype=complex)
        expect[n, n] = 1.0
        assert np.array_equal(elements[n], expect)


def test_displaced_vacuum_matches_coherent_projector():
    beta = 0.9 - 0.6j
    dim = 6
    op = DisplacedCounting([beta], dim, dim).elements[0]
    vec = coherent_amplitudes(beta, dim)
    proj = np.outer(vec, vec.conj())
    assert np.max(np.abs(op - proj)) < 1e-9


def test_displaced_family_resolves_identity():
    beta, dim = 0.7 + 0.2j, 3
    guard = dim + 4 * math.ceil(abs(beta) ** 2) + 20
    total = DisplacedCounting([beta], guard, dim).elements.sum(axis=0)
    assert np.max(np.abs(total - np.eye(dim))) < 1e-8


def test_displaced_operator_is_psd_hermitian():
    elements = DisplacedCounting([1.1 + 0.4j], 5, 5).elements
    assert np.max(np.abs(elements - elements.conj().transpose(0, 2, 1))) < 1e-9
    assert np.linalg.eigvalsh(elements).min() > -1e-9


def test_displaced_counting_stacks_its_settings_in_order():
    betas = [0.0, 0.5j, -1.2]
    measurement = DisplacedCounting(np.array(betas), 7, 4)
    assert measurement.betas == measurement.settings == (0.0, 0.5j, -1.2 + 0j)
    assert measurement.elements.shape == (21, 4, 4)
    for i, beta in enumerate(betas):
        block = DisplacedCounting([beta], 7, 4).elements
        assert np.array_equal(measurement.elements[7 * i : 7 * i + 7], block)
    with pytest.raises(ValueError, match="read-only"):
        measurement.elements[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        measurement.born[0, 0] = 1.0


@pytest.mark.parametrize("beta", [math.nan, math.inf, complex(1.0, math.nan), complex(0.0, -math.inf)])
def test_displaced_counting_rejects_non_finite_displacements(beta):
    with pytest.raises(ValueError, match="^displacements must be finite$"):
        DisplacedCounting([0.5, beta], 3, 3)


def test_displaced_counting_rejects_empty_settings_and_empty_dims():
    with pytest.raises(ValueError, match="at least one displacement"):
        DisplacedCounting([], 3, 3)
    with pytest.raises(ValueError, match="dim must be positive"):
        DisplacedCounting([0.5], 3, 0)


def test_displaced_counting_has_no_size_limit_inside_the_float_range():
    # D(100)|n> keeps a weight of about e^-10^4 on levels < 3: it underflows to 0
    elements = DisplacedCounting([100], 3, 3).elements
    assert np.all(np.isfinite(elements)) and np.max(np.abs(elements)) < 1e-300
    elements = DisplacedCounting([0.0], 2049, 1).elements
    assert np.array_equal(elements[:, 0, 0], np.eye(2049, 1)[:, 0])
    # L_39^(a)(10^10) is about 10^390 / 39!: beyond the float range
    with pytest.raises(ValueError, match=r"^\|beta\|=100000 on dim=40 levels leaves the float range$"):
        DisplacedCounting([1e5], 40, 40)


def _ladder_projectors(beta, n_detect, dim):
    # reference: D(b) exponentiated on a ladder of dim + 4 ceil(|b|^2) + 20 levels
    # (n_detect if more) through the eigendecomposition of its Hermitian generator
    work_dim = max(dim + 4 * math.ceil(abs(beta) ** 2) + 20, n_detect)
    lower = np.diag(np.sqrt(np.arange(1.0, work_dim)), 1)  # annihilation
    lam, vec = np.linalg.eigh(-1j * (beta * lower.T - np.conj(beta) * lower))
    cols = ((vec * np.exp(1j * lam)) @ vec.conj().T)[:dim, :n_detect].T  # D(b)|n>
    return cols[:, :, None] * cols[:, None, :].conj()


@pytest.mark.parametrize("beta", [0.3, -1.2j, 0.7 + 0.4j, 2.0 - 1.0j, -3.5, 5.0j])
def test_displaced_counting_matches_the_exponentiated_ladder(beta):
    for dim in (1, 2, 5, 8):
        for n_detect in (dim, dim + 3, dim + 20):
            elements = DisplacedCounting([beta], n_detect, dim).elements
            assert np.max(np.abs(elements - _ladder_projectors(beta, n_detect, dim))) <= 1e-12


def test_displaced_counting_matches_the_ladder_far_from_the_vacuum():
    # a 436-level ladder; the forward recurrence D(b)|n> = (a^+ - b*) D(b)|n-1> / sqrt(n)
    # from |b> loses more than 1e-5 here, so this pins the closed form
    elements = DisplacedCounting([10j], 150, 16).elements
    assert np.max(np.abs(elements - _ladder_projectors(10j, 150, 16))) <= 1e-12


def test_displaced_counting_still_builds_at_beta_fifteen():
    elements = DisplacedCounting([15.0], 4, 4).elements
    assert elements.shape == (4, 4, 4)
    assert np.all(np.isfinite(elements))
    # D(15)|n> for n < 4 keeps a weight of about e^-225 on the lowest four levels
    assert np.abs(np.trace(elements.sum(axis=0))) < 1e-20

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from povmrank import (
    BinLayout,
    PovmSet,
    build_binned_quadrature_povm,
    coherent_amplitudes,
    default_x_max,
    displaced_number_operator,
    povm_deficit,
    quadrature_bin_operator,
)

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


def test_array_endpoints_equal_stacked_scalar_calls():
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


# ----------------------------------------------------------------- povm_deficit


def test_deficit_full_line_layout():
    dim = 6
    povm = build_binned_quadrature_povm(0.0, BinLayout(default_x_max(dim), 9), dim)
    assert povm_deficit(povm) < 1e-10


def test_deficit_of_default_layouts_is_rounding_level():
    for dim in [*range(1, 13), 20, 30, 40, 50, 60]:
        povm = build_binned_quadrature_povm(0.45, BinLayout(default_x_max(dim), 2 * dim - 1), dim)
        assert povm.deficit <= 1e-14, dim


def test_deficit_positive_without_overflow():
    # psi_5 keeps ~0.2 of its mass beyond |x| = 3
    povm = build_binned_quadrature_povm(0.0, BinLayout(3.0, 4, include_overflow=False), 6)
    assert povm_deficit(povm) > 1e-3


def test_deficit_of_identity_element():
    povm = PovmSet(dim=3, elements=[np.eye(3, dtype=complex)])
    assert povm_deficit(povm) == 0.0


# ---------------------------------------------------------------------- PovmSet


def test_povm_set_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        PovmSet(dim=2, elements=[bad])


def test_povm_set_rejects_negative_element():
    with pytest.raises(ValueError, match="PSD"):
        PovmSet(dim=2, elements=[np.diag([1.0, -0.5]).astype(complex)])


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[0.1, 0.2], [0.0, 0.1]], dtype=complex), "not Hermitian"),
        (np.diag([0.3, -0.01]).astype(complex), "not PSD"),
        (np.eye(3, dtype=complex), "shape does not match dim"),
    ],
)
def test_povm_set_rejects_one_bad_element_in_a_batch(bad, message):
    good = build_binned_quadrature_povm(0.2, BinLayout(default_x_max(2), 3), 2).elements
    for at in (0, 2, len(good)):
        with pytest.raises(ValueError, match=message):
            PovmSet(dim=2, elements=good[:at] + [bad] + good[at:])


def test_povm_set_json_roundtrip_bit_exact():
    povm = build_binned_quadrature_povm(0.37, BinLayout(4.2, 5), 4)
    text = json.dumps(povm.to_json_dict())
    restored = PovmSet.from_json_dict(json.loads(text))
    assert restored.dim == povm.dim
    assert restored.label == povm.label
    assert restored.deficit == povm.deficit
    for a, b in zip(povm.elements, restored.elements):
        assert np.array_equal(a, b)
    assert json.dumps(restored.to_json_dict()) == text


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


# ------------------------------------------------------ displaced_number_operator


def test_displaced_zero_is_exact_number_projector():
    for n in (0, 2, 5):
        op = displaced_number_operator(0.0, n, 6)
        expect = np.zeros((6, 6), dtype=complex)
        expect[n, n] = 1.0
        assert np.array_equal(op, expect)


def test_displaced_vacuum_matches_coherent_projector():
    beta = 0.9 - 0.6j
    dim = 6
    op = displaced_number_operator(beta, 0, dim)
    vec, _ = coherent_amplitudes(beta, dim)
    proj = np.outer(vec.amplitudes, vec.amplitudes.conj())
    assert np.max(np.abs(op - proj)) < 1e-9


def test_displaced_family_resolves_identity():
    beta, dim = 0.7 + 0.2j, 3
    guard = dim + 4 * math.ceil(abs(beta) ** 2) + 20
    total = sum(
        displaced_number_operator(beta, n, dim, guard) for n in range(guard)
    )
    assert np.max(np.abs(total - np.eye(dim))) < 1e-8


def test_displaced_guard_rejected():
    with pytest.raises(ValueError, match="guard"):
        displaced_number_operator(2.0, 0, 4, work_dim=10)


def test_displaced_operator_is_psd_hermitian():
    op = displaced_number_operator(1.1 + 0.4j, 3, 5)
    assert np.max(np.abs(op - op.conj().T)) < 1e-9
    assert np.linalg.eigvalsh(op).min() > -1e-9

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite

from povmrank import (
    DensityMatrix,
    SupportSet,
    coherent_amplitudes,
    hermite_function_table,
    hermitian_to_real_vector,
    homodyne_pdf_grid,
    photon_number_probability,
    real_coordinates,
)

SQRT_PI = math.sqrt(math.pi)


def scaled_hermite(n, x):
    """Independent oracle: psi_n(x) e^{x^2/2} via scipy Hermite values and
    log-normalization (no recurrence shared with the production path)."""
    norm = math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))
    return math.pi**-0.25 * norm * eval_hermite(n, x)


# ------------------------------------------------------ hermite_function_table


def test_hermite_function_vacuum_at_origin():
    assert hermite_function_table(0, 0.0)[0, 0] == pytest.approx(math.pi**-0.25, rel=1e-15)


def test_hermite_function_odd_vanishes_at_origin():
    assert hermite_function_table(1, 0.0)[1, 0] == 0.0


def test_hermite_function_matches_raw_formula():
    # psi_n * pi^(1/4) * sqrt(2^n n!) * e^(x^2/2) reproduces H_n for n <= 40
    xs = np.linspace(-6, 6, 25)
    table = hermite_function_table(40, xs)
    for n in range(41):
        raw = eval_hermite(n, xs)
        lifted = (
            table[n]
            * math.pi**0.25
            * math.exp(0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)))
            * np.exp(0.5 * xs**2)
        )
        scale = np.max(np.abs(raw))
        assert np.allclose(lifted, raw, rtol=1e-9, atol=1e-9 * scale)
    # frozen value: psi_2(1) = pi^(-1/4) e^(-1/2) / sqrt(2)
    assert hermite_function_table(2, 1.0)[2, 0] == pytest.approx(0.3221441825567377, rel=1e-12)


def test_hermite_function_unit_norm():
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    table = hermite_function_table(30, nodes)
    for n in range(31):
        phi = np.array([scaled_hermite(n, x) for x in nodes])
        prod = table[n] * np.exp(0.5 * nodes**2)
        # production values against the oracle on the quadrature nodes
        assert np.allclose(prod, phi, rtol=1e-9, atol=1e-12)
        norm = float(np.sum(weights * prod * prod))
        assert abs(norm - 1.0) < 1e-10


def test_orthonormality_up_to_20():
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    table = hermite_function_table(20, nodes) * np.exp(0.5 * nodes**2)
    gram = (table * weights) @ table.T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_hermite_function_stable_for_large_n():
    n = 1000
    turning = math.sqrt(2 * n + 1)
    xs = np.arange(-turning - 5, turning + 5, 0.02)  # keeps the table near 40 MB
    vals = hermite_function_table(n, xs)[n]
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0
    norm = np.trapezoid(vals * vals, xs)
    assert abs(norm - 1.0) < 1e-6


def test_hermite_functions_vanish_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = hermite_function_table(3, [math.inf, -math.inf, 1e200, -1e300, 1.0])
        pdf = homodyne_pdf_grid(DensityMatrix.pure([1.0, 1.0]), 0.0, [math.inf, -math.inf])
        nan_table = hermite_function_table(3, [math.nan, 1.0])
    assert np.array_equal(table[:, :4], np.zeros((4, 4)))
    assert np.array_equal(table[:, 4], hermite_function_table(3, [1.0])[:, 0])
    assert np.array_equal(pdf, [0.0, 0.0])
    assert np.isnan(nan_table[:, 0]).all()
    assert np.array_equal(nan_table[:, 1], table[:, 4])


@pytest.mark.parametrize("top", [0, 1, 5, 15, 59, 400])
def test_hermite_functions_mirror_bit_for_bit_at_gauss_hermite_nodes(top):
    # psi_n(-x) = (-1)^n psi_n(x) exactly at the +-x node pairs: the rank
    # oracle and design_matrix keep only the positive half of the table
    from povmrank.completeness import _hermgauss_nodes

    nodes = _hermgauss_nodes(2 * top + 2)
    assert np.array_equal(nodes, -nodes[::-1]) and not np.any(nodes == 0.0)
    sign = (-1.0) ** np.arange(top + 1)[:, None]
    assert np.array_equal(hermite_function_table(top, -nodes), sign * hermite_function_table(top, nodes))


# ------------------------------------------------------------ homodyne_pdf_grid


def test_vacuum_pdf_is_gaussian():
    vac = DensityMatrix.pure([1.0])
    assert homodyne_pdf_grid(vac, 0.4, [0.0])[0] == pytest.approx(1.0 / SQRT_PI, rel=1e-13)
    for x in (-1.5, 0.7):
        assert homodyne_pdf_grid(vac, 0.0, [x])[0] == pytest.approx(
            math.exp(-x * x) / SQRT_PI, rel=1e-13
        )


def test_one_photon_pdf_vanishes_at_origin():
    one = DensityMatrix.pure([0.0, 1.0])
    assert homodyne_pdf_grid(one, 1.2, [0.0])[0] == 0.0


def test_counterexample_states_share_position_distribution():
    mixed = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    plus = DensityMatrix.pure([1.0, 1.0j])
    minus = DensityMatrix.pure([1.0, -1.0j])
    xs = np.linspace(-4, 4, 101)
    p_mixed = homodyne_pdf_grid(mixed, 0.0, xs)
    p_plus = homodyne_pdf_grid(plus, 0.0, xs)
    p_minus = homodyne_pdf_grid(minus, 0.0, xs)
    assert np.max(np.abs(p_mixed - p_plus)) < 1e-14
    assert np.max(np.abs(p_mixed - p_minus)) < 1e-14


def test_pdf_positive_and_normalized_for_random_states(rng, make_rho):
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    thetas = np.arange(12) * math.pi / 12
    for _ in range(100):
        dim = int(rng.integers(1, 11))
        rho = make_rho(rng, dim)
        theta = float(thetas[rng.integers(0, 12)])
        pdf = homodyne_pdf_grid(rho, theta, nodes)
        assert np.min(pdf) >= -1e-12
        integral = float(np.sum(weights * pdf * np.exp(nodes**2)))
        assert abs(integral - 1.0) < 1e-8


def test_pdf_phase_covariance(rng, make_rho):
    # shifting the phase equals conjugating the state by the number-basis
    # rotation diag(e^{-i n phi})
    rho = make_rho(rng, 5)
    phi = 0.8342
    rotation = np.diag(np.exp(-1j * np.arange(5) * phi))
    rotated = DensityMatrix(rotation @ rho.entries @ rotation.conj().T)
    for x in (-1.1, 0.2, 2.5):
        for theta in (0.0, 0.6, 2.1):
            lhs = homodyne_pdf_grid(rho, theta + phi, [x])[0]
            rhs = homodyne_pdf_grid(rotated, theta, [x])[0]
            assert lhs == pytest.approx(rhs, abs=1e-12)


# ------------------------------------------------------------------- coherent


def test_coherent_vacuum():
    vec = coherent_amplitudes(0.0, 4)
    assert np.array_equal(vec, [1, 0, 0, 0])


def test_coherent_norm_plus_tail(rng):
    for _ in range(20):
        alpha = complex(rng.normal(), rng.normal())
        n_cut = int(rng.integers(1, 30))
        vec = coherent_amplitudes(alpha, n_cut)
        tail = math.fsum(photon_number_probability(alpha, n) for n in range(n_cut, n_cut + 200))
        total = float(np.sum(np.abs(vec) ** 2)) + tail
        assert abs(total - 1.0) < 1e-14


def test_coherent_tail_alpha_one():
    # Poisson(1) mass above n=19 is ~1.6e-19
    tail = 1.0 - float(np.sum(np.abs(coherent_amplitudes(1.0, 20)) ** 2))
    assert abs(tail) < 1e-15


def test_coherent_matches_direct_formula():
    alpha = 0.7 - 0.4j
    vec = coherent_amplitudes(alpha, 12)
    for n in range(12):
        direct = (
            math.exp(-0.5 * abs(alpha) ** 2)
            * alpha**n
            / math.sqrt(math.factorial(n))
        )
        assert vec[n] == pytest.approx(direct, rel=1e-12)


# --------------------------------------------------- photon_number_probability


def test_photon_number_base_cases():
    assert photon_number_probability(0.0, 0) == 1.0
    assert photon_number_probability(0.0, 3) == 0.0
    assert photon_number_probability(1.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_photon_number_phase_invariance_exact_rotations():
    alpha = 0.8 + 0.5j
    for n in (0, 1, 5, 40):
        base = photon_number_probability(alpha, n)
        for rot in (1j, -1.0, -1j):
            assert photon_number_probability(alpha * rot, n) == base


def test_photon_number_phase_invariance_generic_rotation():
    # e^{i phi} multiplication rounds |alpha| in the last ulp only
    alpha = 1.3
    for phi in (0.3, 1.9, 4.4):
        for n in (0, 2, 17):
            rotated = alpha * complex(math.cos(phi), math.sin(phi))
            assert photon_number_probability(rotated, n) == pytest.approx(
                photon_number_probability(alpha, n), rel=1e-13
            )


def test_photon_number_sums_to_one():
    for a in (0.3, 1.0, 2.2, 3.0):
        total = math.fsum(photon_number_probability(a, n) for n in range(101))
        assert abs(total - 1.0) < 1e-12


# ------------------------------------------------------ hermitian_to_real_vector


def test_vectorize_identity_two_level():
    vec = hermitian_to_real_vector(np.eye(2))
    assert sorted(vec.tolist()) == [0.0, 0.0, 1.0, 1.0]
    assert np.linalg.norm(vec) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_vectorize_zero_matrix():
    assert np.array_equal(hermitian_to_real_vector(np.zeros((3, 3))), np.zeros(9))


def test_vectorize_is_isometry(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g + g.conj().T
        vec = hermitian_to_real_vector(a)
        assert vec.size == dim * dim
        assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(a), rel=1e-12)


def test_vectorize_inner_product_is_trace(rng):
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        g1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g2 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a, b = g1 + g1.conj().T, g2 + g2.conj().T
        dot = float(np.dot(hermitian_to_real_vector(a), hermitian_to_real_vector(b)))
        assert dot == pytest.approx(float(np.trace(a @ b).real), abs=1e-12 * dim * 16)


def test_vectorize_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_to_real_vector(bad)


def _random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def test_real_coordinates_batch_matches_single_operator_rows(rng):
    batch = np.stack([_random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    coords = real_coordinates(batch)
    assert coords.shape == (2, 3, 16)
    ops = batch.reshape(6, 4, 4)
    singles = np.stack([hermitian_to_real_vector(op) for op in ops])
    assert np.array_equal(coords.reshape(6, 16), singles)
    # the basis spelled out entry by entry: diagonal, then sqrt(2) Re and Im of k < l
    upper = [(k, l) for k in range(4) for l in range(k + 1, 4)]
    for op, row in zip(ops, coords.reshape(6, 16)):
        ref = [op[k, k].real for k in range(4)]
        ref += [math.sqrt(2.0) * op[k, l].real for k, l in upper]
        ref += [math.sqrt(2.0) * op[k, l].imag for k, l in upper]
        assert np.array_equal(row, ref)


def test_real_coordinates_and_their_inverse_round_trip(rng):
    from povmrank.fock import _coordinates_to_hermitian

    for dim in (1, 2, 5, 8):
        ops = np.stack([_random_hermitian(rng, dim) for _ in range(4)])
        ops /= np.linalg.norm(ops, axis=(1, 2), keepdims=True)
        back = _coordinates_to_hermitian(real_coordinates(ops))
        assert np.max(np.abs(back - ops)) <= 1e-15
        assert np.array_equal(back, back.conj().swapaxes(1, 2))  # Hermitian exactly
        x = rng.normal(size=(3, dim * dim))
        assert np.max(np.abs(real_coordinates(_coordinates_to_hermitian(x)) - x)) <= 1e-15


@pytest.mark.parametrize("entry", [(0, 1), (2, 0), (1, 1)])
def test_real_coordinates_rejects_one_non_hermitian_element(rng, entry):
    batch = np.stack([_random_hermitian(rng, 3) for _ in range(5)])
    batch[(2, *entry)] += 1e-6j
    with pytest.raises(ValueError, match="Hermitian"):
        real_coordinates(batch)


def test_real_coordinates_accept_a_large_norm_hermitian_operator(rng):
    # W G W with W the inverse of a d = 8 state whose smallest eigenvalues
    # are 5e-6 to 2e-5: entries near 1e9 carry a rounding asymmetry far
    # above 1e-10 but near 1e-12 of the largest entry
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    eig = np.array([5e-6, 1e-5, 2e-5, 0.1, 0.15, 0.2, 0.25, 0.3])
    w = np.linalg.inv((q * (eig / eig.sum())) @ q.conj().T)
    g = np.zeros((8, 8), dtype=complex)
    g[1, 6] = g[6, 1] = 1.0 / math.sqrt(2.0)
    op = w @ g @ w
    asym = np.max(np.abs(op - op.conj().T))
    assert asym > 1e-10 and asym < 1e-11 * np.max(np.abs(op))
    herm = 0.5 * (op + op.conj().T)
    assert np.max(np.abs(real_coordinates(op) - real_coordinates(herm))) <= asym


def test_real_coordinates_reject_a_large_norm_operator_off_by_1e_6(rng):
    op = 1e9 * _random_hermitian(rng, 4) / 4.0
    op[0, 2] += 1e-6 * np.max(np.abs(op))
    with pytest.raises(ValueError, match="Hermitian"):
        real_coordinates(op)


# ----------------------------------------------------------------------- types


def test_density_matrix_rejects_invalid():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="PSD"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    for bad in (np.diag([math.nan, math.nan]), np.diag([1.0, math.inf])):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(bad)
    for amplitudes in ([math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix.pure(amplitudes)


def test_density_matrix_constructors():
    mixed = DensityMatrix.maximally_mixed(4)
    assert mixed.dim == 4
    assert np.trace(mixed.entries) == pytest.approx(1.0)
    pure = DensityMatrix.pure([3.0, 4.0])  # normalized on input
    assert np.real(pure.entries[0, 0]) == pytest.approx(0.36, rel=1e-12)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1.7e308, 5e-324])
def test_pure_normalizes_extreme_finite_amplitudes(scale, recwarn):
    # |c|^2 overflows or underflows float64 at both ends; the state does not
    rho = DensityMatrix.pure([scale, scale * 1j])
    assert np.allclose(rho.entries, [[0.5, -0.5j], [0.5j, 0.5]], rtol=0, atol=1e-15)
    assert not recwarn.list
    with pytest.raises(ValueError, match="zero vector"):
        DensityMatrix.pure([0.0, 0.0])


def test_pure_keeps_ordinary_amplitudes_bit_identical():
    c = np.array([0.3, -1.2j, 2.5 + 0.1j])
    c = c / np.linalg.norm(c)
    assert np.array_equal(DensityMatrix.pure([0.3, -1.2j, 2.5 + 0.1j]).entries,
                          np.outer(c, c.conj()))


def test_support_set_validation():
    sup = SupportSet((0, 4, 8))
    assert sup.size == 3
    assert not sup.is_contiguous
    assert SupportSet.contiguous(3).is_contiguous
    with pytest.raises(ValueError):
        SupportSet(())
    with pytest.raises(ValueError):
        SupportSet((3, 3))
    with pytest.raises(ValueError):
        SupportSet((-1, 2))
    with pytest.raises(TypeError, match="Fock index must be an integer"):
        SupportSet((0, 1.5, 2.9))
    with pytest.raises(TypeError, match="Fock index must be an integer"):
        SupportSet(("0", "3"))

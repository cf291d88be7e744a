import cmath
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import povmrank.povm
from povmrank import (
    BinLayout,
    BinnedHomodyne,
    DensityMatrix,
    DisplacedCounting,
    MeasurementData,
    ReconstructionResult,
    ambiguity_witness,
    bin_samples,
    build_binned_quadrature_povm,
    coherent_amplitudes,
    default_x_max,
    fidelity,
    homodyne_pdf_grid,
    ml_reconstruct,
    numerical_rank,
    real_coordinates,
    sample_homodyne,
    simulate_dataset,
)


def counterexample_states():
    mixed = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    plus = DensityMatrix.pure([1.0, 1.0j])
    minus = DensityMatrix.pure([1.0, -1.0j])
    return [mixed, plus, minus]


# --------------------------------------------------------------- sample_homodyne


def test_vacuum_samples_have_half_variance():
    vac = DensityMatrix.pure([1.0])
    xs = sample_homodyne(vac, 0.0, 1_000_000, seed=11)
    assert abs(xs.var() - 0.5) < 0.005
    assert abs(xs.mean()) < 0.005


def test_one_photon_density_dips_at_origin():
    one = DensityMatrix.pure([0.0, 1.0])
    xs = sample_homodyne(one, 0.0, 200_000, seed=3)
    for width in (0.4, 0.2, 0.1):
        frac = np.mean(np.abs(xs) < width / 2)
        density = frac / width
        assert density < 0.12 * width  # p(x) ~ 2 x^2 e^{-x^2}/sqrt(pi) near 0


def test_sampling_is_deterministic():
    rho = DensityMatrix.pure([1.0, 0.5, 0.25])
    a = sample_homodyne(rho, 0.7, 5000, seed=99)
    b = sample_homodyne(rho, 0.7, 5000, seed=99)
    assert np.array_equal(a, b)
    c = sample_homodyne(rho, 0.7, 5000, seed=100)
    assert not np.array_equal(a, c)


def test_sampling_rejects_bad_seed():
    vac = DensityMatrix.pure([1.0])
    with pytest.raises(ValueError, match="seed"):
        sample_homodyne(vac, 0.0, 10, seed=-1)


@pytest.mark.parametrize("seed", [1.5, True])
def test_seeds_must_be_integers(seed):
    rho = DensityMatrix.pure([1.0, 1.0])
    with pytest.raises(TypeError, match="seed must be an integer"):
        sample_homodyne(rho, 0.0, 10, seed=seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        simulate_dataset(rho, BinnedHomodyne([0.0], BinLayout(2.0, 3), rho.dim), 10, seed=seed)


def test_numpy_integer_seeds_draw_like_python_ints():
    rho = DensityMatrix.pure([1.0, 1.0])
    assert np.array_equal(sample_homodyne(rho, 0.0, 10, seed=np.int64(3)),
                          sample_homodyne(rho, 0.0, 10, seed=3))
    measurement = BinnedHomodyne([0.0, 1.0], BinLayout(2.0, 3), rho.dim)
    a = simulate_dataset(rho, measurement, 100, seed=np.int64(3))
    b = simulate_dataset(rho, measurement, 100, seed=3)
    for x, y in zip(a.counts, b.counts):
        assert np.array_equal(x, y)


# ------------------------------------------------------------------- bin_samples


def test_all_samples_in_one_bin():
    layout = BinLayout(1.0, 1, include_overflow=True)
    counts = bin_samples(np.full(50, 0.2), layout)
    assert counts.tolist() == [0, 50, 0]


def test_empty_samples_give_zero_vector():
    layout = BinLayout(2.0, 3)
    assert bin_samples(np.array([]), layout).tolist() == [0] * 5


def test_binning_captures_tails_and_conserves_total():
    layout = BinLayout(1.0, 2, include_overflow=True)
    counts = bin_samples(np.array([-5.0, -0.5, 0.5, 0.5, 7.0]), layout)
    assert counts.tolist() == [1, 1, 2, 1]
    assert counts.sum() == 5


def test_binning_rejects_nan_and_keeps_infinities_in_overflow():
    layout = BinLayout(3.0, 3)
    with pytest.raises(ValueError, match="NaN"):
        bin_samples([0.0, math.nan, 5.0], layout)
    assert bin_samples([-math.inf, 0.0, math.inf], layout).tolist() == [1, 0, 1, 0, 1]


def test_symmetric_state_balances_left_right():
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))  # even |0>,|1> densities
    n = 400_000
    xs = sample_homodyne(rho, 0.0, n, seed=21)
    left = int(np.sum(xs < 0))
    right = n - left
    assert abs(left - right) <= 4 * math.sqrt(n)


# ---------------------------------------------------------- BinnedHomodyne


def test_binned_homodyne_builds_one_set_per_phase():
    layout = BinLayout(default_x_max(3), 5)
    measurement = BinnedHomodyne([0.0, 1, 2.5], layout, 3)
    assert measurement.phases == (0.0, 1.0, 2.5)
    assert measurement.elements.shape == (3 * layout.n_elements, 3, 3)
    assert measurement.born.shape == (3 * layout.n_elements, 9)
    with pytest.raises(ValueError, match="at least one phase"):
        BinnedHomodyne([], layout, 3)
    with pytest.raises(TypeError, match="BinLayout"):
        BinnedHomodyne([0.0], {"x_max": layout.x_max, "n_bins": layout.n_bins}, 3)
    assert type(BinnedHomodyne([0.0], layout, np.int64(3)).dim) is int


def test_binned_homodyne_builds_once_and_rotates(monkeypatch):
    original = povmrank.povm.quadrature_bin_operator
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(povmrank.povm, "quadrature_bin_operator", counting)
    layout = BinLayout(default_x_max(4), 7)
    phases = [0.0, 0.4, 1.3, 2.2, 3.0]
    measurement = BinnedHomodyne(phases, layout, 4)
    assert calls == [0.0]
    blocks = measurement.elements.reshape(len(phases), layout.n_elements, 4, 4)
    for theta, block in zip(phases, blocks):
        assert np.array_equal(block, build_binned_quadrature_povm(theta, layout, 4).elements)


@pytest.mark.parametrize("dim", [3.0, True, "3", None])
def test_binned_homodyne_rejects_dims_that_are_not_integers(dim):
    with pytest.raises(TypeError, match="dim must be an integer"):
        BinnedHomodyne([0.0], BinLayout(2.0, 3), dim)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_binned_homodyne_rejects_non_finite_phases_before_any_arithmetic(bad):
    layout = BinLayout(2.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phases must be finite"):
            BinnedHomodyne([0.0, bad], layout, 2)
        with pytest.raises(ValueError, match="phases must be finite"):
            ambiguity_witness(counterexample_states(), BinnedHomodyne([bad], layout, 2))
        with pytest.raises(ValueError, match="phases must be finite"):
            sample_homodyne(DensityMatrix.pure([1.0, 1.0]), bad, 5, seed=1)
        with pytest.raises(ValueError, match="phases must be finite"):
            homodyne_pdf_grid(DensityMatrix.pure([1.0, 1.0]), bad, [0.0, 1.0])


def test_simulated_data_carry_the_sets_they_were_drawn_from():
    dim, phases = 3, [0.0, 0.7, 2.0]
    layout = BinLayout(default_x_max(dim), 2 * dim - 1)
    measurement = BinnedHomodyne(phases, layout, dim)
    data = simulate_dataset(DensityMatrix.maximally_mixed(dim), measurement, 100, seed=6)
    assert data.measurement is measurement
    assert data.settings == measurement.settings == tuple((theta, layout) for theta in phases)
    assert data.measurement.dim == dim
    built = [build_binned_quadrature_povm(theta, layout, dim).elements for theta in phases]
    assert np.array_equal(data.measurement.elements, np.concatenate(built))
    assert data.counts.shape == (len(phases), layout.n_elements)


# -------------------------------------------------------------- MeasurementData


def _one_setting(layout, dim=2):
    return BinnedHomodyne([0.0], layout, dim)


def test_measurement_data_validation():
    one = _one_setting(BinLayout(2.0, 2))
    two = BinnedHomodyne([0.0, 1.0], BinLayout(2.0, 2), 2)
    with pytest.raises(ValueError, match="same positive sum"):
        MeasurementData(measurement=two, counts=[[1, 1, 1, 1], [2, 3, 0, 0]])
    with pytest.raises(ValueError, match="same positive sum"):
        MeasurementData(measurement=one, counts=[[0, 0, 0, 0]])
    with pytest.raises(ValueError, match="non-negative"):
        MeasurementData(measurement=one, counts=[[-1, 3, 2, 1]])
    with pytest.raises(ValueError, match="length"):
        MeasurementData(measurement=one, counts=[[2, 3]])
    with pytest.raises(ValueError, match="one count vector per setting"):
        MeasurementData(measurement=one, counts=[[2, 3, 0, 0]] * 2)
    # ragged rows get the same messages, not numpy's "inhomogeneous shape"
    with pytest.raises(ValueError, match="length"):
        MeasurementData(measurement=two, counts=[[2, 3, 0, 0], [2, 3]])
    with pytest.raises(ValueError, match="one count vector per setting"):
        MeasurementData(measurement=two, counts=[[2, 3, 0, 0], [2, 3], [5]])
    for scalar in (5, np.int64(5), np.array(5)):
        with pytest.raises(ValueError, match="one count vector per setting"):
            MeasurementData(measurement=one, counts=scalar)
    with pytest.raises(ValueError, match="one count vector per setting"):
        MeasurementData(measurement=one, counts=[2, 3, 0, 0])  # a row, not a list of rows
    # the measurement is read through its fields: a missing one is named
    with pytest.raises(TypeError, match="measurement has no 'settings'"):
        MeasurementData(measurement=one.elements, counts=[[2, 3, 0, 0]])
    with pytest.raises(TypeError, match="measurement has no 'elements'"):
        MeasurementData(measurement=SimpleNamespace(settings=one.settings), counts=[[2, 3, 0, 0]])
    data = MeasurementData(measurement=two, counts=[[1, 1, 1, 1], [2, 2, 0, 0]])
    assert data.counts.dtype == np.int64 and data.counts.shape == (2, 4)
    assert not data.counts.flags.writeable
    assert data.total_per_setting == 4


def test_measurement_data_rejects_counts_that_are_not_whole():
    layout = BinLayout(2.0, 2)
    data = MeasurementData(measurement=_one_setting(layout), counts=[[1.0, 1.0, 0.0, 0.0]])
    assert data.counts[0].tolist() == [1, 1, 0, 0]
    nan, inf = float("nan"), float("inf")
    for bad in ([1.9, 1.9, 0.9, 0.9], [nan, 2, 0, 0], [inf, 2, 0, 0], [1e30, 2, 0, 0],
                [1 + 0j, 1, 0, 0], [1 + 1j, 1, 0, 0], ["1", "1", "0", "0"], [1, 1, None, 0],
                [True, True, False, False]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning on the way to the error
            with pytest.raises(ValueError, match="counts must be whole numbers"):
                MeasurementData(measurement=_one_setting(layout), counts=[bad])


def test_simulate_dataset_uses_derived_seeds():
    rho = DensityMatrix.pure([1.0, 1.0])
    measurement = BinnedHomodyne([0.0, 0.0001], BinLayout(default_x_max(2), 3), rho.dim)
    data = simulate_dataset(rho, measurement, 2000, seed=40)
    # nearly equal phases, different derived seeds: counts differ
    assert not np.array_equal(data.counts[0], data.counts[1])
    again = simulate_dataset(rho, measurement, 2000, seed=40)
    for a, b in zip(data.counts, again.counts):
        assert np.array_equal(a, b)


def test_simulate_dataset_seeds_share_no_streams():
    # a phase-invariant state gives every setting the same count distribution,
    # so two settings that drew from one stream would give equal counts
    dim, m = 3, 4
    rho = DensityMatrix.pure([0.0, 1.0, 0.0])
    layout = BinLayout(default_x_max(dim), 5)
    measurement = BinnedHomodyne([j * math.pi / m for j in range(m)], layout, dim)
    vectors = {tuple(vec.tolist())
               for seed in range(m + 1)
               for vec in simulate_dataset(rho, measurement, 1000, seed=seed).counts}
    assert len(vectors) == m * (m + 1)


def test_simulated_counts_follow_the_exact_bin_probabilities():
    # vacuum keeps erfc(1)/2 ~ 7.9 % of its mass in each overflow bin of
    # BinLayout(1.0, 3) at every phase
    dim, total = 6, 200_000
    rho = DensityMatrix.pure([1.0] + [0.0] * (dim - 1))
    layout = BinLayout(1.0, 3)
    phases = [0.0, 0.9, 2.3]
    data = simulate_dataset(rho, BinnedHomodyne(phases, layout, dim), total, seed=31)
    for theta, vec in zip(phases, data.counts):
        povm = build_binned_quadrature_povm(theta, layout, dim)
        p = np.array([np.real(np.trace(rho.entries @ el)) for el in povm.elements])
        assert p[[0, -1]] == pytest.approx([math.erfc(1.0) / 2] * 2, rel=1e-12)
        assert int(vec.sum()) == total
        assert np.all(np.abs(vec - total * p) <= 5 * np.sqrt(total * p * (1 - p)))


def test_simulate_without_overflow_rejects_lost_mass():
    rho = DensityMatrix.pure([1.0, 0.0])
    measurement = BinnedHomodyne([0.0], BinLayout(1.0, 3, include_overflow=False), rho.dim)
    with pytest.raises(ValueError, match="sum to total_per_setting"):
        simulate_dataset(rho, measurement, 1000, seed=3)


@pytest.mark.parametrize("total", [True, 10.5])
def test_total_per_setting_must_be_an_integer(total):
    rho = DensityMatrix.pure([1.0, 1.0])
    with pytest.raises(TypeError, match="total_per_setting must be an integer"):
        simulate_dataset(rho, BinnedHomodyne([0.0], BinLayout(2.0, 3), rho.dim), total, seed=1)


def test_simulate_and_witness_reject_a_state_of_another_dim():
    measurement = BinnedHomodyne([0.0, 1.0], BinLayout(default_x_max(3), 5), 3)
    qubit = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="state dim 2 != measurement dim 3"):
        simulate_dataset(qubit, measurement, 100, seed=1)
    with pytest.raises(ValueError, match=r"state dims \[3, 2\] != measurement dim 3"):
        ambiguity_witness([DensityMatrix.maximally_mixed(3), qubit], measurement)


def test_simulate_validates_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rho = DensityMatrix.pure([1.0, 1.0])
    measurement = BinnedHomodyne([0.0, 1.0], BinLayout(default_x_max(2), 3), rho.dim)
    with pytest.raises(ValueError, match="seed"):
        simulate_dataset(rho, measurement, 100, seed=-1)
    with pytest.raises(ValueError, match="total_per_setting must be positive"):
        simulate_dataset(rho, measurement, 0, seed=1)


# --------------------------------------------------------------- ml_reconstruct


def _ic_setup(dim=3):
    phases = [j * math.pi / dim for j in range(dim)]
    layout = BinLayout(default_x_max(dim), 2 * dim - 1, include_overflow=True)
    povms = [build_binned_quadrature_povm(t, layout, dim) for t in phases]
    return phases, layout, povms


def test_ml_recovers_state_from_ic_settings():
    dim = 3
    phases, layout, _ = _ic_setup(dim)
    rho_true = DensityMatrix.pure([1.0, 1.0, 1.0])
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, dim), 100_000, seed=42)
    result = ml_reconstruct(data)
    assert fidelity(result.estimate, rho_true) >= 0.99
    gains = np.diff(result.log_likelihood_trace)
    assert np.min(gains) > -1e-10


def test_ml_single_quadrature_pins_populations_only():
    # position data determines a qubit's populations but not the imaginary
    # coherence
    dim = 2
    layout = BinLayout(default_x_max(dim), 2 * dim - 1)
    rho_true = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    data = simulate_dataset(rho_true, BinnedHomodyne([0.0], layout, dim), 100_000, seed=7)
    result = ml_reconstruct(data)
    est_diag = np.real(np.diag(result.estimate.entries))
    assert np.max(np.abs(est_diag - [0.7, 0.3])) < 0.02


def _project_by_bisection(h):
    # reference projection onto density matrices: eigenvalues w -> max(w - tau, 0)
    # with the shift tau found by bisection so that they sum to one
    w, v = np.linalg.eigh(h)
    lo, hi = w.min() - 1.0, w.max()
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        lo, hi = (tau, hi) if np.maximum(w - tau, 0.0).sum() > 1.0 else (lo, tau)
    return (v * np.maximum(w - 0.5 * (lo + hi), 0.0)) @ v.conj().T


def _certificate(rho, data):
    """(L(rho), N (lambda_max(R) - 1)) over the observed bins, from the elements."""
    ops = np.concatenate([build_binned_quadrature_povm(theta, layout, len(rho)).elements
                          for theta, layout in data.settings])
    counts = data.counts.ravel().astype(float)
    seen = counts > 0
    p = np.real(np.einsum("kl,jlk->j", rho, ops[seen]))
    total = counts.sum()
    r_op = np.einsum("j,jkl->kl", counts[seen] / (total * p), ops[seen])
    loglik = math.fsum((counts[seen] * np.log(p)).tolist())
    return loglik, total * (np.linalg.eigvalsh(r_op)[-1] - 1.0), r_op


def _criterion_6_data():
    dim = 3
    phases, layout, _ = _ic_setup(dim)
    rho_true = DensityMatrix.pure([1.0, 1.0, 1.0])
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, dim), 100_000, seed=42)
    return rho_true, data


def test_ml_estimate_is_a_projected_gradient_fixed_point():
    # sigma = P(rho + R) satisfies |sigma - rho|^2 <= Tr(R (sigma - rho))
    # <= lambda_max(R) - 1, so a certified estimate barely moves under one step
    dim = 4
    phases, layout, _ = _ic_setup(dim)
    rho_true = DensityMatrix.pure([1.0, 0.5j, -0.3, 0.2])
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, dim), 50_000, seed=3)
    result = ml_reconstruct(data)
    assert result.stop == "certified"
    rho = result.estimate.entries
    _loglik, gap, r_op = _certificate(rho, data)
    moved = np.linalg.norm(_project_by_bisection(rho + r_op) - rho)
    assert moved <= math.sqrt(max(gap, 0.0) / (dim * 50_000)) + 1e-9


def test_ml_reports_its_certificate(rng, make_rho):
    rho_true, data = _criterion_6_data()
    result = ml_reconstruct(data)
    loglik, gap, _r_op = _certificate(result.estimate.entries, data)
    assert result.gap_bound == pytest.approx(gap, abs=1e-8)
    assert result.log_likelihood_trace[-1] == pytest.approx(loglik, rel=1e-12)
    # concavity: no state beats the estimate by more than the bound
    for sigma in [rho_true] + [make_rho(rng, 3) for _ in range(20)]:
        assert _certificate(sigma.entries, data)[0] <= loglik + result.gap_bound + 1e-6


def test_ml_certifies_criterion_6_data_quickly():
    # a regression to a first-order solver fails here: the diluted R-rho-R
    # iteration needed over a thousand iterations for the same bound, and
    # projected gradient more than 60
    _rho_true, data = _criterion_6_data()
    result = ml_reconstruct(data)
    assert result.stop == "certified" and result.converged
    assert result.gap_bound <= 0.1
    assert result.iterations <= 60


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ml_certifies_a_mixed_state_on_the_default_layout_quickly(seed):
    # 7 bins for d = 4 are badly conditioned: projected gradient took 902-986
    # iterations on these data sets; Newton steps do not feel the conditioning
    dim = 4
    layout = BinLayout(default_x_max(dim), 2 * dim - 1)
    phases = [j * math.pi / dim for j in range(dim)]
    measurement = BinnedHomodyne(phases, layout, dim)
    data = simulate_dataset(DensityMatrix.maximally_mixed(dim), measurement, 20_000, seed=seed)
    result = ml_reconstruct(data)
    assert result.stop == "certified" and result.gap_bound <= 0.1
    assert result.iterations <= 60


def test_ml_certifies_ill_conditioned_d8_coherent_data_quickly():
    # near-pure estimate on the 2d-1 layout, bins down to p ~ 1e-6: projected
    # gradient ran out of its 5000 iterations here without a certificate
    dim = 8
    rho_true = DensityMatrix.pure(coherent_amplitudes(0.5 + 0.5j, dim))
    phases, layout, _ = _ic_setup(dim)
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, dim), 100_000, seed=2)
    result = ml_reconstruct(data)
    assert result.stop == "certified" and result.gap_bound <= 0.1
    assert result.iterations <= 60
    assert fidelity(result.estimate, rho_true) >= 0.99


def test_ml_stops_at_max_iters_without_a_certificate():
    _rho_true, data = _criterion_6_data()
    result = ml_reconstruct(data, max_iters=3)
    assert (result.stop, result.converged, result.iterations) == ("max_iters", False, 3)
    assert result.gap_bound > 0.1
    start = ml_reconstruct(data, max_iters=0)
    assert start.iterations == 0 and start.stop == "max_iters"
    assert np.array_equal(start.estimate.entries, np.eye(3) / 3)


@pytest.mark.parametrize("max_iters", [True, 2.5, "3", None])
def test_ml_rejects_iteration_caps_that_are_not_integers(max_iters):
    _rho_true, data = _criterion_6_data()
    with pytest.raises(TypeError, match="max_iters must be an integer"):
        ml_reconstruct(data, max_iters=max_iters)


def test_ml_estimate_satisfies_state_invariants():
    dim = 3
    phases, layout, _ = _ic_setup(dim)
    rho_true = DensityMatrix.maximally_mixed(dim)
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, dim), 20_000, seed=13)
    result = ml_reconstruct(data, max_iters=400)
    est = result.estimate.entries
    assert np.max(np.abs(est - est.conj().T)) < 1e-12
    assert abs(np.trace(est) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(est).min() > -1e-10
    assert result.iterations == len(result.log_likelihood_trace) - 1


def test_ml_fidelity_improves_with_sample_size():
    dim = 3
    phases, layout, _ = _ic_setup(dim)
    measurement = BinnedHomodyne(phases, layout, dim)
    rho_true = DensityMatrix.pure([1.0, -0.5j, 0.25])
    medians = []
    for n in (1_000, 10_000, 100_000):
        fids = []
        for seed in range(1, 21):
            data = simulate_dataset(rho_true, measurement, n, seed=seed)
            result = ml_reconstruct(data)
            fids.append(fidelity(result.estimate, rho_true))
        medians.append(float(np.median(fids)))
    assert medians[0] <= medians[1] <= medians[2]


# Bins (-90, -30) and (30, 90) hold no probability at dim 2: psi_0 and psi_1
# are below 1e-190 there, so every entry of those elements underflows to 0.
FAR_BINS = BinLayout(90.0, 3, include_overflow=False)


def test_ml_flags_singular_bins():
    data = MeasurementData(measurement=_one_setting(FAR_BINS), counts=[[5, 95, 0]])
    with pytest.warns(RuntimeWarning, match="floored"):
        result = ml_reconstruct(data, max_iters=50)
    assert result.singular_data
    assert (result.stop, result.converged) == ("singular", False)
    assert json.loads(json.dumps(result.to_json_dict()))["singular_data"] is True


def test_ml_zero_probability_bin_without_counts_is_not_singular():
    data = MeasurementData(measurement=_one_setting(FAR_BINS), counts=[[0, 100, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ml_reconstruct(data, max_iters=50)
    assert not result.singular_data
    # R = E_mid = I certifies the start at once
    assert (result.stop, result.iterations) == ("certified", 0)
    assert result.log_likelihood_trace[-1] == 0.0  # 100 log Tr(rho E_mid), E_mid = I


def test_ml_final_loglik_sums_the_observed_bins():
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    measurement = BinnedHomodyne(phases, layout, dim)
    data = simulate_dataset(DensityMatrix.pure([1.0, 0.0, 0.0]), measurement, 300, seed=9)
    counts = data.counts.ravel()
    assert np.any(counts == 0)
    result = ml_reconstruct(data, max_iters=200)
    ops = np.concatenate([povm.elements for povm in povms])
    p = np.real(np.einsum("kl,jlk->j", result.estimate.entries, ops))
    seen = counts > 0
    expected = math.fsum((counts[seen] * np.log(p[seen])).tolist())
    assert result.log_likelihood_trace[-1] == pytest.approx(expected, rel=1e-12)


def test_ml_rejects_mismatched_inputs():
    # the sets and the dim come from the data, so no others can be passed
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    rho = DensityMatrix.maximally_mixed(dim)
    data = simulate_dataset(rho, BinnedHomodyne(phases, layout, dim), 100, seed=2)
    with pytest.raises(TypeError):
        ml_reconstruct(data, povms)
    with pytest.raises(TypeError):
        ml_reconstruct(data, povms=povms)
    with pytest.raises(TypeError):
        ml_reconstruct(data, epsilon=0.5)  # the estimator has no dilution


def test_reconstruction_result_json():
    dim = 2
    layout = BinLayout(default_x_max(dim), 3)
    rho = DensityMatrix.pure([1.0, 1.0])
    data = simulate_dataset(rho, BinnedHomodyne([0.0], layout, rho.dim), 5000, seed=8)
    result = ml_reconstruct(data, max_iters=50)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload["iterations"] == result.iterations
    assert payload["final_loglik"] == result.log_likelihood_trace[-1]
    assert payload["gap_bound"] == result.gap_bound
    assert payload["stop"] == result.stop
    assert payload["converged"] == (result.stop == "certified")
    with pytest.raises(ValueError, match="stop must be one of"):
        ReconstructionResult(result.estimate, (0.0,), stop="converged", gap_bound=0.0)
    est = np.array([complex(re, im) for re, im in payload["estimate"]]).reshape(dim, dim)
    assert np.array_equal(est, result.estimate.entries)


# --------------------------------------------------------------------- fidelity


def test_fidelity_self_is_one(rng, make_rho):
    for dim in (2, 4):
        rho = make_rho(rng, dim)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    zero = DensityMatrix.pure([1.0, 0.0])
    one = DensityMatrix.pure([0.0, 1.0])
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_versus_mixed():
    zero = DensityMatrix.pure([1.0, 0.0])
    mixed = DensityMatrix.maximally_mixed(2)
    assert fidelity(zero, mixed) == pytest.approx(0.5, rel=1e-10)


def test_fidelity_symmetric_and_bounded(rng, make_rho):
    for _ in range(10):
        a = make_rho(rng, 3)
        b = make_rho(rng, 3)
        f_ab = fidelity(a, b)
        assert abs(f_ab - fidelity(b, a)) < 1e-10
        assert -1e-10 <= f_ab <= 1.0 + 1e-10


def test_fidelity_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3))


# ------------------------------------------------------------ ambiguity_witness


def test_witness_blind_at_position_only():
    layout = BinLayout(default_x_max(2), 3)
    assert ambiguity_witness(counterexample_states(), BinnedHomodyne([0.0], layout, 2)) < 1e-12


def test_witness_separates_with_second_phase():
    layout = BinLayout(default_x_max(2), 3)
    both = BinnedHomodyne([0.0, math.pi / 2], layout, 2)
    value = ambiguity_witness(counterexample_states(), both)
    assert value > 0.1


def test_witness_identical_states_exact_zero():
    rho = DensityMatrix.pure([1.0, 0.3j])
    layout = BinLayout(default_x_max(2), 3)
    assert ambiguity_witness([rho, rho, rho], BinnedHomodyne([0.0, 1.0], layout, 2)) == 0.0


def test_non_ic_log_likelihoods_indistinguishable():
    # position-only data cannot prefer any of the three counterexample states
    states = counterexample_states()
    layout = BinLayout(default_x_max(2), 3)
    povm = build_binned_quadrature_povm(0.0, layout, 2)
    data = simulate_dataset(states[1], BinnedHomodyne([0.0], layout, 2), 50_000, seed=17)
    ops = np.stack(povm.elements)
    counts = data.counts[0].astype(float)
    logliks = []
    for state in states:
        p = np.real(np.einsum("kl,jlk->j", state.entries, ops))
        logliks.append(float(np.dot(counts, np.log(p))))
    assert max(logliks) - min(logliks) < 1e-9


# ------------------------------------------------- a measurement of another kind


def _pauli_measurement(axes):
    """Eigenprojectors (I +- sigma) / 2 of the named Pauli axes on a qubit, a
    setting per axis: not a BinnedHomodyne, only the four fields tomo reads."""
    sigma = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
             "Z": np.diag([1, -1])}
    elements = np.stack([(np.eye(2) + sign * sigma[a]) / 2 for a in axes for sign in (1, -1)])
    return SimpleNamespace(dim=2, settings=tuple(axes), elements=elements,
                           born=real_coordinates(elements))


def test_a_qubit_pauli_measurement_round_trips():
    measurement = _pauli_measurement("XYZ")
    # a full-rank state: ML error O(1/N), where a pure one's shows O(1/sqrt N) radially
    rho_true = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    data = simulate_dataset(rho_true, measurement, 100_000, seed=5)
    assert data.settings == ("X", "Y", "Z")
    assert data.counts.shape == (3, 2) and data.total_per_setting == 100_000
    result = ml_reconstruct(data)
    assert result.stop == "certified"
    assert fidelity(result.estimate, rho_true) >= 0.999
    # |+i> and |-i> agree on X and Z; only the Y setting tells them apart
    plus_i, minus_i = DensityMatrix.pure([1.0, 1.0j]), DensityMatrix.pure([1.0, -1.0j])
    assert ambiguity_witness([plus_i, minus_i], measurement) == pytest.approx(1.0)
    assert ambiguity_witness([plus_i, minus_i], _pauli_measurement("XZ")) < 1e-15


# ------------------------------------------------------ displaced photon counting

# no displacement, then five on the unit circle: 6 settings, 16 = 4^2 in span
UNIT_CIRCLE = [0.0] + [cmath.exp(2j * math.pi * k / 5) for k in range(5)]


def _coherent(alpha, dim=4):
    return DensityMatrix.pure(coherent_amplitudes(alpha, dim))


def test_displaced_counting_round_trips():
    rho_true = _coherent(0.4 + 0.2j)
    measurement = DisplacedCounting(UNIT_CIRCLE, 24, 4)
    assert numerical_rank(measurement.born).numerical_rank == 16
    data = simulate_dataset(rho_true, measurement, 100_000, seed=1)
    assert data.settings == measurement.betas
    assert data.counts.shape == (len(UNIT_CIRCLE), 24) and data.total_per_setting == 100_000
    result = ml_reconstruct(data)
    assert result.stop == "certified"
    assert fidelity(result.estimate, rho_true) >= 0.99


def test_displaced_counting_witness():
    measurement = DisplacedCounting(UNIT_CIRCLE, 24, 4)
    coherent, mixed = _coherent(0.4 + 0.2j), DensityMatrix.maximally_mixed(4)
    assert ambiguity_witness([coherent, mixed], measurement) > 0.1
    # bare counting sees only populations: a coherent state and its rotation agree
    turned = _coherent(1j * (0.4 + 0.2j))
    assert ambiguity_witness([coherent, turned], DisplacedCounting([0.0], 4, 4)) < 1e-15
    assert ambiguity_witness([coherent, turned], measurement) > 0.1


def test_displaced_counting_without_enough_outcomes_rejects_lost_mass():
    measurement = DisplacedCounting(UNIT_CIRCLE, 4, 4)  # counts n >= 4 have no outcome
    with pytest.raises(ValueError, match="sum to total_per_setting"):
        simulate_dataset(_coherent(0.4 + 0.2j), measurement, 100_000, seed=1)

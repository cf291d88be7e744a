import json
import math

import numpy as np
import pytest

from povmrank import (
    BinLayout,
    DensityMatrix,
    MeasurementData,
    PovmSet,
    ambiguity_witness,
    bin_samples,
    build_binned_quadrature_povm,
    default_x_max,
    fidelity,
    ml_reconstruct,
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


def test_symmetric_state_balances_left_right():
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))  # even |0>,|1> densities
    n = 400_000
    xs = sample_homodyne(rho, 0.0, n, seed=21)
    left = int(np.sum(xs < 0))
    right = n - left
    assert abs(left - right) <= 4 * math.sqrt(n)


# -------------------------------------------------------------- MeasurementData


def test_measurement_data_validation():
    layout = BinLayout(2.0, 2)
    with pytest.raises(ValueError, match="sum"):
        MeasurementData(
            settings=[(0.0, layout)], counts=[[1, 1, 1, 1]], total_per_setting=5, seed=1
        )
    with pytest.raises(ValueError, match="non-negative"):
        MeasurementData(
            settings=[(0.0, layout)], counts=[[-1, 3, 2, 1]], total_per_setting=5, seed=1
        )
    with pytest.raises(ValueError, match="length"):
        MeasurementData(
            settings=[(0.0, layout)], counts=[[2, 3]], total_per_setting=5, seed=1
        )


def test_measurement_data_json_roundtrip():
    rho = DensityMatrix.pure([1.0, 1.0])
    layout = BinLayout(default_x_max(2), 3)
    data = simulate_dataset(rho, [0.0, math.pi / 2], layout, 1000, seed=5)
    text = json.dumps(data.to_json_dict())
    back = MeasurementData.from_json_dict(json.loads(text))
    assert back.total_per_setting == data.total_per_setting
    assert back.seed == data.seed
    assert [p for p, _ in back.settings] == [p for p, _ in data.settings]
    for a, b in zip(back.counts, data.counts):
        assert np.array_equal(a, b)
    assert json.dumps(back.to_json_dict()) == text


def test_simulate_dataset_uses_derived_seeds():
    rho = DensityMatrix.pure([1.0, 1.0])
    layout = BinLayout(default_x_max(2), 3)
    data = simulate_dataset(rho, [0.0, 0.0001], layout, 2000, seed=40)
    # nearly equal phases, different derived seeds: counts differ
    assert not np.array_equal(data.counts[0], data.counts[1])
    again = simulate_dataset(rho, [0.0, 0.0001], layout, 2000, seed=40)
    for a, b in zip(data.counts, again.counts):
        assert np.array_equal(a, b)


def test_simulated_counts_follow_the_exact_bin_probabilities():
    # vacuum keeps erfc(1)/2 ~ 7.9 % of its mass in each overflow bin of
    # BinLayout(1.0, 3) at every phase
    dim, total = 6, 200_000
    rho = DensityMatrix.pure([1.0] + [0.0] * (dim - 1))
    layout = BinLayout(1.0, 3)
    phases = [0.0, 0.9, 2.3]
    data = simulate_dataset(rho, phases, layout, total, seed=31)
    for theta, vec in zip(phases, data.counts):
        povm = build_binned_quadrature_povm(theta, layout, dim)
        p = np.array([np.real(np.trace(rho.entries @ el)) for el in povm.elements])
        assert p[[0, -1]] == pytest.approx([math.erfc(1.0) / 2] * 2, rel=1e-12)
        assert int(vec.sum()) == total
        assert np.all(np.abs(vec - total * p) <= 5 * np.sqrt(total * p * (1 - p)))


def test_simulate_without_overflow_rejects_lost_mass():
    rho = DensityMatrix.pure([1.0, 0.0])
    with pytest.raises(ValueError, match="sum to total_per_setting"):
        simulate_dataset(rho, [0.0], BinLayout(1.0, 3, include_overflow=False), 1000, seed=3)


def test_simulate_validates_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rho = DensityMatrix.pure([1.0, 1.0])
    layout = BinLayout(default_x_max(2), 3)
    with pytest.raises(ValueError, match="seed"):
        simulate_dataset(rho, [0.0, 1.0], layout, 100, seed=-1)
    with pytest.raises(ValueError, match="positive"):
        simulate_dataset(rho, [0.0, 1.0], layout, 0, seed=1)


# --------------------------------------------------------------- ml_reconstruct


def _ic_setup(dim=3):
    phases = [j * math.pi / dim for j in range(dim)]
    layout = BinLayout(default_x_max(dim), 2 * dim - 1, include_overflow=True)
    povms = [build_binned_quadrature_povm(t, layout, dim) for t in phases]
    return phases, layout, povms


def test_ml_recovers_state_from_ic_settings():
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    rho_true = DensityMatrix.pure([1.0, 1.0, 1.0])
    data = simulate_dataset(rho_true, phases, layout, 100_000, seed=42)
    result = ml_reconstruct(data, povms, dim)
    assert fidelity(result.estimate, rho_true) >= 0.99
    gains = np.diff(result.log_likelihood_trace)
    assert np.min(gains) > -1e-10


def test_ml_single_quadrature_pins_populations_only():
    # position data determines a qubit's populations but not the imaginary
    # coherence
    dim = 2
    layout = BinLayout(default_x_max(dim), 2 * dim - 1)
    povm = build_binned_quadrature_povm(0.0, layout, dim)
    rho_true = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    data = simulate_dataset(rho_true, [0.0], layout, 100_000, seed=7)
    result = ml_reconstruct(data, [povm], dim)
    est_diag = np.real(np.diag(result.estimate.entries))
    assert np.max(np.abs(est_diag - [0.7, 0.3])) < 0.02


def test_ml_stationary_at_exact_data():
    # weights f_j = p_j(rho*) make the reweighting operator the identity,
    # so one diluted update leaves rho* fixed to rounding
    dim = 2
    _, _, povms = _ic_setup(dim)
    povm = povms[0]
    rho_star = DensityMatrix.pure([2.0, 1.0]).entries
    ops = np.stack(povm.elements)
    p = np.real(np.einsum("kl,jlk->j", rho_star, ops))
    r_op = np.einsum("j,jkl->kl", p / p, ops)
    grow = 0.5 * np.eye(dim) + 0.5 * r_op
    updated = grow @ rho_star @ grow
    updated /= np.trace(updated).real
    ll_before = float(np.dot(p, np.log(p)))
    p_after = np.real(np.einsum("kl,jlk->j", updated, ops))
    ll_after = float(np.dot(p, np.log(p_after)))
    assert abs(ll_after - ll_before) < 1e-12
    assert np.max(np.abs(updated - rho_star)) < 1e-10


def test_ml_estimate_satisfies_state_invariants():
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    rho_true = DensityMatrix.maximally_mixed(dim)
    data = simulate_dataset(rho_true, phases, layout, 20_000, seed=13)
    result = ml_reconstruct(data, povms, dim, max_iters=400)
    est = result.estimate.entries
    assert np.max(np.abs(est - est.conj().T)) < 1e-12
    assert abs(np.trace(est) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(est).min() > -1e-10
    assert result.iterations == len(result.log_likelihood_trace) - 1


def test_ml_fidelity_improves_with_sample_size():
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    rho_true = DensityMatrix.pure([1.0, -0.5j, 0.25])
    medians = []
    for n in (1_000, 10_000, 100_000):
        fids = []
        for seed in (1, 2, 3, 4, 5):
            data = simulate_dataset(rho_true, phases, layout, n, seed=seed)
            result = ml_reconstruct(data, povms, dim)
            fids.append(fidelity(result.estimate, rho_true))
        medians.append(float(np.median(fids)))
    assert medians[0] <= medians[1] <= medians[2]


def test_ml_flags_singular_bins():
    dim = 2
    layout = BinLayout(1.0, 2, include_overflow=False)
    zero = np.zeros((dim, dim), dtype=complex)
    povm = PovmSet(dim=dim, elements=[zero, np.eye(dim, dtype=complex)])
    data = MeasurementData(
        settings=[(0.0, layout)], counts=[[5, 95]], total_per_setting=100, seed=1
    )
    with pytest.warns(RuntimeWarning, match="floored"):
        result = ml_reconstruct(data, [povm], dim, max_iters=50)
    assert result.singular_data
    assert json.loads(json.dumps(result.to_json_dict()))["singular_data"] is True


def test_ml_rejects_mismatched_inputs():
    dim = 3
    phases, layout, povms = _ic_setup(dim)
    rho = DensityMatrix.maximally_mixed(dim)
    data = simulate_dataset(rho, phases, layout, 100, seed=2)
    with pytest.raises(ValueError, match="setting"):
        ml_reconstruct(data, povms[:2], dim)
    with pytest.raises(ValueError, match="epsilon"):
        ml_reconstruct(data, povms, dim, epsilon=0.0)


def test_reconstruction_result_json():
    dim = 2
    layout = BinLayout(default_x_max(dim), 3)
    povm = build_binned_quadrature_povm(0.0, layout, dim)
    rho = DensityMatrix.pure([1.0, 1.0])
    data = simulate_dataset(rho, [0.0], layout, 5000, seed=8)
    result = ml_reconstruct(data, [povm], dim, max_iters=50)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload["iterations"] == result.iterations
    assert payload["final_loglik"] == result.log_likelihood_trace[-1]
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
    assert ambiguity_witness(counterexample_states(), [0.0], layout) < 1e-12


def test_witness_separates_with_second_phase():
    layout = BinLayout(default_x_max(2), 3)
    value = ambiguity_witness(counterexample_states(), [0.0, math.pi / 2], layout)
    assert value > 0.1


def test_witness_identical_states_exact_zero():
    rho = DensityMatrix.pure([1.0, 0.3j])
    layout = BinLayout(default_x_max(2), 3)
    assert ambiguity_witness([rho, rho, rho], [0.0, 1.0], layout) == 0.0


def test_non_ic_log_likelihoods_indistinguishable():
    # position-only data cannot prefer any of the three counterexample states
    states = counterexample_states()
    layout = BinLayout(default_x_max(2), 3)
    povm = build_binned_quadrature_povm(0.0, layout, 2)
    data = simulate_dataset(states[1], [0.0], layout, 50_000, seed=17)
    ops = np.stack(povm.elements)
    counts = data.counts[0].astype(float)
    logliks = []
    for state in states:
        p = np.real(np.einsum("kl,jlk->j", state.entries, ops))
        logliks.append(float(np.dot(counts, np.log(p))))
    assert max(logliks) - min(logliks) < 1e-9

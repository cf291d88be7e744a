import math
import re
import warnings

import numpy as np
import pytest

from povmrank import completeness
from povmrank import (
    BinLayout,
    BinnedHomodyne,
    DensityMatrix,
    DisplacedCounting,
    SupportSet,
    build_binned_quadrature_povm,
    coherent_amplitudes,
    default_phases,
    default_x_max,
    design_matrix,
    hermite_function_table,
    hermitian_to_real_vector,
    measurement_rank,
    min_phases_for_completeness,
    ml_reconstruct,
    numerical_rank,
    photon_number_probability,
    povm_span_rank,
    predicted_rank,
    quadrature_bin_operator,
    rank_for,
    real_coordinates,
    sample_homodyne,
    simulate_dataset,
    sweep_table,
)

# The number of independent elements induced by m phases on d levels,
# bold (IC) cells being those equal to d^2.
REFERENCE_TABLE = {
    2: [3, 4, 4, 4, 4, 4],
    3: [5, 8, 9, 9, 9, 9],
    4: [7, 12, 15, 16, 16, 16],
    5: [9, 16, 21, 24, 25, 25],
    6: [11, 20, 27, 32, 35, 36],
    7: [13, 24, 33, 40, 45, 48],
    8: [15, 28, 39, 48, 55, 60],
}


# ---------------------------------------------------------------- predicted_rank


def test_predicted_rank_reference_cells():
    assert predicted_rank(2, 1) == 3
    assert predicted_rank(5, 3) == 21
    assert predicted_rank(4, 6) == 16
    for m in (1, 2, 9):
        assert predicted_rank(1, m) == 1


def test_predicted_rank_whole_reference_table():
    for d, row in REFERENCE_TABLE.items():
        for m, value in enumerate(row, start=1):
            assert predicted_rank(d, m) == value


def test_predicted_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        predicted_rank(0, 1)
    with pytest.raises(ValueError):
        predicted_rank(3, 0)


def _displaced_rank(betas, n_detect, dim):
    # a displaced counting scheme is ranked as a measurement
    return povm_span_rank([DisplacedCounting(betas, n_detect, dim)])


def _displaced_projector(beta, n, dim):
    # a single projector D(b)|n><n|D(b)^+ on dim levels
    return DisplacedCounting([beta], max(n + 1, dim), dim).elements[n]


@pytest.mark.parametrize(
    "func, args, name",
    [
        (predicted_rank, (3.5, 1), "d"),
        (predicted_rank, (3, True), "m"),
        (sweep_table, ([2.7], [1]), "d"),
        (sweep_table, ([2], [1, 2.0]), "m"),
        (rank_for, (SupportSet.contiguous(2), True), "m"),
        (rank_for, (SupportSet.contiguous(2), 2.0), "m"),
        (rank_for, (SupportSet.contiguous(2), True, [0.0]), "m"),
        (default_phases, (SupportSet.contiguous(3), 2.0), "m"),
        (min_phases_for_completeness, (SupportSet.contiguous(3), 2.5), "m_max"),
        pytest.param(_displaced_rank, ([0.5], 3.0, 3), "n_detect", id="displaced_counting_rank-args9-n_detect"),
        pytest.param(_displaced_rank, ([0.5], 3, "3"), "dim", id="displaced_counting_rank-args10-dim"),
        pytest.param(_displaced_projector, (0.5, 1, 2.0), "dim", id="displaced_number_operator-args11-dim"),
        pytest.param(_displaced_projector, (0.5, 1.0, 2), "n_detect", id="displaced_number_operator-args12-n_detect"),
        (photon_number_probability, (0.5, 1.5), "n"),
        (photon_number_probability, (0.5, True), "n"),
        (coherent_amplitudes, (0.5, 2.0), "n_cut"),
        (hermite_function_table, (True, [0.1]), "n_max"),
        (hermite_function_table, (2.5, [0.1]), "n_max"),
        (SupportSet.contiguous, (2.0,), "dim"),
        (DensityMatrix.maximally_mixed, (2.0,), "dim"),
        (DisplacedCounting, ([0.5], True, 2), "n_detect"),
        (sample_homodyne, (DensityMatrix.maximally_mixed(2), 0.0, True, 1), "n_samples"),
        (sample_homodyne, (DensityMatrix.maximally_mixed(2), 0.0, 2.5, 1), "n_samples"),
        (BinLayout, (3.0, 3.0), "n_bins"),
        (BinLayout, (3.0, np.float64(3.0)), "n_bins"),
    ],
)
def test_counting_api_rejects_sizes_that_are_not_integers(func, args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer$"):
        func(*args)


def _simulated(total):
    measurement = BinnedHomodyne([0.0, math.pi / 2], BinLayout(3.0, 3), 2)
    return simulate_dataset(DensityMatrix.maximally_mixed(2), measurement, total, 1)


@pytest.mark.parametrize(
    "func, args, message",
    [
        pytest.param(predicted_rank, (0, 1), "d must be positive", id="predicted_rank-d"),
        pytest.param(predicted_rank, (3, -1), "m must be positive", id="predicted_rank-m"),
        pytest.param(default_phases, (SupportSet.contiguous(3), 0), "m must be positive", id="default_phases"),
        pytest.param(rank_for, (SupportSet.contiguous(2), 0), "m must be positive", id="rank_for"),
        pytest.param(rank_for, (SupportSet.contiguous(2), -1, [0.0]), "m must be positive", id="rank_for-phases"),
        pytest.param(min_phases_for_completeness, (SupportSet.contiguous(3), 0), "m_max must be positive",
                     id="min_phases_for_completeness"),
        pytest.param(sweep_table, ([2, 0], [1]), "d must be positive", id="sweep_table-d"),
        pytest.param(sweep_table, ([2], [1, -1]), "m must be positive", id="sweep_table-m"),
        pytest.param(DensityMatrix.maximally_mixed, (0,), "dim must be positive", id="maximally_mixed"),
        pytest.param(SupportSet.contiguous, (-1,), "dim must be positive", id="contiguous"),
        pytest.param(hermite_function_table, (-1, [0.1]), "n_max must be non-negative", id="hermite_function_table"),
        pytest.param(coherent_amplitudes, (0.5, 0), "n_cut must be positive", id="coherent_amplitudes"),
        pytest.param(photon_number_probability, (0.5, -1), "n must be non-negative", id="photon_number_probability"),
        pytest.param(quadrature_bin_operator, (0.0, -1.0, 1.0, 0), "dim must be positive",
                     id="quadrature_bin_operator"),
        pytest.param(DisplacedCounting, ([0.5], 3, 0), "dim must be positive", id="DisplacedCounting"),
        pytest.param(BinnedHomodyne, ([0.0], BinLayout(3.0, 3), -1), "dim must be positive", id="BinnedHomodyne"),
        pytest.param(BinLayout, (3.0, 0), "n_bins must be positive", id="BinLayout"),
        pytest.param(sample_homodyne, (DensityMatrix.maximally_mixed(2), 0.0, 0, 1), "n_samples must be positive",
                     id="sample_homodyne"),
        pytest.param(_simulated, (0,), "total_per_setting must be positive", id="simulate_dataset"),
        pytest.param(lambda iters: ml_reconstruct(_simulated(100), max_iters=iters), (-1,),
                     "max_iters must be non-negative", id="ml_reconstruct"),
    ],
)
def test_counting_api_rejects_sizes_below_their_bound(func, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        func(*args)


def test_dimension_reduction_recursion_matches_closed_form():
    # sum_{k=1..m} (2(d-k+1) - 1) telescopes to m(2d-m), exact integers
    for d in range(1, 51):
        for m in range(1, d + 1):
            assert sum(2 * (d - k + 1) - 1 for k in range(1, m + 1)) == m * (2 * d - m)


# ----------------------------------------------------------------- design_matrix


def test_design_matrix_single_level_support():
    report = numerical_rank(design_matrix(SupportSet((0,)), [0.0, 1.0]))
    assert report.numerical_rank == 1


def test_design_matrix_one_phase_two_levels():
    # position-like cut: the antisymmetric off-diagonal component is missed
    assert numerical_rank(design_matrix(SupportSet((0, 1)), [0.0])).numerical_rank == 3


def test_design_matrix_full_phase_set_saturates():
    for d in (2, 3, 5):
        sup = SupportSet.contiguous(d)
        assert numerical_rank(design_matrix(sup, default_phases(sup, d))).numerical_rank == d * d


def test_design_matrix_row_count():
    # Gauss-Hermite order 2*max(support)+2 = 6 nodes per phase
    assert design_matrix(SupportSet((0, 1, 2)), (0.0, 0.9)).shape == (12, 9)


@pytest.mark.parametrize(
    "indices",
    [tuple(range(d)) for d in (1, 2, 5, 12, 16)] + [(0, 4, 8), (1, 3, 7, 10)],
)
def test_design_matrix_matches_outer_product_rows(indices):
    """Closed-form continuous rows against the definition: the real
    coordinates of the projector |a><a| with a_k = psi_k(x) e^{i k theta}."""
    support = SupportSet(indices)
    phases = default_phases(support, 3)
    sup = np.array(indices)
    nodes = completeness._hermgauss_nodes(2 * max(indices) + 2)
    psi = hermite_function_table(int(sup[-1]), nodes)[sup]
    rows = []
    for theta in phases:
        for i in range(nodes.size):
            amp = psi[:, i] * np.exp(1j * sup * theta)
            rows.append(hermitian_to_real_vector(np.outer(amp, amp.conj())))
    assert np.max(np.abs(design_matrix(support, phases) - np.vstack(rows))) < 1e-14


def test_design_matrix_and_rank_for_validate_phases():
    sup = SupportSet((0, 1, 2))
    for build in (design_matrix, lambda support, phases: rank_for(support, max(len(phases), 1), phases)):
        with pytest.raises(ValueError, match="distinct"):
            build(sup, [0.1, 0.1 + math.pi])
        with pytest.raises(ValueError, match="distinct"):
            build(sup, [1e-12, math.pi - 1e-12])  # wraparound duplicates
        with pytest.raises(ValueError, match="phase"):
            build(sup, ())
        with pytest.raises(TypeError, match="^support must be a SupportSet$"):
            build((0, 1, 2), [0.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_phases_are_rejected_before_any_arithmetic(bad):
    sup = SupportSet.contiguous(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phases must be finite"):
            design_matrix(sup, [0.0, bad])
        with pytest.raises(ValueError, match="phases must be finite"):
            rank_for(sup, 3, phases=[0.0, 1.0, bad])


@pytest.mark.parametrize(
    "support, phases",
    [((0, 1, 2), [1e308, 0.5]), ((0, 1, 2), [1e308]), ((0, 1, 2), [0.5, -1e308]),
     ((0, 4, 8), [3e307, 0.2]), ((5,), [1e308])],
)
def test_phases_whose_shift_overflows_are_rejected_before_any_arithmetic(support, phases):
    # theta * max(support) must be finite, as povm checks theta * (dim - 1): one
    # check and one message; a single phase, which the orbit path never reads, too
    sup = SupportSet(support)
    theta = next(p for p in phases if not math.isfinite(p * support[-1]))
    message = f"phase {theta!r} on dim={support[-1] + 1} levels leaves the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: design_matrix(sup, phases),
                      lambda: rank_for(sup, len(phases), phases=phases),
                      lambda: BinnedHomodyne(phases, BinLayout(3.0, 3), support[-1] + 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
    # a phase whose every shift stays finite is kept
    assert completeness._distinct_phases(SupportSet((0,)), [1e308]) == (1e308,)
    assert completeness._distinct_phases(sup, [1e308 / (2 * support[-1] + 1)])
    assert np.isfinite(design_matrix(SupportSet((0,)), [1e308])).all()


# ---------------------------------------------------------------- numerical_rank


def test_numerical_rank_identity():
    report = numerical_rank(np.eye(9))
    assert report.numerical_rank == 9
    assert report.gap == math.inf
    assert not report.is_ill_conditioned


def test_numerical_rank_ignores_duplicated_rows(rng):
    mat = rng.normal(size=(6, 8))
    base = numerical_rank(mat).numerical_rank
    dup = numerical_rank(np.vstack([mat, mat[2]])).numerical_rank
    assert dup == base == 6


def test_numerical_rank_reference_cell():
    rep = rank_for(SupportSet.contiguous(6), 4)
    assert rep.numerical_rank == 32


def test_numerical_rank_explicit_tolerance():
    mat = np.diag([1.0, 1e-5, 1e-14])
    assert numerical_rank(mat).numerical_rank == 2
    # the threshold is fixed: no override can fake a rank
    with pytest.raises(TypeError):
        numerical_rank(mat, tolerance=1e-16)


def test_numerical_rank_rejects_empty():
    with pytest.raises(ValueError):
        numerical_rank(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_numerical_rank_rejects_non_finite_entries(bad):
    # NaN failed the SVD; inf read as rank 0 with gap inf, a false certificate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix must be finite"):
            numerical_rank([[bad, 1.0], [1.0, 1.0]])


# ----------------------------------------------------------------------- rank_for


def test_rank_for_single_phase_five_levels():
    assert rank_for(SupportSet.contiguous(5), 1).numerical_rank == 9
    # any one phase is an orbit of the phase shifter: the offset blocks rank it
    assert rank_for(SupportSet.contiguous(5), 1, [0.7]).block_ranks == (5, 4)


def test_rank_for_sparse_support_single_phase():
    assert rank_for(SupportSet((0, 4, 8)), 1).numerical_rank == 6


def test_rank_for_sparse_support_two_phases_completes():
    report = rank_for(SupportSet((0, 4, 8)), 2)
    assert report.numerical_rank == 9
    assert report.predicted_rank is None


def test_sparse_support_equispaced_phases_alias():
    # multiples of pi/2 turn every stride-4 phase factor real, so the
    # equispaced grid stalls at the single-phase count; this is why sparse
    # supports default to golden-ratio placement
    report = rank_for(SupportSet((0, 4, 8)), 2, phases=[0.0, math.pi / 2])
    assert report.numerical_rank == 6


def test_rank_for_attaches_prediction_on_contiguous_support():
    rep = rank_for(SupportSet.contiguous(4), 2)
    assert rep.predicted_rank == 12
    assert rep.numerical_rank == 12


@pytest.mark.parametrize("indices, rank", [((0, 400), 4), ((0, 1, 1000), 9)])
def test_rank_for_reaches_high_fock_indices_without_warnings(indices, rank):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rank_for(SupportSet(indices), 2)
    assert report.numerical_rank == rank


def _assert_rank_for_matches_full_svd(support, m, phases=None):
    """rank_for's blocks against the SVD of the whole design matrix."""
    report = rank_for(support, m, phases)
    matrix = design_matrix(support, phases or default_phases(support, m))
    full = numerical_rank(matrix)
    assert report.numerical_rank == full.numerical_rank
    assert report.singular_values.size == full.singular_values.size == min(matrix.shape)
    top = full.singular_values[: full.numerical_rank]
    assert np.max(np.abs(report.singular_values[: top.size] - top)) <= 1e-13 * top[0]


@pytest.mark.parametrize("d", range(1, 13))
def test_rank_for_matches_full_svd_on_the_acceptance_grid(d):
    rng = np.random.default_rng([d, 17])
    support = SupportSet.contiguous(d)
    for m in range(1, 13):
        _assert_rank_for_matches_full_svd(support, m)
        _assert_rank_for_matches_full_svd(support, m, list(np.sort(rng.random(m) * math.pi)))


@pytest.mark.parametrize("d, m_values", [(15, range(6, 13)), (16, range(1, 9))])
def test_rank_for_matches_full_svd_on_the_continuous_fault_cells(d, m_values):
    # both oracles come out one short of m(2d-m) here: the fault is in the
    # node representation, not in the SVD
    for m in m_values:
        _assert_rank_for_matches_full_svd(SupportSet.contiguous(d), m)


@pytest.mark.parametrize(
    "indices", [(0, 4, 8), (0, 2, 4, 6), (1, 2), (3, 4, 5, 7), (0, 1, 5, 9, 10), (2,), (0, 400)]
)
def test_rank_for_matches_full_svd_on_sparse_supports(indices):
    rng = np.random.default_rng(list(indices))
    support = SupportSet(indices)
    for m in range(1, 5):
        _assert_rank_for_matches_full_svd(support, m)
        _assert_rank_for_matches_full_svd(support, m, list(np.sort(rng.random(m) * math.pi)))


@pytest.mark.parametrize("d", [13, 20, 30])
def test_offset_blocks_match_the_full_svd_at_default_phases(d):
    # defaulted and explicit equispaced phases both take the offset blocks
    support = SupportSet.contiguous(d)
    for m in range(1, 13):
        phases = default_phases(support, m)
        full = numerical_rank(design_matrix(support, phases))
        for blocks in (rank_for(support, m), rank_for(support, m, phases)):
            assert blocks.block_ranks is not None
            assert blocks.numerical_rank == full.numerical_rank
            assert blocks.tolerance_used == pytest.approx(full.tolerance_used, rel=1e-14)
            assert blocks.singular_values.size == full.singular_values.size
            top = full.singular_values[0]
            assert np.max(np.abs(blocks.singular_values - full.singular_values)) <= 1e-13 * top


@pytest.mark.parametrize("indices", [(0, 4, 8), (0, 1, 3, 7), (2, 5, 6, 9, 11)])
def test_offset_blocks_match_the_full_svd_on_sparse_supports(indices):
    support = SupportSet(indices)
    for m in range(1, 6):
        phases = [j * math.pi / m for j in range(m)]
        blocks = rank_for(support, m, phases)
        matrix = design_matrix(support, phases)
        full = numerical_rank(matrix)
        assert blocks.block_ranks is not None
        assert blocks.numerical_rank == full.numerical_rank
        assert blocks.singular_values.size == full.singular_values.size == min(matrix.shape)
        top = full.singular_values[0]
        assert np.max(np.abs(blocks.singular_values - full.singular_values)) <= 1e-13 * top


@pytest.mark.parametrize("d", range(1, 13))
def test_explicit_default_phases_give_the_defaulted_report(d):
    support = SupportSet.contiguous(d)
    for m in range(1, 13):
        explicit = rank_for(support, m, default_phases(support, m))
        defaulted = rank_for(support, m)
        assert np.array_equal(explicit.singular_values, defaulted.singular_values)
        assert explicit.tolerance_used == defaulted.tolerance_used
        assert explicit.block_ranks == defaulted.block_ranks


def test_default_phase_rank_never_factors_a_matrix_wider_than_the_support(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rank_for(SupportSet.contiguous(40), 12)
    assert shapes
    assert all(min(shape[-2:]) <= 40 for shape in shapes)


def test_rank_for_rejects_phase_count_mismatch():
    # the prediction would otherwise be m(2d-m) for an m the phases do not have
    with pytest.raises(ValueError, match="m=1"):
        rank_for(SupportSet.contiguous(4), 1, phases=[0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="m=3"):
        rank_for(SupportSet.contiguous(4), 3, phases=[0.0])


def test_rank_monotone_and_saturating():
    sup = SupportSet((0, 2, 5))
    full = sup.size**2
    previous = 0
    for m in range(1, 7):
        rank = rank_for(sup, m).numerical_rank
        assert rank >= previous
        assert rank <= full
        previous = rank
    assert previous == full


def test_rank_phase_offset_invariance():
    sup = SupportSet.contiguous(4)
    for m in (1, 2, 3):
        base = default_phases(sup, m)
        shifted = [p + 0.61 for p in base]
        assert (
            rank_for(sup, m, phases=shifted).numerical_rank
            == rank_for(sup, m).numerical_rank
        )


# ------------------------------------------------- min_phases_for_completeness


def test_min_phases_contiguous():
    assert min_phases_for_completeness(SupportSet((0, 1)), 4) == 2
    assert min_phases_for_completeness(SupportSet.contiguous(6), 8) == 6


def test_min_phases_sparse_support():
    assert min_phases_for_completeness(SupportSet((0, 4, 8)), 4) == 2


def test_min_phases_not_found():
    assert min_phases_for_completeness(SupportSet.contiguous(4), 2) is None


# ------------------------------------------------------------------ sweep_table


def test_sweep_table_matches_reference():
    table = sweep_table(range(2, 9), range(1, 7))
    for d, row in REFERENCE_TABLE.items():
        for m, value in enumerate(row, start=1):
            rep = table.report(d, m)
            assert rep.numerical_rank == value
            assert rep.predicted_rank == value
    assert table.mismatches() == []


def test_sweep_table_saturated_cells_flagged_ic():
    table = sweep_table([3, 4], range(1, 7))
    for d in (3, 4):
        for m in range(1, 7):
            assert table.is_ic(d, m) == (m >= d)


def test_sweep_table_csv_format():
    table = sweep_table([2], [1])
    lines = table.to_csv().splitlines()
    assert lines[0] == "d,m=1"
    assert lines[1] == "2,3"
    assert lines[2] == "# predicted"
    assert lines[3] == "# 2,3"
    wide = sweep_table([2, 3], [1, 2, 3]).to_csv().splitlines()
    assert wide[0] == "d,m=1,m=2,m=3"
    assert wide[1] == "2,3,4*,4*"
    assert wide[2] == "3,5,8,9*"


def test_sweep_table_rejects_empty_ranges():
    with pytest.raises(ValueError):
        sweep_table([], [1])


# --------------------------------------------------------------- povm_span_rank


def test_single_binned_quadrature_hits_cap():
    d = 3
    povm = build_binned_quadrature_povm(0.0, BinLayout(default_x_max(d), 9), d)
    assert povm_span_rank([povm]).numerical_rank == 2 * d - 1


def test_single_binned_quadrature_below_cap():
    d = 3
    povm = build_binned_quadrature_povm(
        0.0, BinLayout(default_x_max(d), 3, include_overflow=False), d
    )
    assert povm_span_rank([povm]).numerical_rank == 3


def test_binned_quadratures_at_all_phases_saturate():
    d = 3
    layout = BinLayout(default_x_max(d), 2 * d - 1)
    povms = [
        build_binned_quadrature_povm(j * math.pi / d, layout, d) for j in range(d)
    ]
    assert povm_span_rank(povms).numerical_rank == d * d


def test_povm_span_rank_rejects_mixed_dims():
    a = build_binned_quadrature_povm(0.0, BinLayout(4.0, 3), 2)
    b = build_binned_quadrature_povm(0.0, BinLayout(4.0, 3), 3)
    with pytest.raises(ValueError, match="dim"):
        povm_span_rank([a, b])


# --------------------------------------------------------------- measurement_rank


def _binned(d, m, n_bins, offset=0.0):
    return BinnedHomodyne([offset + j * math.pi / m for j in range(m)],
                          BinLayout(default_x_max(d), n_bins), d)


@pytest.mark.parametrize("d", range(1, 13))
def test_equispaced_binned_blocks_match_the_born_svd(d):
    # every m <= 12 at 2d-1 and 4d bins and two phase offsets: the orbit path
    # against numerical_rank(born), and povm_span_rank of the one-phase sets
    for m in range(1, 13):
        for n_bins in (2 * d - 1, 4 * d):
            for offset in (0.0, 0.37):
                meas = _binned(d, m, n_bins, offset)
                blocks = measurement_rank(meas)
                assert "born" not in vars(meas)  # the orbit path never forms it
                full = numerical_rank(meas.born)
                assert blocks.block_ranks is not None
                assert blocks.numerical_rank == full.numerical_rank, (d, m, n_bins, offset)
                assert blocks.tolerance_used == pytest.approx(full.tolerance_used, rel=1e-14)
                assert blocks.singular_values.size == full.singular_values.size
                assert full.singular_values.size == min(m * (n_bins + 2), d * d)
                top = full.singular_values[0]
                assert np.max(np.abs(blocks.singular_values - full.singular_values)) <= 1e-12 * top
                sets = [build_binned_quadrature_povm(t, meas.layout, d) for t in meas.phases]
                span = povm_span_rank(sets)
                assert np.array_equal(span.singular_values, blocks.singular_values)


@pytest.mark.parametrize(
    "d, m, rank, gap, short",
    [(9, 1, 16, 8.600, None), (9, 9, 78, 1060.2, [0, 1]), (10, 10, 97, 1066.2, [0, 1]),
     (12, 12, 137, 5.704, [0, 1, 2])],
)
def test_binned_fault_cells_keep_their_rank_and_gap(d, m, rank, gap, short):
    # the default layout (2d-1 bins) at phases j*pi/m loses these directions;
    # with m >= d phases block r holds offset r alone, full at d - r
    report = measurement_rank(_binned(d, m, 2 * d - 1))
    assert report.numerical_rank == rank
    assert report.gap == pytest.approx(gap, rel=1e-3)
    if short is not None:
        assert [r for r, n in enumerate(report.block_ranks) if n < d - r] == short


def _moved(d, m):
    phases = [j * math.pi / m for j in range(m)]
    phases[1] += 1e-9
    return BinnedHomodyne(phases, BinLayout(default_x_max(d), 2 * d - 1), d)


@pytest.mark.parametrize(
    "build",
    [
        _moved,
        lambda d, m: BinnedHomodyne(np.random.default_rng(d).random(m) * math.pi,
                                    BinLayout(default_x_max(d), 2 * d - 1), d),
        lambda d, m: BinnedHomodyne([0.3, 0.3 + math.pi, 1.1], BinLayout(default_x_max(d), 4 * d), d),
        lambda d, m: DisplacedCounting([0.0, 0.8, 0.8j], d + 2, d),
    ],
    ids=["moved-1e-9", "random", "theta-and-theta-plus-pi", "displaced"],
)
def test_other_measurements_take_the_born_svd_bit_for_bit(build):
    # displaced counting takes the SVD of born bit for bit; binned homodyne at
    # phases off the orbit takes the parity blocks of its phase-0 bins instead,
    # to rounding, and never forms born
    for d, m in [(3, 2), (5, 5), (6, 3)]:
        meas = build(d, m)
        reports = (measurement_rank(meas), povm_span_rank([meas]))
        binned = isinstance(meas, BinnedHomodyne)
        assert not binned or "born" not in vars(meas)
        full = numerical_rank(meas.born)
        for report in reports:
            assert report.block_ranks is None
            if binned:
                assert report.numerical_rank == full.numerical_rank
                assert report.tolerance_used == pytest.approx(full.tolerance_used, rel=1e-14)
                assert report.singular_values.size == full.singular_values.size
                top = full.singular_values[0]
                assert np.max(np.abs(report.singular_values - full.singular_values)) <= 1e-12 * top
                sets = [build_binned_quadrature_povm(t, meas.layout, d) for t in meas.phases]
                assert np.array_equal(povm_span_rank(sets).singular_values, report.singular_values)
            else:
                assert np.array_equal(report.singular_values, full.singular_values)
                assert report.tolerance_used == full.tolerance_used


def test_sets_on_different_layouts_take_the_dense_path():
    d = 4
    sets = [build_binned_quadrature_povm(0.0, BinLayout(default_x_max(d), 7), d),
            build_binned_quadrature_povm(math.pi / 2, BinLayout(default_x_max(d), 9), d)]
    full = numerical_rank(real_coordinates(np.concatenate([s.elements for s in sets])))
    report = povm_span_rank(sets)
    assert report.block_ranks is None
    assert np.array_equal(report.singular_values, full.singular_values)


def test_binned_rank_never_factors_more_rows_than_one_phase_has(monkeypatch):
    # forming born here would take a 2352 x 576 SVD
    d = 24
    meas = _binned(d, d, 4 * d)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert measurement_rank(meas).numerical_rank == d * d
    assert shapes
    assert all(max(shape[-2:]) <= meas.layout.n_elements for shape in shapes)


def test_binned_rank_off_the_orbit_factors_two_parity_blocks(monkeypatch):
    # 4d = 96 bins and two overflow bins give 49 mirror pairs: 24 * 49 rows,
    # and the even and odd (k+l) columns split the d^2 = 576 in half
    d = 24
    meas = BinnedHomodyne(np.random.default_rng(24).random(d) * math.pi,
                          BinLayout(default_x_max(d), 4 * d), d)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert measurement_rank(meas).numerical_rank == d * d
    assert shapes == [(1176, 288), (1176, 288)]
    assert "born" not in vars(meas)


# ------------------------------------------------ ranking a DisplacedCounting


def test_bare_counting_sees_only_populations():
    for d in (2, 3, 4):
        assert povm_span_rank([DisplacedCounting([0.0], d, d)]).numerical_rank == d


def test_four_displacements_complete_a_qubit():
    report = numerical_rank(DisplacedCounting([0.0, 1.0, 1.0j, 1.0 + 1.0j], 2, 2).born)
    assert report.numerical_rank == 4


def test_duplicate_displacement_changes_nothing():
    base = povm_span_rank([DisplacedCounting([0.0, 1.0], 3, 3)]).numerical_rank
    dup = povm_span_rank([DisplacedCounting([0.0, 1.0, 1.0], 3, 3)]).numerical_rank
    assert dup == base


def test_displaced_counting_requires_enough_outcomes():
    with pytest.raises(ValueError, match="n_detect"):
        DisplacedCounting([0.0], 2, 3)


def test_displaced_counting_calls_no_eigensolver(monkeypatch):
    betas, n_detect, dim = [0.5, 1.0j, 0.0, 1.0 + 1.0j, -0.7], 12, 6
    rows = [
        hermitian_to_real_vector(DisplacedCounting([b], max(n + 1, dim), dim).elements[n])
        for b in betas
        for n in range(n_detect)
    ]

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("DisplacedCounting called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    measurement = DisplacedCounting(betas, n_detect, dim)
    monkeypatch.undo()
    report = povm_span_rank([measurement])
    assert np.array_equal(report.singular_values, numerical_rank(np.vstack(rows)).singular_values)


@pytest.mark.parametrize("betas, n_detect, dim", [([0.0, 1.0, 1.0j], 3, 3), ([0.3, -2.0j], 9, 5)])
def test_displaced_span_rank_is_the_rank_of_its_born_matrix(betas, n_detect, dim):
    measurement = DisplacedCounting(betas, n_detect, dim)
    span, born = povm_span_rank([measurement]), numerical_rank(measurement.born)
    assert np.array_equal(span.singular_values, born.singular_values)
    assert span.tolerance_used == born.tolerance_used

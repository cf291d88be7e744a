"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line (run with -s to see them on success)."""

import math
import time

import numpy as np

from povmrank import (
    BinLayout,
    BinnedHomodyne,
    DensityMatrix,
    SupportSet,
    ambiguity_witness,
    build_binned_quadrature_povm,
    default_x_max,
    displaced_counting_rank,
    fidelity,
    homodyne_pdf_grid,
    min_phases_for_completeness,
    ml_reconstruct,
    photon_number_probability,
    povm_span_rank,
    predicted_rank,
    rank_for,
    simulate_dataset,
    sweep_table,
)
from povmrank.cli import main as cli_main

REFERENCE_TABLE = {
    2: [3, 4, 4, 4, 4, 4],
    3: [5, 8, 9, 9, 9, 9],
    4: [7, 12, 15, 16, 16, 16],
    5: [9, 16, 21, 24, 25, 25],
    6: [11, 20, 27, 32, 35, 36],
    7: [13, 24, 33, 40, 45, 48],
    8: [15, 28, 39, 48, 55, 60],
}

MIN_CERTIFIED_GAP = 1e6


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_reference_table_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    out_file = tmp_path / "table.csv"
    code = cli_main(["table", "--d-max", "8", "--m-max", "6", "--out", str(out_file)])
    table = sweep_table(range(2, 9), range(1, 7))
    elapsed = time.perf_counter() - start

    cells_ok = 0
    worst_gap = math.inf
    for d, row in REFERENCE_TABLE.items():
        for m, expected in enumerate(row, start=1):
            rep = table.report(d, m)
            assert rep.numerical_rank == expected, (d, m, rep.numerical_rank, expected)
            worst_gap = min(worst_gap, rep.gap)
            cells_ok += 1
    csv_lines = out_file.read_text().splitlines()
    for i, d in enumerate(range(2, 9), start=1):
        got = [int(c.rstrip("*")) for c in csv_lines[i].split(",")[1:]]
        assert got == REFERENCE_TABLE[d]
    with capsys.disabled():
        report(
            1,
            code == 0 and cells_ok == 42 and worst_gap >= MIN_CERTIFIED_GAP and elapsed < 30.0,
            f"42/42 table cells match, worst gap {worst_gap:.2e}, exit 0, {elapsed:.1f}s < 30s",
        )


def test_criterion_2_closed_form_extension(capsys):
    exceptions = []
    for d in range(1, 13):
        for m in range(1, 13):
            rep = rank_for(SupportSet.contiguous(d), m)
            if rep.numerical_rank != predicted_rank(d, m):
                exceptions.append(("equispaced", d, m, rep.numerical_rank))

    rng = np.random.default_rng(617263)
    draws = 0
    for d in range(1, 13):
        for m in range(1, 13):
            for _ in range(20):
                while True:
                    phases = np.sort(rng.random(m) * math.pi)
                    if m == 1 or np.min(np.diff(phases)) > 0.01:
                        break
                rep = rank_for(SupportSet.contiguous(d), m, phases=phases)
                draws += 1
                if rep.numerical_rank != predicted_rank(d, m):
                    exceptions.append(("random", d, m, tuple(phases), rep.numerical_rank))
    for exc in exceptions:
        print("rank exception:", exc)
    with capsys.disabled():
        report(
            2,
            not exceptions,
            f"rank == m(2d-m) capped at d^2 for d,m <= 12: equispaced grid and "
            f"{draws} random phase draws, {len(exceptions)} exceptions",
        )


def test_criterion_3_position_ambiguity(capsys):
    mixed = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    plus = DensityMatrix.pure([1.0, 1.0j])
    minus = DensityMatrix.pure([1.0, -1.0j])
    states = [mixed, plus, minus]

    grid = np.linspace(-default_x_max(2), default_x_max(2), 512)
    densities = [homodyne_pdf_grid(s, 0.0, grid) for s in states]
    spread = float(
        max(np.max(np.abs(densities[0] - densities[1])), np.max(np.abs(densities[0] - densities[2])))
    )

    layout = BinLayout(default_x_max(2), 3, include_overflow=True)
    blind = ambiguity_witness(states, BinnedHomodyne([0.0], layout, 2))
    seeing = ambiguity_witness(states, BinnedHomodyne([0.0, math.pi / 2], layout, 2))
    with capsys.disabled():
        report(
            3,
            spread < 1e-12 and blind < 1e-12 and seeing > 0.1,
            f"512-point position distributions agree to {spread:.1e}; witness "
            f"{blind:.1e} at theta=0 vs {seeing:.3f} with theta=pi/2 added",
        )


def test_criterion_4_sparse_support(capsys):
    r1 = rank_for(SupportSet((0, 4, 8)), 1)
    r2 = rank_for(SupportSet((0, 4, 8)), 2)

    findings = []
    for d in range(2, 6):
        support = SupportSet(tuple(4 * k for k in range(d)))
        expected = d // 2 + 1
        m_star = min_phases_for_completeness(support, d + 2)
        if m_star != expected:
            findings.append(f"support {support.indices}: m*={m_star}, integer-part rule gives {expected}")
    for line in findings:
        print("finding:", line)
    with capsys.disabled():
        report(
            4,
            r1.numerical_rank == 6 and r2.numerical_rank == 9,
            f"rank({{0,4,8}}, m=1) = {r1.numerical_rank}, rank({{0,4,8}}, m=2) = "
            f"{r2.numerical_rank}; stride-4 sweep d<=5 logged {len(findings)} finding(s), "
            "deviations flagged, not failed",
        )


def test_criterion_5_binning_cap(capsys):
    checked = 0
    for d in range(2, 7):
        for n_bins in range(1, 2 * d + 4):
            layout = BinLayout(default_x_max(d), n_bins, include_overflow=False)
            povm = build_binned_quadrature_povm(0.0, layout, d)
            rank = povm_span_rank([povm]).numerical_rank
            expected = min(n_bins, 2 * d - 1)
            assert rank == expected, (d, n_bins, rank, expected)
            checked += 1
    with capsys.disabled():
        report(
            5,
            True,
            f"single-quadrature span rank == min(#bins, 2d-1) across {checked} layouts, d <= 6",
        )


def test_criterion_6_maximum_likelihood_loop(capsys):
    start = time.perf_counter()
    d = 3
    phases = [j * math.pi / d for j in range(d)]
    layout = BinLayout(default_x_max(d), 2 * d - 1, include_overflow=True)
    rho_true = DensityMatrix.pure([1.0, 1.0, 1.0])
    data = simulate_dataset(rho_true, BinnedHomodyne(phases, layout, d), 100_000, seed=42)
    result = ml_reconstruct(data)
    fid = fidelity(result.estimate, rho_true)
    gains = np.diff(result.log_likelihood_trace)
    min_gain = float(gains.min()) if gains.size else 0.0
    est = result.estimate.entries
    valid = (
        np.max(np.abs(est - est.conj().T)) <= 1e-12
        and abs(np.trace(est) - 1.0) <= 1e-12
        and np.linalg.eigvalsh(est).min() >= -1e-10
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            6,
            fid >= 0.99 and min_gain > -1e-10 and valid and elapsed < 60.0,
            f"fidelity {fid:.4f} >= 0.99, min log-likelihood gain {min_gain:.1e}, "
            f"estimate valid, {elapsed:.1f}s < 60s",
        )


def test_criterion_7_photon_counting(capsys):
    worst = 0.0
    for a in (0.25, 0.5, 1.0, 1.7, 2.5, 3.0):
        total = math.fsum(photon_number_probability(a, n) for n in range(101))
        worst = max(worst, abs(total - 1.0))

    alpha = 0.8 + 0.5j
    invariant = all(
        photon_number_probability(alpha * rot, n) == photon_number_probability(alpha, n)
        for rot in (1j, -1.0, -1j)
        for n in range(0, 60, 7)
    )

    bare_ok = all(displaced_counting_rank([0.0], d, d).numerical_rank == d for d in (2, 3, 4))
    displaced = displaced_counting_rank([0.0, 1.0, 1.0j, 1.0 + 1.0j], 2, 2)
    with capsys.disabled():
        report(
            7,
            worst < 1e-12 and invariant and bare_ok and displaced.numerical_rank == 4,
            f"count sums off by {worst:.1e} <= 1e-12, phase-invariant, bare rank d, "
            f"three displacements lift d=2 to rank {displaced.numerical_rank}",
        )


def test_criterion_8_dimension_reduction_recursion(capsys):
    checked = 0
    for d in range(1, 51):
        for m in range(1, d + 1):
            lhs = sum(2 * (d - k + 1) - 1 for k in range(1, m + 1))
            assert lhs == m * (2 * d - m), (d, m, lhs)
            checked += 1
    with capsys.disabled():
        report(
            8,
            True,
            f"sum_k 2(d-k+1)-1 == m(2d-m) for all {checked} (d, m) pairs with d <= 50, exact",
        )

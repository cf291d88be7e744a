"""The three workloads: their inputs and the timed call of one operation.

A workload's op list is built from the seed alone and is the same in every
round of a run.  ``run`` is the timed call into povmrank; ``digest`` hashes
everything of its output that ``checks.py`` reads, so that equal digests
in every round mean every round passes the checks alike.  Ops marked
"fault" sit on a workload's ``fault_cells`` and fail because of known
rank-oracle faults in povmrank; their inputs never depend on the seed, so
every round fails the same ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np

import povmrank.cli
import povmrank.completeness
import povmrank.povm


def _cli(argv):
    """povmrank's command line, in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = povmrank.cli.main(argv)
    return code, buf.getvalue()


def digest(*parts) -> str:
    """SHA-256 of the parts, bytes as they are and anything else as str."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _random_phases(rng, m: int) -> list:
    """Sorted phases in [0, pi), at least 0.01 apart, as in acceptance
    criterion 2."""
    while True:
        phases = np.sort(rng.random(m) * math.pi)
        if m == 1 or np.min(np.diff(phases)) > 0.01:
            return [float(p) for p in phases]


class RankSweep:
    """`povmrank rank` over the acceptance sweep: the equispaced grid and one
    random phase draw per cell for d, m <= 12, plus the continuous-mode
    fault cells d = 15 (m = 6..12) and d = 16 (m = 1..8), which report one
    element short of the closed form."""

    name = "rank-sweep"
    tail_percentile = 99.0
    fault_cells = [(15, m) for m in range(6, 13)] + [(16, m) for m in range(1, 9)]

    def make_ops(self, seed: int, smoke: bool = False) -> list:
        rng = np.random.default_rng([seed, 1])
        top = 4 if smoke else 12
        ops = []
        for d in range(1, top + 1):
            for m in range(1, top + 1):
                ops.append({"d": d, "m": m, "phases": None, "fault": False})
                ops.append({"d": d, "m": m, "phases": _random_phases(rng, m), "fault": False})
        faults = self.fault_cells[:1] if smoke else self.fault_cells
        return ops + [{"d": d, "m": m, "phases": None, "fault": True} for d, m in faults]

    def run(self, op):
        argv = ["rank", "--d", str(op["d"])]
        if op["phases"] is None:
            argv += ["--m", str(op["m"])]
        else:
            argv += ["--phases", ",".join(repr(p) for p in op["phases"])]
        return _cli(argv)

    def digest(self, output) -> str:
        return digest(*output)


class BinnedPovm:
    """m binned quadrature POVM sets (2d-1 finite bins plus two overflow
    bins, equispaced phases) and their span rank, for every cell
    d = 2..8, m <= d at a seeded common phase offset, plus the binned fault
    cells (9, 1), (9, 9) and (10, 10) at offset 0, which come out short."""

    name = "binned-povm"
    tail_percentile = 95.0
    fault_cells = [(9, 1), (9, 9), (10, 10)]

    def make_ops(self, seed: int, smoke: bool = False) -> list:
        rng = np.random.default_rng([seed, 2])
        top = 4 if smoke else 8
        cells = [(d, m, float(rng.random() * math.pi), False)
                 for d in range(2, top + 1) for m in range(1, d + 1)]
        faults = self.fault_cells[:1] if smoke else self.fault_cells
        cells += [(d, m, 0.0, True) for d, m in faults]
        # probe: (setting, bin, k, l) of the one element entry checked by quad
        return [
            {"d": d, "m": m, "offset": offset, "fault": fault,
             "probe": [int(rng.integers(m)), int(rng.integers(2 * d + 1)),
                       int(rng.integers(d)), int(rng.integers(d))]}
            for d, m, offset, fault in cells
        ]

    def run(self, op):
        d, m = op["d"], op["m"]
        layout = povmrank.povm.BinLayout(
            x_max=povmrank.povm.default_x_max(d), n_bins=2 * d - 1, include_overflow=True
        )
        sets = [
            povmrank.povm.build_binned_quadrature_povm(op["offset"] + j * math.pi / m, layout, d)
            for j in range(m)
        ]
        return layout, sets, povmrank.completeness.povm_span_rank(sets)

    def digest(self, output) -> str:
        _layout, sets, report = output
        return digest(
            report.numerical_rank,
            report.singular_values.tobytes(),
            *(np.asarray(el).tobytes() for s in sets for el in s.elements),
        )


class Tomography:
    """`povmrank simulate-reconstruct` (sample -> bin -> ML -> fidelity) on
    m = d equispaced phases with 2d-1 bins.  The slots are fixed; the seed
    draws each coherent amplitude and each op's sampling seed."""

    name = "tomography"
    tail_percentile = 75.0
    # (state family, dim): one op per slot and round, 1e5 samples per
    # setting.  Every draw of these reaches fidelity >= 0.99 and nearly
    # every one runs all 5000 ML iterations; with 1e4-3e4 samples, or
    # random-phase Fock superpositions, neither holds.  The three d = 5
    # slots hold the median op, so op_p50_s does not jump between sizes.
    SAMPLES = 100_000
    SLOTS = (
        ("fock012", 3),
        ("coherent", 4),
        ("coherent", 5),
        ("coherent", 5),
        ("coherent", 5),
        ("coherent", 6),
        ("coherent", 8),
    )

    def __init__(self):
        self.captured = None

    def make_ops(self, seed: int, smoke: bool = False) -> list:
        rng = np.random.default_rng([seed, 3])
        ops = []
        for family, dim in self.SLOTS[:2] if smoke else self.SLOTS:
            if family == "fock012":
                spec = "fock:0,1,2@1,1,1"
            else:
                alpha = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                spec = f"coherent:{complex(alpha)!r}@{dim}"
            ops.append({"state": spec, "d": dim, "samples": self.SAMPLES,
                        "seed": int(rng.integers(0, 2**63)), "fault": False})
        return ops

    def install(self) -> None:
        """Keep the MeasurementData each op simulates, for the count and
        likelihood checks: a pass-through at the CLI's lookup of
        simulate_dataset."""
        original = povmrank.cli.simulate_dataset

        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        povmrank.cli.simulate_dataset = capture

    def run(self, op):
        self.captured = None
        code, text = _cli([
            "simulate-reconstruct", "--state", op["state"], "--m", str(op["d"]),
            "--samples", str(op["samples"]), "--seed", str(op["seed"]),
        ])
        return code, text, self.captured

    def digest(self, output) -> str:
        code, text, data = output
        if data is None:
            return digest(code, text)
        return digest(code, text, data.settings, *(np.asarray(c).tobytes() for c in data.counts))


WORKLOADS = {w.name: w for w in (RankSweep, BinnedPovm, Tomography)}

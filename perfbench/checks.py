"""Output checks, one per workload, run outside the timed region.

Each returns an Outcome: the failure reason (None when the op passed) and
the quality figures the README reports.  Expected values come from
``reference``, never from povmrank.
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import (
    bin_entry_quad,
    bin_probabilities,
    binned_elements,
    closed_form_rank,
    coherent_state,
    fidelity_to_pure,
    fock_superposition,
    ml_gap_bound,
)

DEFICIT_TOL = 1e-12
ENTRY_TOL = 1e-10  # one element entry against scipy quad
# povmrank.fidelity sums the square roots of all eigenvalues of
# sqrt(rho) sigma sqrt(rho); for a pure sigma the d - 1 that are zero come
# out at rounding level, each adding up to sqrt(d eps) to Tr sqrt(...).
# The match is checked to 1e-9 plus that bound, 2 (d - 1) sqrt(d eps).
FIDELITY_MATCH_TOL = 1e-9
FIDELITY_FLOOR = 0.99
STATE_TOL = 1e-10  # Hermiticity, unit trace and PSD of the estimate


class Outcome:
    __slots__ = ("reason", "quality")

    def __init__(self, reason, quality):
        self.reason = reason
        self.quality = quality


def raised(exc) -> Outcome:
    """Outcome of an op whose call raised."""
    return Outcome(f"raised {type(exc).__name__}: {exc}", {})


def check_rank(op, output) -> Outcome:
    code, text = output
    if code != 0:
        return Outcome(f"exit code {code}", {})
    report = json.loads(text)
    want = closed_form_rank(op["d"], op["m"])
    quality = {"rank_gap": report["rank"] - want, "spectral_gap": report["gap"]}
    if report["rank"] != want:
        return Outcome(f"rank {report['rank']} != {want}", quality)
    return Outcome(None, quality)


def check_binned(op, output) -> Outcome:
    layout, sets, report = output
    d, m = op["d"], op["m"]
    if len(sets) != m or any(len(s.elements) != 2 * d + 1 for s in sets):
        return Outcome("wrong number of sets or elements", {})
    want = closed_form_rank(d, m)
    eye = np.eye(d)
    deficit = max(float(np.linalg.norm(eye - np.sum(s.elements, axis=0), ord=2)) for s in sets)
    j, b, k, l = op["probe"]
    lo, hi = layout.intervals()[b]
    theta = op["offset"] + j * math.pi / m
    entry_err = abs(sets[j].elements[b][k, l] - bin_entry_quad(k, l, theta, lo, hi))
    quality = {"rank_gap": report.numerical_rank - want, "deficit": deficit, "entry_err": entry_err}
    if deficit > DEFICIT_TOL:
        return Outcome(f"deficit {deficit:.3e} > {DEFICIT_TOL:g}", quality)
    if entry_err > ENTRY_TOL:
        return Outcome(f"element entry off by {entry_err:.3e}", quality)
    if report.numerical_rank != want:
        return Outcome(f"rank {report.numerical_rank} != {want}", quality)
    return Outcome(None, quality)


def _true_state(op) -> np.ndarray:
    """State vector of the op's spec, built without povmrank."""
    kind, rest = op["state"].split(":", 1)
    body, at = rest.split("@", 1)
    if kind == "coherent":
        return coherent_state(complex(body), int(at))
    levels = [int(i) for i in body.split(",")]
    return fock_superposition(levels, [complex(a) for a in at.split(",")], op["d"])


def check_tomography(op, output) -> Outcome:
    code, text, data = output
    if code != 0 or data is None:
        return Outcome(f"exit code {code}", {})
    payload = json.loads(text)
    d, n = op["d"], op["samples"]
    est = np.array([complex(re, im) for re, im in payload["estimate"]]).reshape(d, d)
    vec = _true_state(op)
    counts = np.concatenate(data.counts).astype(float)
    layout = data.settings[0][1]
    elements = binned_elements(
        d, tuple(theta for theta, _ in data.settings), layout.n_bins, layout.x_max
    )
    fid = fidelity_to_pure(est, vec)
    probs = bin_probabilities(est, elements)
    observed = counts > 0
    # The bound is reported, not checked against a threshold: it measures
    # how far the estimate's likelihood falls short of the ML optimum, and
    # the stopping rule of tomo.ml_reconstruct makes that seed-dependent
    # (README, Checks).  It is finite only if every observed bin has
    # probability > 0 under the estimate, which is checked.
    bound = math.nan
    if np.all(probs[observed] > 0):
        bound = ml_gap_bound(counts[observed], probs[observed], elements[observed])
    quality = {
        "fidelity": payload["fidelity"],
        "fidelity_mismatch": abs(fid - payload["fidelity"]),
        "ml_bound": bound,
        "iterations": payload["iterations"],
        "converged": int(payload["converged"]),
        "overflow_counts": int(sum(vec[0] + vec[-1] for vec in data.counts)),
    }
    eig_min = float(np.linalg.eigvalsh(0.5 * (est + est.conj().T))[0])
    if len(data.counts) != d or any(int(vec.sum()) != n for vec in data.counts):
        return Outcome("counts do not sum to the samples per setting", quality)
    if float(np.max(np.abs(est - est.conj().T))) > STATE_TOL:
        return Outcome("estimate is not Hermitian", quality)
    if abs(np.trace(est) - 1.0) > STATE_TOL or eig_min < -STATE_TOL:
        return Outcome("estimate is not a unit-trace PSD matrix", quality)
    fid_tol = FIDELITY_MATCH_TOL + 2 * (d - 1) * math.sqrt(d * np.finfo(float).eps)
    if abs(fid - payload["fidelity"]) > fid_tol:
        return Outcome(f"fidelity {payload['fidelity']} != reference {fid}", quality)
    if fid < FIDELITY_FLOOR:
        return Outcome(f"fidelity {fid:.5f} < {FIDELITY_FLOOR}", quality)
    if not math.isfinite(bound):
        return Outcome("no finite ML bound: an observed bin has probability <= 0", quality)
    return Outcome(None, quality)


CHECKS = {
    "rank-sweep": check_rank,
    "binned-povm": check_binned,
    "tomography": check_tomography,
}

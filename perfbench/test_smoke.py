"""Smoke test of the benchmark: every workload's --smoke run, the traced
run's metric set, same-seed repeatability, and the refusal to run without
povmrank's sources."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=3, trace=0, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@functools.cache
def smoke(workload, seed=3, trace=0):
    return result_lines(run(workload, seed, trace))


@pytest.mark.parametrize("workload,faults", [("rank-sweep", 1), ("binned-povm", 1), ("tomography", 0)])
def test_smoke_run_reports_every_end_to_end_metric(workload, faults):
    record, result = smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["unexpected_failures"]
    assert result["failed"] == faults
    assert result["attempted"] == record["ops_per_round"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    _record, result = smoke("binned-povm", trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["povm.quadrature_bin_operator.calls"]["value"] > 0


def test_same_seed_gives_same_ops_and_outputs():
    first, _ = smoke("rank-sweep")
    again, _ = result_lines(run("rank-sweep"))
    other, _ = smoke("rank-sweep", seed=4)
    assert (first["ops_digest"], first["outputs_digest"]) == (again["ops_digest"], again["outputs_digest"])
    assert first["ops_digest"] != other["ops_digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("rank-sweep", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

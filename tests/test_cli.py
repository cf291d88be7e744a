import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import povmrank
from povmrank import BinLayout, SupportSet, build_binned_quadrature_povm, default_x_max, rank_for
from povmrank.cli import main, parse_state_spec

# The reference rank table, d rows 2..8, m columns 1..6.
REFERENCE_ROWS = {
    2: "2,3,4*,4*,4*,4*,4*",
    3: "3,5,8,9*,9*,9*,9*",
    4: "4,7,12,15,16*,16*,16*",
    5: "5,9,16,21,24,25*,25*",
    6: "6,11,20,27,32,35,36*",
    7: "7,13,24,33,40,45,48",
    8: "8,15,28,39,48,55,60",
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- predict


def test_predict_reference_value(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--d", "5", "--m", "3"])
    assert code == 0
    assert out == "21\n"


def test_predict_saturation(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--d", "3", "--m", "9"])
    assert code == 0
    assert out == "9\n"


def test_predict_single_level(capsys):
    code, out, _ = run_cli(capsys, ["predict", "--d", "1", "--m", "1"])
    assert code == 0
    assert out == "1\n"


def test_predict_rejects_non_positive():
    with pytest.raises(SystemExit) as err:
        main(["predict", "--d", "0", "--m", "1"])
    assert err.value.code == 2


# ------------------------------------------------------------------------ table


def test_table_reference_csv(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, ["table", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "d,m=1,m=2,m=3,m=4,m=5,m=6"
    for i, d in enumerate(range(2, 9), start=1):
        assert lines[i] == REFERENCE_ROWS[d]
    assert "# predicted" in lines


def test_table_small_range(capsys):
    code, out, _ = run_cli(capsys, ["table", "--d-max", "2", "--m-max", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,m=1"
    assert lines[1] == "2,3"


def test_table_json_format(capsys):
    code, out, _ = run_cli(capsys, ["table", "--d-max", "3", "--m-max", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    cells = {(c["d"], c["m"]): c for c in payload["cells"]}
    assert cells[(2, 1)]["rank"] == 3
    assert cells[(3, 2)]["rank"] == 8
    assert cells[(2, 2)]["ic"] is True
    assert all(c["rank"] == c["predicted"] for c in payload["cells"])


def test_table_rejects_malformed_range():
    with pytest.raises(SystemExit) as err:
        main(["table", "--d-max", "-3"])
    assert err.value.code == 2


def assert_unwritable_out_is_usage_error(capsys, argv, path):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(path)])
    assert err.value.code == 2  # 1 would read as a verified disagreement
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(path) in captured.err and "Traceback" not in captured.err


def test_table_unwritable_out_is_usage_error(capsys, tmp_path):
    argv = ["table", "--d-max", "3", "--m-max", "2"]
    assert_unwritable_out_is_usage_error(capsys, argv, tmp_path / "missing" / "t.csv")


# ------------------------------------------------------------------------- rank


def test_rank_sparse_support(capsys):
    code, out, _ = run_cli(capsys, ["rank", "--support", "0,4,8", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 6
    assert payload["predicted"] is None


def test_rank_contiguous_shorthand(capsys):
    code, out, _ = run_cli(capsys, ["rank", "--d", "5", "--m", "1"])
    assert code == 0
    assert json.loads(out)["rank"] == 9


def test_rank_explicit_phases(capsys):
    code, out, _ = run_cli(capsys, ["rank", "--d", "2", "--phases", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["predicted"] == 3


def test_rank_output_roundtrips_via_schema(capsys):
    code, out, _ = run_cli(capsys, ["rank", "--d", "3", "--m", "2"])
    assert code == 0
    assert out == json.dumps(rank_for(SupportSet.contiguous(3), 2).to_json_dict()) + "\n"


@pytest.mark.parametrize(
    "argv, keys, cell_keys",
    [
        (["rank", "--d", "3", "--m", "2"],
         ["rank", "predicted", "gap", "tolerance", "singular_values"], None),
        (["table", "--d-max", "3", "--m-max", "2", "--format", "json"],
         ["d_values", "m_values", "cells"], ["d", "m", "rank", "predicted", "gap", "ic"]),
        (["simulate-reconstruct", "--state", "fock:0,1@1,1", "--m", "2",
          "--samples", "2000", "--seed", "5"],
         ["estimate", "iterations", "converged", "final_loglik", "singular_data",
          "gap_bound", "stop", "fidelity"], None),
    ],
    ids=["rank", "table", "simulate-reconstruct"],
)
def test_json_outputs_have_pinned_keys(capsys, argv, keys, cell_keys):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == keys
    if cell_keys is not None:
        assert payload["cells"] and all(list(cell) == cell_keys for cell in payload["cells"])


def test_rank_rejects_duplicate_phases(capsys):
    # equal, or equal mod pi (0.1 and 0.1 + pi): a usage error naming the rule
    for phases in ("0.2,0.2", "0.1,3.241592653589793"):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--d", "3", "--phases", phases])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "povmrank: error: phases must be pairwise distinct mod pi"


@pytest.mark.parametrize("phases", ["1e308,0.5", "1e308", "0.5,-1e308"])
def test_rank_rejects_phases_whose_shift_overflows(capsys, phases):
    # a single such phase, which the orbit path never reads, is rejected as well
    with pytest.raises(SystemExit) as err:
        main(["rank", "--d", "3", f"--phases={phases}"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    theta = next(float(p) for p in phases.split(",") if abs(float(p)) > 1)
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [
        f"povmrank: error: phase {theta!r} on dim=3 levels leaves the float range"]


def test_rank_requires_exactly_one_support_spec():
    with pytest.raises(SystemExit) as err:
        main(["rank", "--d", "3", "--support", "0,1", "--m", "1"])
    assert err.value.code == 2


SIM = ["simulate-reconstruct", "--state", "fock:0,1@1,1", "--seed", "1"]


@pytest.mark.parametrize(
    "command, option",
    [
        (["table", "--d-max", "3", "--m-max", "2"], ["--tol", "-1"]),
        (["rank", "--d", "3", "--m", "2"], ["--tol", "-1"]),
        (SIM + ["--m", "2"], ["--tol", "-1"]),
        (SIM + ["--m", "2"], ["--epsilon", "0.5"]),
    ],
    ids=["table-tol", "rank-tol", "simulate-tol", "simulate-epsilon"],
)
def test_numerical_knobs_are_not_cli_options(capsys, command, option):
    with pytest.raises(SystemExit) as err:
        main(command + option)
    assert err.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank", "--d", "3", "--m", "1", "--phases", "0.1,0.9"], "not allowed with argument"),
        (["rank", "--support", "0,1", "--d", "3", "--m", "1"], "not allowed with argument"),
        (["rank", "--d", "3"], "one of the arguments --m --phases is required"),
        (["rank", "--m", "1"], "one of the arguments --support --d is required"),
        (SIM + ["--m", "2", "--phases", "0.1,0.9"], "not allowed with argument"),
        (SIM, "one of the arguments --m --phases is required"),
    ],
    ids=["rank-m-phases", "rank-support-d", "rank-no-m", "rank-no-support",
         "simulate-m-phases", "simulate-no-m"],
)
def test_option_pairs_are_exclusive_and_required(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_rank_and_simulate_reject_bad_phases_alike(capsys):
    for phases in ("0.1,x", "nan,0", "inf"):
        messages = []
        for argv in (
            ["rank", "--d", "3", "--phases", phases],
            ["simulate-reconstruct", "--state", "fock:0,1@1,1", "--phases", phases, "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            err_text = capsys.readouterr().err.strip().splitlines()[-1]
            messages.append(err_text.split(": error: ", 1)[1])
        assert messages[0] == messages[1]
        assert messages[0].count("--phases") == 1


def test_parser_reuse_after_usage_errors(capsys):
    argv = ["rank", "--d", "4", "--phases", "0.1,0.9,2.0"]
    src = Path(povmrank.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "povmrank", *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    for bad in (["rank", "--d", "0", "--m", "1"], ["rank", "--d", "3", "--phases", "0.2,0.2"]):
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == fresh


# --------------------------------------------------------- simulate-reconstruct


def test_simulate_reconstruct_warns_when_not_ic(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "simulate-reconstruct",
            "--state", "fock:0,1@1,1",
            "--m", "1",
            "--samples", "2000",
            "--seed", "5",
            "--max-iters", "50",
        ],
    )
    assert code == 0
    assert "measurement not IC: rank 3 < 4" in err
    payload = json.loads(out)
    assert payload["iterations"] <= 50
    assert 0.0 <= payload["fidelity"] <= 1.0 + 1e-10


@pytest.mark.parametrize(
    "state, m, line",
    [("mixed:maximally@9", 9, "rank 78 < 81; short at Fock offsets 0, ±1"),
     ("mixed:maximally@12", 12, "rank 137 < 144; short at Fock offsets 0, ±1, ±2"),
     ("mixed:maximally@9", 4, "rank 54 < 81")],
)
def test_simulate_reconstruct_names_the_short_offsets(capsys, state, m, line):
    # at m >= d phases each offset block holds one offset pair +-r; below that, no offsets
    code, out, err = run_cli(
        capsys,
        ["simulate-reconstruct", "--state", state, "--m", str(m),
         "--samples", "2000", "--seed", "1", "--max-iters", "2"],
    )
    assert code == 0
    assert err == f"warning: measurement not IC: {line}\n"
    json.loads(out)


@pytest.mark.parametrize("m", [1, 3])
def test_simulate_reconstruct_builds_one_povm_set_per_measurement(capsys, monkeypatch, m):
    original = povmrank.povm.quadrature_bin_operator
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "povmrank" or name.startswith("povmrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    code, _, _ = run_cli(
        capsys,
        ["simulate-reconstruct", "--state", "coherent:0.7@3", "--m", str(m),
         "--samples", "500", "--seed", "3", "--max-iters", "5"],
    )
    assert code == 0
    assert len(builds) == 1  # at phase 0; every phase's bins are their rotation
    assert builds[0][0] == 0.0


@pytest.mark.parametrize("m", [1, 3])
def test_simulate_reconstruct_takes_the_born_matrix_once(capsys, monkeypatch, m):
    # simulation and ML read the measurement's one Born matrix (the IC check reads none)
    original = povmrank.fock.real_coordinates
    layout = BinLayout(default_x_max(3), 5)
    stack = np.concatenate([build_binned_quadrature_povm(j * math.pi / m, layout, 3).elements
                            for j in range(m)])
    stacks = []

    def counting(ops):
        if np.shape(ops) == stack.shape and np.array_equal(ops, stack):
            stacks.append(ops)
        return original(ops)

    for name, module in list(sys.modules.items()):
        if name == "povmrank" or name.startswith("povmrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    code, _, _ = run_cli(
        capsys,
        ["simulate-reconstruct", "--state", "coherent:0.7@3", "--m", str(m),
         "--samples", "500", "--seed", "3", "--max-iters", "5"],
    )
    assert code == 0
    assert len(stacks) == 1


def test_simulate_reconstruct_accepts_extreme_finite_amplitudes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate-reconstruct", "--state", "fock:0,1@1e200,1e200", "--m", "2", "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out)["fidelity"] >= 0.99


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--d", "5", "--m", "3"],
        ["table", "--d-max", "8", "--m-max", "6"],
        ["rank", "--support", "0,400", "--m", "2"],
        ["simulate-reconstruct", "--state", "coherent:0.7@8", "--m", "8", "--seed", "16"],
    ],
    ids=["predict", "table", "rank", "simulate-reconstruct"],
)
def test_cli_runs_do_not_warn(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")


def test_simulate_reconstruct_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["simulate-reconstruct", "--state", "fock:0,1@1,1", "--m", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_reconstruct_rejects_out_of_range_seed(capsys, seed):
    with pytest.raises(SystemExit) as err:
        main(["simulate-reconstruct", "--state", "fock:0,1@1,1", "--m", "2", "--seed", seed])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed must be a 64-bit non-negative integer" in captured.err


def test_simulate_reconstruct_unwritable_out_is_usage_error(capsys, tmp_path):
    argv = ["simulate-reconstruct", "--state", "coherent:0.5@3", "--m", "3",
            "--samples", "1000", "--seed", "1"]
    assert_unwritable_out_is_usage_error(capsys, argv, tmp_path / "missing" / "x.json")
    assert_unwritable_out_is_usage_error(capsys, argv, tmp_path)  # a directory


def test_simulate_reconstruct_fails_on_unwritable_out_before_the_run(capsys, monkeypatch,
                                                                      tmp_path):
    calls = []
    monkeypatch.setattr(povmrank.cli, "ml_reconstruct", lambda *a, **k: calls.append(a))
    argv = ["simulate-reconstruct", "--state", "coherent:0.5@3", "--m", "3", "--seed", "1"]
    assert_unwritable_out_is_usage_error(capsys, argv, tmp_path / "missing" / "x.json")
    assert calls == []
    out = tmp_path / "x.json"  # a usage error in the inputs leaves no file behind
    with pytest.raises(SystemExit) as err:
        main(["simulate-reconstruct", "--state", "fock:0,0@1,1", "--m", "3", "--seed", "1",
              "--out", str(out)])
    assert err.value.code == 2 and not out.exists() and calls == []


def test_simulate_reconstruct_is_deterministic(capsys, tmp_path):
    argv = [
        "simulate-reconstruct",
        "--state", "coherent:0.6@3",
        "--m", "3",
        "--samples", "3000",
        "--seed", "77",
        "--max-iters", "80",
    ]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_reconstruct_recovers_ic_state(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "simulate-reconstruct",
            "--state", "fock:0,1,2@1,1,1",
            "--m", "3",
            "--samples", "100000",
            "--seed", "42",
        ],
    )
    assert code == 0
    assert "not IC" not in err
    payload = json.loads(out)
    assert payload["fidelity"] >= 0.99
    assert payload["stop"] == "certified" and payload["converged"] is True
    assert payload["gap_bound"] <= 0.1


def test_simulate_reconstruct_rejects_bad_state():
    bad = ("what:ever@3", "fock:-1@1", "fock:0,0@1,1", "fock:0,1@1,nan", "fock:0@inf",
           "coherent:nan@3")
    for state in bad:
        for dim in ([], ["--d", "3"]):
            with pytest.raises(SystemExit) as err:
                main(["simulate-reconstruct", "--state", state, "--m", "2", "--seed", "1"] + dim)
            assert err.value.code == 2


# ------------------------------------------------------------------- state spec


def test_parse_state_spec_fock():
    rho = parse_state_spec("fock:0,4,8@1,0.5,0.25")
    assert rho.dim == 9
    assert np.trace(rho.entries) == pytest.approx(1.0)
    assert np.real(rho.entries[0, 0]) > 0.5  # dominant vacuum weight


def test_parse_state_spec_fock_normalizes():
    rho = parse_state_spec("fock:0,1@3,4")
    assert np.real(rho.entries[0, 0]) == pytest.approx(0.36, rel=1e-12)


def test_parse_state_spec_mixed_and_coherent():
    mixed = parse_state_spec("mixed:maximally@4")
    assert mixed.dim == 4
    assert np.real(mixed.entries[0, 0]) == pytest.approx(0.25)
    coh = parse_state_spec("coherent:0.5+0.5j@6")
    assert coh.dim == 6
    assert abs(np.trace(coh.entries) - 1.0) < 1e-12


def test_parse_state_spec_dim_override():
    rho = parse_state_spec("fock:0,1@1,1", dim_override=4)
    assert rho.dim == 4
    with pytest.raises(ValueError, match="dimension"):
        parse_state_spec("fock:0,5@1,1", dim_override=3)


def test_parse_state_spec_malformed():
    with pytest.raises(ValueError):
        parse_state_spec("fock://nope")
    with pytest.raises(ValueError):
        parse_state_spec("fock:0,1@1")
    for spec in ("fock:-1@1", "fock:0,-1@1,1", "fock:0,0@1,1", "fock:2,1,2@1,1,1"):
        for dim in (None, 3):
            with pytest.raises(ValueError, match="non-negative and distinct"):
                parse_state_spec(spec, dim_override=dim)
    for spec in ("fock:0,1@1,nan", "fock:0@inf", "coherent:nan@3"):
        with pytest.raises(ValueError, match="finite"):
            parse_state_spec(spec)

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povmrank
from povmrank import RankReport
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
    report = RankReport.from_json_dict(json.loads(out))
    assert json.dumps(report.to_json_dict()) == out.strip()


def test_rank_rejects_duplicate_phases():
    with pytest.raises(SystemExit) as err:
        main(["rank", "--d", "3", "--phases", "0.2,0.2"])
    assert err.value.code == 2


def test_rank_requires_exactly_one_support_spec():
    with pytest.raises(SystemExit) as err:
        main(["rank", "--d", "3", "--support", "0,1", "--m", "1"])
    assert err.value.code == 2


def test_rank_and_simulate_reject_bad_phases_alike(capsys):
    messages = []
    for argv in (
        ["rank", "--d", "3", "--phases", "0.1,x"],
        ["simulate-reconstruct", "--state", "fock:0,1@1,1", "--phases", "0.1,x", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        messages.append(capsys.readouterr().err.strip().splitlines()[-1].split(": error: ", 1)[1])
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


def test_simulate_reconstruct_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["simulate-reconstruct", "--state", "fock:0,1@1,1", "--m", "2"])
    assert err.value.code == 2


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
    assert json.loads(out)["fidelity"] >= 0.99


def test_simulate_reconstruct_rejects_bad_state():
    with pytest.raises(SystemExit) as err:
        main(["simulate-reconstruct", "--state", "what:ever@3", "--m", "2", "--seed", "1"])
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

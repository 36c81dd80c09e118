import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballschwarz
from ballschwarz.cli import main

TWO_OVER_PI = 2.0 / math.pi


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_constants_planar_row(capsys):
    code, out = _run(capsys, ["constants", "--n", "2", "--a-grid", "0"])
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert abs(float(row["D_cap_quadrature"]) - TWO_OVER_PI) < 1e-9
    assert abs(float(row["C_hypergeometric"]) - TWO_OVER_PI) < 1e-9
    assert abs(float(row["s_minus_closed_form"]) - TWO_OVER_PI) < 1e-9


def test_constants_blank_cells_outside_provenance(capsys):
    code, out = _run(capsys, ["constants", "--n", "3", "--a-grid", "0.5"])
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["C_hypergeometric"] == ""
    assert row["s_minus_closed_form"] == ""


def test_empty_grid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["constants", "--n", "2", "--a-grid", ""])
    assert excinfo.value.code == 2


def test_bad_kind_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["envelope", "--kind", "parabolic"])
    assert excinfo.value.code == 2


def test_json_and_csv_carry_identical_numbers(capsys):
    args = ["constants", "--n", "2,3", "--a-grid=-0.25,0,0.25"]
    code, csv_text = _run(capsys, args)
    assert code == 0
    code, json_text = _run(capsys, args + ["--format", "json"])
    assert code == 0
    csv_rows = _parse_csv(csv_text)
    json_rows = json.loads(json_text)
    assert len(csv_rows) == len(json_rows)
    for c_row, j_row in zip(csv_rows, json_rows):
        for key, j_val in j_row.items():
            c_val = c_row[key]
            if j_val is None:
                assert c_val == ""
            elif isinstance(j_val, float):
                assert float(c_val) == j_val
            else:
                assert str(j_val) == c_val


def test_envelope_origin_and_full_cap_rows(capsys):
    code, out = _run(
        capsys,
        ["envelope", "--n", "3", "--c-grid", "0.3,1", "--r-grid", "0,0.5", "--kind", "harmonic"],
    )
    assert code == 0
    for row in _parse_csv(out):
        if float(row["r"]) == 0.0:
            assert abs(float(row["M_upper"]) - (2.0 * float(row["c"]) - 1.0)) < 1e-9
        if float(row["c"]) == 1.0:
            assert abs(float(row["M_upper"]) - 1.0) < 1e-9


def test_envelope_oracle_column_consistent(capsys):
    code, out = _run(
        capsys,
        ["envelope", "--n", "3", "--c-grid", "0.5", "--r-grid", "0.5", "--oracle", "--seed", "11"],
    )
    assert code == 0
    row = _parse_csv(out)[0]
    gap = abs(float(row["M_oracle_mc"]) - float(row["M_upper"]))
    assert gap <= 4.0 * float(row["M_oracle_stderr"])


def test_verify_passes_and_corruption_fails(capsys):
    code, out = _run(capsys, ["verify"])
    assert code == 0
    rows = _parse_csv(out)
    assert rows and all(row["passed"] == "1" for row in rows)

    code, out = _run(capsys, ["verify", "--debug-bound-scale", "1.5"])
    assert code == 1
    rows = _parse_csv(out)
    assert any(row["passed"] == "0" for row in rows)


def test_verify_target_dimension_flag(capsys):
    code, out = _run(capsys, ["verify", "--m", "3"])
    assert code == 0
    assert any("m=3" in row["case"] for row in _parse_csv(out))


def test_verify_seeded_reproducibility(capsys):
    _, first = _run(capsys, ["verify", "--seed", "3"])
    _, second = _run(capsys, ["verify", "--seed", "3"])
    assert first == second


def test_hopf_summary_rows(capsys):
    code, out = _run(capsys, ["hopf", "--n", "3,4"])
    assert code == 0
    summaries = [row for row in _parse_csv(out) if row["slope"] != ""]
    assert len(summaries) == 2
    by_n = {row["n"]: row for row in summaries}
    assert abs(float(by_n["3"]["slope"]) - 1.0) <= 0.02
    assert abs(float(by_n["4"]["slope"]) - 2.0) <= 0.02
    for row in summaries:
        d_n = float(row["d_n"])
        assert abs(float(row["coefficient"]) - d_n) / d_n <= 0.01


def test_mobius_residual_table(capsys):
    code, out = _run(capsys, ["mobius", "--n", "1,2,3"])
    assert code == 0
    rows = _parse_csv(out)
    for row in rows:
        assert float(row["residual"]) < 1e-11
        if row["case"] == "origin" and row["identity"] in ("involution", "A_squared"):
            assert float(row["residual"]) == 0.0


def test_mobius_determinism(capsys):
    _, first = _run(capsys, ["mobius", "--n", "2", "--seed", "9"])
    _, second = _run(capsys, ["mobius", "--n", "2", "--seed", "9"])
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = _run(capsys, ["constants", "--n", "2", "--a-grid", "0", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = _parse_csv(target.read_text())
    assert abs(float(rows[0]["D_cap_quadrature"]) - TWO_OVER_PI) < 1e-9


def test_oracle_constants_match_fast_path(capsys):
    _, fast = _run(capsys, ["constants", "--n", "4", "--a-grid", "0"])
    _, slow = _run(capsys, ["constants", "--n", "4", "--a-grid", "0", "--oracle"])
    fast_val = float(_parse_csv(fast)[0]["C_hypergeometric"])
    slow_val = float(_parse_csv(slow)[0]["C_hypergeometric"])
    assert abs(fast_val - slow_val) < 1e-9


def test_unreachable_tolerance_exits_with_accuracy_code(capsys):
    code = main(
        ["envelope", "--n", "3", "--c-grid", "0.5", "--r-grid", "0.5",
         "--tol-abs", "1e-30", "--tol-rel", "1e-30"]
    )
    capsys.readouterr()
    assert code == 3


def test_module_entry_point_runs():
    # The child interpreter must import the same package as this one,
    # also when pytest put it on the path through ``pythonpath``.
    package_root = str(Path(ballschwarz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ballschwarz.cli", "constants", "--n", "2", "--a-grid", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "D_cap_quadrature" in proc.stdout

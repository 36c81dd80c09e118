import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ballschwarz
from ballschwarz import AccuracyError, DomainError, QuadratureConfig, cli
from ballschwarz.cli import main
from ballschwarz.hilbert_ball import (
    MobiusParams,
    inner,
    mobius_A,
    mobius_derivative_adjoint,
    mobius_identity_residuals,
    mobius_map,
)

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


def test_non_integer_dimension_is_usage_error(capsys):
    for value in ("2.5", "inf", "nan"):
        with pytest.raises(SystemExit) as excinfo:
            main(["constants", "--n", value])
        assert excinfo.value.code == 2
    assert "argument --n: must contain integers" in capsys.readouterr().err


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


def _json_dumps_render(rows, columns, fmt):
    """``_render`` as ``json.dumps(indent=2)`` of the rows with each float rounded through 12 digits,
    and CSV cells formatted again from those rounded floats."""

    def shaped(value):
        if value is None or isinstance(value, str):
            return value
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        return float(f"{float(value):.12g}")

    if fmt == "json":
        return json.dumps([{col: shaped(row.get(col)) for col in columns} for row in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        rendered = []
        for col in columns:
            value = shaped(row.get(col))
            if value is None:
                rendered.append("")
            elif isinstance(value, float):
                rendered.append(f"{value:.12g}")
            else:
                rendered.append(str(value))
        writer.writerow(rendered)
    return buffer.getvalue()


_TEXT = st.text(st.sampled_from(['"', "\\", ",", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "a", " ", "é", "中",
                                 "\u2028", "\U0001f600"]), max_size=6)
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-317, 1e308, -1e308, 5e-324, 0.1, 1 / 3]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=5, unique=True).flatmap(
    lambda columns: st.tuples(st.just(columns),
                              st.lists(st.fixed_dictionaries({}, optional={col: _CELLS for col in columns}),
                                       max_size=4))))
def test_the_writers_are_the_bytes_of_json_dumps_and_the_round_trip(table):
    columns, rows = table
    for fmt in ("csv", "json"):
        assert cli._render(rows, columns, fmt) == _json_dumps_render(rows, columns, fmt)


def _parse_and_run(argv):
    """``main`` with the top-level parser reading the whole argv."""
    args = cli._parsers()[0].parse_args(argv)
    try:
        return args.run(args, QuadratureConfig(abs_tol=args.tol_abs, rel_tol=args.tol_rel))
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


def _outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_VALID_ARGV = [
    ["constants"],
    ["constants", "--n", "2,3", "--a-grid=-0.5,0,0.5", "--format", "json"],
    ["constants", "--a-grid", "-0.5", "--n=2"],
    ["constants", "--n", "2", "--tol-a", "1e-9", "--oracle"],
    ["envelope", "--n", "3", "--c-grid=0.25", "--r-grid=0,0.5", "--kind", "hyperbolic", "--format=json"],
    ["envelope", "--n=3,8", "--r-grid", "0.9", "--tol-abs=1e-9", "--tol-rel=1e-8"],
    ["hopf", "--n", "3", "--c-grid", "0.5"],
    ["mobius", "--n", "1,2", "--seed=3"],
    ["verify", "--seed", "7", "--debug-bound-scale=-0.5"],
]
_INVALID_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["constants", "-h"],
    ["hopf", "--he"],
    ["nope"],
    ["nope", "--n", "3"],
    ["--format", "json", "constants"],
    ["--", "constants"],
    ["constants", "extra"],
    ["constants", "hopf"],
    ["hopf", "constants", "--n", "3"],
    ["constants", "--n", "2", "--"],
    ["constants", "--n", "2", "--", "x", "y"],
    ["constants", "--", "--n", "2"],
    ["constants", "--format", "xml"],
    ["constants", "--tol-", "1e-9"],
    ["constants", "--n=2.5"],
    ["constants", "--n"],
    ["constants", "--a-grid", "2"],
    ["constants", "--n", "20000", "--a-grid", "0.5"],
    ["constants", "--n", "2", "--tol-abs=-0.5"],
    ["constants", "--seed", "1"],
    ["envelope", "--seed", "1"],
    ["envelope", "--kind", "parabolic"],
    ["envelope", "--n", "3", "--c-grid=-0.5"],
    ["hopf", "--n", "3", "--oracle"],
    ["mobius", "--n", "0"],
    ["verify", "--seed=-1"],
    ["verify", "--m", "x"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV + _INVALID_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_to_the_subcommand_parser_is_invisible(argv):
    expected = _outcome(_parse_and_run, argv)
    assert _outcome(main, argv) == expected
    if argv in _VALID_ARGV:
        assert expected[0] in (0, 1)  # a negative bound scale fails the verify checks
        assert vars(cli._parse(argv)) == vars(cli._parsers()[0].parse_args(argv))
    else:
        assert expected[0] != 0 or argv[-1].startswith(("-h", "--he"))


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
            assert (row["M_upper"], row["m_lower"]) == ("1", "1")
    # the full cap alone, at the default radii
    code, out = _run(capsys, ["envelope", "--n", "3", "--c-grid", "1"])
    assert code == 0
    rows = "".join(f"harmonic,3,1,{r},1,1\n" for r in ("0", "0.2", "0.4", "0.6", "0.8"))
    assert out == "kind,n,c,r,M_upper,m_lower\n" + rows


def test_envelope_at_dimension_20000_prints_no_overflow_warning(capsys):
    # every power the envelope takes there has a base of at most 1, so none overflows
    code = main(["envelope", "--n", "20000", "--c-grid", "0.5", "--r-grid", "0.5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    row = _parse_csv(captured.out)[0]
    assert (row["M_upper"], row["m_lower"]) == ("1", "-1")


_ORACLE_SWEEP = ["--n", "2,3,4,8,16,32,64", "--c-grid", "0.02,0.1,0.3,0.5,0.7,0.9,0.98",
                 "--r-grid=-0.999,-0.99,-0.9,-0.6,-0.3,0,0.3,0.6,0.9,0.99,0.999", "--oracle"]


@pytest.mark.parametrize("kind", ["harmonic", "hyperbolic"])
def test_envelope_oracle_agrees_with_the_envelope(kind, capsys):
    # the engine on the complement arc in the original angle against the Moebius image of that arc (a fixed
    # rule or the closed form); m(r) = M(-r) is checked through the negative radii
    code, out = _run(capsys, ["envelope", *_ORACLE_SWEEP, "--kind", kind])
    rows = _parse_csv(out)
    assert code == 0 and len(rows) == 7 * 7 * 11
    for row in rows:
        gap = float(row["M_oracle"]) - float(row["M_upper"])
        assert abs(gap) <= 1e-12 and abs(float(row["M_oracle_diff"]) - gap) <= 1e-11, row


def test_envelope_oracle_difference_shows_a_moved_envelope(monkeypatch, capsys):
    # a 1e-9 error of the main path, invisible at 12 digits next to M ~ 1, stands out in M_oracle_diff
    main_path = cli.envelope_upper
    monkeypatch.setattr(cli, "envelope_upper", lambda *args: main_path(*args) + 1e-9)
    for kind in ("harmonic", "hyperbolic"):
        code, out = _run(capsys, ["envelope", "--n", "3,64", "--c-grid", "0.3", "--r-grid=-0.9,0,0.999",
                                  "--oracle", "--kind", kind])
        assert code == 0
        assert all(abs(float(row["M_oracle_diff"])) >= 5e-10 for row in _parse_csv(out))


def test_a_tiny_harmonic_cap_near_the_sphere_meets_the_oracle(capsys):
    # n = 8, c = 1e-28, r = 0.999, where an adaptive quadrature of the complement tail is 2.0e-11 off if its
    # kernel takes the cancelling distance 1 - 2r cos t + r^2; the image rule is 2.4e-15 off
    # -0.99999962101030285, a 40-digit mpmath quadrature of the direct cap arc, and the oracle, whose
    # distance does not cancel, rounds to it
    code, out = _run(capsys, ["envelope", "--n", "8", "--c-grid", "1e-28", "--r-grid", "0.999", "--oracle"])
    assert code == 0 and abs(float(_parse_csv(out)[0]["M_oracle_diff"])) <= 1e-13
    upper = ballschwarz.envelope_upper(ballschwarz.KernelKind.HARMONIC, ballschwarz.CapSpec(8, 1e-28), 0.999)
    assert abs(upper - -0.99999962101030285) <= 1e-14


def test_harmonic_envelopes_past_dimension_64_meet_the_oracle(capsys):
    # past n = 64 the image rule's fixed nodes may miss, and the rows that do continue in the engine
    code, out = _run(capsys, ["envelope", "--n", "128,512", "--c-grid", "1e-6,0.5,0.999999",
                              "--r-grid=-0.999,0,0.5,0.999", "--oracle"])
    rows = _parse_csv(out)
    assert code == 0 and len(rows) == 2 * 3 * 4
    for row in rows:
        assert all(math.isfinite(float(row[key])) for key in ("M_upper", "m_lower", "M_oracle")), row
        assert abs(float(row["M_oracle_diff"])) <= 1e-13, row


def test_verify_passes_and_corruption_fails(capsys):
    code, out = _run(capsys, ["verify"])
    assert code == 0
    rows = _parse_csv(out)
    assert rows and all(row["passed"] == "1" for row in rows)

    assert out.splitlines()[0] == "case,lambda,relation,bound,tolerance,margin,passed"

    for scale in ("0.5", "1.5"):
        code, out = _run(capsys, ["verify", "--debug-bound-scale", scale])
        assert code == 1
        rows = _parse_csv(out)
        assert all(row["passed"] == "0" for row in rows if row["case"].startswith("planar-extremal"))


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


def _bulk_pairs(k, seed):
    """The ``mobius`` draws rebuilt from their documented layout: three bulk calls on ``Philox([seed, k])``."""
    batch = cli._MOBIUS_BATCH + 1
    rng = np.random.Generator(np.random.Philox([seed, k]))
    normals = rng.standard_normal((2, batch, 2 * k))
    radii = 0.9 * rng.random(batch) ** (1.0 / (2 * k))  # an array power: a scalar one may round differently

    def unit(x):  # np.linalg.norm(axis=-1) of a real array is sqrt(sum(x * x)) over the row
        return (x[:k] + 1j * x[k:]) / np.sqrt(np.sum(x * x))

    xis = [unit(normals[0, row]) * (radii[row] if row else 0.0) for row in range(batch)]
    zs = [unit(normals[1, row]) for row in range(batch)]
    return np.array(xis), np.array(zs)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 32, 33])
@pytest.mark.parametrize("seed", [0, 5, 7, 12345])
def test_mobius_draws_are_the_per_draw_bits(k, seed):
    """Every draw's bits are those of the three-call layout, row 0 the origin."""
    xis, zs = cli._mobius_draws(seed, k)
    ref_xis, ref_zs = _bulk_pairs(k, seed)
    assert xis.shape == zs.shape == (cli._MOBIUS_BATCH + 1, k)
    assert np.array_equal(xis, ref_xis)
    assert np.array_equal(zs, ref_zs)


@pytest.mark.parametrize("k", [1, 2, 7, 32])
def test_mobius_draw_law(k):
    """z on the unit sphere, xi in the ball of radius 0.9 with (|xi|/0.9)^(2k) uniform on [0, 1]."""
    samples = []
    for seed in range(10):
        xis, zs = cli._mobius_draws(seed, k)
        assert np.all(xis[0] == 0.0)
        assert np.max(np.abs(np.linalg.norm(zs, axis=-1) - 1.0)) <= 1e-15
        radii = np.linalg.norm(xis[1:], axis=-1)
        assert np.max(radii) <= 0.9
        samples.append((radii / 0.9) ** (2 * k))
    samples = np.concatenate(samples)
    sigma = 1.0 / math.sqrt(12 * samples.size)
    assert abs(float(np.mean(samples)) - 0.5) <= 4 * sigma


@pytest.mark.parametrize("k", [1, 7, 8])
@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_mobius_origin_point_is_no_drawn_direction(k, seed):
    """The origin row's z is none of the drawn xi directions, at k = 7 too (no stream shared with another k)."""
    xis, zs = cli._mobius_draws(seed, k)
    directions = xis[1:] / np.linalg.norm(xis[1:], axis=-1, keepdims=True)
    assert np.min(np.linalg.norm(directions - zs[0], axis=-1)) > 1e-6
    if k > 1:  # in C^1 any two unit vectors are complex multiples of each other
        assert np.max(np.abs(inner(zs[0], directions))) < 1 - 1e-6


def _per_draw_mobius_rows(k, seed):
    """The ``mobius`` table rebuilt from the pairs of ``_mobius_draws``, one unbatched pair at a time."""
    def residuals(params, z):
        a_squared = mobius_A(params, mobius_A(params, z))
        image = mobius_map(params, z)
        mu = (1.0 - float(np.linalg.norm(params.xi)) ** 2) / abs(1.0 - inner(z, params.xi)) ** 2
        return {
            "involution": float(np.linalg.norm(mobius_map(params, image) - z)),
            "sphere_preservation": abs(float(np.linalg.norm(image)) - 1.0),
            "A_squared": float(np.linalg.norm(a_squared - params.s**2 * z - params.xi * inner(z, params.xi))),
            "derivative_adjoint": float(np.linalg.norm(mobius_derivative_adjoint(params, z, image) - mu * z)),
        }

    xis, zs = cli._mobius_draws(seed, k)
    origin = residuals(MobiusParams(xis[0]), zs[0])
    worst = dict.fromkeys(origin, 0.0)
    for xi, z in zip(xis[1:], zs[1:]):
        for name, value in residuals(MobiusParams(xi), z).items():
            worst[name] = max(worst[name], value)
    return {"origin": origin, "random_max": worst}


def test_mobius_keeps_its_draws(capsys, monkeypatch):
    dims = [1, 2, 3, 8, 32]
    calls = []
    fused = cli.mobius_identity_residuals

    def counted(p, z):
        calls.append((p.xi.shape, z.shape))
        return fused(p, z)

    monkeypatch.setattr(cli, "mobius_identity_residuals", counted)
    code, out = _run(capsys, ["mobius", "--n", ",".join(map(str, dims)), "--seed", "5", "--format", "json"])
    assert code == 0
    monkeypatch.setattr(cli, "mobius_identity_residuals", fused)

    rows = json.loads(out)
    assert len(rows) == 8 * len(dims)
    expected = {k: _per_draw_mobius_rows(k, 5) for k in dims}
    for row in rows:
        reference = expected[row["k"]][row["case"]][row["identity"]]
        assert abs(row["residual"] - reference) <= 1e-15, row

    # One batched residual pass per k, the origin row and all draws together.
    assert calls == [((cli._MOBIUS_BATCH + 1, k), (cli._MOBIUS_BATCH + 1, k)) for k in dims]


def test_mobius_residuals_need_no_dense_matrix():
    rng = np.random.Generator(np.random.Philox(11))
    k = 512
    xi = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    xi *= 0.9 / np.linalg.norm(xi, axis=-1, keepdims=True)
    z = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    params = MobiusParams(xi)
    tracemalloc.start()
    try:
        residuals = mobius_identity_residuals(params, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(float(np.max(value)) < 1e-12 for value in residuals.values())
    assert peak < 2**20


def test_calls_share_one_parser(monkeypatch, capsys):
    argv = ["constants", "--n", "2,3"]
    _, first = _run(capsys, argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _, second = _run(capsys, argv)
    assert built == []
    assert second == first


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    _, expected = _run(capsys, ["hopf", "--n", "3"])
    monkeypatch.setattr(sys, "argv", ["ballschwarz", "hopf", "--n", "3"])
    assert _run(capsys, None) == (0, expected)


def test_an_oracle_call_leaves_no_oracle_columns_behind(capsys):
    argv = ["envelope", "--n", "3", "--c-grid", "0.5", "--r-grid", "0.5"]
    code, plain = _run(capsys, argv)
    assert code == 0
    code, oracle = _run(capsys, argv + ["--oracle"])
    assert code == 0 and oracle.startswith("kind,n,c,r,M_upper,m_lower,M_oracle,M_oracle_diff\n")
    assert _run(capsys, argv) == (0, plain)
    assert plain == "kind,n,c,r,M_upper,m_lower\nharmonic,3,0.5,0.5,0.6583592135,-0.6583592135\n"


def test_an_out_call_leaves_stdout_as_the_next_target(tmp_path, capsys):
    argv = ["constants", "--n", "2", "--a-grid", "0"]
    target = tmp_path / "table.csv"
    assert _run(capsys, argv + ["--out", str(target)]) == (0, "")
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == target.read_text()


def test_an_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    argv = ["constants", "--n", "3", "--out", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert not target.parent.exists()
    assert _outcome(_parse_and_run, argv) == _outcome(main, argv)


def test_a_usage_error_leaves_the_next_call_intact(capsys):
    argv = ["mobius", "--n", "1,2", "--seed", "3"]
    _, before = _run(capsys, argv)
    with pytest.raises(SystemExit) as excinfo:
        main(["mobius", "--n", "1,2", "--seed=-3"])
    assert excinfo.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert _run(capsys, argv) == (0, before)


def test_negative_seed_is_usage_error(capsys):
    for argv in (["verify", "--seed=-1"], ["mobius", "--seed=-1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def test_flags_a_subcommand_never_reads_are_usage_errors(capsys):
    for argv in (["hopf", "--n", "3", "--oracle"], ["constants", "--seed", "1"], ["envelope", "--seed", "1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = _run(capsys, ["constants", "--n", "2", "--a-grid", "0", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = _parse_csv(target.read_text())
    assert abs(float(rows[0]["D_cap_quadrature"]) - TWO_OVER_PI) < 1e-9


def test_hopf_decay_coefficient_at_dimension_64(capsys):
    # the quadrature path printed 2783.09 here (off by 2.1e-3)
    code, out = _run(capsys, ["hopf", "--n", "64", "--c-grid", "0.1"])
    assert code == 0
    summary = [row for row in _parse_csv(out) if row["d_n"] != ""]
    assert [row["d_n"] for row in summary] == ["2788.90521683"]


@pytest.mark.parametrize("n", [80, 120, 200])
def test_hopf_past_the_normal_doubles_exits_with_domain_code(capsys, n):
    # T at r = 1 - 2^-14 underflows to 0 from n = 80 at c = 1/2
    assert main(["hopf", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n={n}" in captured.err


@pytest.mark.parametrize("c", ["1", "0"])
def test_hopf_at_the_full_and_the_empty_cap_exits_with_domain_code(capsys, c):
    # the full cap is a cap, but its T is 0, whose log the fit cannot take
    assert main(["hopf", "--n", "3", "--c-grid", c]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: cap measure must lie in (0, 1), got {float(c)!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["constants", "--n", "3", "--a-grid", "0,1"], "base value must lie in (-1, 1), got 1.0"),
    (["envelope", "--n", "3", "--c-grid", "0,0.5"], "cap measure must lie in (0, 1], got 0.0"),
    (["mobius", "--n", "0,2"], "complex dimension must be an integer >= 1, got 0"),
])
def test_an_out_of_range_grid_entry_is_refused_with_the_library_text(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: {message}\n"


def test_constants_outside_the_doubles_exit_with_domain_code(capsys):
    assert main(["constants", "--n", "30000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=30000" in captured.err


def test_constants_at_dimension_2049_are_finite_and_agree(capsys):
    code, out = _run(capsys, ["constants", "--n", "2049", "--a-grid", "0"])
    assert code == 0
    (row,) = _parse_csv(out)
    d_val, c_val = float(row["D_cap_quadrature"]), float(row["C_hypergeometric"])
    assert math.isfinite(d_val) and d_val > 0.0
    assert d_val == pytest.approx(c_val, rel=1e-10, abs=0.0)


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


def test_nonpositive_tolerance_exits_with_domain_code(capsys):
    assert main(["constants", "--n", "2", "--tol-abs", "0"]) == 2
    assert "tolerances must be positive" in capsys.readouterr().err


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

import importlib.util
import math
import shutil
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _audit_module():
    spec = importlib.util.spec_from_file_location("output_audit", ROOT / "tools" / "output_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_audited_against_itself_moves_nothing(monkeypatch, capsys):
    audit = _audit_module()
    argvs = audit.plan_argvs()
    assert len(argvs) == len({tuple(argv) for argv in argvs})
    assert {argv[0] for argv in argvs} == {"envelope", "constants", "hopf", "verify", "mobius"}
    # the first verify and mobius calls and a few table calls
    few = argvs[:3] + [next(argv for argv in argvs if argv[0] == name) for name in ("verify", "mobius")]
    results = audit.run_tree(ROOT, few)
    assert [rc for rc, *_ in results] == [0] * len(few)
    assert audit.compare(few, results, results) == ([], 0.0)
    cells = sum(len(values) for *_, values in results)
    assert cells > 0 and audit.compare_bits(few, results, results) == ([], cells)
    items = audit.plan_offaxis()
    assert {item["case"]["kind"] for item in items} == {"cap", "step"}
    # the first cap and step items of the plan
    some = [next(item for item in items if item["case"]["kind"] == kind) for kind in ("cap", "step")]
    offaxis = audit.run_offaxis(ROOT, some)
    assert [len(points) for _, points in offaxis] == [len(item["points"]) for item in some]
    assert all(float(a) == float(a) for a, _ in offaxis)
    assert all(error is None and float(value) == float(value) for _, points in offaxis for value, error in points)
    assert audit.compare_offaxis(some, offaxis, offaxis) == ([], [])
    # two edge argv, one of them a refusal, and one that the plans already hold
    edges = [["hopf", "--n", "3", "--c-grid", "1"], ["envelope", "--n", "3", "--c-grid", "1"], few[0]]
    cells += len(audit.run_tree(ROOT, edges[1:2])[0][3])
    monkeypatch.setattr(audit, "plan_argvs", lambda: few)
    monkeypatch.setattr(audit, "EDGE_ARGVS", edges)
    monkeypatch.setattr(audit, "plan_offaxis", lambda: some)
    assert audit.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"0 moved of {len(few) + 2} argv (tables/checks plans, seeds 1, 2, 7, and 2 edge argv)")
    assert out[1].startswith(f"0 moved of {sum(len(item['points']) for item in some)} offaxis points and 0 of 2")
    assert out[2] == f"0 moved of {cells} float cells in float.hex (every row handed to cli._emit)"


def test_the_edge_argv_reach_the_full_cap_the_empty_cap_a_tiny_cap_and_the_refusals():
    audit = _audit_module()
    edges = audit.EDGE_ARGVS
    plans = {tuple(argv) for argv in audit.plan_argvs()}
    assert len({tuple(argv) for argv in edges}) == len(edges) and not plans & {tuple(argv) for argv in edges}
    for command in ("envelope", "hopf"):
        grids = {value for argv in edges if argv[0] == command
                 for value in argv[argv.index("--c-grid") + 1].split(",")}
        assert {"1", "0", "1e-28"} <= grids, command
    assert {"harmonic", "hyperbolic"} <= {argv[-1] for argv in edges if argv[0] == "envelope"}
    a_values = {value for argv in edges if argv[0] == "constants"
                for flag in argv if flag.startswith("--a-grid=") for value in flag.split("=")[1].split(",")}
    assert {"-0.999999999999", "0.999999999999"} <= a_values
    results = audit.run_tree(ROOT, edges)
    outcome = {" ".join(argv): (rc, err) for argv, (rc, _, err, _) in zip(edges, results)}
    # the refusals keep their exit code and their one line on stderr; every other edge prints rows
    assert outcome["hopf --n 3 --c-grid 1"] == (2, "domain error: cap measure must lie in (0, 1), got 1.0\n")
    assert outcome["hopf --n 3 --c-grid 0"] == (2, "domain error: cap measure must lie in (0, 1), got 0.0\n")
    # hopf past the plans' dimensions: rows up to n = 73, then the underflow of T refuses before d_n is taken
    assert outcome["hopf --n 74 --c-grid 0.5"] == (2, "domain error: T(r) for n=74, c=0.5 at r=0.99993896484375 "
                                                      "is 3.4003470029612147e-305: its complement measure is "
                                                      "below the normal doubles\n")
    rows = {" ".join(argv): out.count("\n") for argv, (rc, out, _, _) in zip(edges, results) if argv[0] == "hopf"}
    assert rows["hopf --n 17,40 --c-grid 0.1,0.3"] == 49 and rows["hopf --n 73 --c-grid 0.5"] == 13
    for argv, (rc, out, err, cells) in zip(edges, results):
        if rc == 0:
            assert err == "" and cells and out.count("\n") > 1, argv
        else:
            assert rc == 2 and out == "" and err.startswith("domain error: "), argv
    # the oracle of each kernel prints a finite cell in every column of every row
    oracle = {argv[-1]: (rc, cells) for argv, (rc, *_, cells) in zip(edges, results) if "--oracle" in argv}
    assert set(oracle) == {"harmonic", "hyperbolic"}
    for rc, cells in oracle.values():
        assert rc == 0 and {label.split()[0] for label, _ in cells} >= {"M_oracle", "M_oracle_diff"}
        assert all(math.isfinite(float.fromhex(value)) for _, value in cells)
    # the full cap's rows are M = m = 1 at every radius, a negative one included
    full = next(cells for argv, (*_, cells) in zip(edges, results) if argv[0] == "envelope" and argv[4] == "1")
    assert {value for label, value in full if label.split()[0] in ("M_upper", "m_lower")} == {(1.0).hex()}
    assert audit.compare_bits(edges, results, results) == ([], sum(len(cells) for *_, cells in results))


def test_the_audit_names_a_moved_number():
    audit = _audit_module()
    argv = ["verify"]
    before, after = (0, "lam 0.25\n", "", []), (0, "lam 0.2500001\n", "", [])
    moved, largest = audit.compare([argv], [before], [after])
    assert moved == [(argv, ["stdout"], largest)]
    assert abs(largest - 1e-7) <= 1e-15
    assert audit.compare([argv], [before], [(2, "", "error\n", [])])[0] == [(argv, ["exit", "stderr", "stdout"], None)]


def test_the_audit_names_a_moved_offaxis_point_and_base_value():
    audit = _audit_module()
    case = {"kind": "cap", "n": 3, "a": 0.0}
    points = [{"rho": 0.5, "psi": 1.0, "x": [0.27, 0.42, 0.0]}, {"rho": 0.6, "psi": 2.0, "x": [-0.25, 0.55, 0.0]}]
    items = [{"case": case, "points": points}]
    before = [("0.25", [("0.5", None), ("-0.125", None)])]
    after = [("0.25000000000000006", [("0.5", None), (repr(None), "AccuracyError: refused")])]
    bases, moved = audit.compare_offaxis(items, before, after)
    assert bases == [(case, "0.25", "0.25000000000000006")]
    assert moved == [(case, points[1], ("-0.125", None), ("None", "AccuracyError: refused"))]


def test_the_bit_audit_reads_every_verify_row_and_envelope_value():
    audit = _audit_module()
    few = [next(argv for argv in audit.plan_argvs() if argv[0] == "verify"),
           ["envelope", "--n", "3,8", "--c-grid=0.3,1", "--r-grid=0,0.5,0.99", "--kind", "harmonic"]]
    results = audit.run_tree(ROOT, few)
    (_, verify_out, _, verify), (_, _, _, envelope) = results
    rows = verify_out.count("\n") - 1  # below the header
    columns = [Counter(label.split()[0] for label, _ in cells) for cells in (verify, envelope)]
    assert columns[0] == dict.fromkeys(("lambda", "bound", "tolerance", "margin"), rows)
    # M and m over n x c x r, with the row's c and r
    assert columns[1] == dict.fromkeys(("c", "r", "M_upper", "m_lower"), 2 * 2 * 3)
    assert all(float.fromhex(value) == float.fromhex(value) for _, value in verify + envelope)
    assert audit.compare_bits(few, results, results) == ([], len(verify) + len(envelope))


def test_the_bit_audit_names_a_value_moved_by_one_ulp(monkeypatch, capsys):
    audit = _audit_module()
    argv = ["verify", "--seed", "7"]
    lam, bound = ("lambda row 0", (0.25).hex()), ("bound row 0", (0.5).hex())
    nudged = ("lambda row 0", math.nextafter(0.25, 1.0).hex())
    assert nudged[1] != lam[1]

    def result(cells):
        return (0, "lam 0.25\n", "", cells)

    moved, count = audit.compare_bits([argv], [result([lam, bound])], [result([nudged, bound])])
    assert (moved, count) == ([(argv, lam, nudged)], 2)
    # a value that is missing on one side is a moved value too
    assert audit.compare_bits([argv], [result([lam, bound])], [result([lam])]) == ([(argv, bound, None)], 2)
    # main names it and counts it in its exit status, though the printed 12 digits are the same
    monkeypatch.setattr(audit, "plan_argvs", lambda: [argv])
    monkeypatch.setattr(audit, "EDGE_ARGVS", [])
    monkeypatch.setattr(audit, "plan_offaxis", lambda: [])
    monkeypatch.setattr(audit, "run_tree",
                        lambda tree, argvs: [result([lam, bound] if str(tree) == "parent" else [nudged, bound])])
    monkeypatch.setattr(audit, "run_offaxis", lambda tree, items: [])
    assert audit.main(["parent", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"moved value lambda row 0: {lam[1]} -> {nudged[1]} in verify --seed 7"
    assert out[1].startswith("0 moved of 1 argv") and out[3].startswith("1 moved of 2 float cells")


# appended to a copy of hilbert_ball.py: one residual moved up by one ulp, the worst A_squared draw at k = 3
_ONE_ULP_MUTANT = '''

_unmoved = mobius_identity_residuals


def mobius_identity_residuals(p, z):
    residuals = _unmoved(p, z)
    if p.k == 3:
        worst = 1 + int(np.argmax(residuals["A_squared"][1:]))
        residuals["A_squared"][worst] = np.nextafter(residuals["A_squared"][worst], np.inf)
    return residuals
'''


def _mutant(tmp_path, module, code):
    """A copy of ``src`` with ``code`` appended to ``ballschwarz/<module>.py``."""
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(mutant / "src" / "ballschwarz" / f"{module}.py", "a", encoding="utf-8") as handle:
        handle.write(code)
    return mutant


def _moved(audit, mutant, argvs):
    """The float cells that move from this tree to ``mutant``, which the printed 12 digits do not show."""
    before, after = audit.run_tree(ROOT, argvs), audit.run_tree(mutant, argvs)
    assert audit.compare(argvs, before, after) == ([], 0.0)
    moved, count = audit.compare_bits(argvs, before, after)
    assert count == sum(len(cells) for *_, cells in before)
    assert all(old[0] == new[0] for _, old, new in moved)
    return before, moved


def _one_ulp_up(old, new):
    return float.fromhex(new[1]) == math.nextafter(float.fromhex(old[1]), math.inf)


def test_the_bit_audit_names_a_mobius_residual_moved_by_one_ulp(tmp_path):
    audit = _audit_module()
    mutant = _mutant(tmp_path, "hilbert_ball", _ONE_ULP_MUTANT)
    argvs = [["mobius", "--n", "1,2,3,8,32", "--seed", "7"], ["constants", "--n", "2,3", "--a-grid=-0.5,0"],
             ["hopf", "--n", "3", "--c-grid", "0.5"]]
    before, moved = _moved(audit, mutant, argvs)
    # a residual per mobius row; a and D per constants row, C at a = 0, s^- at n = 2; c, r and T per hopf
    # radius, then c, slope, coefficient and d_n
    assert [len(cells) for *_, cells in before] == [5 * 8, 4 + 4 + 2 + 2, 11 * 3 + 4]
    [(argv, old, new)] = moved
    assert argv == argvs[0] and old[0] == "residual row 22 k=3 case=random_max identity=A_squared draws=200"
    assert _one_ulp_up(old, new)


# appended to a copy of envelope.py: the upper envelope at r = 0.5 moved up by one ulp for n = 8, c = 0.3, in
# the one envelope_rows call over every cap of a dimension, the radii and their reflections that the CLI makes
# per n
_ENVELOPE_MUTANT = '''

_unmoved_rows = envelope_rows


def envelope_rows(kind, caps, r, config=DEFAULT_CONFIG):
    values = _unmoved_rows(kind, caps, r, config)
    for cap, row in zip(caps, values):
        if cap.n == 8 and cap.c == 0.3 and np.ndim(r):
            row[1] = math.nextafter(row[1], math.inf)
    return values
'''

# appended to a copy of verify.py: the lambda of the row with the widest margin moved up by one ulp, so that
# its margin does not move in the printed 12 digits either
_VERIFY_MUTANT = '''

_unmoved_suite = default_verification_suite


def default_verification_suite(*args, **kwargs):
    reports = _unmoved_suite(*args, **kwargs)
    widest = max(range(len(reports)), key=lambda index: abs(reports[index].margin))
    reports[widest] = dataclasses.replace(reports[widest], lam=math.nextafter(reports[widest].lam, math.inf))
    return reports
'''


def test_the_bit_audit_names_an_envelope_value_moved_by_one_ulp(tmp_path):
    audit = _audit_module()
    mutant = _mutant(tmp_path, "envelope", _ENVELOPE_MUTANT)
    argvs = [["envelope", "--n", "3,8", "--c-grid=0.3,1", "--r-grid=0,0.5,0.99", "--kind", "harmonic"],
             ["envelope", "--n", "3", "--c-grid", "0.3"]]
    [(argv, old, new)] = _moved(audit, mutant, argvs)[1]
    assert argv == argvs[0] and old[0] == "M_upper row 7 kind=harmonic n=8"
    assert _one_ulp_up(old, new)


def test_the_bit_audit_names_a_verify_lambda_moved_by_one_ulp(tmp_path):
    audit = _audit_module()
    mutant = _mutant(tmp_path, "verify", _VERIFY_MUTANT)
    argvs = [["verify", "--seed", "7"]]
    # the row's margin, lambda - bound, moves with its lambda
    (argv, old, new), (margin_argv, margin, _) = _moved(audit, mutant, argvs)[1]
    assert argv == margin_argv == argvs[0]
    assert old[0] == "lambda row 9 case=identity-map n=3 relation=>= passed=True"
    assert margin[0] == "margin row 9 case=identity-map n=3 relation=>= passed=True"
    assert _one_ulp_up(old, new)

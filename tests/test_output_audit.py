import importlib.util
import math
import shutil
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
    assert [rc for rc, _, _ in results] == [0] * len(few)
    assert audit.compare(few, results, results) == ([], 0.0)
    items = audit.plan_offaxis()
    assert {item["case"]["kind"] for item in items} == {"cap", "step"}
    # the first cap and step items of the plan
    some = [next(item for item in items if item["case"]["kind"] == kind) for kind in ("cap", "step")]
    offaxis = audit.run_offaxis(ROOT, some)
    assert [len(points) for _, points in offaxis] == [len(item["points"]) for item in some]
    assert all(float(a) == float(a) for a, _ in offaxis)
    assert all(error is None and float(value) == float(value) for _, points in offaxis for value, error in points)
    assert audit.compare_offaxis(some, offaxis, offaxis) == ([], [])
    monkeypatch.setattr(audit, "plan_argvs", lambda: few)
    monkeypatch.setattr(audit, "plan_offaxis", lambda: some)
    assert audit.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"0 moved of {len(few)} argv")
    assert out[1].startswith(f"0 moved of {sum(len(item['points']) for item in some)} offaxis points and 0 of 2")


def test_the_audit_names_a_moved_number():
    audit = _audit_module()
    argv = ["verify"]
    before, after = (0, "lam 0.25\n", ""), (0, "lam 0.2500001\n", "")
    moved, largest = audit.compare([argv], [before], [after])
    assert moved == [(argv, ["stdout"], largest)]
    assert abs(largest - 1e-7) <= 1e-15
    assert audit.compare([argv], [before], [(2, "", "error\n")])[0] == [(argv, ["exit", "stderr", "stdout"], None)]


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
    verify, envelope = audit.run_bits(ROOT, few)
    assert len(verify) % 2 == 0 and {label.split()[0] for label, _ in verify} == {"lam", "bound"}
    assert len(envelope) == 2 * 2 * 2 * 3  # M and m over n x c x r
    assert all(float.fromhex(value) == float.fromhex(value) for _, value in verify + envelope)
    assert audit.compare_bits(few, [verify, envelope], [verify, envelope]) == ([], len(verify) + len(envelope))


def test_the_bit_audit_names_a_value_moved_by_one_ulp(monkeypatch, capsys):
    audit = _audit_module()
    argv = ["verify", "--seed", "7"]
    lam, bound = ("lam planar", (0.25).hex()), ("bound planar", (0.5).hex())
    nudged = ("lam planar", math.nextafter(0.25, 1.0).hex())
    assert nudged[1] != lam[1]
    moved, count = audit.compare_bits([argv], [[lam, bound]], [[nudged, bound]])
    assert (moved, count) == ([(argv, lam, nudged)], 2)
    # a value that is missing on one side is a moved value too
    assert audit.compare_bits([argv], [[lam, bound]], [[lam]]) == ([(argv, bound, None)], 2)
    # main names it and counts it in its exit status, though the printed 12 digits are the same
    monkeypatch.setattr(audit, "plan_argvs", lambda: [argv])
    monkeypatch.setattr(audit, "plan_offaxis", lambda: [])
    monkeypatch.setattr(audit, "run_tree", lambda tree, argvs: [(0, "lam 0.25\n", "")])
    monkeypatch.setattr(audit, "run_offaxis", lambda tree, items: [])
    monkeypatch.setattr(audit, "run_bits",
                        lambda tree, argvs: [[lam, bound] if str(tree) == "parent" else [nudged, bound]])
    assert audit.main(["parent", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"moved value lam planar: {lam[1]} -> {nudged[1]} in verify --seed 7"
    assert out[1].startswith("0 moved of 1 argv") and out[3].startswith("1 moved of 2 verify/envelope values")


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


def test_the_bit_audit_names_a_mobius_residual_moved_by_one_ulp(tmp_path):
    audit = _audit_module()
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(mutant / "src" / "ballschwarz" / "hilbert_ball.py", "a", encoding="utf-8") as handle:
        handle.write(_ONE_ULP_MUTANT)
    argvs = [["mobius", "--n", "1,2,3,8,32", "--seed", "7"], ["constants", "--n", "2,3", "--a-grid=-0.5,0"],
             ["hopf", "--n", "3", "--c-grid", "0.5"]]
    before, after = audit.run_bits(ROOT, argvs), audit.run_bits(mutant, argvs)
    # a residual per mobius row; a and D per constants row, C at a = 0, s^- at n = 2; c, r and T per hopf
    # radius, then c, slope, coefficient and d_n
    assert [len(values) for values in before] == [5 * 8, 4 + 4 + 2 + 2, 11 * 3 + 4]
    moved, count = audit.compare_bits(argvs, before, after)
    assert count == sum(len(values) for values in before)
    assert len(moved) == 1
    argv, old, new = moved[0]
    assert argv == argvs[0] and old[0] == new[0] == "residual row 22 k=3 case=random_max identity=A_squared draws=200"
    assert float.fromhex(new[1]) == math.nextafter(float.fromhex(old[1]), math.inf)
    # the printed 12 digits do not show it
    assert audit.compare(argvs, audit.run_tree(ROOT, argvs), audit.run_tree(mutant, argvs)) == ([], 0.0)

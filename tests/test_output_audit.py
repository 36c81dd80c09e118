import importlib.util
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
    monkeypatch.setattr(audit, "plan_argvs", lambda: few)
    assert audit.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out.startswith(f"0 moved of {len(few)} argv")


def test_the_audit_names_a_moved_number():
    audit = _audit_module()
    argv = ["verify"]
    before, after = (0, "lam 0.25\n", ""), (0, "lam 0.2500001\n", "")
    moved, largest = audit.compare([argv], [before], [after])
    assert moved == [(argv, ["stdout"], largest)]
    assert abs(largest - 1e-7) <= 1e-15
    assert audit.compare([argv], [before], [(2, "", "error\n")])[0] == [(argv, ["exit", "stderr", "stdout"], None)]

import importlib.util
import re
import sys
import types
from pathlib import Path

from ballschwarz import cli

ROOT = Path(__file__).resolve().parent.parent
GROUP_LINE = re.compile(r"(.+): (\d+) calls, parent ([\d.]+) ms, change ([\d.]+) ms, ratio change/parent ([\d.]+), "
                        r"integrate_rows calls parent (\d+) change (\d+), tail passes parent (\d+) change (\d+)")


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # for its import of output_audit
    spec = importlib.util.spec_from_file_location("call_minima", ROOT / "tools" / "call_minima.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_timed_against_itself_differs_nowhere(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    argvs = tool.plan_argvs("tables")
    assert argvs and all(isinstance(argv, list) and argv[0] in cli._parsers()[1] for argv in argvs)
    few = argvs[:4] + [["hopf", "--n", "3", "--oracle"]]  # the last is a usage error
    monkeypatch.setattr(tool, "plan_argvs", lambda workload: few)
    for name in tool.output_audit.THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")  # main pins them for the process
    assert tool.main([str(ROOT), str(ROOT), "--workload", "tables", "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"tables, seed {tool.SEED}: 5 calls, 2 interleaved rounds"
    assert out[1].startswith("parent: sum of per-call minima") and out[2].startswith("change: sum of per-call minima")
    assert out[3].startswith("ratio change/parent ") and float(out[3].split()[-1]) > 0
    assert out[4] == "0 of 5 calls differ"
    # then one line per subcommand, in plan order, whose sums add up to the trees' sums
    lines = [GROUP_LINE.fullmatch(line) for line in out[5:]]
    assert all(lines)
    assert [line[1] for line in lines] == list(dict.fromkeys(tool.group(argv) for argv in few))
    assert sum(int(line[2]) for line in lines) == 5
    for column, total in ((3, out[1]), (4, out[2])):
        assert abs(sum(float(line[column]) for line in lines) - float(total.split()[5])) <= 1e-3 * len(lines)
    assert all(float(line[5]) > 0 for line in lines)
    assert all(line[6] == line[7] for line in lines)  # one tree, so the same engine calls
    assert all(line[8] == line[9] for line in lines)  # and the same tail passes
    # each envelope argv makes one tail pass per dimension: one dimension per plan argv
    assert [(line[1], line[8]) for line in lines if line[1].startswith("envelope")] == [
        (name, str(sum(name == tool.group(argv) for argv in few))) for name in dict.fromkeys(
            tool.group(argv) for argv in few if argv[0] == "envelope")]
    assert not [name for name in sys.modules if name.startswith(("ballschwarz_parent", "ballschwarz_change"))]


def test_the_timer_names_a_call_whose_output_differs(monkeypatch):
    tool = _tool(monkeypatch)

    def quiet(argv):
        return 0

    def loud(argv):
        if argv == ["b"]:
            print("b")
        return 0

    minima, differ = tool.time_calls([quiet, loud], [["a"], ["b"]], 3)
    assert differ == [1]
    assert [len(tree) for tree in minima] == [2, 2] and all(0 <= t < 1 for tree in minima for t in tree)


def test_calls_are_grouped_by_subcommand_and_verify_by_its_m(monkeypatch):
    tool = _tool(monkeypatch)
    assert tool.group(["mobius", "--n", "1,2", "--seed", "3"]) == "mobius"
    assert tool.group(["verify", "--seed", "1", "--m", "3", "--format", "json"]) == "verify --m 3"
    assert tool.group(["verify", "--seed", "1"]) == "verify"
    groups = {tool.group(argv) for argv in tool.plan_argvs("checks")}
    assert groups == {"verify --m 2", "verify --m 3", "mobius"}


def test_envelope_calls_are_grouped_by_their_kind(monkeypatch):
    tool = _tool(monkeypatch)
    assert tool.group(["envelope", "--n", "3", "--kind", "hyperbolic", "--format", "csv"]) == "envelope --kind hyperbolic"
    assert tool.group(["envelope", "--n", "3", "--kind", "harmonic"]) == "envelope --kind harmonic"
    assert tool.group(["envelope", "--n", "3"]) == "envelope"
    assert tool.group(["envelope", "--kind"]) == "envelope"  # no value: argparse refuses it, no group of its own
    assert tool.group(["constants", "--n", "2", "--kind", "x"]) == "constants"
    assert tool.group(["verify", "--kind", "harmonic"]) == "verify"
    groups = {tool.group(argv) for argv in tool.plan_argvs("tables")}
    assert groups == {"envelope --kind harmonic", "envelope --kind hyperbolic", "constants", "hopf"}


def test_offaxis_points_are_timed_per_point_with_each_case_built_per_item(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    items = tool.plan_items()
    assert items and all(item["points"] for item in items)
    assert {tool.point_group(item) for item in items} == {f"n={n}" for n in range(2, 6)}
    few = items[:3] + items[-2:]  # n = 2 first, n = 5 last
    monkeypatch.setattr(tool, "plan_items", lambda: few)
    built = []
    build = tool.build_case
    monkeypatch.setattr(tool, "build_case", lambda package, case: built.append(case) or build(package, case))
    for name in tool.output_audit.THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    assert tool.main([str(ROOT), str(ROOT), "--workload", "offaxis", "--rounds", "2"]) == 0
    points = sum(len(item["points"]) for item in few)
    # each round, both trees; then each tree once more for the untimed engine count
    timed = [item["case"] for _ in range(2) for item in few for _ in range(2)]
    assert built == timed + [item["case"] for item in few] * 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"offaxis, seed {tool.SEED}: {points} calls, 2 interleaved rounds"
    assert out[4] == f"0 of {points} calls differ"
    lines = [GROUP_LINE.fullmatch(line) for line in out[5:]]
    assert all(lines)
    assert [line[1] for line in lines] == list(dict.fromkeys(tool.point_group(item) for item in few))
    assert sum(int(line[2]) for line in lines) == points
    assert all(line[6] == line[7] == "0" for line in lines)  # off-axis points are series, with no quadrature
    assert all(line[8] == line[9] == "0" for line in lines)  # and with no envelope tail
    assert not [name for name in sys.modules if name.startswith(("ballschwarz_parent", "ballschwarz_change"))]


def test_the_timer_names_a_point_whose_value_or_error_differs(monkeypatch):
    tool = _tool(monkeypatch)

    class Case:
        def __init__(self, value):
            self.value = value

        def f(self, x):
            if self.value is None:
                raise ArithmeticError("refused")
            return [self.value * x[0]]

    def package(value):
        return types.SimpleNamespace(build_cap_extremal=lambda n, m, a: Case(value))

    items = [{"case": {"kind": "cap", "n": 2, "a": 0.0}, "points": [{"x": [0.5, 0.0]}, {"x": [0.0, 0.5]}]},
             {"case": {"kind": "cap", "n": 2, "a": 0.0}, "points": [{"x": [0.25, 0.0]}]}]
    _, differ = tool.time_points([package(1.0), package(1.0)], items, 2)
    assert differ == []
    # 0.0 * 1.0 and 0.0 * (1.0 + 1e-16) are both 0.0: only the points off the zero differ
    minima, differ = tool.time_points([package(1.0), package(1.0 + 2.0**-52)], items, 2)
    assert differ == [0, 2]
    assert [len(tree) for tree in minima] == [3, 3]
    assert tool.time_points([package(1.0), package(None)], items, 1)[1] == [0, 1, 2]


def test_engine_calls_are_counted_at_every_module_that_binds_the_engine(monkeypatch, tmp_path):
    tool = _tool(monkeypatch)
    name = "ballschwarz_change"
    try:
        package = tool.load_package(ROOT, name, tmp_path)
        engine = sys.modules[f"{name}.quadrature"].integrate_rows
        binders = sorted(module for module, value in sys.modules.items()
                         if module.split(".")[0] == name and getattr(value, "integrate_rows", None) is engine)
        assert binders == [name, f"{name}.envelope", f"{name}.poisson", f"{name}.quadrature"]
        with tool.engine_calls(package) as count:
            assert all(sys.modules[module].integrate_rows is not engine for module in binders)
            package.integrate_rows(lambda x: x, 0.0, 1.0)  # through the package, then from within a module
            package.zonal_extension_on_axis(package.KernelKind.HARMONIC,
                                            package.ZonalBoundaryData(3, [1.0, 0.0, 0.0], lambda t: 0.0 * t + 0.5),
                                            [0.0, 0.5])
            assert count == [2]
        assert all(sys.modules[module].integrate_rows is engine for module in binders)
        # a cold verify suite: the 4 cap extremals' base values and ladders, and the 12 sandwich profiles; its
        # tail passes: the sandwich's 2 (one per kernel), the majorant's, the 2 Hopf scans' and the 3 of
        # V_monotone.  A warm one, of an --m seen before, takes its seed-free rows from the memo: 12 and 3
        package.verify._seed_free_rows.cache_clear()
        verify = [["verify", "--m", "2"], ["verify", "--m", "3", "--format", "json"]]
        assert tool.count_calls([package, package], verify) == ([[20, 20], [12, 12]], [[8, 8], [3, 3]])
        assert tool.count_calls([package], [["constants", "--n", "3", "--a-grid", "0"]]) == ([[0]], [[0]])
        # an envelope table: one tail pass per dimension, for every cap of its c grid
        table = [["envelope", "--n", "2,8", "--c-grid", "0.3,1", "--r-grid=-0.5,0,0.9", "--kind", kind]
                 for kind in ("harmonic", "hyperbolic")]
        assert tool.count_calls([package], table) == ([[0, 0]], [[2, 2]])
        with tool.tail_passes(package) as passes:
            package.envelope_upper(package.KernelKind.HARMONIC, package.CapSpec(3, 0.3), [0.2, -0.2])
            package.boundary_difference_quotient(package.KernelKind.HARMONIC, package.CapSpec(3, 0.3), 0.5)
            assert passes == [2]
    finally:
        for module in [module for module in sys.modules if module.split(".")[0] == name]:
            del sys.modules[module]

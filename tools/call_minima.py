"""Time the calls of a benchmark plan in two source trees, side by side in one process.

    python3 tools/call_minima.py PARENT_DIR CHANGE_DIR --workload {tables,checks,offaxis} [--rounds 5]

Each tree's ``src/ballschwarz`` is copied into a temporary directory as the
package ``ballschwarz_parent`` or ``ballschwarz_change``, and both are
imported into this one process.  The calls are those of
``perfbench/workloads.plan(workload, SEED)`` in plan order, taken from this
checkout's ``perfbench/`` through ``output_audit`` (imported, never written
to): for ``tables`` and ``checks`` each item's ``cli.main(argv)``; for
``offaxis`` each point's ``f(x)`` on its item's contact case, which each
tree builds untimed for every item in every round, as
``workloads._run_offaxis`` does.  Each round makes every call in both
trees, one right after the other, and the tree that goes first alternates
from round to round, so a slow stretch of a shared host falls on both.  The
report gives, per tree, the sum over the calls of each call's least latency
over the rounds, and their ratio change/parent; then the same sums and
ratio for each group of calls, in order of first appearance in the plan: a
CLI call's group is its subcommand (``verify`` split by its ``--m``,
``envelope`` by its ``--kind``), a point's is the dimension ``n`` of its case.
Beside each group's times stand its ``integrate_rows`` calls and its
envelope tail passes (``envelope._tail_quotient`` calls) in one pass, per
tree: after the timed rounds, each tree makes every call once more,
untimed, with its ``quadrature.integrate_rows`` and its
``envelope._tail_quotient`` wrapped in every module of the tree that binds
them, and a call's counts are what the engine and the tail kernel saw
during that call (for ``offaxis``, during ``f(x)``, not while the case is
built).  The counts are taken in the process of the timed rounds, after
them, so they show the work of a warm call: a tree that keeps the
``verify`` suite's seed-free rows per ``(tolerances, --m)`` shows 12
engine calls and 3 tail passes per ``verify`` call.  A cold suite, the
first of its key in a process, makes 20 and 8, as every suite of a tree
without that memo does.
Exit status 1 when a call's exit code, stdout or stderr (a point's value
``repr`` or error) differs between the trees in any round, 0 otherwise.
"""

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import output_audit

SEED = 7
TREES = ("parent", "change")


def plan_argvs(workload: str) -> list[list[str]]:
    """The argv of every call of the plan, in plan order."""
    return [list(item["argv"]) for round_ in output_audit._workloads().plan(workload, SEED) for item in round_]


def group(argv: list[str]) -> str:
    """The group of a call: its subcommand, followed by ``--m M`` for a ``verify`` argv that passes ``--m M``
    and by ``--kind K`` for an ``envelope`` argv that passes ``--kind K``."""
    option = {"verify": "--m", "envelope": "--kind"}.get(argv[0])
    if option in argv[:-1]:
        return f"{argv[0]} {option} {argv[argv.index(option) + 1]}"
    return argv[0]


def plan_items() -> list[dict]:
    """The items of the ``offaxis`` plan, in plan order; each holds a case and its points."""
    return [item for round_ in output_audit._workloads().plan("offaxis", SEED) for item in round_]


def point_group(item: dict) -> str:
    """The group of a point: the dimension of its item's case."""
    return f"n={item['case']['n']}"


def load_package(tree: Path, name: str, into: Path):
    """The package ``tree/src/ballschwarz``, with its ``cli``, imported as the package ``name`` copied into ``into``."""
    shutil.copytree(Path(tree) / "src" / "ballschwarz", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.invalidate_caches()
    sys.path.insert(0, str(into))
    try:
        importlib.import_module(f"{name}.cli")
        return sys.modules[name]
    finally:
        sys.path.remove(str(into))


@contextlib.contextmanager
def counted_calls(package, module: str, name: str):
    """A one-item list that counts the calls of ``package``'s ``module.name`` while open.

    The function is wrapped in every module of ``package`` that binds it, so
    calls from within a module and between modules are both counted.
    """
    function = getattr(sys.modules[f"{package.__name__}.{module}"], name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return function(*args, **kwargs)

    binders = [module for key, module in list(sys.modules.items())
               if key.split(".")[0] == package.__name__ and getattr(module, name, None) is function]
    for binder in binders:
        setattr(binder, name, counted)
    try:
        yield count
    finally:
        for binder in binders:
            setattr(binder, name, function)


def engine_calls(package):
    """``counted_calls`` of the tree's engine, ``quadrature.integrate_rows``."""
    return counted_calls(package, "quadrature", "integrate_rows")


def tail_passes(package):
    """``counted_calls`` of the tree's envelope tail kernel, ``envelope._tail_quotient``: one call is one pass."""
    return counted_calls(package, "envelope", "_tail_quotient")


def _counts(packages, calls, make) -> tuple[list[list[int]], list[list[int]]]:
    """Per tree, the engine calls and the tail passes that each of ``calls`` makes: ``make(package, call)``
    runs one, untimed."""
    counts = ([], [])
    for package in packages:
        with engine_calls(package) as engine, tail_passes(package) as tails:
            for totals in counts:
                totals.append([])
            for call in calls:
                before = engine[0], tails[0]
                make(package, call)
                counts[0][-1].append(engine[0] - before[0])
                counts[1][-1].append(tails[0] - before[1])
    return counts


def count_calls(packages, argvs: list[list[str]]) -> tuple[list[list[int]], list[list[int]]]:
    """Per tree, the ``integrate_rows`` calls and the tail passes that each ``cli.main(argv)`` makes, in one
    untimed pass."""
    return _counts(packages, argvs, lambda package, argv: output_audit.call_main(package.cli.main, argv))


def count_points(packages, items: list[dict]) -> tuple[list[list[int]], list[list[int]]]:
    """Per tree, the ``integrate_rows`` calls and the tail passes that each point's ``f(x)`` makes, in one
    untimed pass; each item's case is built once per tree, outside the counts."""
    import numpy as np

    counts = ([], [])
    for package in packages:
        calls = []
        for item in items:
            contact = build_case(package, item["case"])
            calls += [(contact, np.asarray(point["x"], dtype=float)) for point in item["points"]]
        for totals, tree in zip(counts, _counts([package], calls, lambda package, call: _point(*call))):
            totals += tree
    return counts


def _call(main, argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    """The latency of ``main(argv)`` in seconds, and its exit code, stdout and stderr."""
    start = time.perf_counter()
    outcome = output_audit.call_main(main, argv)
    return time.perf_counter() - start, outcome


def time_calls(mains, argvs: list[list[str]], rounds: int) -> tuple[list[list[float]], list[int]]:
    """Per tree, each call's least latency over ``rounds``; and the indices of the calls whose outcome differs."""
    minima = [[float("inf")] * len(argvs) for _ in mains]
    differ = set()
    for round_ in range(rounds):
        order = range(len(mains)) if round_ % 2 == 0 else range(len(mains) - 1, -1, -1)
        for index, argv in enumerate(argvs):
            outcomes = {}
            for tree in order:
                elapsed, outcomes[tree] = _call(mains[tree], argv)
                minima[tree][index] = min(minima[tree][index], elapsed)
            if len(set(outcomes.values())) > 1:
                differ.add(index)
    return minima, sorted(differ)


def build_case(package, case: dict):
    """The contact case of an ``offaxis`` plan item in ``package``, built as ``workloads._run_offaxis`` builds it."""
    if case["kind"] == "cap":
        return package.build_cap_extremal(case["n"], 2, case["a"])
    profile = output_audit._workloads()._step_profile(case["levels"], case["cuts"])
    return package.zonal_contact_case(case["n"], 2, profile, case["cuts"], "step")


def _point(contact, x) -> tuple[float, str]:
    """The latency of ``contact.f(x)`` in seconds, and the ``repr`` of its value or the error it raised."""
    start = time.perf_counter()
    try:
        outcome = repr(float(contact.f(x)[0]))
    except (ArithmeticError, ValueError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outcome


def time_points(packages, items: list[dict], rounds: int) -> tuple[list[list[float]], list[int]]:
    """Per tree, each point's least latency over ``rounds``; and the indices of the points whose outcome differs."""
    import numpy as np

    points = [np.asarray(point["x"], dtype=float) for item in items for point in item["points"]]
    minima = [[float("inf")] * len(points) for _ in packages]
    differ = set()
    for round_ in range(rounds):
        order = range(len(packages)) if round_ % 2 == 0 else range(len(packages) - 1, -1, -1)
        index = 0
        for item in items:
            contacts = [build_case(package, item["case"]) for package in packages]
            for _ in item["points"]:
                outcomes = {}
                for tree in order:
                    elapsed, outcomes[tree] = _point(contacts[tree], points[index])
                    minima[tree][index] = min(minima[tree][index], elapsed)
                if len(set(outcomes.values())) > 1:
                    differ.add(index)
                index += 1
    return minima, sorted(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=(*output_audit.WORKLOADS, "offaxis"))
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # numpy loads with the first tree
    for name in output_audit.THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    names = [f"ballschwarz_{tree}" for tree in TREES]
    try:
        with tempfile.TemporaryDirectory() as into:
            packages = [load_package(tree, name, Path(into)) for tree, name in zip((args.parent, args.change), names)]
            if args.workload == "offaxis":
                items = plan_items()
                minima, differ = time_points(packages, items, args.rounds)
                engine, passes = count_points(packages, items)
                calls = [(item, point) for item in items for point in item["points"]]
                labels = [f"(value repr or error): {json.dumps(item['case'])} x={point['x']}" for item, point in calls]
                groups = [point_group(item) for item, _ in calls]
            else:
                argvs = plan_argvs(args.workload)
                minima, differ = time_calls([package.cli.main for package in packages], argvs, args.rounds)
                engine, passes = count_calls(packages, argvs)
                labels = [f"(exit code, stdout or stderr): {' '.join(argv)}" for argv in argvs]
                groups = [group(argv) for argv in argvs]
    finally:
        for module in [module for module in sys.modules if module.split(".")[0] in names]:
            del sys.modules[module]
    for index in differ:
        print(f"differs {labels[index]}")
    sums = [sum(tree_minima) for tree_minima in minima]
    print(f"{args.workload}, seed {SEED}: {len(labels)} calls, {args.rounds} interleaved rounds")
    for tree, path, total in zip(TREES, (args.parent, args.change), sums):
        print(f"{tree}: sum of per-call minima {total * 1e3:.3f} ms ({path})")
    print(f"ratio change/parent {sums[1] / sums[0]:.4f}")
    print(f"{len(differ)} of {len(labels)} calls differ")
    members = {}
    for index, name in enumerate(groups):
        members.setdefault(name, []).append(index)
    for name, indices in members.items():
        parent, change = (sum(tree_minima[i] for i in indices) for tree_minima in minima)
        quads, tails = ([sum(tree_counts[i] for i in indices) for tree_counts in counts] for counts in (engine, passes))
        print(f"{name}: {len(indices)} calls, parent {parent * 1e3:.3f} ms, change {change * 1e3:.3f} ms, "
              f"ratio change/parent {change / parent:.4f}, integrate_rows calls parent {quads[0]} change {quads[1]}, "
              f"tail passes parent {tails[0]} change {tails[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

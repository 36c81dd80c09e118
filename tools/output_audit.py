"""Compare the output of two source trees over the benchmark's ``tables``, ``checks`` and ``offaxis`` plans.

    python3 tools/output_audit.py PARENT_DIR CHANGE_DIR

The argv are every distinct ``argv`` of ``perfbench/workloads.plan(w, s)``
for w in ``tables`` and ``checks`` and s in 1, 2 and 7, in plan order, taken
from this checkout's ``perfbench/`` (imported, never written to), then the
fixed ``EDGE_ARGVS``: the ``envelope`` and ``hopf`` rows of the full cap
c = 1, of c = 0 and of a tiny cap, ``envelope --oracle`` (the direct
cap-arc quadrature) at n = 2, 8 and 64 for both kernels, over the tiny,
the half and the full cap and radii out to -0.999 and 0.999, ``hopf`` at
n = 17 to 74, and ``constants`` at a next to -1 and 1, which the plans
do not reach; several of them are refusals.  Each tree
runs all of them in one subprocess of its own, with ``PYTHONPATH``
set to the tree's ``src`` (then this ``tools`` directory), as in-process
``cli.main(argv)`` calls with ``cli._emit`` wrapped to keep the rows it is
handed and still write them.  ``_emit(rows, columns, args)`` is where every
subcommand hands over its rows, so one call per argv gives its exit code,
stdout, stderr and the ``float.hex`` of every float cell it printed.  The
report names every argv whose exit code, stderr or stdout differ between
the trees, with the largest absolute move of a number printed on stdout
(over the argv whose output has the same numbers of numbers on both
sides).  Stdout carries 12 digits, which hides a move in the last bits,
so the report also names every float cell whose ``float.hex`` differs.

The ``offaxis`` plans of the same seeds have no CLI: each tree evaluates
every point of them in a second subprocess, through
``workloads.run_item``, and the report names every point whose value
differs in its ``repr`` (or whose error differs).  The point values are
series off the axis; the quadrature enters each case only through its
base value ``a``, the extension at the centre, so the ``repr`` of each
case's ``a`` is compared too.

Exit status 0 when no argv, no float cell, no point and no base value
moved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
WORKLOADS = ("tables", "checks")
SEEDS = (1, 2, 7)
# pinned to one thread, as perfbench pins them
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# one process per tree: read the argv list on stdin, write [rc, stdout, stderr, float cells] per argv as JSON
_CHILD = r"""
import json, sys
import ballschwarz
from ballschwarz import cli
from output_audit import call_cli
results = [call_cli(cli, argv) for argv in json.load(sys.stdin)]
json.dump({"module": ballschwarz.__file__, "results": results}, sys.stdout)
"""

# the same for the offaxis plan items: read the perfbench directory and the items; write, per item,
# the repr of its case's base value, then [repr, error] per point
_OFFAXIS_CHILD = r"""
import json, sys
import ballschwarz
from ballschwarz import build_cap_extremal, zonal_contact_case
payload = json.load(sys.stdin)
sys.path.insert(0, payload["perfbench"])
import workloads

def base(case):
    if case["kind"] == "cap":
        return build_cap_extremal(case["n"], 2, case["a"]).a
    profile = workloads._step_profile(case["levels"], case["cuts"])
    return zonal_contact_case(case["n"], 2, profile, case["cuts"], "step").a

results = [[repr(base(item["case"])), [[repr(record["value"]), record["err"]]
                                       for record in workloads.run_item("offaxis", item)]]
           for item in payload["items"]]
json.dump({"module": ballschwarz.__file__, "results": results}, sys.stdout)
"""

# the full cap, the empty one and a tiny one, for both kernels, and the oracle of each kernel on them;
# hopf past the plans' n <= 16, up to the last n before its underflow refusal and at that refusal; and
# base values next to -1 and 1
EDGE_ARGVS = [
    *(["envelope", "--n", "2,3,8", "--c-grid", c, "--r-grid=-0.999,0,0.5,0.999", "--kind", kind]
      for c in ("1", "0", "1e-28", "1e-28,0.5,1") for kind in ("harmonic", "hyperbolic")),
    *(["envelope", "--n", "2,8,64", "--c-grid", "1e-28,0.5,1", "--r-grid=-0.999,0,0.5,0.999", "--oracle",
       "--kind", kind] for kind in ("harmonic", "hyperbolic")),
    *(["hopf", "--n", n, "--c-grid", c] for n, c in (("3", "1"), ("3", "0"), ("3,4", "1e-28"), ("3", "0.5,1"),
                                                     ("17,40", "0.1,0.3"), ("73", "0.5"), ("74", "0.5"))),
    ["constants", "--n", "2,3,8,64", "--a-grid=-0.999999999999,0.999999999999"],
    ["constants", "--n", "3", "--a-grid=-0.999999999999", "--format", "json"],
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def call_main(main, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the in-process call ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def call_cli(cli, argv: list[str]) -> list:
    """``[exit code, stdout, stderr, cells]`` of the in-process call ``cli.main(argv)``; ``cells`` holds
    ``[label, float.hex]`` for every float cell of the rows the call hands ``cli._emit``, which still
    writes them.  A label names the column and row index, then the row's integer and string cells."""
    handed, emit = [], cli._emit

    def keep(rows, columns, args):
        handed.append((rows, columns))
        emit(rows, columns, args)

    cli._emit = keep
    try:
        code, out, err = call_main(cli.main, argv)
    finally:
        cli._emit = emit
    cells = [[f"{col} row {index}" + "".join(f" {key}={row.get(key)}" for key in columns
                                             if isinstance(row.get(key), (int, str))), float.hex(row[col])]
             for rows, columns in handed for index, row in enumerate(rows)
             for col in columns if isinstance(row.get(col), float)]
    return [code, out, err, cells]


def _workloads():
    """This checkout's ``perfbench/workloads.py``, imported without writing bytecode into it."""
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes
    return workloads


def plan_argvs() -> list[list[str]]:
    """The distinct argv of the ``tables`` and ``checks`` plans of ``SEEDS``, in plan order."""
    workloads = _workloads()
    seen = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for round_ in workloads.plan(workload, seed):
                for item in round_:
                    seen.setdefault(tuple(item["argv"]), None)
    return [list(argv) for argv in seen]


def plan_offaxis() -> list[dict]:
    """The items of the ``offaxis`` plans of ``SEEDS``, in plan order; each holds a case and its points."""
    workloads = _workloads()
    return [item for seed in SEEDS for round_ in workloads.plan("offaxis", seed) for item in round_]


def _run_child(tree: Path, code: str, payload) -> list:
    """The results of ``code`` run on ``payload`` in one subprocess on ``tree/src``."""
    src = (Path(tree) / "src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(TOOLS))), PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps(payload), env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    reply = json.loads(done.stdout)
    if not Path(reply["module"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{tree}: imported ballschwarz from {reply['module']}, not from {src}")
    return reply["results"]


def run_tree(tree: Path, argvs: list[list[str]]) -> list[tuple[int, str, str, list[tuple[str, str]]]]:
    """Per argv, its exit code, stdout, stderr and float cells (see ``call_cli``), run in one subprocess on
    ``tree/src``."""
    return [(code, out, err, [tuple(cell) for cell in cells])
            for code, out, err, cells in _run_child(tree, _CHILD, argvs)]


def run_offaxis(tree: Path, items: list[dict]) -> list[tuple[str, list[tuple[str, str | None]]]]:
    """Per item, the ``repr`` of its case's base value and, per point, of its value with the error (or None)."""
    payload = {"perfbench": str(PERFBENCH), "items": items}
    return [(a, [tuple(point) for point in points]) for a, points in _run_child(tree, _OFFAXIS_CHILD, payload)]


def compare_bits(argvs, parent, change) -> tuple[list[tuple[list[str], tuple, tuple]], int]:
    """The float cells whose label or ``float.hex`` differ, each with its argv, and the count of cells compared."""
    moved, count = [], 0
    for argv, (*_, before), (*_, after) in zip(argvs, parent, change):
        count += max(len(before), len(after))
        moved += [(argv, old, new) for old, new in itertools.zip_longest(before, after) if old != new]
    return moved, count


def _numbers(text: str) -> list[float]:
    return [float(token) for token in _NUMBER.findall(text)]


def _move(before: str, after: str) -> float | None:
    """Largest |after - before| over the printed numbers, or None when their counts differ."""
    old, new = _numbers(before), _numbers(after)
    if len(old) != len(new):
        return None
    moves = [0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(b - a) for a, b in zip(old, new)]
    return max(moves, default=0.0)


def compare(argvs, parent, change) -> tuple[list[tuple[list[str], list[str], float | None]], float]:
    """The argv that moved, each with what differs and its largest number move, and the largest move overall."""
    moved, largest = [], 0.0
    for argv, (rc0, out0, err0, _), (rc1, out1, err1, _) in zip(argvs, parent, change):
        what = [name for name, a, b in (("exit", rc0, rc1), ("stderr", err0, err1), ("stdout", out0, out1))
                if a != b]
        if what:
            move = _move(out0, out1)
            moved.append((argv, what, move))
            largest = max(largest, math.inf if move is None else move)
    return moved, largest


def compare_offaxis(items, parent, change) -> tuple[list[tuple[dict, str, str]], list[tuple[dict, dict, tuple, tuple]]]:
    """The cases whose base value moved, each with both reprs, and the points whose value repr or error moved."""
    bases, points = [], []
    for item, (a0, points0), (a1, points1) in zip(items, parent, change):
        if a0 != a1:
            bases.append((item["case"], a0, a1))
        points += [(item["case"], point, before, after)
                   for point, before, after in zip(item["points"], points0, points1) if before != after]
    return bases, points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    plans = plan_argvs()
    argvs = plans + [argv for argv in EDGE_ARGVS if argv not in plans]
    parent, change = run_tree(args.parent, argvs), run_tree(args.change, argvs)
    moved, largest = compare(argvs, parent, change)
    for command, what, move in moved:
        size = "number count differs" if move is None else f"largest move {move:.3g}"
        print(f"moved ({', '.join(what)}; {size}): {' '.join(command)}")
    items = plan_offaxis()
    moved_bases, moved_points = compare_offaxis(items, run_offaxis(args.parent, items),
                                                run_offaxis(args.change, items))
    for case, before, after in moved_bases:
        print(f"moved offaxis base value {json.dumps(case)}: {before} -> {after}")
    for case, point, before, after in moved_points:
        print(f"moved offaxis point {json.dumps(case)} x={point['x']}: {before} -> {after}")
    moved_cells, cells = compare_bits(argvs, parent, change)
    for command, before, after in moved_cells:
        label = (before or after)[0]
        print(f"moved value {label}: {before and before[1]} -> {after and after[1]} in {' '.join(command)}")
    seeds = ", ".join(map(str, SEEDS))
    print(f"{len(moved)} moved of {len(argvs)} argv ({'/'.join(WORKLOADS)} plans, seeds "
          f"{seeds}, and {len(argvs) - len(plans)} edge argv); largest move of a printed number {largest:.3g}")
    print(f"{len(moved_points)} moved of {sum(len(item['points']) for item in items)} offaxis points and "
          f"{len(moved_bases)} of {len(items)} base values (offaxis plans, seeds {seeds})")
    print(f"{len(moved_cells)} moved of {cells} float cells in float.hex (every row handed to cli._emit)")
    return 1 if moved or moved_cells or moved_points or moved_bases else 0

if __name__ == "__main__":
    sys.exit(main())

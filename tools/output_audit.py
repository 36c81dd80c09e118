"""Compare the CLI output of two source trees over the benchmark's ``tables`` and ``checks`` plans.

    python3 tools/output_audit.py PARENT_DIR CHANGE_DIR

The argv are every distinct ``argv`` of ``perfbench/workloads.plan(w, s)``
for w in ``tables`` and ``checks`` and s in 1, 2 and 7, in plan order, taken
from this checkout's ``perfbench/`` (imported, never written to).  Each
tree runs all of them in one subprocess of its own, with ``PYTHONPATH``
set to the tree's ``src``, as in-process ``cli.main(argv)`` calls.  The
report names every argv whose exit code, stderr or stdout differ between
the trees, and the largest absolute move of a number printed on stdout
(over the argv whose output has the same numbers of numbers on both
sides).  Exit status 0 when no argv moved, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("tables", "checks")
SEEDS = (1, 2, 7)

# one process per tree: read the argv list on stdin, write [rc, stdout, stderr] per argv as JSON
_CHILD = r"""
import contextlib, io, json, sys
import ballschwarz
from ballschwarz import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump({"module": ballschwarz.__file__, "results": results}, sys.stdout)
"""

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def plan_argvs() -> list[list[str]]:
    """The distinct argv of the ``tables`` and ``checks`` plans of ``SEEDS``, in plan order."""
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = writes
    seen = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for round_ in workloads.plan(workload, seed):
                for item in round_:
                    seen.setdefault(tuple(item["argv"]), None)
    return [list(argv) for argv in seen]


def run_tree(tree: Path, argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of each argv, run in one subprocess on ``tree/src``."""
    src = (Path(tree) / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs), env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    reply = json.loads(done.stdout)
    if not Path(reply["module"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{tree}: imported ballschwarz from {reply['module']}, not from {src}")
    return [tuple(result) for result in reply["results"]]


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
    for argv, (rc0, out0, err0), (rc1, out1, err1) in zip(argvs, parent, change):
        what = [name for name, a, b in (("exit", rc0, rc1), ("stderr", err0, err1), ("stdout", out0, out1))
                if a != b]
        if what:
            move = _move(out0, out1)
            moved.append((argv, what, move))
            largest = max(largest, math.inf if move is None else move)
    return moved, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    argvs = plan_argvs()
    moved, largest = compare(argvs, run_tree(args.parent, argvs), run_tree(args.change, argvs))
    for command, what, move in moved:
        size = "number count differs" if move is None else f"largest move {move:.3g}"
        print(f"moved ({', '.join(what)}; {size}): {' '.join(command)}")
    print(f"{len(moved)} moved of {len(argvs)} argv ({'/'.join(WORKLOADS)} plans, seeds "
          f"{', '.join(map(str, SEEDS))}); largest move of a printed number {largest:.3g}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

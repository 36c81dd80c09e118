"""The three workloads: the plan a run repeats, and how a call runs.

A workload's plan is a fixed number of rounds drawn from the seed.  A run
goes through its plan again and again (passes) until its time is up, and
a call's latency is the median over its passes of its latency scaled to
one reference speed of the core (``speed.py``).  Every round has the
same composition, and the parameters that set a call's cost are spread
evenly over the plan (dimensions in rotation, radii and angles
stratified), so the work in a plan hardly moves with the seed; the seed
draws the rest.

* ``tables``: small ``constants``, ``envelope`` (both kernels) and ``hopf``
  invocations, plus one large-``n`` ``constants`` row of its own per round.
* ``checks``: ``verify`` (``--m`` 2 and 3) and ``mobius`` invocations, two
  ``mobius`` per ``verify`` so that the median falls inside one cluster
  of latencies.
* ``offaxis``: point values of zonal contact cases off their axis, for
  n = 2..5, both cap extremals and random step profiles.

A call is one in-process ``cli.main(argv)`` for the first two and one
point ``f(x)`` for ``offaxis``.  Plan generation uses only the standard
library; :func:`run_item` imports the library when it first runs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import time

from pools import (
    A_GRID, C_GRID, CONST_N, ENV_N_STRATA, HOPF_N, KINDS, MOBIUS_DIMS, NAN_N, OFFAXIS_N, R_FAR, R_NEAR,
    REFUSE_N, UNDERFLOW_N,
)

TOL_ABS = 1e-11
TOL_REL = 1e-10
RHO_STRATA = ((0.1, 0.525), (0.525, 0.95))
COS_PSI = (-0.9, 0.9)
STEP_PIECES = 3
_NEAR_PAIRS = tuple(itertools.combinations(R_NEAR, 2))

# Rounds in a plan: a multiple of 12 for ``tables`` (its dimension strata
# hold 3 or 4 values and its large-n groups are 3), even for ``checks``
# (``--m`` alternates).  Enough calls for a tail percentile with ten
# calls beyond it, and passes of a few seconds.
PLAN_ROUNDS = {"tables": 24, "checks": 14, "offaxis": 32}

# One small call each, made after import and before timing starts.
WARMUP = {
    "tables": {"argv": ["constants", "--n", "4", "--a-grid", "0"]},
    "checks": {"argv": ["mobius", "--n", "2", "--seed", "1"]},
    "offaxis": {"case": {"kind": "cap", "n": 3, "a": 0.0},
                "points": [{"rho": 0.5, "psi": 1.0, "x": [0.5 * math.cos(1.0), 0.5 * math.sin(1.0), 0.0]}]},
}


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def _grid_flag(flag: str, values) -> str:
    # argparse needs --flag=value when the value starts with a minus sign
    return f"{flag}={_join(values)}"


def _common(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("csv", "json")), "--tol-abs", repr(TOL_ABS), "--tol-rel", repr(TOL_REL)]


def _tables_round(rng: random.Random, index: int) -> list[dict]:
    # One dimension from each stratum and the near-switch radius pairs, both
    # in rotation, so every round holds the same mix of cheap and expensive
    # (and of failure-prone) grids and every plan the same dimensions; the
    # seed picks the rest.
    calls = []
    for kind in KINDS:
        for j, stratum in enumerate(ENV_N_STRATA):
            c = sorted(rng.sample(C_GRID, 2))
            turn = index + 2 * j + (kind == "hyperbolic")
            near = _NEAR_PAIRS[turn % len(_NEAR_PAIRS)]
            r = sorted(rng.sample(R_FAR, 2) + list(near))
            calls.append({"argv": ["envelope", "--n", str(stratum[turn % len(stratum)]), _grid_flag("--c-grid", c),
                                   _grid_flag("--r-grid", r), "--kind", kind, *_common(rng)]})
    n = [rng.choice(CONST_N[i::4]) for i in range(4)]
    a = sorted(rng.sample(A_GRID, 3))
    calls.append({"argv": ["constants", "--n", _join(sorted(n)), _grid_flag("--a-grid", a), *_common(rng)]})
    calls.append({"argv": ["hopf", "--n", str(rng.choice(HOPF_N)),
                           _grid_flag("--c-grid", [rng.choice(C_GRID)]), *_common(rng)]})
    group = (UNDERFLOW_N, NAN_N, REFUSE_N)[index % 3]
    calls.append({"argv": ["constants", "--n", str(rng.choice(group)), "--a-grid", "0", *_common(rng)]})
    return calls


def _checks_round(rng: random.Random, index: int) -> list[dict]:
    def seed() -> str:
        return str(rng.randrange(2**31))

    def mobius() -> dict:
        return {"argv": ["mobius", "--n", _join(MOBIUS_DIMS), "--seed", seed(), *_common(rng)]}

    def verify(m: int) -> dict:
        return {"argv": ["verify", "--seed", seed(), "--m", str(m), *_common(rng)]}

    return [verify(2 + index % 2), mobius(), mobius()]


def _offaxis_point(n: int, rho: float, cos_psi: float, rng: random.Random) -> dict:
    psi = math.acos(cos_psi)
    # any unit direction orthogonal to the axis e_1 gives the same value
    ortho = [0.0] + [rng.gauss(0.0, 1.0) for _ in range(n - 1)]
    norm = math.sqrt(sum(v * v for v in ortho))
    x = [rho * (math.cos(psi) if i == 0 else math.sin(psi) * ortho[i] / norm) for i in range(n)]
    return {"rho": rho, "psi": psi, "x": x}


def _offaxis_round(rng: random.Random, index: int, slices) -> list[dict]:
    # One point from each |x| stratum per case and a fixed number of steps:
    # the cost of a point grows towards the sphere and with each step.
    # Over the plan, the points of one case and stratum fall one into each
    # of PLAN_ROUNDS equal slices of |x|, and of cos(angle to the axis).
    def draw(lo: float, hi: float) -> float:
        width = (hi - lo) / PLAN_ROUNDS["offaxis"]
        start = lo + width * next(slices)[index]
        return rng.uniform(start, start + width)

    items = []
    for n in OFFAXIS_N:
        cuts = sorted(rng.uniform(0.15, math.pi - 0.15) for _ in range(STEP_PIECES - 1))
        # level 1 at the axis, as a contact case needs
        levels = [1.0] + [rng.uniform(-1.0, 1.0) for _ in range(STEP_PIECES - 1)]
        for case in ({"kind": "cap", "n": n, "a": rng.choice(A_GRID)},
                     {"kind": "step", "n": n, "levels": levels, "cuts": cuts}):
            points = [_offaxis_point(n, draw(*stratum), draw(*COS_PSI), rng) for stratum in RHO_STRATA]
            items.append({"case": case, "points": points})
    return items


def plan(workload: str, seed: int) -> list[list[dict]]:
    """The rounds of items that every pass of a run makes, for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    k = PLAN_ROUNDS[workload]
    if workload == "tables":
        return [_tables_round(rng, i) for i in range(k)]
    if workload == "checks":
        return [_checks_round(rng, i) for i in range(k)]
    # a seeded order of the k slices for every drawn |x| and angle
    orders = [rng.sample(range(k), k) for _ in range(4 * len(OFFAXIS_N) * len(RHO_STRATA))]
    return [_offaxis_round(rng, i, iter(orders)) for i in range(k)]


# ---------------------------------------------------------------------------
# running items (inside the workload process)


def _run_cli(item: dict) -> list[dict]:
    from ballschwarz import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(item["argv"]))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    elapsed = time.perf_counter() - start
    return [{"item": item, "rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": elapsed}]


def _step_profile(levels, cuts):
    import numpy as np

    levels_arr = np.asarray(levels, dtype=float)
    cuts_arr = np.asarray(cuts, dtype=float)
    return lambda t: levels_arr[np.searchsorted(cuts_arr, np.asarray(t, dtype=float), side="right")]


def _run_offaxis(item: dict) -> list[dict]:
    import numpy as np
    from ballschwarz import build_cap_extremal, zonal_contact_case

    case = item["case"]
    if case["kind"] == "cap":
        contact = build_cap_extremal(case["n"], 2, case["a"])
    else:
        contact = zonal_contact_case(case["n"], 2, _step_profile(case["levels"], case["cuts"]),
                                     case["cuts"], "step")
    records = []
    for point in item["points"]:
        x = np.asarray(point["x"], dtype=float)
        start = time.perf_counter()
        try:
            value, error = float(contact.f(x)[0]), None
        except (ArithmeticError, ValueError) as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        records.append({"item": {"case": case, "point": point}, "value": value, "err": error, "s": elapsed})
    return records


def run_item(workload: str, item: dict) -> list[dict]:
    """Run one plan item; one record per user-level call, with its latency in seconds."""
    return _run_offaxis(item) if workload == "offaxis" else _run_cli(item)

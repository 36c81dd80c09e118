"""Judge every value a workload produced against the oracle.

A value fails if it is missing, non-finite, or further from its reference
than its stated tolerance.  When an invocation exits non-zero or a call
raises, every value it was asked for fails.  Stated tolerances:

* envelope values and off-axis point values lie in [-1, 1]: ``--tol-abs``;
* constants (``D_n``, ``C_n``, ``s^-``, ``d_n``, the scan's ``T``): ``--tol-rel``
  times the reference;
* the fitted scan slope and coefficient: 0.02 absolute and 1% relative,
  the tolerances the library's own verification suite states for them;
* ``verify``: every ``passed`` flag, ``|margin| <= 1e-6`` on the extremal
  rows, and each bound with a closed form or mpmath reference within
  ``--tol-rel``; ``mobius``: every residual below 1e-11.

The CLI prints 12 significant digits, so printed values get half a unit
in their 12th digit on top of the stated tolerance.

Failures that are defects already recorded in ROADMAP.md are labelled by
:func:`_known`; they count against ``pass_frac`` and are listed in the
ledger, but only an unlabelled failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from oracle import SELF_CHECK_TOL
from pools import HOPF_RADII, MOBIUS_DIMS, MOBIUS_IDENTITIES
from workloads import TOL_ABS, TOL_REL

MARGIN_TOL = 1e-6
RESIDUAL_TOL = 1e-11
SLOPE_TOL = 0.02
COEFF_REL_TOL = 0.01
VERIFY_ROWS = 22

KNOWN = {
    "D_underflow": "D_n(a) underflows to 0.0 from n ~ 1080 (ROADMAP item 4)",
    "D_nan": "D_n(a) is NaN from n = 2049 (ROADMAP item 4)",
    "refusal": "constants --n 20000 refuses with a misleading cap-consistency error (ROADMAP item 4)",
    "C_underflow": "C_n underflows to 0.0 and exits 0 (ROADMAP item 2)",
    "M_switch": "M misses --tol-abs on the direct path below the 0.999 switch (ROADMAP item 3)",
}


class Verdicts:
    """Every judged value of one run, plus the per-call outcome."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.unexpected_calls: set[int] = set()
        self.err_tol: dict[int, float] = {}  # call -> largest error/tolerance among passed values
        self.rows: dict[int, int] = {}  # call -> output rows completed

    def judge(self, call: int, where: dict, quantity: str, value, ref, tol: float,
              raised: str | None = None, resolution: float = 0.0) -> None:
        """Record one value; ``resolution`` is the reference's own certified accuracy."""
        self.attempted += 1
        reason = None
        if raised is not None:
            reason = f"raised: {raised}"
        elif value is None:
            reason = "missing"
        elif not math.isfinite(value):
            reason = f"non-finite: {value!r}"
        elif ref == 0.0 and quantity in ("D", "C", "S", "T", "d_n"):
            reason = f"reference underflows double, got {value!r}"
        else:
            err = abs(value - ref)
            if err > tol:
                reason = f"off by {err:.3e} (tolerance {tol:.3e})"
            elif tol > 0.0:
                ratio = max(err, resolution) / tol
                self.err_tol[call] = max(self.err_tol.get(call, 0.0), ratio)
        if reason is None:
            return
        entry = {"call": call, **where, "quantity": quantity, "value": value, "ref": ref, "reason": reason}
        entry["known"] = _known(entry)
        if entry["known"] is None:
            self.unexpected_calls.add(call)
        self.failures.append(entry)


def _known(entry: dict) -> str | None:
    cmd, quantity, reason = entry.get("cmd"), entry["quantity"], entry["reason"]
    if cmd == "constants":
        n = entry["n"]
        if reason.startswith("raised") and n >= 20000:
            return "refusal"
        if quantity == "D" and entry["value"] == 0.0 and n >= 1000:
            return "D_underflow"
        if quantity == "D" and reason.startswith("non-finite") and n >= 2049:
            return "D_nan"
        if quantity == "C" and entry["value"] == 0.0 and reason.startswith("reference underflows"):
            return "C_underflow"
    if cmd == "envelope" and 0.99 <= entry["r"] < 0.999:
        if quantity == "M" and (reason.startswith("off by") or reason.startswith("non-finite")):
            return "M_switch"
    if cmd == "envelope" and reason.startswith("raised: exit 3") and entry.get("grid_near_switch"):
        return "M_switch"
    return None


# ---------------------------------------------------------------------------
# parsing CLI output


def _flags(argv: list[str]) -> dict[str, str]:
    out = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if "=" in flag:
            name, _, value = flag.partition("=")
            out[name] = value
            i += 1
        else:
            out[flag] = argv[i + 1]
            i += 2
    return out


def _number(text):
    if text is None or text == "":
        return None
    return float(text)


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _printed_tol(value) -> float:
    """Half a unit in the 12th significant digit of a printed value."""
    if value is None or not math.isfinite(value) or value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _rel(ref: float, value) -> float:
    return TOL_REL * abs(ref) + _printed_tol(value)


def _abs(value) -> float:
    return TOL_ABS + _printed_tol(value)


# ---------------------------------------------------------------------------
# per-workload checks


def _check_constants(v, call, flags, rows, raised, oracle):
    table = {(int(float(r["n"])), float(r["a"])): r for r in rows}
    for n in sorted(int(x) for x in flags["--n"].split(",")):
        for a in sorted(float(x) for x in flags["--a-grid"].split(",")):
            row = table.get((n, a), {})
            where = {"cmd": "constants", "n": n, "a": a}
            value = _number(row.get("D_cap_quadrature"))
            ref = oracle.D(n, a)
            v.judge(call, where, "D", value, ref, _rel(ref, value), raised)
            if a == 0.0:
                value = _number(row.get("C_hypergeometric"))
                ref = oracle.C(n)
                v.judge(call, where, "C", value, ref, _rel(ref, value), raised)
            if n == 2:
                value = _number(row.get("s_minus_closed_form"))
                ref = oracle.S(a)
                v.judge(call, where, "S", value, ref, _rel(ref, value), raised)


def _check_envelope(v, call, flags, rows, raised, oracle):
    kind = flags["--kind"]
    table = {(int(float(r["n"])), float(r["c"]), float(r["r"])): r for r in rows}
    radii = sorted(float(x) for x in flags["--r-grid"].split(","))
    near = any(0.99 <= r < 0.999 for r in radii)
    for n in sorted(int(x) for x in flags["--n"].split(",")):
        for c in sorted(float(x) for x in flags["--c-grid"].split(",")):
            for r in radii:
                row = table.get((n, c, r), {})
                where = {"cmd": "envelope", "kind": kind, "n": n, "c": c, "r": r, "grid_near_switch": near}
                upper, lower = oracle.envelope(kind, n, c, r)
                value = _number(row.get("M_upper"))
                v.judge(call, where, "M", value, upper, _abs(value), raised)
                value = _number(row.get("m_lower"))
                v.judge(call, where, "m", value, lower, _abs(value), raised)


def _check_hopf(v, call, flags, rows, raised, oracle):
    for n in sorted(int(x) for x in flags["--n"].split(",")):
        for c in sorted(float(x) for x in flags["--c-grid"].split(",")):
            mine = [r for r in rows if int(float(r["n"])) == n and float(r["c"]) == c]
            scan = [r for r in mine if _number(r["r"]) is not None]
            summary = next((r for r in mine if _number(r["r"]) is None), {})
            for i, radius in enumerate(HOPF_RADII):
                row = scan[i] if i < len(scan) else {}
                value = _number(row.get("T"))
                if row and abs(_number(row["r"]) - radius) > 1e-11:
                    value = None
                ref = oracle.T(n, c, radius)
                v.judge(call, {"cmd": "hopf", "n": n, "c": c, "r": radius}, "T", value, ref,
                        _rel(ref, value), raised)
            where = {"cmd": "hopf", "n": n, "c": c}
            d_n = oracle.dn(n, c)
            value = _number(summary.get("d_n"))
            v.judge(call, where, "d_n", value, d_n, _rel(d_n, value), raised)
            v.judge(call, where, "slope", _number(summary.get("slope")), float(n - 2), SLOPE_TOL, raised)
            v.judge(call, where, "coefficient", _number(summary.get("coefficient")), d_n,
                    COEFF_REL_TOL * d_n, raised)


_CASE_NUMBER = re.compile(r"(\w+)=(-?[0-9.e+-]+)")


def _verify_bound_ref(case: str, oracle):
    params = {k: float(x) for k, x in _CASE_NUMBER.findall(case)}
    if case.startswith("planar-extremal"):
        return oracle.S(params["b"])
    if case.startswith("cap-extremal"):
        return oracle.D(int(params["n"]), params["a"])
    if case.startswith("mobius-precomposition"):
        return oracle.S(params["a"])
    if case.startswith("identity-map"):
        return oracle.D(int(params["n"]), 0.0)
    return None


def _check_verify(v, call, flags, rows, raised, oracle):
    for i in range(VERIFY_ROWS):
        row = rows[i] if i < len(rows) else {}
        case = row.get("case", f"row {i}")
        where = {"cmd": "verify", "seed": int(flags["--seed"]), "m": int(flags["--m"]), "case": case}
        passed = _number(row.get("passed"))
        v.judge(call, where, "passed", passed, 1.0, 0.0, raised)
        if raised is None and not row:
            continue
        if case.startswith(("planar-extremal", "cap-extremal", "mobius-precomposition")):
            v.judge(call, where, "margin", _number(row.get("margin")), 0.0, MARGIN_TOL, raised)
        ref = _verify_bound_ref(case, oracle) if row else None
        if ref is not None:
            value = _number(row.get("bound"))
            v.judge(call, where, "bound", value, ref, _rel(ref, value), raised)


def _check_mobius(v, call, flags, rows, raised, oracle):
    table = {(int(float(r["k"])), r["case"], r["identity"]): r for r in rows}
    for k in MOBIUS_DIMS:
        for case in ("origin", "random_max"):
            for identity in MOBIUS_IDENTITIES:
                row = table.get((k, case, identity), {})
                where = {"cmd": "mobius", "seed": int(flags["--seed"]), "k": k, "case": case,
                         "identity": identity}
                v.judge(call, where, "residual", _number(row.get("residual")), 0.0, RESIDUAL_TOL, raised)


_CLI_CHECKS = {
    "constants": _check_constants,
    "envelope": _check_envelope,
    "hopf": _check_hopf,
    "verify": _check_verify,
    "mobius": _check_mobius,
}


def check_cli_record(v: Verdicts, call: int, record: dict, oracle) -> None:
    argv = record["item"]["argv"]
    flags = _flags(argv)
    raised = None
    rows: list[dict] = []
    if record["rc"] != 0 and not (argv[0] == "verify" and record["rc"] == 1):
        first = (record["err"].strip().splitlines() or [""])[0]
        raised = f"exit {record['rc']}: {first}"
    else:
        rows = _rows(record["out"], flags["--format"])
        v.rows[call] = len(rows)
    _CLI_CHECKS[argv[0]](v, call, flags, rows, raised, oracle)


def check_offaxis_record(v: Verdicts, call: int, record: dict, oracle) -> None:
    case, point = record["item"]["case"], record["item"]["point"]
    n = case["n"]
    if case["kind"] == "cap":
        levels = (1.0, -1.0)
        edges = (0.0, oracle.alpha(n, 0.5 * (1.0 + case["a"])), math.pi)
    else:
        levels = tuple(case["levels"])
        edges = (0.0, *case["cuts"], math.pi)
    ref = oracle.zonal_point(n, levels, edges, point["rho"], point["psi"])
    where = {"cmd": "offaxis", "case": case, "rho": point["rho"], "psi": point["psi"]}
    v.rows[call] = int(record["value"] is not None)
    # QUADPACK is certified to SELF_CHECK_TOL: smaller errors are not resolved
    v.judge(call, where, "f", record["value"], ref, TOL_ABS, record["err"], resolution=SELF_CHECK_TOL)


def check_run(workload: str, records: list[dict], oracle) -> Verdicts:
    v = Verdicts()
    for call, record in enumerate(records):
        if workload == "offaxis":
            check_offaxis_record(v, call, record, oracle)
        else:
            check_cli_record(v, call, record, oracle)
    return v

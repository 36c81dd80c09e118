"""Command-line front end: constant tables, envelope curves, verification runs.

Subcommands
    constants   sharp boundary-derivative constants over (n, a) grids
    envelope    upper/lower envelope curves over (kind, n, c, r) grids
    verify      the default inequality suite; exit code 0 iff all pass
    hopf        hyperbolic difference-quotient scan with power-law fit
    mobius      residuals of the ball-automorphism operator identities

All numeric output is printed at 12 significant digits in either CSV
(RFC-style quoting, header row) or JSON (array of row objects with the
same field names), so the two formats carry identical numeric content
and a fixed configuration reproduces byte-identical bytes.  Exit codes:
0 success, 1 a check failed, 2 usage error (an ``--out`` path that cannot
be written included), 3 a numeric routine missed its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .envelope import (
    CapSpec,
    KernelKind,
    boundary_derivative_harmonic,
    envelope_rows,
    heinz_schwarz_constant,
    schwarz_planar_bound,
)
from .errors import AccuracyError, DomainError, _integer
from .hilbert_ball import MobiusParams, mobius_identity_residuals
from .poisson import ZonalBoundaryData, zonal_extension_on_axis
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .verify import DEFAULT_SEED, default_verification_suite, hopf_failure_scan

__all__ = ["main"]

_MOBIUS_BATCH = 200


def _floats(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip() != ""]
    if not items:
        raise argparse.ArgumentTypeError("needs a nonempty comma-separated list")
    try:
        return [float(piece) for piece in items]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(math.isfinite(v) and v == int(v) for v in values):
        raise argparse.ArgumentTypeError("must contain integers")
    return [int(v) for v in values]


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _json_value(value) -> str:
    """``value`` as ``json.dumps`` writes it, a float first rounded to 12 digits."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)  # a bool as 0 or 1
    value = float(f"{float(value):.12g}")
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _csv_value(value) -> str:
    """``value`` as a CSV cell: blank for None, a bool as 0 or 1, a float at 12 digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return int.__repr__(value)
    return f"{float(value):.12g}"


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    """The rows as CSV with a header row, or as JSON: the text of
    ``json.dumps(rows, indent=2)`` and a newline, written directly rather
    than through the pure-Python encoder that ``indent`` selects.  Every
    float is rounded to 12 significant digits, and a JSON number is the
    ``repr`` of the double nearest that decimal."""
    if fmt == "json":
        if not rows:
            return "[]\n"
        keys = [f"    {encode_basestring_ascii(col)}: " for col in columns]
        objects = ["  {\n" + ",\n".join([key + _json_value(row.get(col)) for key, col in zip(keys, columns)])
                   + "\n  }" for row in rows]
        return "[\n" + ",\n".join(objects) + "\n]\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_value(row.get(col)) for col in columns] for row in rows)
    return buffer.getvalue()


def _emit(rows: list[dict], columns: list[str], args: argparse.Namespace) -> None:
    text = _render(rows, columns, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_constants(args: argparse.Namespace, quad: QuadratureConfig) -> int:
    """Rows (n, a) with the closed-form D_n(a) (the column keeps its old
    name), the hypergeometric constant at a = 0, and s^- at n = 2."""
    rows = []
    for n in sorted(args.n):
        for a in sorted(args.a_grid):
            row = {
                "n": n,
                "a": a,
                "D_cap_quadrature": boundary_derivative_harmonic(n, a),
                "C_hypergeometric": heinz_schwarz_constant(n) if a == 0.0 else None,
                "s_minus_closed_form": schwarz_planar_bound(a) if n == 2 else None,
            }
            rows.append(row)
    _emit(rows, ["n", "a", "D_cap_quadrature", "C_hypergeometric", "s_minus_closed_form"], args)
    return 0


def _envelope_oracle(kind: KernelKind, cap: CapSpec, radii: list[float], quad: QuadratureConfig) -> np.ndarray:
    """M_c^n at each radius as ``zonal_extension_on_axis`` of the cap's +-1
    indicator, all radii in one call under ``quad``.

    It integrates the complement of the peak's arc in the original angle,
    under the direct kernel, with the adaptive engine; ``envelope_upper``
    takes the Moebius image of that arc.  The full cap (c = 1) has no
    breakpoint, since the data refuses one at pi.
    """
    alpha = cap.alpha
    data = ZonalBoundaryData(cap.n, np.eye(1, cap.n)[0], lambda t: np.where(t <= alpha, 1.0, -1.0),
                             () if cap.c == 1.0 else (alpha,))
    return zonal_extension_on_axis(kind, data, radii, quad)


def _cmd_envelope(args: argparse.Namespace, quad: QuadratureConfig) -> int:
    rows = []
    columns = ["kind", "n", "c", "r", "M_upper", "m_lower"]
    if args.oracle:
        columns += ["M_oracle", "M_oracle_diff"]
    kind = KernelKind(args.kind)
    radii = sorted(args.r_grid)
    for n in sorted(args.n):
        caps = [CapSpec(n, c) for c in sorted(args.c_grid)]
        # M over the radii and m = M(-r), every cap of this n in one tail pass
        for cap, values in zip(caps, envelope_rows(kind, caps, radii + [-r for r in radii], quad).tolist()):
            rows += [{"kind": kind.value, "n": n, "c": cap.c, "r": r, "M_upper": upper, "m_lower": lower}
                     for r, upper, lower in zip(radii, values, values[len(radii):])]
            if args.oracle:
                for row, direct in zip(rows[-len(radii):], _envelope_oracle(kind, cap, radii, quad).tolist()):
                    row["M_oracle"], row["M_oracle_diff"] = direct, direct - row["M_upper"]
    _emit(rows, columns, args)
    return 0


def _cmd_verify(args: argparse.Namespace, quad: QuadratureConfig) -> int:
    reports = default_verification_suite(
        seed=args.seed,
        config=quad,
        bound_scale=args.debug_bound_scale,
        target_dim=args.m,
    )
    rows = [
        {
            "case": rep.case,
            "lambda": rep.lam,
            "relation": rep.relation,
            "bound": rep.bound,
            "tolerance": rep.tolerance,
            "margin": rep.margin,
            "passed": rep.passed,
        }
        for rep in reports
    ]
    _emit(rows, ["case", "lambda", "relation", "bound", "tolerance", "margin", "passed"], args)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_hopf(args: argparse.Namespace, quad: QuadratureConfig) -> int:
    rows = []
    for n in sorted(args.n):
        for c in sorted(args.c_grid):
            scan = hopf_failure_scan(n, c)
            for r, value in zip(scan.radii, scan.values):
                rows.append(
                    {"n": n, "c": c, "r": r, "T": value, "slope": None, "coefficient": None, "d_n": None}
                )
            rows.append({"n": n, "c": c, "r": None, "T": None, "slope": scan.slope,
                         "coefficient": scan.coefficient, "d_n": scan.d_n})
    _emit(rows, ["n", "c", "r", "T", "slope", "coefficient", "d_n"], args)
    return 0


def _mobius_draws(seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (xi, z) of dimension k that ``_cmd_mobius`` checks: the
    origin row, then ``_MOBIUS_BATCH`` random rows.

    ``Philox([seed, k])`` makes three bulk draws of B + 1 rows each,
    B = ``_MOBIUS_BATCH``: the normals of shape (2, B + 1, 2k) (the xi
    directions, then the z points; real parts, then imaginary parts),
    then B + 1 uniforms u for the radii 0.9·u^(1/(2k)).  Each direction is
    normalized, so it is uniform on the unit sphere of C^k and xi is
    uniform in the ball of radius 0.9.  Row 0 has radius 0: xi = 0 with a
    unit z from the same stream.
    """
    rng = np.random.Generator(np.random.Philox([seed, k]))
    normals = rng.standard_normal((2, _MOBIUS_BATCH + 1, 2 * k))
    radii = 0.9 * rng.random(_MOBIUS_BATCH + 1) ** (1.0 / (2 * k))
    radii[0] = 0.0
    # the bits of complex / real: numpy divides by a real norm as a product with 1.0 / norm
    scale = 1.0 / np.linalg.norm(normals, axis=-1, keepdims=True)
    units = np.empty((2, _MOBIUS_BATCH + 1, k), dtype=complex)
    units.real = normals[..., :k] * scale
    units.imag = normals[..., k:] * scale
    return units[0] * radii[:, None], units[1]


def _cmd_mobius(args: argparse.Namespace, quad: QuadratureConfig) -> int:
    """Origin rows, then the worst residual over ``_MOBIUS_BATCH`` seeded draws per k.

    Every operator is applied in rank-one form, so each k is one
    ``mobius_identity_residuals`` pass over the rows of ``_mobius_draws``: the
    ``origin`` rows read row 0 (xi = 0), the ``random_max`` rows take the
    maximum over rows 1 to ``_MOBIUS_BATCH``; each case has one row per
    identity, in the order of the residuals the pass returns.
    """
    rows = []
    for k in sorted(args.n):
        _integer(k, "complex dimension", 1)
        xis, zs = _mobius_draws(args.seed, k)
        residuals = mobius_identity_residuals(MobiusParams(xis), zs)
        for name, values in residuals.items():
            rows.append({"k": k, "case": "origin", "identity": name, "residual": values[0], "draws": 1})
        for name, values in residuals.items():
            worst = float(np.max(values[1:]))
            rows.append({"k": k, "case": "random_max", "identity": name, "residual": worst, "draws": _MOBIUS_BATCH})
    _emit(rows, ["k", "case", "identity", "residual", "draws"], args)
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built once
    per process: parsing does not change them, and every default is
    immutable (a string that ``type`` converts afresh on each call, or a
    number, a bool or None), so no call can alter one another reads."""
    parser = argparse.ArgumentParser(
        prog="ballschwarz",
        description="Sharp boundary-derivative constants and envelopes on the unit ball.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, metavar="PATH")
        if seed:
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                           help=f"non-negative random seed (default {DEFAULT_SEED})")
        p.add_argument("--tol-abs", type=float, default=DEFAULT_CONFIG.abs_tol)
        p.add_argument("--tol-rel", type=float, default=DEFAULT_CONFIG.rel_tol)

    const_help = "sharp constant table over (n, a) grids (closed forms: --tol-abs/--tol-rel do not affect it)"
    p_const = sub.add_parser("constants", help=const_help, description=const_help)
    p_const.add_argument("--n", type=_ints, default="2,3,4,5", metavar="LIST")
    p_const.add_argument("--a-grid", type=_floats, default="0", metavar="LIST")
    p_const.set_defaults(run=_cmd_constants)
    add_common(p_const)

    p_env = sub.add_parser("envelope", help="envelope curves M and m")
    p_env.add_argument("--n", type=_ints, default="3", metavar="LIST")
    p_env.add_argument("--c-grid", type=_floats, default="0.5", metavar="LIST")
    p_env.add_argument("--r-grid", type=_floats, default="0,0.2,0.4,0.6,0.8", metavar="LIST")
    p_env.add_argument("--kind", choices=["harmonic", "hyperbolic"], default="harmonic")
    p_env.set_defaults(run=_cmd_envelope)
    add_common(p_env)
    p_env.add_argument("--oracle", action="store_true",
                       help="add M_oracle, M from the direct cap-arc quadrature, and its difference from M_upper")

    p_verify = sub.add_parser("verify", help="run the default inequality suite")
    p_verify.add_argument("--m", type=int, default=2,
                          help="codomain dimension of the vector-valued test maps")
    p_verify.add_argument("--debug-bound-scale", type=float, default=1.0,
                          help="multiply every bound to check that the suite can fail: "
                               "0.5 or 1.5 fails every equality row, 1.5 also every sharp "
                               "lower-bound row")
    p_verify.set_defaults(run=_cmd_verify)
    add_common(p_verify, seed=True)

    hopf_help = "hyperbolic difference-quotient scan (closed form: --tol-abs/--tol-rel do not affect it)"
    p_hopf = sub.add_parser("hopf", help=hopf_help, description=hopf_help)
    p_hopf.add_argument("--n", type=_ints, default="3,4", metavar="LIST")
    p_hopf.add_argument("--c-grid", type=_floats, default="0.5", metavar="LIST")
    p_hopf.set_defaults(run=_cmd_hopf)
    add_common(p_hopf)

    p_mob = sub.add_parser("mobius", help="ball-automorphism identity residuals")
    p_mob.add_argument("--n", type=_ints, default="1,2,3,8", metavar="LIST",
                       help="complex dimensions to sample")
    p_mob.set_defaults(run=_cmd_mobius)
    add_common(p_mob, seed=True)

    # argparse reads -0.5 as a value but -1e-5 or -0.5,0 as an unknown option; no option here looks
    # like a number, so every word that opens with -<digit> or -.<digit> is a value
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"-\.?\d")
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parsers()[0].parse_args(argv)``, with no scan by the top-level parser
    when ``argv`` starts with a subcommand: its parser reads the rest directly,
    and anything it leaves is the top-level parser's usage error, as before.
    Any other argv (empty, help, an unknown subcommand, an option first) goes
    through the top-level parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names, read
    by ``_parse``; the exit codes are those of the module docstring."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        quad = QuadratureConfig(abs_tol=args.tol_abs, rel_tol=args.tol_rel)
        return args.run(args, quad)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

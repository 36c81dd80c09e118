"""Adaptive Gauss-Kronrod quadrature driving every integral in the package.

The integrands that matter here are Poisson-type kernels restricted to a
polar angle: smooth away from a peak at the angular origin whose width
shrinks like ``1 - r`` as the evaluation point approaches the sphere.  A
fixed global rule cannot track that, so integration works panel by panel
with the nested Gauss-Kronrod 10/21 rule of QUADPACK's ``qk21``
(Piessens et al., 1983): the integrand at 21 Kronrod nodes gives the
panel value, and the 10-point Gauss rule on every other node gives its
error estimate at no extra cost.

The one entry point, ``integrate_rows``, integrates m integrands (rows)
over one interval: a radius grid of envelope tails or on-axis extensions
is one call, and a single integral is a one-row call,
``integrate_rows(f, a, b)[0]``.  Each row is bisected as it would be
alone, and the rows share the panels they evaluate.  The integrand
``f(x)`` is called once per batch of panels, each panel on its 21
Kronrod nodes: the initial panels between the breakpoints are one batch,
and so are the two halves of each bisection.  It returns every row's
values at the nodes of the batch, and each evaluated panel goes into a
table keyed by its ends.  A row that misses max(abs_tol, rel_tol |I_j|)
on the initial panels bisects its own worst panel until it meets it,
taking from the table the halves that an earlier row has evaluated
already.  Each row's panel sums are the same 1 x 21 products as for a
panel alone, so a row gets the same bits in a batch as alone, and no
panel is evaluated twice.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["QuadratureConfig", "DEFAULT_CONFIG", "integrate_rows", "kronrod_rule"]

# QUADPACK qk21: the Kronrod nodes x >= 0, largest first, with their
# 21-point weights.  The 10-point Gauss nodes are x[1], x[3], ..., x[9].
_KRONROD_HALF = np.array([
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805),
    (0.562757134668604683339000099272694, 0.123491976262065851077752600212346),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068),
    (0.0, 0.149445554002916905664936468389821),
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# all 21 nodes in increasing order, so the Gauss nodes sit at the odd positions
_NODES = np.concatenate((-_KRONROD_HALF[:10, 0], _KRONROD_HALF[::-1, 0]))
_KRONROD_WEIGHTS = np.concatenate((_KRONROD_HALF[:10, 1], _KRONROD_HALF[::-1, 1]))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS, _GAUSS_HALF_WEIGHTS[::-1]))
_ROUNDING_FLOOR = 50.0 * math.ulp(1.0)  # QUADPACK's 50 epmach; also the floor of envelope's image rule
_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute and relative tolerances for adaptive integration."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def kronrod_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The engine's 21 Kronrod nodes and weights on each of ``panels`` equal panels of [0, 1],
    one panel after the other: a fixed composite rule, with no error estimate of its own."""
    half = 0.5 / panels
    nodes = np.concatenate([(2 * j + 1) * half + half * _NODES for j in range(panels)])
    return nodes, np.tile(half * _KRONROD_WEIGHTS, panels)


def _panels(f: Callable, bounds: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of every row on the panels [a, b] in ``bounds``.

    Returns two (panels, rows) arrays.  ``f`` is called once for the whole
    batch, on the 21 Kronrod nodes of every panel in turn.  Every row's sums
    are 1 x 21 products, so a row gets the same bits in a batch of rows and
    panels as alone; the floors, the Kronrod and Gauss values and the
    estimates max(|K - half G|, floor) are then elementwise array
    operations, each rounding as the same expression on floats would.
    """
    ends = np.array(bounds)
    halves = 0.5 * (ends[:, 1:] - ends[:, :1])  # (panels, 1), against the (panels, rows) sums
    nodes = (0.5 * (ends[:, :1] + ends[:, 1:]) + halves * _NODES).ravel()
    # f's (rows, panels x 21) values as a contiguous (panels, rows, 1, 21) stack of 1 x 21 rows
    values = np.reshape(f(nodes), (-1, len(bounds), _NODES.size)).swapaxes(0, 1)
    values = np.ascontiguousarray(values)[:, :, None]
    # below the rounding of the sum, K and G may agree by accident; |K| and |G| are at
    # most a few times the integral of |f| in it, so where the floor is finite they are too
    floor = _ROUNDING_FLOOR * halves * (np.abs(values) @ _KRONROD_WEIGHTS)[..., 0]
    if not np.isfinite(floor).all():
        panel, row = np.argwhere(~np.isfinite(floor))[0].tolist()
        a, b = bounds[panel]
        with np.errstate(invalid="ignore"):
            value = float(halves[panel, 0]) * float(values[panel, row, 0] @ _KRONROD_WEIGHTS)
        raise AccuracyError(f"quadrature panel [{a!r}, {b!r}] is not finite in row {row}: value {value!r}")
    kronrod = halves * (values @ _KRONROD_WEIGHTS)[..., 0]
    gauss = (values[..., 1::2] @ _GAUSS_WEIGHTS)[..., 0]
    return kronrod, np.maximum(np.abs(kronrod - halves * gauss), floor)


def integrate_rows(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Integrate the m rows of a vectorized integrand over [a, b], each row bisected as alone.

    ``f(x)`` is called once per batch of panels: it receives the 21
    Kronrod nodes of each panel in the batch, one panel after the other,
    as one 1-D array x, and returns the values of all m rows there as an
    (m, x.size) array (a 1-D result is one row); the result is the (m,)
    array of integrals.  The initial panels between the breakpoints are
    one batch, and the two halves of each bisection another.  Known
    discontinuities (step-function boundary data) should be listed in
    ``breakpoints`` so panel edges land on them.
    Each panel keeps, per row, its Kronrod value and the error estimate
    |K21 - G10|, never below 50 machine epsilons of the panel's integral
    of |f|, so a tolerance under the rounding of the sum is reported as
    missed rather than met.

    Row by row, a row that misses max(abs_tol, rel_tol |I_j|) on the
    initial panels bisects the panel with its largest error until its
    summed estimate meets that tolerance, exactly as alone.  Every
    evaluated panel is kept in a table keyed by its ends, so a panel that
    an earlier row split is read, not evaluated again: a row gets in a
    batch the bits it gets alone, with the same budget of subdivisions.

    Raises :class:`AccuracyError` after 2000 subdivisions of one row short
    of its tolerance, carrying the array of row estimates: the final value
    of each earlier row, the current value of the refusing row and the
    initial total of each later row.  It raises (without an estimate) on a
    panel with a non-finite value in any row, naming the panel and row.
    An interval that is not finite, or not a < b, raises
    :class:`DomainError`.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if not a < b:
        raise DomainError(f"integration interval must have a < b, got [{a!r}, {b!r}]")

    edges = [a]
    for t in sorted(breakpoints):
        if a < t < b:
            edges.append(float(t))
    edges.append(b)

    bounds = list(zip(edges[:-1], edges[1:]))
    values, errors = _panels(f, bounds)
    total, total_err = np.zeros(values.shape[1]), np.zeros(values.shape[1])
    for vals, errs in zip(values, errors):  # panel after panel, from 0.0, as a loop over floats adds
        total, total_err = total + vals, total_err + errs
    total, total_err = total.tolist(), total_err.tolist()
    values, errors = values.tolist(), errors.tolist()  # the bisection below reads single floats
    table = dict(zip(bounds, zip(values, errors)))  # (lo, hi) -> that panel's row values and errors
    abs_tol, rel_tol = config.abs_tol, config.rel_tol
    for j in range(len(total)):
        if total_err[j] <= max(abs_tol, rel_tol * abs(total[j])):
            continue  # done on the initial panels: no heap
        heap = [(-errs[j], tie, lo, hi) for tie, ((lo, hi), errs) in enumerate(zip(bounds, errors))]
        heapq.heapify(heap)
        tie, splits = len(heap), 0
        while total_err[j] > max(abs_tol, rel_tol * abs(total[j])):
            if splits >= _MAX_SUBDIVISIONS:
                where = f" in row {j}" if len(total) > 1 else ""
                raise AccuracyError(
                    f"adaptive quadrature used {splits} subdivisions without "
                    f"reaching tolerance (error estimate {total_err[j]:.3e}{where})",
                    estimate=np.array(total),
                )
            _, _, lo, hi = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # Panel at machine width: nothing left to resolve.
                raise AccuracyError(
                    "adaptive quadrature hit a panel of machine width "
                    f"near x={lo!r}", estimate=np.array(total),
                )
            if (lo, mid) not in table:
                (lval, rval), (lerr, rerr) = (pair.tolist() for pair in _panels(f, ((lo, mid), (mid, hi))))
                table[lo, mid], table[mid, hi] = (lval, lerr), (rval, rerr)
            (pval, perr), (lval, lerr), (rval, rerr) = table[lo, hi], table[lo, mid], table[mid, hi]
            total[j] += (lval[j] + rval[j]) - pval[j]
            total_err[j] += (lerr[j] + rerr[j]) - perr[j]
            heapq.heappush(heap, (-lerr[j], tie, lo, mid))
            heapq.heappush(heap, (-rerr[j], tie + 1, mid, hi))
            tie += 2
            splits += 1

    return np.array(total)

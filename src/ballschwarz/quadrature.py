"""Adaptive Gauss-Kronrod quadrature driving every integral in the package.

The integrands that matter here are Poisson-type kernels restricted to a
polar angle: smooth away from a peak at the angular origin whose width
shrinks like ``1 - r`` as the evaluation point approaches the sphere.  A
fixed global rule cannot track that, so integration works panel by panel
with the nested Gauss-Kronrod 10/21 rule of QUADPACK's ``qk21``
(Piessens et al., 1983): one integrand call at 21 Kronrod nodes gives the
panel value, and the 10-point Gauss rule on every other node gives its
error estimate at no extra cost.  The panel with the largest estimate is
bisected until the summed estimate meets the configured tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["QuadratureConfig", "DEFAULT_CONFIG", "integrate"]

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
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps  # QUADPACK's 50 epmach
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


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = f(mid + half * _NODES)
    kronrod = half * float(np.dot(_KRONROD_WEIGHTS, values))
    gauss = half * float(np.dot(_GAUSS_WEIGHTS, values[1::2]))
    # below the rounding of the sum, K and G may agree by accident
    floor = _ROUNDING_FLOOR * half * float(np.dot(_KRONROD_WEIGHTS, np.abs(values)))
    err = max(abs(kronrod - gauss), floor)
    if not (math.isfinite(kronrod) and math.isfinite(err)):
        raise AccuracyError(f"quadrature panel [{a!r}, {b!r}] is not finite: "
                            f"value {kronrod!r}, error {err!r}")
    return kronrod, err


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate a vectorized integrand over [a, b].

    ``f`` receives an ndarray of nodes and must return the integrand
    values elementwise.  Known discontinuities (step-function boundary
    data) should be listed in ``breakpoints`` so panel edges land on
    them; everything else is handled by bisection of the worst panel.
    Each panel calls ``f`` once, on its 21 Kronrod nodes; its error
    estimate is |K21 - G10|, but never below 50 machine epsilons of the
    panel's integral of |f|, so a tolerance under the rounding of the sum
    is reported as missed rather than met.

    Raises :class:`AccuracyError` (carrying the best estimate) after 2000
    subdivisions short of the tolerance, and (without one) on a non-finite panel.
    """
    if not np.isfinite(a) or not np.isfinite(b):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, config, breakpoints)

    edges = [a]
    for t in sorted(breakpoints):
        if a < t < b:
            edges.append(float(t))
    edges.append(b)

    heap = []  # (-err, tie, a, b, value, err)
    tie = 0
    total = 0.0
    total_err = 0.0
    for lo_edge, hi_edge in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo_edge, hi_edge)
        heapq.heappush(heap, (-err, tie, lo_edge, hi_edge, val, err))
        tie += 1
        total += val
        total_err += err

    splits = 0
    while total_err > max(config.abs_tol, config.rel_tol * abs(total)):
        if splits >= _MAX_SUBDIVISIONS:
            raise AccuracyError(
                f"adaptive quadrature used {splits} subdivisions without "
                f"reaching tolerance (error estimate {total_err:.3e})",
                estimate=total,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # Panel at machine width: nothing left to resolve.
            raise AccuracyError(
                "adaptive quadrature hit a panel of machine width "
                f"near x={pa!r}", estimate=total,
            )
        lval, lerr = _panel(f, pa, mid)
        rval, rerr = _panel(f, mid, pb)
        total += (lval + rval) - pval
        total_err += (lerr + rerr) - perr
        heapq.heappush(heap, (-lerr, tie, pa, mid, lval, lerr))
        tie += 1
        heapq.heappush(heap, (-rerr, tie, mid, pb, rval, rerr))
        tie += 1
        splits += 1

    return total

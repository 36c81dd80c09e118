"""Adaptive Gauss quadrature driving every integral in the package.

The integrands that matter here are Poisson-type kernels restricted to a
polar angle: smooth away from a peak at the angular origin whose width
shrinks like ``1 - r`` as the evaluation point approaches the sphere.  A
fixed global rule cannot track that, so integration works panel by panel
with an embedded Gauss-Legendre 15/7 pair: the panel whose 15-point and
7-point values disagree most is bisected until the summed error estimate
meets the configured tolerance.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["QuadratureConfig", "DEFAULT_CONFIG", "integrate"]

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
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
    hi = half * float(np.dot(_WEIGHTS_HI, f(mid + half * _NODES_HI)))
    lo = half * float(np.dot(_WEIGHTS_LO, f(mid + half * _NODES_LO)))
    err = abs(hi - lo)
    if not (math.isfinite(hi) and math.isfinite(err)):
        raise AccuracyError(f"quadrature panel [{a!r}, {b!r}] is not finite: value {hi!r}, error {err!r}")
    return hi, err


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

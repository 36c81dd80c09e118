"""Closed-form harmonic machinery on the unit disc.

The planar Poisson integral of an arc indicator has an elementary
antiderivative: with k = (1+r)/(1-r),

    int (1-r^2) / (1 - 2 r cos s + r^2) ds = 2 arctan(k tan(s/2)),

continuous on (-pi, pi) and extended to all of R by adding 2 pi per
period (the full-circle integral is 2 pi).  This gives disc harmonic
measures, and hence the planar cap extremals, in closed form -- the
quadrature-free reference path against which the n = 2 envelope
integrals are cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _base_value

__all__ = ["arc_antiderivative", "arc_extension", "DiscCapExtremal"]

_TWO_PI = 2.0 * math.pi


def arc_antiderivative(s: float, r: float) -> float:
    """Continuous antiderivative F(s) of the normalized planar Poisson kernel.

    F is strictly increasing with F(s + 2 pi) = F(s) + 2 pi, F(0) = 0.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")
    period = math.floor((s + math.pi) / _TWO_PI)
    s0 = s - _TWO_PI * period
    value = 2.0 * math.atan2((1.0 + r) * math.sin(0.5 * s0), (1.0 - r) * math.cos(0.5 * s0))
    return value + _TWO_PI * period


def arc_extension(z: complex, theta1: float, theta2: float) -> float:
    """Harmonic measure of the arc {e^{it}: theta1 <= t <= theta2} at z.

    Equals the Poisson integral of the arc indicator; requires
    theta1 <= theta2 <= theta1 + 2 pi and |z| < 1.
    """
    if not theta1 <= theta2 <= theta1 + _TWO_PI:
        raise DomainError("need theta1 <= theta2 <= theta1 + 2*pi")
    z = complex(z)
    r = abs(z)
    if not r < 1.0:
        raise DomainError(f"evaluation point must lie inside the disc, got |z|={r!r}")
    phase = math.atan2(z.imag, z.real)
    return (arc_antiderivative(theta2 - phase, r) - arc_antiderivative(theta1 - phase, r)) / _TWO_PI


@dataclass(frozen=True)
class DiscCapExtremal:
    """The disc harmonic function with boundary data +1 on the arc
    |t| <= pi (1+a)/2 and -1 elsewhere.

    It takes the value ``a`` at the origin, has boundary contact value 1
    at z = 1, and its radial derivative there is the sharp planar bound
    s^-(a); it is the n = 2 cap extremal.
    """

    a: float

    def __post_init__(self):
        _base_value(self.a)

    @property
    def half_width(self) -> float:
        return 0.5 * math.pi * (1.0 + self.a)

    def __call__(self, z: complex) -> float:
        w = self.half_width
        return 2.0 * arc_extension(z, -w, w) - 1.0

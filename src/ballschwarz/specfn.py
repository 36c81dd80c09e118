"""Gauss 2F1 at the argument -1 and the sphere constant sigma_star.

``gauss_2f1_neg1`` is the one 2F1 evaluator: the sharp constant C_m of
``heinz_schwarz_constant`` takes it, and the tests hold it against
40-digit mpmath ``hyp2f1``.

``sigma_star`` = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) normalizes every
angle-reduced integral over S^{n-1}.  A difference of log-gammas would
lose digits as n grows, so it is summed from a recurrence and an
asymptotic series instead.
"""

from __future__ import annotations

import functools
import math

from .errors import AccuracyError, DomainError, _integer

__all__ = [
    "gauss_2f1_neg1",
    "sigma_star",
]

_SERIES_CAP = 100_000
_SERIES_TOL = 1e-14  # relative truncation tolerance of the transformed series
_RATIO_SHIFT = 32.0  # where the asymptotic series of _half_gamma_ratio starts


def gauss_2f1_neg1(a: float, b: float, c: float) -> float:
    """Gauss hypergeometric 2F1[a, b; c; -1].

    The defining series at the boundary argument -1 alternates and decays
    only polynomially, so it is not summed directly.  Instead the Pfaff
    linear transformation

        2F1[a, b; c; -1] = 2^{-a} 2F1[a, c-b; c; 1/2]

    moves the argument to 1/2 where the terms decay geometrically; it is
    summed until a term drops below 2.5e-15 times the running sum.  At
    (a, b, c) = (1/2, 1, (3+m)/2), the instances of C_m, it is within
    2.9e-15 relative of 40-digit mpmath ``hyp2f1`` for m = 2..199.
    """
    if c <= 0.0 and float(c).is_integer():  # -inf is no integer: it fails the test below
        raise DomainError(f"2F1 parameter c={c!r} is a non-positive integer")
    # The defining series at -1 converges (conditionally) iff c - a - b > -1;
    # c - a - b > 0 would give absolute convergence but excludes the
    # arctan-type instances at the conditional boundary.
    if not (c - a - b > -1.0):
        raise DomainError(f"2F1 at argument -1 needs c - a - b > -1 for convergence, got {c - a - b!r}")
    # what passes with a non-finite parameter (c = inf, a or b = -inf) would sum NaN terms
    if not all(math.isfinite(p) for p in (a, b, c)):
        raise DomainError(f"2F1 parameters must be finite, got a={a!r}, b={b!r}, c={c!r}")
    if a == 0.0 or b == 0.0:
        return 1.0

    total = 1.0
    term = 1.0
    for k in range(_SERIES_CAP):
        term *= 0.5 * (a + k) * (c - b + k) / ((c + k) * (k + 1))
        total += term
        if abs(term) <= 0.25 * _SERIES_TOL * abs(total):
            return (2.0 ** -a) * total
    raise AccuracyError(
        f"2F1 transformed series did not converge within {_SERIES_CAP} terms",
        estimate=(2.0 ** -a) * total,
    )


def sigma_star(n: int) -> float:
    """Area ratio sigma_{n-2}/sigma_{n-1} = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) of S^{n-2} to S^{n-1}."""
    return _half_gamma_ratio(0.5 * (_integer(n) - 1)) / math.sqrt(math.pi)


@functools.lru_cache(maxsize=1024)  # the recurrence costs 32 steps at small x
def _half_gamma_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x) for x > 0, to a few units in the last place.

    A difference of log-gammas loses digits as x grows.  Instead x is
    shifted up to y >= 32 by Gamma(x+1/2)/Gamma(x) = x/(x+1/2)
    Gamma(x+3/2)/Gamma(x+1), and at y the asymptotic series

        ln(Gamma(y+1/2)/Gamma(y)) = ln(y)/2 - 1/(8y) + 1/(192y^3)
                                    - 1/(640y^5) + 17/(14336y^7) - ...

    is summed with its logarithm left out, as sqrt(y) exp(rest).
    """
    scale = 1.0
    while x < _RATIO_SHIFT:
        scale *= x / (x + 0.5)
        x += 1.0
    w = 1.0 / (x * x)
    rest = (-1.0 / 8.0 + w * (1.0 / 192.0 + w * (-1.0 / 640.0 + w * (17.0 / 14336.0)))) / x
    return scale * math.sqrt(x) * math.exp(rest)

"""Gamma-family special functions and sphere surface constants.

Everything downstream combines Gamma ratios, so the log-gamma form is
the primitive: it never overflows for the dimensions we sweep, and the
ratios ``sigma_star`` and the hypergeometric prefactors assemble from
differences of logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "SpherePrefactors",
    "log_gamma",
    "gauss_2f1_neg1",
    "gauss_2f1_neg1_series",
    "sphere_prefactors",
]

_SERIES_CAP = 100_000


@dataclass(frozen=True)
class SpherePrefactors:
    """Surface area of S^{n-1} and the ratio sigma_{n-2}/sigma_{n-1}."""

    n: int
    sigma_area: float
    sigma_star: float


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _check_2f1_domain(a: float, b: float, c: float) -> None:
    if c <= 0.0 and c == int(c):
        raise DomainError(f"2F1 parameter c={c!r} is a non-positive integer")
    # The defining series at -1 converges (conditionally) iff c - a - b > -1;
    # c - a - b > 0 would give absolute convergence but excludes the
    # arctan-type instances at the conditional boundary.
    if not (c - a - b > -1.0):
        raise DomainError(
            f"2F1 at argument -1 needs c - a - b > -1 for convergence, got {c - a - b!r}"
        )


def gauss_2f1_neg1(a: float, b: float, c: float, tol: float = 1e-14) -> float:
    """Gauss hypergeometric 2F1[a, b; c; -1].

    The defining series at the boundary argument -1 alternates and decays
    only polynomially, so it is not summed directly.  Instead the Pfaff
    linear transformation

        2F1[a, b; c; -1] = 2^{-a} 2F1[a, c-b; c; 1/2]

    moves the argument to 1/2 where the terms decay geometrically.
    ``gauss_2f1_neg1_series`` keeps the brute-force alternating sum as a
    cross-validation oracle.
    """
    _check_2f1_domain(a, b, c)
    if a == 0.0 or b == 0.0:
        return 1.0

    total = 1.0
    term = 1.0
    for k in range(_SERIES_CAP):
        term *= 0.5 * (a + k) * (c - b + k) / ((c + k) * (k + 1))
        total += term
        if abs(term) <= 0.25 * tol * abs(total):
            return (2.0 ** -a) * total
    raise AccuracyError(
        f"2F1 transformed series did not converge within {_SERIES_CAP} terms",
        estimate=(2.0 ** -a) * total,
    )


def gauss_2f1_neg1_series(
    a: float, b: float, c: float, terms: int = 200_000, passes: int = 8
) -> float:
    """Brute-force evaluation of 2F1[a, b; c; -1] from the defining series.

    Sums ``terms`` terms of the alternating series and accelerates by
    repeatedly averaging adjacent partial sums (``passes`` rounds; one
    round is the classical single Euler average, many rounds drive the
    oscillatory error to machine level).  Slow by design: this is the
    oracle path behind the CLI ``--oracle`` flag.
    """
    _check_2f1_domain(a, b, c)
    if a == 0.0 or b == 0.0:
        return 1.0
    if terms < 2:
        raise DomainError("series oracle needs at least 2 terms")

    k = np.arange(terms - 1, dtype=float)
    ratios = -(a + k) * (b + k) / ((c + k) * (k + 1.0))
    terms_arr = np.concatenate(([1.0], np.cumprod(ratios)))
    partial = np.cumsum(terms_arr)
    for _ in range(passes):
        if partial.size < 2:
            break
        partial = 0.5 * (partial[1:] + partial[:-1])
    return float(partial[-1])


def sphere_prefactors(n: int) -> SpherePrefactors:
    """Surface constants of S^{n-1}: total area and sigma_{n-2}/sigma_{n-1}."""
    if n < 2 or n != int(n):
        raise DomainError(f"sphere dimension parameter must be an integer >= 2, got {n!r}")
    n = int(n)
    sigma_area = 2.0 * math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))
    sigma_star = math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)
    return SpherePrefactors(n=n, sigma_area=sigma_area, sigma_star=sigma_star)

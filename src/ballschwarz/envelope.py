"""Spherical-cap envelopes and sharp boundary-derivative constants.

A bounded harmonic (or hyperbolic-harmonic) function h on the unit ball
of R^n with values in (-1, 1) and h(0) = a is squeezed pointwise between
two explicit radial envelopes: the Poisson extensions of +/-1 boundary
data supported on polar caps of normalized measure c = (1+a)/2 centered
at the evaluation direction and at its antipode.  Reducing the Poisson
integral to the polar angle t gives

    M_c^n(r) = 2 sigma_star(n) (1-r^2)^nu
               * int_0^alpha(c) sin^{n-2}t (1 - 2r cos t + r^2)^{-mu} dt - 1,

with the lower envelope m_c^n integrating over [pi - alpha, pi] instead.
The exponent pair is (nu, mu) = (1, n/2) for the Euclidean Laplacian and
(n-1, n-1) for the Laplace-Beltrami operator of the ball model.

For r >= 0 the kernel peaks at t = 0, inside the cap of M.  Since the
kernel integrates to 1, M is evaluated instead through the complement
arc, which leaves the peak out:

    M_c^n(r) = 1 - 2 sigma_star(n) (1-r^2)^nu
                   * int_alpha^pi sin^{n-2}t (1 - 2r cos t + r^2)^{-mu} dt
             = 1 - (1-r) T(r),

with T the factored difference quotient below; m's arc [pi - alpha, pi]
already avoids t = 0.  For r < 0 the peak moves to t = pi, and the
substitution t -> pi - t gives the reflection

    M_c^n(-r) = m_c^n(r),    m_c^n(-r) = M_c^n(r),

so every radius is evaluated by a peak-free integral.

Every sharp constant in this package is a boundary derivative of M_c^n:

* ``boundary_derivative_harmonic`` evaluates the limit
  dM/dr at r=1 by the exact limiting integrand (never by differencing a
  quadrature result), giving the lower bound D_n(a) for the radial
  derivative of boundary-contact harmonic maps;
* ``heinz_schwarz_constant`` evaluates the same number at a = 0 through
  the independent hypergeometric closed form C_m;
* ``schwarz_planar_bound`` is the planar closed form
  s^-(b) = (2/pi) cot(pi (1+b)/4), which D_2 reproduces;
* ``hyperbolic_decay_coefficient`` is the coefficient d_n in
  (1 - M_c^n(r))/(1-r) ~ d_n (1-r)^{n-2} for the hyperbolic-harmonic
  kernel with n > 2, whose vanishing boundary derivative is the Hopf
  lemma counterexample quantified by ``hopf_condition_ratio``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .specfn import gauss_2f1_neg1, gauss_2f1_neg1_series, log_gamma, sphere_prefactors

__all__ = [
    "KernelKind",
    "CapSpec",
    "cap_angle_from_measure",
    "cap_measure_from_angle",
    "envelope_upper",
    "envelope_lower",
    "boundary_difference_quotient",
    "boundary_derivative_harmonic",
    "heinz_schwarz_constant",
    "schwarz_planar_bound",
    "hyperbolic_decay_coefficient",
    "hopf_condition_ratio",
]

_CAP_CONSISTENCY_TOL = 1e-10
_ANGLE_TOL = 1e-13


class KernelKind(Enum):
    """Selects the reproducing kernel: Euclidean harmonic or hyperbolic-harmonic."""

    HARMONIC = "harmonic"
    HYPERBOLIC_HARMONIC = "hyperbolic"

    def exponents(self, n: int) -> tuple[float, float]:
        """Exponent pair (nu, mu) of the angle-reduced kernel in dimension n."""
        if self is KernelKind.HARMONIC:
            return 1.0, 0.5 * n
        return float(n - 1), float(n - 1)


# The measure integrand sin^{n-2} is smooth and cheap, and the angle
# inversion needs it well below the generic tolerance, so it always runs
# at a fixed tight budget.
_MEASURE_CONFIG = QuadratureConfig(abs_tol=5e-15, rel_tol=1e-14, max_subdivisions=200)


def cap_measure_from_angle(n: int, alpha: float) -> float:
    """Normalized surface measure of a polar cap of half-angle alpha."""
    if n < 2 or n != int(n):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"cap angle must lie in [0, pi], got {alpha!r}")
    n = int(n)
    if n == 2:
        return alpha / math.pi
    if n == 3:
        return 0.5 * (1.0 - math.cos(alpha))
    star = sphere_prefactors(n).sigma_star
    return star * integrate(lambda t: np.sin(t) ** (n - 2), 0.0, alpha, _MEASURE_CONFIG)


@dataclass(frozen=True)
class CapSpec:
    """A polar cap: dimension, normalized measure c, and half-angle alpha.

    The two parametrizations must agree; construction re-derives the
    measure from the angle and rejects inconsistent triples.  ``c = 1``
    (the full sphere, alpha = pi) is admitted so degenerate envelopes
    evaluate to the constant 1.
    """

    n: int
    c: float
    alpha: float

    def __post_init__(self):
        if self.n < 2 or self.n != int(self.n):
            raise DomainError(f"dimension must be an integer >= 2, got {self.n!r}")
        if not 0.0 < self.c <= 1.0:
            raise DomainError(f"cap measure must lie in (0, 1], got {self.c!r}")
        if not 0.0 < self.alpha <= math.pi:
            raise DomainError(f"cap angle must lie in (0, pi], got {self.alpha!r}")
        recovered = cap_measure_from_angle(self.n, self.alpha)
        if abs(recovered - self.c) > _CAP_CONSISTENCY_TOL:
            raise DomainError(
                f"cap measure {self.c!r} and angle {self.alpha!r} disagree: "
                f"angle implies measure {recovered!r}"
            )


def cap_angle_from_measure(n: int, c: float) -> CapSpec:
    """Invert the cap measure for the half-angle alpha(c).

    Bisection brings the bracket below 1e-6, Newton steps (the measure
    derivative is sigma_star(n) sin^{n-2} alpha) polish to 1e-13; if a
    Newton step ever leaves the bracket, bisection simply continues.
    """
    if n < 2 or n != int(n):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not 0.0 < c < 1.0:
        raise DomainError(f"cap measure must lie in (0, 1), got {c!r}")
    n = int(n)
    if n == 2:
        return CapSpec(n=2, c=c, alpha=math.pi * c)
    if n == 3:
        return CapSpec(n=3, c=c, alpha=math.acos(1.0 - 2.0 * c))

    star = sphere_prefactors(n).sigma_star

    def measure(alpha: float) -> float:
        return cap_measure_from_angle(n, alpha)

    lo, hi = 0.0, math.pi
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if measure(mid) < c:
            lo = mid
        else:
            hi = mid

    alpha = 0.5 * (lo + hi)
    for _ in range(40):
        resid = measure(alpha) - c
        slope = star * math.sin(alpha) ** (n - 2)
        if slope <= 0.0:
            break
        step = resid / slope
        nxt = alpha - step
        if not lo < nxt < hi:
            # fall back to one bisection step on the maintained bracket
            if resid > 0.0:
                hi = alpha
            else:
                lo = alpha
            nxt = 0.5 * (lo + hi)
        elif resid > 0.0:
            hi = alpha
        else:
            lo = alpha
        if abs(nxt - alpha) <= _ANGLE_TOL:
            alpha = nxt
            break
        alpha = nxt
    return CapSpec(n=n, c=c, alpha=alpha)


def _angle_integral(
    n: int,
    mu: float,
    r: float,
    t0: float,
    t1: float,
    config: QuadratureConfig,
) -> float:
    """int_{t0}^{t1} sin^{n-2}t (1 - 2 r cos t + r^2)^{-mu} dt."""

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sin(t) ** (n - 2) / (1.0 - 2.0 * r * np.cos(t) + r * r) ** mu

    return integrate(integrand, t0, t1, config)


def _check_radius(r: float) -> None:
    # Negative radii are the analytic continuation of the radial profile
    # along the axis; central differences at r = 0 rely on them.
    if not -1.0 < r < 1.0:
        raise DomainError(f"radius must satisfy |r| < 1, got {r!r}")


def envelope_upper(
    kind: KernelKind,
    cap: CapSpec,
    r: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Upper envelope M_c^n(r): the cap-indicator extension along its axis."""
    _check_radius(r)
    if r < 0.0:
        return envelope_lower(kind, cap, -r, config)
    return 1.0 - (1.0 - r) * boundary_difference_quotient(kind, cap, r, config)


def envelope_lower(
    kind: KernelKind,
    cap: CapSpec,
    r: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Lower envelope m_c^n(r): the antipodal cap-indicator extension."""
    _check_radius(r)
    if r < 0.0:
        return envelope_upper(kind, cap, -r, config)
    nu, mu = kind.exponents(cap.n)
    star = sphere_prefactors(cap.n).sigma_star
    body = _angle_integral(cap.n, mu, r, math.pi - cap.alpha, math.pi, config)
    return 2.0 * star * (1.0 - r * r) ** nu * body - 1.0


def boundary_difference_quotient(
    kind: KernelKind,
    cap: CapSpec,
    r: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """T(r) = (1 - M_c^n(r)) / (1 - r), evaluated in factored form.

    Writing 1 - M as twice the extension of the complement-cap indicator
    pulls the vanishing factor out of the integral analytically:

        harmonic:    T(r) = 2 sigma_star (1+r)          J_{n/2}(r)
        hyperbolic:  T(r) = 2 sigma_star (1-r)^{n-2} (1+r)^{n-1} J_{n-1}(r)

    with J_mu(r) the complement-arc integral, which stays smooth up to
    r = 1 because the kernel peak at t = 0 is excluded.  Valid on
    0 <= r <= 1 including the boundary itself.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"difference quotient needs 0 <= r <= 1, got {r!r}")
    if cap.alpha >= math.pi:
        return 0.0
    n = cap.n
    _, mu = kind.exponents(n)
    star = sphere_prefactors(n).sigma_star
    tail = _angle_integral(n, mu, r, cap.alpha, math.pi, config)
    if kind is KernelKind.HARMONIC:
        return 2.0 * star * (1.0 + r) * tail
    return 2.0 * star * (1.0 - r) ** (n - 2) * (1.0 + r) ** (n - 1) * tail


def boundary_derivative_harmonic(
    n: int, a: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Sharp radial-derivative constant D_n(a) for harmonic boundary contact.

    For the harmonic envelope with cap measure c = (1+a)/2,

        D_n(a) = dM_c^n/dr |_{r=1}
               = 2^{2-n} sigma_star(n) int_{alpha(c)}^pi sin^{n-2}t / sin^n(t/2) dt,

    computed from the limiting integrand directly.
    """
    if n < 2 or n != int(n):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not -1.0 < a < 1.0:
        raise DomainError(f"base value must lie in (-1, 1), got {a!r}")
    n = int(n)
    cap = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    star = sphere_prefactors(n).sigma_star

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sin(t) ** (n - 2) / np.sin(0.5 * t) ** n

    tail = integrate(integrand, cap.alpha, math.pi, config)
    return 2.0 ** (2 - n) * star * tail


def heinz_schwarz_constant(m: int, oracle: bool = False) -> float:
    """Sharp constant C_m for origin-fixing harmonic maps, hypergeometric form.

    C_m = m! (1 + m - (m-2) 2F1[1/2, 1; (3+m)/2; -1])
          / (2^{3m/2} Gamma((1+m)/2) Gamma((3+m)/2)).

    Agrees with ``boundary_derivative_harmonic(m, 0)``; the two formulas
    share no code, which is exactly why both exist.  ``oracle=True``
    routes the hypergeometric value through the brute-force alternating
    series instead of the transformed one.
    """
    if m < 2 or m != int(m):
        raise DomainError(f"dimension must be an integer >= 2, got {m!r}")
    m = int(m)
    if oracle:
        f_val = gauss_2f1_neg1_series(0.5, 1.0, 0.5 * (3 + m))
    else:
        f_val = gauss_2f1_neg1(0.5, 1.0, 0.5 * (3 + m))
    prefactor = math.exp(
        log_gamma(m + 1.0)
        - 1.5 * m * math.log(2.0)
        - log_gamma(0.5 * (1 + m))
        - log_gamma(0.5 * (3 + m))
    )
    return prefactor * (1.0 + m - (m - 2) * f_val)


def schwarz_planar_bound(b: float) -> float:
    """Planar sharp bound s^-(b) = (2/pi) cot(pi (1+b)/4), decreasing in b."""
    if not -1.0 < b < 1.0:
        raise DomainError(f"base value must lie in (-1, 1), got {b!r}")
    return (2.0 / math.pi) / math.tan(0.25 * math.pi * (1.0 + b))


def hyperbolic_decay_coefficient(
    n: int, c: float, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Coefficient d_n in T(r) ~ d_n (1-r)^{n-2} for the hyperbolic kernel.

    From the factored form T(r) = 2 sigma_star (1-r)^{n-2} (1+r)^{n-1} J(r),
    letting r -> 1 turns (1+r)^{n-1} into 2^{n-1} and the integrand of J
    into q(t) = 4^{1-n} sin^{n-2}t sin^{-2(n-1)}(t/2), so

        d_n = 2^n sigma_star(n) int_{alpha(c)}^pi q(t) dt.

    Defined for n > 2 only: at n = 2 the hyperbolic-harmonic class
    coincides with the harmonic one and the decay exponent degenerates.
    """
    if n <= 2 or n != int(n):
        raise DomainError(f"hyperbolic decay coefficient needs integer n > 2, got {n!r}")
    if not 0.0 < c < 1.0:
        raise DomainError(f"cap measure must lie in (0, 1), got {c!r}")
    n = int(n)
    cap = cap_angle_from_measure(n, c)
    star = sphere_prefactors(n).sigma_star

    def q_hyp(t: np.ndarray) -> np.ndarray:
        return 4.0 ** (1 - n) * np.sin(t) ** (n - 2) / np.sin(0.5 * t) ** (2 * (n - 1))

    tail = integrate(q_hyp, cap.alpha, math.pi, config)
    return 2.0 ** n * star * tail


def hopf_condition_ratio(n: int, r: float) -> float:
    """Drift-to-ellipticity ratio |b_i(x)| / lambda(x) = 2(n-2)/(1-r^2).

    The Laplace-Beltrami operator of the ball has identity second-order
    part and first-order coefficients 2(n-2)/(1-|x|^2) x: this ratio is
    unbounded as r -> 1, which is precisely why the Hopf lemma's
    bounded-drift hypothesis fails on the unit ball.
    """
    if n <= 2 or n != int(n):
        raise DomainError(f"drift ratio is defined for integer n > 2, got {n!r}")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")
    return 2.0 * (n - 2) / (1.0 - r * r)

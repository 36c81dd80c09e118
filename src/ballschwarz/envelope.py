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
kernel integrates to 1, both envelopes are written through the
difference quotient T of a complement arc, which leaves the peak out:

    M_c^n(r) = 1 - (1-r) T_c(r),    m_c^n(r) = (1-r) T_{1-c}(r) - 1 = -M_{1-c}^n(r),

with T_{1-c} taken for the cap of half-angle pi - alpha.  Both kernels
take T through the ball automorphism that swaps r e and 0, which maps the
complement arc onto a cap about e (``boundary_difference_quotient``).
The hyperbolic T (and the planar one, where the two kernels coincide) is
then a closed form in the cap measure; the harmonic T is a fixed
Gauss-Kronrod rule over the image cap, whose weight has no 1-r layer
left after one more substitution (``_tail_quotient``), and calls the
adaptive engine only for a row that misses its tolerance there.  For r < 0
the peak moves to t = pi, and the substitution t -> pi - t gives the
reflection

    M_c^n(-r) = m_c^n(r),    m_c^n(-r) = M_c^n(r),

so no radius integrates across the kernel peak.  ``envelope_upper`` is
the one envelope kernel and ``envelope_lower`` is M at -r.  The kernel
picks its tail by the sign bit of r: a clear bit takes the cap's own arc
and a set one, -0.0 included, the complement's.  The two tails agree at
r = 0 only to rounding (within 5.4e-15 for n <= 64 and 1e-6 <= c <= 1 -
1e-6), so M(+0.0) and m(+0.0) = M(-0.0) keep the bits of their own
sides.

Every sharp constant in this package is a boundary derivative of M_c^n,
in closed form through the cap measure F_n(alpha) = I_{sin^2 alpha}((n-1)/2,
1/2) / 2 (alpha <= pi/2), an incomplete beta function summed as a continued
fraction (DLMF 8.17.22).  One private kernel, ``_cap_measure``, evaluates
F_n for the public ``cap_measure_from_angle``, for each Newton step of its
inverse ``cap_angle_from_measure`` and for each closed-form tail, with
sigma_star(n) looked up once per call.  A ``CapSpec`` is (n, c): its angle
is that inverse, derived once and not measured again.  None of the
constants calls the quadrature; one that is 0, inf or NaN raises
``DomainError`` (a value below the normal doubles does not, see the
end):

* ``boundary_derivative_harmonic`` is the limit dM/dr at r = 1,
  D_n(a) = 2 sigma_star cot h cos^{n-2}h - 2(n-2) F_n(pi/2 - h) with
  h = alpha/2, the lower bound for the radial derivative of
  boundary-contact harmonic maps;
* ``heinz_schwarz_constant`` evaluates the same number at a = 0 through
  the independent hypergeometric closed form C_m;
* ``schwarz_planar_bound`` is the planar closed form
  s^-(b) = (2/pi) cot(pi (1+b)/4), which D_2 reproduces;
* ``hyperbolic_decay_coefficient`` takes a ``CapSpec`` and is d_n =
  2 sigma_star cot^{n-1}(alpha/2) / (n-1) in (1 - M_c^n(r))/(1-r) ~
  d_n (1-r)^{n-2} for the hyperbolic-harmonic kernel with n > 2, whose
  vanishing boundary derivative is the Hopf lemma counterexample.

A constant below the smallest normal double (2.2e-308) but above 0 is
returned as it is, with fewer digits than the 12 the CLI prints:
D_n(0) and C_n are 6.1e-312 at n = 2060, where the two differ in
their 12th digit, and D_2049(0.5) = 5.7e-317 holds about 7 digits.
Whether such a value should raise or be given as a log is open
(ROADMAP item 6).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AccuracyError, DomainError, _integer
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_rows, kronrod_rule
from .specfn import gauss_2f1_neg1, gauss_2f1_neg1_series, sigma_star

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
]

_ANGLE_TOL = 1e-13
_NEWTON_STEPS = 100
_FRACTION_TERMS = 200
_TINY = 1e-300
_LOG_MAX = math.log(sys.float_info.max)
_ROUNDING = 50.0 * sys.float_info.epsilon  # the engine's floor on an error estimate, QUADPACK's 50 epmach
# the image rule of the harmonic tails: K21 on 2, then on 3 equal panels of [0, 1], all 105 nodes in one
# pass, with one weight column per sum, zero on the other sum's 42 or 63 nodes
_IMAGE_NODES = np.concatenate((kronrod_rule(2)[0], kronrod_rule(3)[0]))
_IMAGE_WEIGHTS = np.zeros((_IMAGE_NODES.size, 2))
_IMAGE_WEIGHTS[:42, 0], _IMAGE_WEIGHTS[42:, 1] = kronrod_rule(2)[1], kronrod_rule(3)[1]


class KernelKind(Enum):
    """Selects the reproducing kernel: Euclidean harmonic or hyperbolic-harmonic.

    On the axis both reduce to the polar angle t (``kernel``), and
    sigma_star(n) times that integrates to 1 over [0, pi] at every r.
    ``zonal_extension_on_axis`` integrates sigma_star (profile - p*) times
    it, p* the profile at the peak, so its tolerance bounds h - p*.
    """

    HARMONIC = "harmonic"
    HYPERBOLIC_HARMONIC = "hyperbolic"

    def kernel(self, n: int, r, t: np.ndarray) -> np.ndarray:
        """The kernel at r times the axis over the polar angle t, for a radius or a column of radii r.

        It is sin^{n-2}t (1-r^2)^nu / (1 - 2r cos t + r^2)^mu, with (nu, mu)
        = (1, n/2) for the harmonic kernel and (n-1, n-1) for the
        hyperbolic one, taken as base^{n-2} q: the squared distance is
        d = (1-|r|)^2 + 4|r| sin^2((t-p)/2), with the peak p = pi for
        r < 0 and 0 otherwise (-0.0 included), q = (1-r^2)/d, and base =
        sin t / sqrt(d) (harmonic) or sin t q (hyperbolic).  Both bases are
        at most 1 and d does not cancel, so no power overflows at any n.
        """
        return _axis_kernel(self, n, np.abs(r), np.where(r < 0.0, math.pi, 0.0), t)


def _axis_kernel(kind: KernelKind, n: int, rho, peak, t: np.ndarray) -> np.ndarray:
    """``KernelKind.kernel`` at |r| = rho with its peak angle p already taken."""
    d = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * (t - peak)) ** 2
    q = (1.0 - rho) * (1.0 + rho) / d
    base = np.sin(t) * (q if kind is KernelKind.HYPERBOLIC_HARMONIC else 1.0 / np.sqrt(d))
    return base ** (n - 2) * q


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * fraction.

    DLMF 8.17.22, summed by the modified Lentz method (Numerical Recipes
    6.4, ``betacf``); it converges fast for x < (a+1)/(a+b+2).
    """
    ab = a + b
    c, d = 1.0, 1.0 / (1.0 - ab * x / (a + 1.0))
    value = d
    for m in range(1, _FRACTION_TERMS + 1):
        a2m = a + 2 * m
        # the even step d_2m, then the odd step d_2m+1, of the fraction
        coef = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / ((1.0 + coef * d) or _TINY)
        c = (1.0 + coef / c) or _TINY
        value *= c * d
        coef = -(a + m) * (ab + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / ((1.0 + coef * d) or _TINY)
        c = (1.0 + coef / c) or _TINY
        step = c * d
        value *= step
        if abs(step - 1.0) <= 2.0**-52:  # one unit in the last place of 1
            return value
    raise AccuracyError(f"incomplete-beta fraction for a={a!r}, b={b!r}, x={x!r} did not converge")


def cap_measure_from_angle(n: int, alpha: float) -> float:
    """Normalized measure F_n(alpha) of a polar cap of half-angle alpha.

    F_n(alpha) = I_{sin^2 alpha}((n-1)/2, 1/2) / 2 for alpha <= pi/2, with
    1/B((n-1)/2, 1/2) = sigma_star(n), and 1 - F_n(pi - alpha) beyond.
    """
    n = _integer(n)
    return _cap_measure(n, sigma_star(n), alpha)


def _cap_measure(n: int, star: float, alpha: float) -> float:
    """F_n(alpha) for an integer n >= 2 with star = sigma_star(n); an alpha
    outside [0, pi] raises ``DomainError``.

    The one measure kernel of this module: ``cap_measure_from_angle``, the
    Newton steps of ``cap_angle_from_measure`` and the closed-form tails
    all call it, n checked and sigma_star(n) looked up once per call.
    """
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"cap angle must lie in [0, pi], got {alpha!r}")
    if alpha > 0.5 * math.pi:
        return 1.0 - _cap_measure(n, star, math.pi - alpha)
    sin, cos = math.sin(alpha), math.cos(alpha)
    scale = star * sin ** (n - 1) * cos
    if sin * sin < (n + 1.0) / (n + 4.0):
        return scale * _beta_fraction(0.5 * (n - 1), 0.5, sin * sin) / (n - 1)
    return 0.5 - scale * _beta_fraction(0.5, 0.5 * (n - 1), cos * cos)


def cap_angle_from_measure(n: int, c: float) -> float:
    """Invert the cap measure for the half-angle alpha(c), the inverse of
    ``cap_measure_from_angle``.

    The measure F(alpha) = sigma_star(n) int_0^alpha sin^{n-2}t dt has
    slope sigma_star(n) sin^{n-2} alpha, which does not decrease on
    [0, pi/2], so F is increasing and convex there (linear at n = 2,
    where the first step is exact); F(pi/2) = 1/2 and F(pi - alpha) =
    1 - F(alpha).  Newton for c' = min(c, 1 - c) therefore starts at
    pi/2, right of the root, and every step lands between the root and
    the previous iterate: no bracket is needed, and the returned angle
    measures within its last residual of c.  The first residual is
    1/2 - c' rounded once (exact for c' >= 1/4; c = 1/2 returns pi/2
    exactly).  Iteration stops at a step of at most 1e-13 and at most
    1e-13 times the new angle.  The relative part keeps the digits of a
    tiny cap, whose angle may lie below 1e-13 (2e-14 at n = 3, c =
    1e-28).  c > 1/2 returns pi minus the angle for 1 - c.  A non-positive
    slope, or 100 steps without convergence (at n = 3, where a step about
    halves a small angle, a c' below about 1e-57), raises
    ``AccuracyError``; an angle outside (0, pi] raises ``DomainError``.
    """
    n = _integer(n)
    if not 0.0 < c < 1.0:
        raise DomainError(f"cap measure must lie in (0, 1), got {c!r}")
    star = sigma_star(n)
    target = min(c, 1.0 - c)
    alpha = 0.5 * math.pi
    resid = 0.5 - target
    for _ in range(_NEWTON_STEPS):
        slope = star * math.sin(alpha) ** (n - 2)
        if not slope > 0.0:
            raise AccuracyError(f"cap angle for n={n}, c={c!r}: measure slope vanished at {alpha!r}")
        step = resid / slope
        alpha -= step
        if abs(step) <= _ANGLE_TOL and abs(step) <= _ANGLE_TOL * alpha:
            if c > 0.5:
                alpha = math.pi - alpha
            if not 0.0 < alpha <= math.pi:
                raise DomainError(f"cap angle must lie in (0, pi], got {alpha!r}")
            return alpha
        resid = _cap_measure(n, star, alpha) - target
    raise AccuracyError(
        f"cap angle for n={n}, c={c!r} did not converge in {_NEWTON_STEPS} Newton steps", estimate=alpha
    )


@dataclass(frozen=True)
class CapSpec:
    """A polar cap of dimension n and normalized measure c in (0, 1].

    The half-angle ``alpha`` is derived, not given: ``cap_angle_from_measure``
    of (n, c), and pi at ``c = 1`` (the full sphere), which is admitted so
    degenerate envelopes evaluate to the constant 1.
    """

    n: int
    c: float
    alpha: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n))
        if not 0.0 < self.c <= 1.0:
            raise DomainError(f"cap measure must lie in (0, 1], got {self.c!r}")
        object.__setattr__(self, "alpha", math.pi if self.c == 1.0 else cap_angle_from_measure(self.n, self.c))


def _radii(r, inside: Callable[[float], bool] = lambda x: -1.0 < x < 1.0,
           refusal: str = "radius must satisfy |r| < 1") -> list[float]:
    """A radius or 1-D array of radii as a list of floats, each ``inside``.

    The first radius that is not raises ``DomainError`` with the text
    ``refusal``, naming it; an array of more dimensions raises, naming its
    shape.  By default a radius is checked for |r| < 1: negative radii are
    the analytic continuation of the radial profile along the axis, and
    central differences at r = 0 rely on them.
    """
    shape = () if isinstance(r, (int, float)) else np.shape(r)
    if len(shape) > 1:
        raise DomainError(f"radii must be a radius or a 1-D array, got shape {shape}")
    radii = [float(x) for x in r] if shape else [float(r)]
    for x in radii:
        if not inside(x):
            raise DomainError(f"{refusal}, got {x!r}")
    return radii


def _shaped(values, r) -> float | np.ndarray:
    """Values, one per radius of r, as a float for a single radius and as an array for an array of radii."""
    if isinstance(r, (int, float)) or not isinstance(r, (list, tuple)) and np.ndim(r) == 0:
        return float(values[0])
    return np.asarray(values)  # a list or tuple is never a single radius, and np.ndim would copy it


def envelope_upper(
    kind: KernelKind,
    cap: CapSpec,
    r: float | np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Upper envelope M_c^n(r): the cap-indicator extension along its axis.

    ``r`` is a radius or a 1-D array of radii in (-1, 1); an array returns
    the array of values, each with the bits of its own radius alone, the
    harmonic tails taken in one pass of the image rule.  This is the one
    envelope kernel: the lower
    envelope is its reflection m_c^n(r) = M_c^n(-r).  A radius whose sign
    bit is clear lies on the peak's side of the cap and gives
    1 - (1-|r|) T_alpha(|r|); one whose sign bit is set, -0.0 included,
    gives (1-|r|) T_{pi-alpha}(|r|) - 1.  The two tails agree at r = 0 only
    to rounding, so M(-0.0) = m(+0.0) may differ from M(+0.0) in its last
    bits.  The full cap (alpha = pi) gives 1: its data is 1
    everywhere, and its arc would contain the peak.
    """
    radii = _radii(r)
    if cap.alpha >= math.pi:
        return _shaped([1.0] * len(radii), r)
    own = [math.copysign(1.0, x) > 0.0 for x in radii]
    rho = [abs(x) for x in radii]
    tails = _tail_quotient(kind, cap.n, [cap.alpha if o else math.pi - cap.alpha for o in own], rho, config)
    return _shaped([1.0 - (1.0 - x) * t if o else (1.0 - x) * t - 1.0 for o, x, t in zip(own, rho, tails)], r)


def envelope_lower(
    kind: KernelKind,
    cap: CapSpec,
    r: float | np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Lower envelope m_c^n(r) = M_c^n(-r): the antipodal cap-indicator extension.

    ``r`` is a radius or a 1-D array of radii in (-1, 1), checked before
    it is reflected, so a refusal names the caller's radius; an array
    returns the array of values.
    """
    return _shaped(envelope_upper(kind, cap, [-x for x in _radii(r)], config), r)


def boundary_difference_quotient(
    kind: KernelKind,
    cap: CapSpec,
    r: float | np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """T(r) = (1 - M_c^n(r)) / (1 - r) on 0 <= r <= 1, the sphere included.

    ``r`` is a radius or a 1-D array of radii; an array returns the array
    of values, each with the bits of its own radius alone.

    1 - M is twice the extension of the complement-cap indicator, so

        harmonic:    T(r) = 2 sigma_star (1+r) int_alpha^pi sin^{n-2}t (1 - 2r cos t + r^2)^{-n/2} dt,

    which stays finite up to r = 1 because the kernel peak at t = 0 is
    left out.  The ball automorphism that swaps r e and 0 maps -e to +e
    and the complement cap {t >= alpha} onto the cap of half-angle
    2 arctan q about +e, q = (1-r) / ((1+r) tan(alpha/2)).  Its boundary
    Jacobian is the hyperbolic Poisson kernel, so the cap's hyperbolic
    harmonic measure is the cap measure F_n of its image (Stoll, Harmonic
    and Subharmonic Function Theory on the Hyperbolic Ball, ch. 5):

        hyperbolic:  T(r) = 2 F_n(2 arctan q) / (1-r).

    At n = 2 the two kernels coincide and both take this closed form.  It
    is 0/0 at r = 1, where T takes its limit: 2 cot(alpha/2) / pi at n = 2
    and 0 for n > 2, where T ~ d_n (1-r)^{n-2}.  The harmonic T is the
    same image cap under a weight, integrated by the fixed rule of
    ``_tail_quotient``, which needs no limit at r = 1.  Below r = 1, a complement
    measure (1-r) T / 2 under the smallest normal double has lost its
    digits (hyperbolic, from n = 74 at c = 1/2 and r = 1 - 2^-14):
    ``DomainError``.

    ``config`` is the tolerance of the harmonic T: the error estimate of
    each value meets max(abs_tol, rel_tol T), so M and m meet (1-r) times
    it.  Where abs_tol dominates, the estimate may be loose, yet the
    fixed rule lies far inside it: at n = 128, c = 1/2, r = 0.95, T is
    3.6e-19, and at the default tolerances it is 2.0e-14 relative off a
    50-digit mpmath quadrature.  The closed forms do not read ``config``.
    """
    radii = _radii(r, lambda x: 0.0 <= x <= 1.0, "difference quotient needs 0 <= r <= 1")
    if cap.alpha >= math.pi:  # the full cap has no complement: T = 0
        return _shaped([0.0] * len(radii), r)
    values = _tail_quotient(kind, cap.n, [cap.alpha] * len(radii), radii, config)
    for x, value in zip(radii, values):  # the first radius whose complement measure underflowed
        if x < 1.0 and not 0.5 * (1.0 - x) * value >= sys.float_info.min:
            raise DomainError(f"T(r) for n={cap.n}, c={cap.c!r} at r={x!r} is {value!r}: "
                              f"its complement measure is below the normal doubles")
    return _shaped(values, r)


def _tail_quotient(kind: KernelKind, n: int, alpha: list[float], r: Sequence[float],
                   config: QuadratureConfig) -> list[float]:
    """T(r) for caps of half-angle alpha, 0 <= r <= 1, over lists of (alpha, r) pairs.

    sigma_star(n) is looked up once.  The hyperbolic and planar tails, and
    every tail at r = 0, where the two kernels coincide, take the closed
    form.  The other harmonic tails take the Moebius image of their arc:
    the automorphism of ``boundary_difference_quotient`` takes [alpha, pi]
    onto [0, theta], tan(theta/2) = q, and the harmonic kernel onto the
    weight B^{(n-2)/2}, B = sin^2 s / ((1-r)^2 + 4r sin^2(s/2)), so that
    T = 2 sigma_star int_0^theta B^{(n-2)/2} ds / (1-r).  B rises over a
    layer s ~ 1-r, which tan(s/2) = beta sinh u, beta = (1-r)/(1+r),
    spreads out: the denominator becomes (1-r)^2 cosh^2 u / (1 + beta^2
    sinh^2 u), the arc ends at u = U = asinh(cot(alpha/2)) at every r,
    and with u = U v

        T(r) = (4 sigma_star U / (1+r)) int_0^1 cosh(Uv) B^{(n-2)/2} / (1 + beta^2 sinh^2(Uv)) dv,
        B = (2 tanh(Uv) / (1+r))^2 / (1 + beta^2 sinh^2(Uv)).

    B <= 1, since 4x(1-x) <= (1-r)^2 + 4rx is (2x - (1-r))^2 >= 0 for
    x = sin^2(s/2): no power overflows at any n.  The integrand is
    analytic on [0, 1], and r = 1 (beta = 0) gives the limit D_n(a) with
    no special case.  At r = 0 it would serve too, but its weight narrows
    like n^{-1/2} there, and the closed form is exact at every n.

    All those pairs take one numpy pass of the engine's K21 rule on 2
    and on 3 equal panels of [0, 1].  A row's value is the 3-panel sum,
    summed as its own 1 x k product so that its bits do not depend on the
    other rows, and its error estimate is |K2 - K3|, never below 50
    machine epsilons of T.  The rows whose estimate misses max(abs_tol,
    rel_tol T) continue on the same integrand in one ``integrate_rows``
    call, which refines them or raises ``AccuracyError``.  Tiny caps miss
    (c = 1e-12 at n = 4): U is long there, and the integrand falls off
    long before the arc ends.
    """
    star = sigma_star(n)
    if kind is KernelKind.HYPERBOLIC_HARMONIC or n == 2:
        return [_closed_form_tail(n, star, a, x) for a, x in zip(alpha, r)]
    tails = [_closed_form_tail(n, star, a, 0.0) if x == 0.0 else math.nan for a, x in zip(alpha, r)]
    rows = [j for j, x in enumerate(r) if x > 0.0]
    image = _image_integrand(n, star, np.array([alpha[j] for j in rows]), np.array([r[j] for j in rows]))
    coarse, fine = (image(_IMAGE_NODES)[:, None] @ _IMAGE_WEIGHTS)[:, 0].T.tolist()
    missed = []
    for j, k2, k3 in zip(rows, coarse, fine):
        tails[j] = k3
        if not max(abs(k2 - k3), _ROUNDING * k3) <= max(config.abs_tol, config.rel_tol * k3):
            missed.append(j)
    if missed:
        image = _image_integrand(n, star, np.array([alpha[j] for j in missed]), np.array([r[j] for j in missed]))
        for j, tail in zip(missed, integrate_rows(image, 0.0, 1.0, config).tolist()):
            tails[j] = tail
    return tails


def _image_integrand(n: int, star: float, alpha: np.ndarray, r: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand over v in [0, 1] of the harmonic T at each (alpha, r) pair, one row per pair
    (``_tail_quotient``)."""
    top = np.arcsinh(1.0 / np.tan(0.5 * alpha))[:, None]
    scale = 4.0 * star * top / (1.0 + r)[:, None]
    beta, lead = ((1.0 - r) / (1.0 + r))[:, None], (2.0 / (1.0 + r))[:, None]

    def image(v: np.ndarray) -> np.ndarray:
        u = top * v
        sinh, cosh = np.sinh(u), np.cosh(u)
        spread = 1.0 + (beta * sinh) ** 2
        return scale * cosh * ((lead * sinh / cosh) ** 2 / spread) ** (0.5 * (n - 2)) / spread

    return image


def _closed_form_tail(n: int, star: float, alpha: float, r: float) -> float:
    """T(r) of the hyperbolic kernel, and of the planar one, where the two kernels coincide;
    star is sigma_star(n)."""
    if r == 1.0:
        return 2.0 / (math.pi * math.tan(0.5 * alpha)) if n == 2 else 0.0
    q = (1.0 - r) / ((1.0 + r) * math.tan(0.5 * alpha))
    return 2.0 * _cap_measure(n, star, 2.0 * math.atan(q)) / (1.0 - r)


def _positive_double(value: float, what: str) -> float:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} is {value!r}, not a positive finite double")
    return value


def boundary_derivative_harmonic(n: int, a: float) -> float:
    """Sharp radial-derivative constant D_n(a) for harmonic boundary contact.

    For the harmonic envelope with cap measure c = (1+a)/2 and h = alpha(c)/2,

        D_n(a) = dM_c^n/dr |_{r=1}
               = 2^{2-n} sigma_star(n) int_{alpha(c)}^pi sin^{n-2}t / sin^n(t/2) dt
               = 2 sigma_star(n) cot h cos^{n-2}h - 2(n-2) F_n(pi/2 - h)

    by parts.  The two terms cancel by a factor of about n/2, so where
    the fraction for F_n(pi/2 - h) runs in cos^2 h the common factor
    t = 2 sigma_star cos^{n-1}h / sin h is taken out and assembled in
    logs.  Past about n = 2050 at a = 0, D_n underflows: ``DomainError``.
    """
    n = _integer(n)
    if not -1.0 < a < 1.0:
        raise DomainError(f"base value must lie in (-1, 1), got {a!r}")
    h = 0.5 * cap_angle_from_measure(n, 0.5 * (1.0 + a))
    star = sigma_star(n)
    sin, cos = math.sin(h), math.cos(h)
    log_t = math.log(2.0 * star) + (n - 1) * math.log(cos) - math.log(sin)
    if cos * cos < (n + 1.0) / (n + 4.0):
        rho = (n - 2) / (n - 1) * sin * sin * _beta_fraction(0.5 * (n - 1), 0.5, cos * cos)
        value = math.exp(log_t + math.log(1.0 - rho))
    else:
        value = math.exp(log_t) - 2.0 * (n - 2) * _cap_measure(n, star, 0.5 * math.pi - h)
    return _positive_double(value, f"D_n(a) for n={n}, a={a!r}")


def heinz_schwarz_constant(m: int, oracle: bool = False) -> float:
    """Sharp constant C_m for origin-fixing harmonic maps, hypergeometric form.

    C_m = m! (1 + m - (m-2) 2F1[1/2, 1; (3+m)/2; -1])
          / (2^{3m/2} Gamma((1+m)/2) Gamma((3+m)/2)).

    Agrees with ``boundary_derivative_harmonic(m, 0)``; the two formulas
    share no code, which is exactly why both exist.  ``oracle=True``
    routes the hypergeometric value through the brute-force alternating
    series instead of the transformed one.
    """
    m = _integer(m)
    if oracle:
        f_val = gauss_2f1_neg1_series(0.5, 1.0, 0.5 * (3 + m))
    else:
        f_val = gauss_2f1_neg1(0.5, 1.0, 0.5 * (3 + m))
    prefactor = math.exp(
        math.lgamma(m + 1.0)
        - 1.5 * m * math.log(2.0)
        - math.lgamma(0.5 * (1 + m))
        - math.lgamma(0.5 * (3 + m))
    )
    return _positive_double(prefactor * (1.0 + m - (m - 2) * f_val), f"C_m for m={m}")


def schwarz_planar_bound(b: float) -> float:
    """Planar sharp bound s^-(b) = (2/pi) cot(pi (1+b)/4), decreasing in b."""
    if not -1.0 < b < 1.0:
        raise DomainError(f"base value must lie in (-1, 1), got {b!r}")
    return (2.0 / math.pi) / math.tan(0.25 * math.pi * (1.0 + b))


def hyperbolic_decay_coefficient(cap: CapSpec) -> float:
    """Coefficient d_n in T(r) ~ d_n (1-r)^{n-2} for the hyperbolic kernel and the cap.

    As r -> 1 the closed form T(r) = 2 F_n(2 arctan q) / (1-r) of
    ``boundary_difference_quotient`` has q ~ (1-r) cot(alpha/2) / 2 -> 0,
    and F_n(theta) ~ sigma_star theta^{n-1} / (n-1) as theta -> 0, so

        d_n = 2 sigma_star(n) cot^{n-1}(alpha/2) / (n-1),

    evaluated in logs from the cap's own angle.  Defined for n > 2 only:
    at n = 2 the hyperbolic-harmonic class coincides with the harmonic
    one and the decay exponent degenerates; the full cap c = 1 has T = 0.
    """
    _integer(cap.n, least=3)
    if cap.c == 1.0:
        raise DomainError(f"cap measure must lie in (0, 1), got {cap.c!r}")
    log_d = math.log(2.0 * sigma_star(cap.n) / (cap.n - 1)) - (cap.n - 1) * math.log(math.tan(0.5 * cap.alpha))
    return _positive_double(math.exp(log_d) if log_d <= _LOG_MAX else math.inf, f"d_n for n={cap.n}, c={cap.c!r}")


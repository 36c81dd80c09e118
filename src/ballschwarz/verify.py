"""End-to-end checks of the sharp boundary inequalities.

Each check builds an explicit harmonic or pluriharmonic map, measures
the quantity an inequality or identity of the paper is about (always
through a code path independent of the bound itself), and returns one
:class:`MarginReport`: the measured value, the bound, and the relation
between them.  The sharp inequalities are ``">="`` rows (the boundary
derivative lambda >= D_n(a) or s^-(a)) and ``"<="`` rows (|f| <=
M_{1/2}^n, m_c^n <= h <= M_c^n); the values the extremal maps attain
are ``"=="`` rows.  A row passes when its relation holds within its
tolerance and every named side condition in ``checks`` holds.  The
extremal constructions sit at margin ~ 0: the bounds are sharp, and
reproducing that sharpness numerically is the strongest evidence the
constants are right.

The hemisphere-majorant row evaluates the extensions of its random maps
exactly, from the Gegenbauer series of their plane waves, and holds each
series against its map on the sphere; the tests hold the series against
Monte Carlo, which the package does not ship.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .disc import DiscCapExtremal, arc_extension
from .envelope import (
    CapSpec,
    KernelKind,
    _radii,
    _shaped,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    envelope_rows,
    envelope_upper,
    heinz_schwarz_constant,
    hyperbolic_decay_coefficient,
    schwarz_planar_bound,
)
from .errors import AccuracyError, DomainError, _base_value, _integer, _unit
from .hilbert_ball import (
    MobiusParams,
    RealLinearMap,
    boundary_lambda,
    inner,
    mobius_derivative_adjoint,
    mobius_map,
)
from .poisson import (
    ZonalBoundaryData,
    radial_derivative_estimate,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, kronrod_rule
from .specfn import sigma_star

__all__ = [
    "DEFAULT_SEED",
    "MarginReport",
    "ContactTestCase",
    "zonal_contact_case",
    "build_cap_extremal",
    "check_boundary_bound",
    "check_envelope_sandwich",
    "check_planar_bound",
    "check_mobius_precomposition",
    "check_hemisphere_majorant",
    "HopfScanResult",
    "hopf_failure_scan",
    "majorant_radial_slope",
    "check_V_monotone",
    "default_verification_suite",
]

DEFAULT_SEED = 20101

_ON_AXIS_TOL = 1e-13
_DERIVATIVE_TOL = 1e-6  # rows whose measured value is a finite-difference derivative
_SLOPE_STEP = 1e-4  # central-difference step of the majorant slope
_MAP_COMPONENTS = 3  # plane waves mixed into one random boundary map
_HOPF_RADII = tuple(1.0 - 2.0 ** (-k) for k in range(4, 15))
_MAX_SERIES_TERMS = 20_000  # Gegenbauer terms of one off-axis value: |x| up to about 0.998
_PLANE_WAVE_TERMS = 40  # Gegenbauer degrees 0..39 of one plane wave; for f < 4 the tail is below 1e-30 up to n = 32
_PLANE_WAVE_PANELS = 6  # K21 panels on [0, pi] of the plane-wave coefficient integrals
_BOUNDARY_PROBES = 64  # fixed sphere points on which each map's series is held against the map
_BOUNDARY_TOL = 1e-12  # largest |series - map| on those points that the row's side check allows


@dataclass(frozen=True)
class MarginReport:
    """One verification row: a measured value ``lam`` held against ``bound``.

    ``relation`` is ``">="`` (a lower bound on ``lam``), ``"<="`` (an
    upper bound) or ``"=="`` (a value the extremal maps attain).
    ``margin`` is the signed slack of that relation, ``lam - bound`` for
    ``">="`` and ``"=="`` and ``bound - lam`` for ``"<="``.  ``passed``
    means the relation holds within ``tolerance`` (``margin >=
    -tolerance``, or ``|margin| <= tolerance`` for ``"=="``) and every
    named side condition in ``checks`` is true.  Both are derived from
    the stored numbers, so no report can claim a pass they contradict.
    """

    case: str
    lam: float
    bound: float
    tolerance: float
    relation: str
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.relation not in (">=", "<=", "=="):
            raise DomainError(f"relation must be '>=', '<=' or '==', got {self.relation!r}")

    @property
    def margin(self) -> float:
        return self.bound - self.lam if self.relation == "<=" else self.lam - self.bound

    @property
    def passed(self) -> bool:
        if self.relation == "==":
            holds = abs(self.margin) <= self.tolerance
        else:
            holds = self.margin >= -self.tolerance
        return bool(holds and all(self.checks.values()))


@dataclass(frozen=True)
class ContactTestCase:
    """A map of the ball with boundary contact, ready for derivative checks.

    ``f`` evaluates the map at interior points, ``x0`` is the boundary
    contact point with target value ``y0``, and ``a = <f(0), y0>``
    parametrizes which envelope squeezes the section <f, y0>.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    y0: np.ndarray
    a: float
    case_id: str

    def __post_init__(self):
        object.__setattr__(self, "x0", _unit(np.asarray(self.x0, dtype=float), "contact point x0"))
        object.__setattr__(self, "y0", _unit(np.asarray(self.y0, dtype=float), "target point y0"))
        _base_value(self.a)

    def radial_section(self, r: float | np.ndarray) -> float | np.ndarray:
        """<f(r x0), y0>, the scalar section whose boundary slope is checked.

        ``r`` is a radius, which gives a float, or a 1-D array of radii, which
        gives the array of sections: ``radial_derivative_estimate`` hands over
        its whole ladder of radii at once.  Each radius must satisfy |r| < 1,
        the rule of the envelopes and of ``zonal_extension_on_axis``.  A
        general case calls ``f`` radius by radius; a zonal case
        (``zonal_contact_case``) takes the whole array in one on-axis
        quadrature, each radius with the bits of its ``f``.
        """
        return _shaped(self._sections(_radii(r)), r)

    def _sections(self, radii: list[float]) -> list[float]:
        return [float(np.dot(self.f(t * self.x0), self.y0)) for t in radii]


@dataclass(frozen=True)
class _ZonalContactCase(ContactTestCase):
    """A contact case of zonal data whose contact point ``x0`` is the data's axis."""

    data: ZonalBoundaryData = field(repr=False)
    config: QuadratureConfig = field(repr=False)

    def _sections(self, radii: list[float]) -> np.ndarray:
        # every t x0 lies on the axis, where f is the extension at the signed radius of t x0 times
        # y0 = e_1: its section is that value, and the ladder's radii are rows of one quadrature
        along = [math.copysign(*_polar(self.data, t * self.x0)) for t in radii]
        return zonal_extension_on_axis(KernelKind.HARMONIC, self.data, np.array(along), self.config)


def _polar(data: ZonalBoundaryData, x: np.ndarray) -> tuple[float, float]:
    """|x| and cos psi, psi the angle from the axis to x, for a point of the open ball.

    A point within 1e-14 of the centre is the centre, (0.0, 1.0).  Raises
    :class:`DomainError` unless ``x`` has shape (n,) and |x| < 1.
    """
    x = np.asarray(x, dtype=float)
    n = data.n
    if x.shape != (n,):
        raise DomainError(f"zonal evaluation point must have shape ({n},) for n={n}, got {x.shape}")
    r = float(np.linalg.norm(x))
    if not r < 1.0:
        raise DomainError("zonal evaluation point must lie inside the ball")
    if r < 1e-14:
        return 0.0, 1.0
    return r, min(1.0, max(-1.0, float(np.dot(x, data.axis)) / r))


def _zonal_value(
    data: ZonalBoundaryData,
    x: np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Harmonic extension of zonal data at an arbitrary interior point.

    On the axis this is the 1-D reduction (negative radii reach the
    antipodal ray), for any profile.  Off it the profile must be a step
    function, levels l_j between edges 0 = t_0 < ... < t_J = pi, and the
    value is closed-form: for n = 2 the harmonic measures of the arcs
    +-[t_j, t_{j+1}]; for n >= 3, with lambda = (n-2)/2, rho = |x| and psi
    the angle to the axis, the zonal-harmonic expansion of the Poisson
    kernel with Funk-Hecke, where (1-x^2)^{lambda+1/2} C_{k-1}^{lambda+1}(x)
    integrates C_k^lambda(x) (1-x^2)^{lambda-1/2} up to a constant (DLMF 18.9),

        u = sum_j l_j (F_n(t_{j+1}) - F_n(t_j)) + sigma_star sum_i (l_{i-1} - l_i)
            sin^{n-1}t_i sum_{k>=1} rho^k 2(k+lambda)/(k(k+2 lambda))
            C_k^lambda(cos psi)/C_k^lambda(1) C_{k-1}^{lambda+1}(cos t_i),

    summed over K = ceil(ln(1e-17)/ln rho) + 60 terms.  Everything that
    depends on the data alone (the levels, the first sum, the edge weights
    and cosines, sigma_star, the arcs of n = 2) comes from the data's
    ``_step_series``, computed on its first off-axis point.  Per point,
    C_k^lambda(cos psi)/C_k^lambda(1) and each edge's C_{k-1}^{lambda+1}(cos t_i)
    are one three-term recurrence each, and the coefficients, terms and
    sums are numpy arrays.  The sums are ``np.add.accumulate``, which adds
    term after term like a Python loop, and rho^k is a running product:
    ``np.sum`` (pairwise), compensated sums or ``rho**k`` would round
    differently, and every value and refusal keeps the bits of the plain
    term-by-term loop.  Raises :class:`AccuracyError` when K passes
    _MAX_SERIES_TERMS or the sum's rounding and tail bound passes
    ``config.abs_tol`` (near the axis or an edge from about n = 12 on,
    where the terms cancel), and :class:`DomainError` unless ``x`` has
    shape (n,).
    """
    n = data.n
    r, cos_psi = _polar(data, x)
    if abs(cos_psi) >= 1.0 - _ON_AXIS_TOL:  # the centre too, at radius 0.0
        return zonal_extension_on_axis(KernelKind.HARMONIC, data, math.copysign(r, cos_psi), config)

    step = data._step_series
    if n == 2:
        z = complex(r * cos_psi, r * math.sqrt(1.0 - cos_psi * cos_psi))
        return sum(level * (arc_extension(z, lo, hi) + arc_extension(z, -hi, -lo)) for level, lo, hi in step.arcs)
    terms = math.ceil(math.log(1e-17) / math.log(r)) + 60
    if terms > _MAX_SERIES_TERMS:
        raise AccuracyError(f"off-axis series at |x|={r!r} needs K={terms} terms, past {_MAX_SERIES_TERMS}")
    lam = 0.5 * (n - 2)
    # per-k factors, all exact: k, k + lambda, k + 2 lambda, and 2(k + lambda) for the steps k = 1..K-1
    k = np.arange(1.0, terms + 1.0)
    half, shift = k + lam, k + 2.0 * lam
    rise, ks, shifts = 2.0 * half[:-1], k[:-1].tolist(), shift[:-1].tolist()
    c_prev, c_cur, ratios = 1.0, cos_psi, [cos_psi]
    for a, k_, b in zip((rise * cos_psi).tolist(), ks, shifts):  # C_k^lam(cos psi)/C_k^lam(1)
        c_prev, c_cur = c_cur, (a * c_cur - k_ * c_prev) / b
        ratios.append(c_cur)
    # rho^k as a running product, then each coefficient in the order of the scalar expression
    coefs = np.multiply.accumulate(np.full(terms, r)) * 2.0 * half / (k * shift) * np.fromiter(ratios, float, terms)
    series, bound = 0.0, 0.0
    for weight, cos_t in step.edges:
        d_prev, d_cur, gegenbauer = 0.0, 1.0, [1.0]
        for a, b, k_ in zip((rise * cos_t).tolist(), shifts, ks):  # C_{k-1}^{lam+1}(cos t)
            d_prev, d_cur = d_cur, (a * d_cur - b * d_prev) / k_
            gegenbauer.append(d_cur)
        term = coefs * np.fromiter(gegenbauer, float, terms)
        series += weight * np.add.accumulate(term)[-1]
        # rounding of the sum, plus the tail past K as a geometric series from its last term
        bound += abs(weight) * (2.0**-52 * np.add.accumulate(np.abs(term))[-1] + abs(term[-1]) / (1.0 - r))
    value = step.base + step.star * series
    if not step.star * bound <= config.abs_tol:
        raise AccuracyError(f"off-axis series at |x|={r!r}, n={n} is only good to {step.star * bound:.3g}, "
                            f"past abs_tol={config.abs_tol!r}", value)
    return value


def zonal_contact_case(
    n: int,
    m: int,
    profile: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    case_id: str,
    axis: np.ndarray | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> ContactTestCase:
    """Contact case from zonal boundary data that is identically 1 near its axis.

    The harmonic extension of such data extends continuously (indeed
    smoothly) to the contact point ``axis`` with value 1, which is the
    differentiability hypothesis the boundary-derivative checks need.
    The map takes its values along y0 = e_1 of R^m.  The contact point
    lies on the axis, so the radial section over a ladder of radii is one
    ``zonal_extension_on_axis`` call, each radius a row of one quadrature.
    """
    n, m = _integer(n), _integer(m, "target dimension", 1)
    axis = np.asarray(np.eye(1, n)[0] if axis is None else axis, dtype=float)
    y0 = np.eye(1, m)[0]
    data = ZonalBoundaryData(n=n, axis=axis, profile=profile, breakpoints=tuple(breakpoints))
    a = zonal_extension_on_axis(KernelKind.HARMONIC, data, 0.0, config)

    def f(x: np.ndarray) -> np.ndarray:
        return _zonal_value(data, x, config) * y0

    return _ZonalContactCase(n=n, f=f, x0=axis, y0=y0, a=a, case_id=case_id, data=data, config=config)


def build_cap_extremal(
    n: int,
    m: int,
    a: float,
    axis: np.ndarray | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> ContactTestCase:
    """The envelope-extremal contact case: cap-indicator data for c = (1+a)/2.

    Its section along the axis is exactly the upper envelope M_c^n, so
    the measured boundary derivative must reproduce D_n(a); every other
    admissible map with the same base value can only do worse.
    ``check_boundary_bound`` of this case is verified at n = 2, 3 and 4
    (a = -0.5, 0, 0.5; margin below 1e-3 of the bound) and at (n, a) =
    (5, 0.3), (8, 0.3), (16, -0.5), (32, 0.5) and (64, 0), where it
    passes with |margin| <= 1e-9 and the bound is within 1e-12 relative
    of D_n(a) from mpmath ``betainc``.
    """
    _integer(m, "target dimension")
    alpha = cap_angle_from_measure(n, 0.5 * (1.0 + _base_value(a)))

    def profile(t: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(t) <= alpha, 1.0, -1.0)

    return zonal_contact_case(
        n, m, profile, (alpha,),
        case_id=f"cap-extremal n={n} a={a:.6g}",
        axis=axis, config=config,
    )


def check_boundary_bound(case: ContactTestCase) -> MarginReport:
    """Measured radial boundary derivative against the sharp bound D_n(a)."""
    lam = radial_derivative_estimate(case.radial_section, base_step=1e-3)
    bound = boundary_derivative_harmonic(case.n, case.a)
    return MarginReport(case.case_id, lam, bound, _DERIVATIVE_TOL, ">=")


def check_envelope_sandwich(
    kind: KernelKind,
    datas: Sequence[ZonalBoundaryData],
    grid: Sequence[float],
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Largest signed violation of m_c^n <= h <= M_c^n along the axis, over profiles of one dimension.

    The profiles, at least one, share one dimension n, and each one's base value
    a = h(0), refused outside (-1, 1), fixes its c = (1+a)/2; a return
    value at or below quadrature tolerance means the sandwich holds on
    the grid for every profile.  Profile by profile, h at 0 and at the
    grid radii is one quadrature, the side independent of the
    envelopes.  Then one ``envelope_rows`` pass over the grid and its
    negation, m(r) = M(-r), gives M and m of every cap, each with the
    bits of its cap alone: the image rule (harmonic) or closed forms
    (hyperbolic).  So the largest excess of several profiles has the bits
    of the largest one-profile check.
    """
    if not datas:
        raise DomainError("envelope sandwich needs at least one profile, got none")
    radii = np.concatenate(([0.0], np.asarray(grid, dtype=float)))
    sections, caps = [], []
    for data in datas:
        h = zonal_extension_on_axis(kind, data, radii, config)
        sections.append(h[1:])
        caps.append(CapSpec(data.n, 0.5 * (1.0 + _base_value(float(h[0])))))
    both = envelope_rows(kind, caps, np.concatenate((radii[1:], -radii[1:])), config)
    h = np.array(sections)
    return float(np.max(np.maximum(h - both[:, :len(grid)], both[:, len(grid):] - h), initial=-math.inf))


def check_planar_bound(b_values: Sequence[float]) -> list[MarginReport]:
    """Disc extremals against the planar closed form s^-(b).

    For each b the disc cap extremal (data +1 on the arc of normalized
    measure (1+b)/2 centered at 1) is differentiated radially at the
    contact point; the bound is attained there, so each row is an
    equality.  The elementary comparison s^-(b) >= (1-b)/2 is the side
    check ``halfline``.
    """
    reports = []
    for b in b_values:
        b = float(b)
        extremal = DiscCapExtremal(b)
        measured = radial_derivative_estimate(lambda radii: [extremal(complex(r, 0.0)) for r in radii.tolist()])
        bound = schwarz_planar_bound(b)
        reports.append(
            MarginReport(
                f"planar-extremal b={b:.6g}",
                measured,
                bound,
                _DERIVATIVE_TOL,
                "==",
                checks={"halfline": bound >= 0.5 * (1.0 - b) - 1e-12},
                details={"closed_form_error": measured - bound},
            )
        )
    return reports


def check_mobius_precomposition(
    k: int,
    xi: np.ndarray,
    a: float = 0.0,
    z0: np.ndarray | None = None,
) -> MarginReport:
    """Sharpness of the boundary bound under Moebius precomposition.

    Builds the pluriharmonic g(z) = u(<z, p>) w0 from a disc cap
    extremal u with u(0) = a, precomposes with the ball automorphism
    phi_xi (for a = 0 the composition vanishes at xi), and verifies at
    the contact point z0:

    * the measured radial derivative of the composition equals
      lambda mu with mu = (1-|xi|^2)/|1-<z0, xi>|^2 and
      lambda >= s^-(a) (= 2/pi at a = 0), sharply;
    * the real adjoint of the composed derivative sends w0 to a vector
      parallel to z0: the side check ``alignment`` asks for a residual
      below 1e-8.
    """
    params = MobiusParams(np.asarray(xi, dtype=complex))
    if params.k != k:
        raise DomainError(f"xi must have dimension {k}")
    if z0 is None:
        z0 = np.zeros(k, dtype=complex)
        z0[0] = 1.0
    z0 = _unit(np.asarray(z0, dtype=complex), "contact point z0")

    p = mobius_map(params, z0)
    # not params.gap: a 1-D norm without ``axis`` sums in another order than its ``axis=-1`` norm
    mu = (1.0 - float(np.linalg.norm(params.xi)) ** 2) / abs(1.0 - inner(z0, params.xi)) ** 2
    extremal = DiscCapExtremal(a)
    bound = schwarz_planar_bound(a)

    w0 = np.zeros(k, dtype=complex)
    w0[0] = 1.0

    def section(r: float) -> float:
        zeta = inner(mobius_map(params, r * z0), p)
        return extremal(complex(zeta))

    lam_full_measured = radial_derivative_estimate(lambda radii: [section(r) for r in radii.tolist()], base_step=1e-4)

    # Analytic derivative of the composition at z0: the disc extremal has
    # boundary gradient (bound, 0) at its contact point, so
    # Df(z0) h = bound * Re<Dphi h, p> * w0.
    pulled = mobius_derivative_adjoint(params, z0, p)
    Df = RealLinearMap(
        B=0.5 * bound * np.outer(w0, np.conj(pulled)),
        C=0.5 * bound * np.outer(w0, pulled),
    )
    lam_full_analytic, residual = boundary_lambda(Df, z0, w0)

    lam = lam_full_measured / mu
    details = {
        "alignment_residual": residual,
        "mu": mu,
        "measured_vs_analytic": abs(lam_full_measured - lam_full_analytic),
    }
    return MarginReport(
        f"mobius-precomposition k={k} a={a:.6g} |xi|={float(np.linalg.norm(params.xi)):.6g}",
        lam,
        bound,
        _DERIVATIVE_TOL,
        ">=",
        checks={"alignment": residual < 1e-8},
        details=details,
    )


@functools.lru_cache(maxsize=16)
def _plane_wave_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The part of the plane-wave coefficients that depends only on n, built on first use.

    Returns the odd degrees k < ``_PLANE_WAVE_TERMS``; cos theta_j of the engine's K21
    rule on ``_PLANE_WAVE_PANELS`` equal panels of [0, pi] (``kronrod_rule``, the source
    of every fixed rule in the package); the table of
    (-1)^{(k-1)/2} dim H_k sigma_star / (lam+1/2)_k w_j sin^{2k+n-2}(theta_j)
    for those degrees; and dim H_k / (lam+1)_k for the first two odd degrees
    past them, with lam = (n-2)/2 and (.)_k the rising factorial.
    """
    lam = 0.5 * (n - 2)
    degrees = np.arange(1, _PLANE_WAVE_TERMS + 4, 2)
    steps = np.arange(degrees[-1])
    rising_half = np.concatenate([[1.0], np.cumprod(lam + 0.5 + steps)])  # (lam+1/2)_k, k = 0..degrees[-1]
    rising_one = np.concatenate([[1.0], np.cumprod(lam + 1.0 + steps)])
    dims = np.array([math.comb(k + n - 1, n - 1) - math.comb(k + n - 3, n - 1) for k in degrees], dtype=float)
    nodes, weights = kronrod_rule(_PLANE_WAVE_PANELS)
    theta = math.pi * nodes
    kept = degrees[:-2]
    scale = np.where(kept % 4 == 1, 1.0, -1.0) * dims[:-2] * sigma_star(n) / rising_half[kept]
    table = (math.pi * scale)[:, None] * weights * np.sin(theta) ** (2 * kept[:, None] + n - 2)
    rule = (kept, np.cos(theta), table, dims[-2:] / rising_one[degrees[-2:]])
    for array in rule:
        array.setflags(write=False)
    return rule


@dataclass(frozen=True)
class _PlaneWaveMap:
    """The boundary map g(eta) = sum_i sin(f_i <eta, d_i>) a_i and its harmonic extension.

    Rows of ``directions`` are the unit vectors d_i in R^n, ``freqs`` holds
    the f_i and rows of ``amplitudes`` the a_i in R^m.  Leading axes, the
    same on all three, make a stack of maps, each evaluated on its own
    points: every method is elementwise over the stack, so each map gets
    the bits it gets alone.
    """

    directions: np.ndarray
    freqs: np.ndarray
    amplitudes: np.ndarray

    def eval(self, eta: np.ndarray) -> np.ndarray:
        """g at the rows of ``eta``: one sine of the (N, components) phase matrix and one matrix product."""
        return np.sin((eta @ np.swapaxes(self.directions, -1, -2)) * self.freqs[..., None, :]) @ self.amplitudes

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The odd degrees k and the (degrees, components) Gegenbauer coefficients a_{k,i}.

        With lam = (n-2)/2, Gegenbauer's plane-wave expansion (DLMF 10.23)
        and Poisson's integral for J_{k+lam} (DLMF 10.9.4) give
        sin(f t) = sum over odd k of a_k C_k^lam(t)/C_k^lam(1), with

            a_k = (-1)^{(k-1)/2} dim H_k sigma_star (f/2)^k / (lam+1/2)_k
                  int_0^pi cos(f cos theta) sin^{2k+n-2}(theta) dtheta,

        which is (2k+1)(-1)^{(k-1)/2} j_k(f) at n = 3.  The integrand is
        positive where its weight peaks, at pi/2, and the engine's K21 rule
        on 6 equal panels of [0, pi] (126 nodes) gives even the tiny
        high-degree coefficients to within 3.4e-14 relative of scipy's Bessel
        values for f up to 3.99 at every n the tests pin, 2 to 64.  (A 64-node
        Gauss-Legendre rule lost digits on the last degree past n = 16:
        6.3e-13 relative at n = 32, 2.3e-11 at 48 and 3.8e-10 at 64.)  The
        suite uses n = 3.
        """
        degrees, cos_nodes, table, _ = _plane_wave_rule(self.directions.shape[-1])
        freqs = self.freqs[..., None, :]
        return degrees, (table @ np.cos(cos_nodes[:, None] * freqs)) * (0.5 * freqs) ** degrees[:, None]

    def extension(self, x: np.ndarray, config: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Harmonic extension of g at the rows of ``x``, points of the closed ball.

        Each component is zonal about d_i, so by Funk-Hecke it extends as
        sum over odd k of a_{k,i} P_k(x), with the harmonic polynomials
        P_k(x) = |x|^k C_k^lam(<x/|x|, d_i>)/C_k^lam(1) of the recurrence

            P_{k+1} = (2(k+lam) <x, d_i> P_k - k |x|^2 P_{k-1}) / (k + 2 lam),

        summed up to degree ``_PLANE_WAVE_TERMS - 1``, one recurrence for
        the whole stack.  |a_k| is at most b_k = dim H_k (f/2)^k /
        (lam+1)_k, and b_{k+2}/b_k falls with k, so the tail past the last
        degree is at most a geometric series in b.  Raises
        :class:`AccuracyError` when that tail plus the rounding of the sum,
        2^-52 sum |a_k P_k|, weighted by |a_i|, passes ``config.abs_tol``;
        it names the worst point of the first map that misses and carries
        that map's values.
        """
        n = self.directions.shape[-1]
        lam = 0.5 * (n - 2)
        degrees, coefs = self.coefficients()
        *_, tail = _plane_wave_rule(n)
        x = np.asarray(x, dtype=float)
        proj = x @ np.swapaxes(self.directions, -1, -2)
        r2 = np.einsum("...ij,...ij->...i", x, x)[..., None]
        prev, cur = np.ones_like(proj), proj
        total = coefs[..., :1, :] * cur
        size = np.abs(total)
        for k in range(1, int(degrees[-1])):
            prev, cur = cur, (2.0 * (k + lam) * proj * cur - k * r2 * prev) / (k + 2.0 * lam)
            if k % 2 == 0:  # cur is P_{k+1}, of odd degree
                term = coefs[..., k // 2:k // 2 + 1, :] * cur
                total += term
                size += np.abs(term)
        past = int(degrees[-1]) + 2
        half = 0.5 * self.freqs[..., None, :]
        first = tail[0] * half ** past
        ratio = tail[1] * half ** 2 / tail[0]
        falls = ratio < 1.0
        rest = np.where(falls, first * r2 ** (0.5 * past) / (1.0 - r2 * np.where(falls, ratio, 0.0)), np.inf)
        weights = np.linalg.norm(self.amplitudes, axis=-1)[..., None]
        bound = ((2.0**-52 * size + rest) @ weights)[..., 0]
        values = total @ self.amplitudes
        if not np.all(bound <= config.abs_tol):
            # the first map that misses, at its worst point, as that map alone reports it
            bounds, radii = (np.reshape(a, (-1, bound.shape[-1])) for a in (bound, r2))
            stack = int(np.argmax(np.any(~(bounds <= config.abs_tol), axis=1)))
            worst = int(np.argmax(bounds[stack]))
            raise AccuracyError(f"plane-wave series at |x|={math.sqrt(radii[stack, worst])!r}, n={n} is only good "
                                f"to {bounds[stack, worst]:.3g}, past abs_tol={config.abs_tol!r}",
                                np.reshape(values, (-1, *values.shape[-2:]))[stack])
        return values


def check_hemisphere_majorant(
    n: int,
    m: int,
    trials: int,
    seed: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> MarginReport:
    """Worst excess of |f(x)| over M_{1/2}^n(|x|) over random origin-fixing maps.

    Each trial is a random boundary map into the unit ball of R^m and four
    random interior points with |x| in [0.1, 0.85).  A convex-weighted
    mixture of plane-wave profiles times unit target directions,
    sum_i w_i cos(f_i <eta, d_i> + p_i) t_i, stays inside the ball by
    construction.  Its odd part makes the extension f vanish at the
    origin, and since (cos(f u + p) - cos(-f u + p)) / 2 = -sin(p) sin(f u)
    it is the plane-wave map sum_i sin(f_i <eta, d_i>) (-w_i sin p_i) t_i.
    All trials are drawn at once from the Philox stream of ``seed``, as
    seven arrays in this order: the directions d_i (3 per trial, uniform on
    S^{n-1}), the targets t_i (3 per trial, uniform on S^{m-1}), the
    frequencies f_i ~ U[0.5, 4), the phases p_i ~ U[0, 2 pi), the weights
    w_i (Dirichlet(1, 1, 1) per trial, times one U[0.6, 1) scale per
    trial), the radii (4 per trial) and the point directions (4 per trial,
    uniform on S^{n-1}).

    f comes from the exact Gegenbauer series of the plane waves
    (``_PlaneWaveMap.extension``, which raises :class:`AccuracyError`
    rather than return a value it cannot vouch for): one series evaluation
    of the stack of all maps, each at its own points and the sphere
    points, and one envelope call over all 4 ``trials`` radii.  ``lam`` is
    the largest |f(x)| - M_{1/2}^n(|x|), held ``"<="`` against 0 with no
    tolerance.  The side check ``boundary`` holds each map's series against
    the map itself on a fixed set of sphere points, to 1e-12.  ``details``
    gives the number of points, the series terms, the radius of the worst
    point and that boundary residual.
    """
    trials, m = _integer(trials, "trials", 1), _integer(m, "target dimension", 1)
    rng = np.random.Generator(np.random.Philox(seed))
    hemisphere = CapSpec(n, 0.5)
    n = hemisphere.n
    size = (trials, _MAP_COMPONENTS)
    directions = uniform_sphere_samples(rng, trials * _MAP_COMPONENTS, n).reshape(*size, n)
    targets = uniform_sphere_samples(rng, trials * _MAP_COMPONENTS, m).reshape(*size, m)
    freqs = rng.uniform(0.5, 4.0, size)
    phases = rng.uniform(0.0, 2.0 * math.pi, size)
    weights = rng.dirichlet(np.ones(_MAP_COMPONENTS), trials) * rng.uniform(0.6, 1.0, (trials, 1))
    radii = rng.uniform(0.1, 0.85, 4 * trials)
    points = (radii[:, None] * uniform_sphere_samples(rng, 4 * trials, n)).reshape(trials, 4, n)
    waves = _PlaneWaveMap(directions, freqs, -(weights * np.sin(phases))[..., None] * targets)
    probes = uniform_sphere_samples(np.random.Generator(np.random.Philox(0)), _BOUNDARY_PROBES, n)
    x = np.concatenate((points, np.broadcast_to(probes, (trials, *probes.shape))), axis=1)
    values = waves.extension(x, config)
    residual = float(np.max(np.abs(values[:, 4:] - waves.eval(probes))))
    majorant = envelope_upper(KernelKind.HARMONIC, hemisphere, radii, config)
    excess = np.linalg.norm(values[:, :4], axis=-1).ravel() - majorant
    worst = int(np.argmax(excess))
    return MarginReport(
        f"hemisphere-majorant n={n} m={m}",
        float(excess[worst]),
        0.0,
        0.0,
        "<=",
        checks={"boundary": residual <= _BOUNDARY_TOL},
        details={"points": 4 * trials, "series_terms": _PLANE_WAVE_TERMS, "worst_radius": float(radii[worst]),
                 "boundary_residual": residual},
    )


@dataclass(frozen=True)
class HopfScanResult:
    """Power-law fit of the hyperbolic difference quotient near the sphere,
    with the exact decay coefficient ``d_n`` of the same cap."""

    n: int
    c: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    coefficient: float
    d_n: float


def hopf_failure_scan(n: int, c: float) -> HopfScanResult:
    """Fit T(r) = (1 - M_c^n(r))/(1 - r) ~ d_n (1-r)^{n-2}, hyperbolic kernel, and give d_n.

    Least-squares fit of log T against log(1-r) over the geometric radius
    grid r = 1 - 2^{-k}, k = 4, ..., 14.  The model includes the
    correction regressors (1-r) and (1-r)^2: log(T / (1-r)^{n-2}) is
    smooth in (1-r), and truncating its expansion after the linear term
    still biases the extrapolated coefficient by up to 0.7% on this grid
    (n = 16, c = 0.1); the quadratic term brings that below 2e-4 for
    3 <= n <= 16.  The fitted slope estimates the decay exponent n-2 (so
    the boundary derivative of M vanishes) and exp(intercept) estimates
    d_n.  The cap is inverted once: the 11 values of T are one pass of
    its closed-form tails, and the exact d_n (``hyperbolic_decay_coefficient``)
    comes from the same cap.  A cap measure (1-r) T / 2 below the normal
    doubles (from n = 74 at c = 1/2) has lost digits or is 0: the first
    radius with one raises the ``DomainError`` of
    ``boundary_difference_quotient``; a fitted coefficient exp(intercept)
    past the largest double raises ``DomainError`` (at n = 134, c =
    6.4e-279, for one); only then is d_n taken, whose overflow or
    underflow raises its own.
    """
    n = _integer(n, least=3)
    if not 0.0 < c < 1.0:  # the full cap c = 1 has T = 0, whose log the fit cannot take
        raise DomainError(f"cap measure must lie in (0, 1), got {c!r}")
    cap = CapSpec(n, c)
    values = boundary_difference_quotient(KernelKind.HYPERBOLIC_HARMONIC, cap, _HOPF_RADII)
    gap = np.array([1.0 - r for r in _HOPF_RADII])
    x = np.log(gap)
    y = np.log(values)
    design = np.column_stack([np.ones_like(x), x, gap, gap * gap])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    try:
        coefficient = math.exp(coeffs[0])
    except OverflowError:
        raise DomainError(f"fitted coefficient exp({float(coeffs[0])!r}) overflows the doubles "
                          f"for n={n}, c={c!r}") from None
    return HopfScanResult(
        n=n,
        c=float(c),
        radii=_HOPF_RADII,
        values=tuple(float(v) for v in values),
        slope=float(coeffs[1]),
        coefficient=coefficient,
        d_n=hyperbolic_decay_coefficient(cap),
    )


def majorant_radial_slope(
    m: int, r: float | np.ndarray, config: QuadratureConfig = DEFAULT_CONFIG
) -> float | np.ndarray:
    """Central-difference slope of the hemisphere majorant M_{1/2}^m at r, step 1e-4.

    ``r`` may be a 1-D array of radii: every stencil radius is then a row
    of one envelope quadrature, and the result is the array of slopes.
    """
    radii = np.array(_radii(r, lambda x: 0.0 <= x < 1.0 - _SLOPE_STEP, "slope stencil must stay inside [0, 1)"))
    hemisphere = CapSpec(m, 0.5)
    stencil = np.concatenate((radii + _SLOPE_STEP, radii - _SLOPE_STEP))
    upper, lower = np.split(envelope_upper(KernelKind.HARMONIC, hemisphere, stencil, config), 2)
    return _shaped((upper - lower) / (2.0 * _SLOPE_STEP), r)


def check_V_monotone(m: int, config: QuadratureConfig = DEFAULT_CONFIG) -> MarginReport:
    """Monotone decay of the majorant's radial slope down to its sharp limit.

    Samples V(r) = dM_{1/2}^m/dr by central differences at r = 0, 0.1,
    ..., 0.9, 0.99, all 22 stencil radii in one envelope quadrature.  The
    report holds V(0.99) against the limiting constant, V(0.99) >= C_m
    within 1e-6, with the side check ``monotone``: V never increases along
    the grid by more than 1e-8.
    """
    radii = [0.1 * j for j in range(10)] + [0.99]
    values = majorant_radial_slope(m, radii, config=config).tolist()
    monotone = all(later <= earlier + 1e-8 for earlier, later in zip(values[:-1], values[1:]))
    return MarginReport(
        f"majorant-slope-monotone m={m}",
        values[-1],
        heinz_schwarz_constant(m),
        _DERIVATIVE_TOL,
        ">=",
        checks={"monotone": monotone},
    )


def default_verification_suite(
    seed: int = DEFAULT_SEED,
    config: QuadratureConfig = DEFAULT_CONFIG,
    bound_scale: float = 1.0,
    target_dim: int = 2,
) -> list[MarginReport]:
    """The stock battery of inequality checks driven by the CLI.

    ``bound_scale`` multiplies the bound of every row, once, after all
    rows are measured; it exists to prove the harness can fail and
    defaults to the honest value 1.  ``"=="`` rows (planar extremals,
    Hopf slope and coefficient) fail at any scale that moves their bound
    by more than their tolerance.  ``">="`` rows fail once the scaled
    bound passes the measured value: just above 1 for the sharp cap
    extremals and Moebius precompositions, by 1.5 for the majorant slope
    (V(0.99) is 1-3% above C_m); the identity map clears its bound by a
    factor of 2.4.  The envelope-sandwich and hemisphere-majorant rows
    compare pointwise against the envelopes and report the worst excess
    against a bound of 0, which no scale moves.  ``target_dim`` sets the
    codomain dimension of the vector-valued test maps.

    Only the Moebius, envelope-sandwich and hemisphere-majorant rows
    (5 of 22) read ``seed``.  The other 17 (planar extremals, cap
    extremals, identity map, Hopf scans, V monotone) are the same for
    every seed, so ``_seed_free_rows`` computes them once per process for
    each ``(config, target_dim)``, the only arguments they read, and a
    warm suite makes only the seeded work: 12 ``integrate_rows`` calls
    and 3 envelope tail passes, against 20 and 8 cold, and a stats
    collector, once the library has one, will count only that seeded work
    on a warm suite.  Every row returned is a fresh report with its own
    ``checks`` and ``details``.
    """
    target_dim = _integer(target_dim, "target dimension")
    head, tail = _seed_free_rows(config, target_dim)
    seeds = np.random.SeedSequence(seed).spawn(4)
    reports = list(head)

    xi_rng = np.random.Generator(np.random.Philox(seeds[0]))
    for _ in range(2):
        direction = uniform_sphere_samples(xi_rng, 1, 2)[0]
        xi = (0.3 + 0.4 * xi_rng.uniform()) * (
            direction + 1j * uniform_sphere_samples(xi_rng, 1, 2)[0]
        ) / math.sqrt(2.0)
        reports.append(check_mobius_precomposition(2, xi))

    sandwich_rng = np.random.Generator(np.random.Philox(seeds[1]))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for kind in (KernelKind.HARMONIC, KernelKind.HYPERBOLIC_HARMONIC):
        worst = check_envelope_sandwich(kind, [random_zonal_profile(sandwich_rng, 3) for _ in range(6)], grid, config)
        reports.append(MarginReport(f"envelope-sandwich kind={kind.value}", worst, 0.0, 1e-8, "<="))

    reports.append(check_hemisphere_majorant(
        3, target_dim, trials=6, seed=int(seeds[2].generate_state(1)[0]), config=config
    ))
    reports += tail
    return [dataclasses.replace(rep, bound=rep.bound * bound_scale, checks=dict(rep.checks),
                                details=dict(rep.details)) for rep in reports]


@functools.lru_cache(maxsize=8)
def _seed_free_rows(config: QuadratureConfig,
                    target_dim: int) -> tuple[tuple[MarginReport, ...], tuple[MarginReport, ...]]:
    """The 17 unscaled rows of ``default_verification_suite`` that no seed reaches, built once per key.

    The head holds the 5 planar extremals, the 4 cap extremals and the
    identity map; the tail the 4 Hopf-scan rows and the 3 V-monotone rows.
    The suite puts its seeded rows between them and copies every report on
    the way out, so no caller reaches the ones kept here.
    """
    head = check_planar_bound([-0.8, -0.4, 0.0, 0.4, 0.8])
    for n, a in [(2, 0.0), (3, 0.0), (3, 0.5), (4, -0.5)]:
        head.append(check_boundary_bound(build_cap_extremal(n, target_dim, a, config=config)))
    identity_case = ContactTestCase(
        n=3,
        f=lambda x: np.asarray(x, dtype=float),
        x0=np.array([1.0, 0.0, 0.0]),
        y0=np.array([1.0, 0.0, 0.0]),
        a=0.0,
        case_id="identity-map n=3",
    )
    head.append(check_boundary_bound(identity_case))

    tail = []
    for n in (3, 4):
        scan = hopf_failure_scan(n, 0.5)
        tail.append(MarginReport(f"hopf-scan slope n={n}", scan.slope, float(n - 2), 0.02, "=="))
        tail.append(MarginReport(f"hopf-scan coefficient n={n}", scan.coefficient, scan.d_n, 0.01 * scan.d_n, "=="))
    tail += [check_V_monotone(m, config=config) for m in (2, 3, 4)]
    return tuple(head), tuple(tail)


def random_zonal_profile(rng: np.random.Generator, n: int) -> ZonalBoundaryData:
    """Random piecewise-constant zonal data: 2 to 4 pieces with values in [-1, 1]."""
    pieces = int(rng.integers(2, 5))
    cuts = np.sort(rng.uniform(0.15, math.pi - 0.15, pieces - 1))
    levels = rng.uniform(-1.0, 1.0, pieces)

    def profile(t: np.ndarray) -> np.ndarray:
        return levels[np.searchsorted(cuts, t, side="right")]

    axis = np.zeros(n)
    axis[0] = 1.0
    return ZonalBoundaryData(n=n, axis=axis, profile=profile, breakpoints=tuple(cuts))

"""End-to-end checks of the sharp boundary inequalities.

Each check builds an explicit harmonic or pluriharmonic map with
boundary contact, measures the quantity the corresponding inequality
bounds (always through a code path independent of the bound itself),
and reports the signed margin.  The extremal constructions are expected
to sit at margin ~ 0: the bounds are sharp, and reproducing that
sharpness numerically is the strongest evidence the constants are
right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .disc import DiscCapExtremal
from .envelope import (
    CapSpec,
    KernelKind,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    envelope_lower,
    envelope_upper,
    heinz_schwarz_constant,
    hyperbolic_decay_coefficient,
    schwarz_planar_bound,
)
from .errors import DomainError
from .hilbert_ball import (
    MobiusParams,
    RealLinearMap,
    boundary_lambda,
    hermitian_adjoint,
    inner,
    mobius_derivative,
    mobius_map,
)
from .poisson import (
    BoundaryMap,
    ZonalBoundaryData,
    monte_carlo_extension,
    radial_derivative_estimate,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .specfn import sphere_prefactors

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

_UNIT_TOL = 1e-12
_ON_AXIS_TOL = 1e-13


@dataclass(frozen=True)
class MarginReport:
    """Outcome of one inequality check: measured value, bound, and margin."""

    case: str
    lam: float
    bound: float
    margin: float
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)


def _report(case: str, lam: float, bound: float, tolerance: float, extra_ok: bool = True,
            details: dict | None = None) -> MarginReport:
    margin = lam - bound
    return MarginReport(
        case=case,
        lam=lam,
        bound=bound,
        margin=margin,
        passed=bool(margin >= -tolerance and extra_ok),
        tolerance=tolerance,
        details=details or {},
    )


@dataclass(frozen=True)
class ContactTestCase:
    """A map of the ball with boundary contact, ready for derivative checks.

    ``f`` evaluates the map at interior points, ``x0`` is the boundary
    contact point with target value ``y0``, ``a0 = f(0)``, and
    ``a = <a0, y0>`` parametrizes which envelope squeezes the section
    <f, y0>.
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    y0: np.ndarray
    a0: np.ndarray
    a: float
    case_id: str

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        y0 = np.asarray(self.y0, dtype=float)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "a0", np.asarray(self.a0, dtype=float))
        if abs(float(np.linalg.norm(x0)) - 1.0) > _UNIT_TOL:
            raise DomainError("contact point x0 must be a unit vector")
        if abs(float(np.linalg.norm(y0)) - 1.0) > _UNIT_TOL:
            raise DomainError("target point y0 must be a unit vector")
        if not -1.0 < self.a < 1.0:
            raise DomainError("contact base value a must lie in (-1, 1)")

    def radial_section(self, r: float) -> float:
        """<f(r x0), y0>, the scalar section whose boundary slope is checked."""
        return float(np.dot(self.f(r * self.x0), self.y0))


def _zonal_value(
    kind: KernelKind,
    data: ZonalBoundaryData,
    x: np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Poisson extension of zonal data at an arbitrary interior point.

    On the symmetry axis this is the 1-D reduction (negative radii reach
    the antipodal ray); off the axis the kernel is averaged over the
    azimuthal sphere first, giving a nested 1-D integral.  n = 2 reduces
    to a single circle integral.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r >= 1.0:
        raise DomainError("zonal evaluation point must lie inside the ball")
    if r < 1e-14:
        return zonal_extension_on_axis(kind, data, 0.0, config)
    cos_psi = float(np.dot(x, data.axis)) / r
    cos_psi = min(1.0, max(-1.0, cos_psi))
    if cos_psi >= 1.0 - _ON_AXIS_TOL:
        return zonal_extension_on_axis(kind, data, r, config)
    if cos_psi <= -1.0 + _ON_AXIS_TOL:
        return zonal_extension_on_axis(kind, data, -r, config)

    n = data.n
    nu, mu = kind.exponents(n)
    psi = math.acos(cos_psi)

    if n == 2:
        def circle_integrand(t: np.ndarray) -> np.ndarray:
            prof = np.asarray(data.profile(np.abs(t)), dtype=float)
            return prof * (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t - psi) + r * r)

        breaks = [b for b in data.breakpoints] + [-b for b in data.breakpoints] + [psi]
        return integrate(circle_integrand, -math.pi, math.pi, config, breakpoints=breaks) / (
            2.0 * math.pi
        )

    sin_psi = math.sin(psi)
    star = sphere_prefactors(n).sigma_star
    # Azimuthal average over S^{n-2} carries the next ratio down the ladder.
    inner_star = sphere_prefactors(n - 1).sigma_star

    def azimuth_average(phi: float) -> float:
        base = 1.0 + r * r - 2.0 * r * cos_psi * math.cos(phi)
        cross = 2.0 * r * sin_psi * math.sin(phi)

        def az_integrand(theta: np.ndarray) -> np.ndarray:
            return np.sin(theta) ** (n - 3) / (base - cross * np.cos(theta)) ** mu

        return inner_star * integrate(az_integrand, 0.0, math.pi, config)

    def outer_integrand(phi: np.ndarray) -> np.ndarray:
        prof = np.asarray(data.profile(phi), dtype=float)
        averages = np.array([azimuth_average(float(p)) for p in np.atleast_1d(phi)])
        return prof * np.sin(phi) ** (n - 2) * averages

    body = integrate(outer_integrand, 0.0, math.pi, config, breakpoints=data.breakpoints)
    return star * (1.0 - r * r) ** nu * body


def zonal_contact_case(
    n: int,
    m: int,
    profile: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float],
    case_id: str,
    y0: np.ndarray | None = None,
    axis: np.ndarray | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> ContactTestCase:
    """Contact case from zonal boundary data that is identically 1 near its axis.

    The harmonic extension of such data extends continuously (indeed
    smoothly) to the contact point ``axis`` with value 1, which is the
    differentiability hypothesis the boundary-derivative checks need.
    """
    if axis is None:
        axis = np.zeros(n)
        axis[0] = 1.0
    if y0 is None:
        y0 = np.zeros(m)
        y0[0] = 1.0
    axis = np.asarray(axis, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    data = ZonalBoundaryData(n=n, axis=axis, profile=profile, breakpoints=tuple(breakpoints))
    a = zonal_extension_on_axis(KernelKind.HARMONIC, data, 0.0, config)

    def f(x: np.ndarray) -> np.ndarray:
        return _zonal_value(KernelKind.HARMONIC, data, x, config) * y0

    return ContactTestCase(
        n=n, m=m, f=f, x0=axis, y0=y0, a0=a * y0, a=a, case_id=case_id
    )


def build_cap_extremal(
    n: int,
    m: int,
    a: float,
    y0: np.ndarray | None = None,
    axis: np.ndarray | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> ContactTestCase:
    """The envelope-extremal contact case: cap-indicator data for c = (1+a)/2.

    Its section along the axis is exactly the upper envelope M_c^n, so
    the measured boundary derivative must reproduce D_n(a); every other
    admissible map with the same base value can only do worse.
    """
    if n < 2 or m < 2:
        raise DomainError("cap extremal needs n >= 2 and m >= 2")
    if not -1.0 < a < 1.0:
        raise DomainError("base value must lie in (-1, 1)")
    cap = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    alpha = cap.alpha

    def profile(t: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(t) <= alpha, 1.0, -1.0)

    return zonal_contact_case(
        n, m, profile, (alpha,),
        case_id=f"cap-extremal n={n} a={a:.6g}",
        y0=y0, axis=axis, config=config,
    )


def check_boundary_bound(
    case: ContactTestCase,
    config: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
    base_step: float = 1e-3,
) -> MarginReport:
    """Measured radial boundary derivative against the sharp bound D_n(a)."""
    lam = radial_derivative_estimate(case.radial_section, base_step=base_step)
    bound = boundary_derivative_harmonic(case.n, case.a, config)
    return _report(case.case_id, lam, bound, tolerance)


def check_envelope_sandwich(
    kind: KernelKind,
    n: int,
    data: ZonalBoundaryData,
    grid: Sequence[float],
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Largest signed violation of m_c^n <= h <= M_c^n along the axis.

    The base value a = h(0) fixes c = (1+a)/2; a return value at or
    below quadrature tolerance means the sandwich holds on the grid.
    """
    a = zonal_extension_on_axis(kind, data, 0.0, config)
    if not -1.0 < a < 1.0:
        raise DomainError(f"profile mean must lie in (-1, 1), got {a!r}")
    cap = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    worst = -math.inf
    for r in grid:
        h = zonal_extension_on_axis(kind, data, float(r), config)
        upper = envelope_upper(kind, cap, float(r), config)
        lower = envelope_lower(kind, cap, float(r), config)
        worst = max(worst, h - upper, lower - h)
    return worst


def check_planar_bound(
    b_values: Sequence[float],
    config: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
) -> list[MarginReport]:
    """Disc extremals against the planar closed form s^-(b).

    For each b the disc cap extremal (data +1 on the arc of normalized
    measure (1+b)/2 centered at 1) is differentiated radially at the
    contact point; the bound is attained there, so the report's margin
    doubles as an equality check.  The elementary comparison
    s^-(b) >= (1-b)/2 is verified alongside.
    """
    reports = []
    for b in b_values:
        b = float(b)
        extremal = DiscCapExtremal(b)
        measured = radial_derivative_estimate(lambda r: extremal(complex(r, 0.0)))
        bound = schwarz_planar_bound(b)
        halfline_ok = bound >= 0.5 * (1.0 - b) - 1e-12
        equality_ok = abs(measured - bound) <= tolerance
        reports.append(
            _report(
                f"planar-extremal b={b:.6g}",
                measured,
                bound,
                tolerance,
                extra_ok=halfline_ok and equality_ok,
                details={"closed_form_error": measured - bound},
            )
        )
    return reports


def check_mobius_precomposition(
    k: int,
    xi: np.ndarray,
    a: float = 0.0,
    z0: np.ndarray | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
    residual_tolerance: float = 1e-8,
    base_step: float = 1e-4,
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
      parallel to z0 (alignment residual near machine zero).
    """
    params = MobiusParams(np.asarray(xi, dtype=complex))
    if params.k != k:
        raise DomainError(f"xi must have dimension {k}")
    if z0 is None:
        z0 = np.zeros(k, dtype=complex)
        z0[0] = 1.0
    z0 = np.asarray(z0, dtype=complex)
    if abs(float(np.linalg.norm(z0)) - 1.0) > _UNIT_TOL:
        raise DomainError("contact point z0 must be a unit vector")

    p = mobius_map(params, z0)
    dphi = mobius_derivative(params, z0)
    mu = (1.0 - float(np.linalg.norm(params.xi)) ** 2) / abs(1.0 - inner(z0, params.xi)) ** 2
    extremal = DiscCapExtremal(a)
    slope = extremal.contact_slope()

    w0 = np.zeros(k, dtype=complex)
    w0[0] = 1.0

    def section(r: float) -> float:
        zeta = inner(mobius_map(params, r * z0), p)
        return extremal(complex(zeta))

    lam_full_measured = radial_derivative_estimate(section, base_step=base_step)

    # Analytic derivative of the composition at z0: the disc extremal has
    # boundary gradient (slope, 0) at its contact point, so
    # Df(z0) h = slope * Re<Dphi h, p> * w0.
    pulled = hermitian_adjoint(dphi) @ p
    Df = RealLinearMap(
        B=0.5 * slope * np.outer(w0, np.conj(pulled)),
        C=0.5 * slope * np.outer(w0, pulled),
    )
    lam_full_analytic, residual = boundary_lambda(Df, z0, w0)

    lam = lam_full_measured / mu
    bound = schwarz_planar_bound(a)
    details = {
        "alignment_residual": residual,
        "mu": mu,
        "measured_vs_analytic": abs(lam_full_measured - lam_full_analytic),
    }
    return _report(
        f"mobius-precomposition k={k} a={a:.6g} |xi|={float(np.linalg.norm(params.xi)):.6g}",
        lam,
        bound,
        tolerance,
        extra_ok=residual < residual_tolerance,
        details=details,
    )


def _random_boundary_map(rng: np.random.Generator, n: int, m: int, components: int = 3) -> BoundaryMap:
    """Random smooth boundary map into the unit ball of R^m, antisymmetrized.

    A convex-weighted mixture of plane-wave profiles times unit target
    directions stays inside the ball by construction; antisymmetrizing
    forces the harmonic extension to vanish at the origin.
    """
    directions = uniform_sphere_samples(rng, components, n)
    targets = uniform_sphere_samples(rng, components, m)
    freqs = rng.uniform(0.5, 4.0, components)
    phases = rng.uniform(0.0, 2.0 * math.pi, components)
    weights = rng.dirichlet(np.ones(components)) * rng.uniform(0.6, 1.0)

    def raw(eta: np.ndarray) -> np.ndarray:
        out = np.zeros((eta.shape[0], m))
        for i in range(components):
            s = np.cos(freqs[i] * (eta @ directions[i]) + phases[i])
            out += weights[i] * s[:, None] * targets[i][None, :]
        return out

    def antisymmetrized(eta: np.ndarray) -> np.ndarray:
        return 0.5 * (raw(eta) - raw(-eta))

    return BoundaryMap(n=n, m=m, eval=antisymmetrized)


def check_hemisphere_majorant(
    n: int,
    m: int,
    trials: int,
    seed: int,
    samples: int = 20_000,
    points_per_trial: int = 4,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Worst violation of |f(x)| <= M_{1/2}^n(|x|) over random origin-fixing maps.

    Each trial draws a random boundary map, antisymmetrizes it so the
    extension fixes the origin, Monte-Carlo evaluates the extension at
    random interior points, and compares |f(x)| against the hemisphere
    majorant.  Returns the largest excess beyond four combined standard
    errors; a non-positive value is a pass.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    hemisphere = CapSpec(n=n, c=0.5, alpha=0.5 * math.pi)
    worst = -math.inf
    for _ in range(trials):
        gmap = _random_boundary_map(rng, n, m)
        for _ in range(points_per_trial):
            direction = uniform_sphere_samples(rng, 1, n)[0]
            radius = float(rng.uniform(0.1, 0.85))
            x = radius * direction
            point_seed = int(rng.integers(0, 2**62))
            estimate, stderr = monte_carlo_extension(
                KernelKind.HARMONIC, gmap, x, samples, seed=point_seed
            )
            majorant = envelope_upper(KernelKind.HARMONIC, hemisphere, radius, config)
            slack = 4.0 * float(np.sqrt(np.sum(stderr**2)))
            worst = max(worst, float(np.linalg.norm(estimate)) - majorant - slack)
    return worst


@dataclass(frozen=True)
class HopfScanResult:
    """Power-law fit of the hyperbolic difference quotient near the sphere."""

    n: int
    c: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    coefficient: float


def hopf_failure_scan(
    n: int,
    c: float,
    radii: Sequence[float] | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> HopfScanResult:
    """Fit T(r) = (1 - M_c^n(r))/(1 - r) ~ d_n (1-r)^{n-2}, hyperbolic kernel.

    Least-squares fit of log T against log(1-r) over a geometric radius
    grid approaching 1.  The model includes the correction regressors
    (1-r) and (1-r)^2: the log of the prefactor (1+r)^{n-1} J(r) of the
    factored form is smooth in (1-r), and truncating its expansion after
    the linear term still biases the extrapolated coefficient by up to
    0.7% on the default grid (n = 16, c = 0.1); the quadratic term brings
    that below 2e-4 for 3 <= n <= 16.
    The fitted slope estimates the decay exponent n-2 (so the boundary
    derivative of M vanishes) and exp(intercept) estimates d_n.
    """
    if n <= 2 or n != int(n):
        raise DomainError(f"hyperbolic scan needs integer n > 2, got {n!r}")
    if radii is None:
        radii = [1.0 - 2.0 ** (-k) for k in range(4, 15)]
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise DomainError("scan needs at least 3 radii")
    cap = cap_angle_from_measure(n, c)
    values = [
        boundary_difference_quotient(KernelKind.HYPERBOLIC_HARMONIC, cap, r, config)
        for r in radii
    ]
    gap = np.array([1.0 - r for r in radii])
    x = np.log(gap)
    y = np.log(np.array(values))
    design = np.column_stack([np.ones_like(x), x, gap, gap * gap])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return HopfScanResult(
        n=int(n),
        c=float(c),
        radii=tuple(radii),
        values=tuple(float(v) for v in values),
        slope=float(coeffs[1]),
        coefficient=float(math.exp(coeffs[0])),
    )


def majorant_radial_slope(
    m: int, r: float, step: float = 1e-4, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Central-difference slope of the hemisphere majorant M_{1/2}^m at r."""
    if not 0.0 <= r < 1.0 - step:
        raise DomainError("slope stencil must stay inside [0, 1)")
    hemisphere = CapSpec(n=m, c=0.5, alpha=0.5 * math.pi)
    upper = envelope_upper(KernelKind.HARMONIC, hemisphere, r + step, config)
    lower = envelope_upper(KernelKind.HARMONIC, hemisphere, r - step, config)
    return (upper - lower) / (2.0 * step)


def check_V_monotone(
    m: int,
    radii: Sequence[float] | None = None,
    config: QuadratureConfig = DEFAULT_CONFIG,
    slack: float = 1e-8,
    end_tolerance: float = 1e-6,
) -> bool:
    """Monotone decay of the majorant's radial slope down to its sharp limit.

    Samples V(r) = dM_{1/2}^m/dr by central differences on the grid and
    checks it never increases (within ``slack``) and that its last value
    stays above the limiting constant C_m (within ``end_tolerance``).
    """
    if m < 2 or m != int(m):
        raise DomainError(f"dimension must be an integer >= 2, got {m!r}")
    if radii is None:
        radii = [0.1 * j for j in range(10)] + [0.99]
    values = [majorant_radial_slope(m, float(r), config=config) for r in radii]
    for earlier, later in zip(values[:-1], values[1:]):
        if later > earlier + slack:
            return False
    return values[-1] >= heinz_schwarz_constant(m) - end_tolerance


def default_verification_suite(
    seed: int = DEFAULT_SEED,
    config: QuadratureConfig = DEFAULT_CONFIG,
    bound_scale: float = 1.0,
    target_dim: int = 2,
) -> list[MarginReport]:
    """The stock battery of inequality checks driven by the CLI.

    ``bound_scale`` multiplies every bound before comparison; it exists
    to prove the harness can fail (scale 1.5 must break the sharp rows)
    and defaults to the honest value 1.  ``target_dim`` sets the codomain
    dimension of the vector-valued test maps.
    """
    if target_dim < 2:
        raise DomainError("target dimension must be >= 2")
    seeds = np.random.SeedSequence(seed).spawn(4)
    reports: list[MarginReport] = []

    def scaled(report: MarginReport) -> MarginReport:
        if bound_scale == 1.0:
            return report
        bound = report.bound * bound_scale
        margin = report.lam - bound
        return MarginReport(
            case=report.case,
            lam=report.lam,
            bound=bound,
            margin=margin,
            passed=bool(margin >= -report.tolerance),
            tolerance=report.tolerance,
            details=report.details,
        )

    for rep in check_planar_bound([-0.8, -0.4, 0.0, 0.4, 0.8], config):
        reports.append(scaled(rep))

    for n, a in [(2, 0.0), (3, 0.0), (3, 0.5), (4, -0.5)]:
        case = build_cap_extremal(n, target_dim, a, config=config)
        reports.append(scaled(check_boundary_bound(case, config)))

    identity_case = ContactTestCase(
        n=3,
        m=3,
        f=lambda x: np.asarray(x, dtype=float),
        x0=np.array([1.0, 0.0, 0.0]),
        y0=np.array([1.0, 0.0, 0.0]),
        a0=np.zeros(3),
        a=0.0,
        case_id="identity-map n=3",
    )
    reports.append(scaled(check_boundary_bound(identity_case, config)))

    xi_rng = np.random.Generator(np.random.Philox(seeds[0]))
    for _ in range(2):
        direction = uniform_sphere_samples(xi_rng, 1, 2)[0]
        xi = (0.3 + 0.4 * xi_rng.uniform()) * (
            direction + 1j * uniform_sphere_samples(xi_rng, 1, 2)[0]
        ) / math.sqrt(2.0)
        reports.append(scaled(check_mobius_precomposition(2, xi, config=config)))

    sandwich_rng = np.random.Generator(np.random.Philox(seeds[1]))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for kind in (KernelKind.HARMONIC, KernelKind.HYPERBOLIC_HARMONIC):
        worst = -math.inf
        for _ in range(6):
            data = random_zonal_profile(sandwich_rng, 3)
            worst = max(worst, check_envelope_sandwich(kind, 3, data, grid, config))
        reports.append(
            scaled(
                _report(
                    f"envelope-sandwich kind={kind.value}",
                    -worst,
                    -1e-8,
                    0.0,
                )
            )
        )

    majorant_worst = check_hemisphere_majorant(
        3, target_dim, trials=6, seed=int(seeds[2].generate_state(1)[0]), config=config
    )
    reports.append(
        scaled(_report(f"hemisphere-majorant n=3 m={target_dim}", -majorant_worst, 0.0, 0.0))
    )

    for n in (3, 4):
        scan = hopf_failure_scan(n, 0.5, config=config)
        slope_err = abs(scan.slope - (n - 2))
        coeff_rel = abs(scan.coefficient - hyperbolic_decay_coefficient(n, 0.5, config)) / (
            hyperbolic_decay_coefficient(n, 0.5, config)
        )
        reports.append(scaled(_report(f"hopf-scan slope n={n}", 0.02 - slope_err, 0.0, 0.0)))
        reports.append(scaled(_report(f"hopf-scan coefficient n={n}", 0.01 - coeff_rel, 0.0, 0.0)))

    for m in (2, 3, 4):
        ok = check_V_monotone(m, config=config)
        reports.append(scaled(_report(f"majorant-slope-monotone m={m}", 1.0 if ok else 0.0, 1.0, 0.0)))

    return reports


def random_zonal_profile(rng: np.random.Generator, n: int, max_steps: int = 4) -> ZonalBoundaryData:
    """Random piecewise-constant zonal boundary data with values in [-1, 1]."""
    pieces = int(rng.integers(2, max_steps + 1))
    cuts = np.sort(rng.uniform(0.15, math.pi - 0.15, pieces - 1))
    levels = rng.uniform(-1.0, 1.0, pieces)
    edges = np.concatenate([[0.0], cuts, [math.pi]])

    def profile(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, pieces - 1)
        return levels[idx]

    axis = np.zeros(n)
    axis[0] = 1.0
    return ZonalBoundaryData(n=n, axis=axis, profile=profile, breakpoints=tuple(cuts))

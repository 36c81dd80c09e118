import math

import numpy as np
import pytest

from ballschwarz import (
    ContactTestCase,
    DomainError,
    KernelKind,
    ZonalBoundaryData,
    build_cap_extremal,
    cap_measure_from_angle,
    check_V_monotone,
    check_boundary_bound,
    check_envelope_sandwich,
    check_hemisphere_majorant,
    check_mobius_precomposition,
    check_planar_bound,
    default_verification_suite,
    heinz_schwarz_constant,
    hopf_failure_scan,
    hyperbolic_decay_coefficient,
    majorant_radial_slope,
    monte_carlo_extension,
    schwarz_planar_bound,
    zonal_contact_case,
)
from ballschwarz.poisson import BoundaryMap
from ballschwarz.verify import random_zonal_profile

HARM = KernelKind.HARMONIC
HYP = KernelKind.HYPERBOLIC_HARMONIC
TWO_OVER_PI = 2.0 / math.pi


def _axis(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def test_cap_extremal_basic_fields():
    case = build_cap_extremal(3, 2, 0.4)
    assert case.a == pytest.approx(0.4, abs=1e-9)
    assert np.allclose(case.f(np.zeros(3)), 0.4 * case.y0, atol=1e-9)
    assert case.radial_section(0.0) == pytest.approx(0.4, abs=1e-9)


def test_cap_extremal_attains_planar_constant():
    report = check_boundary_bound(build_cap_extremal(2, 2, 0.0))
    assert report.lam == pytest.approx(TWO_OVER_PI, abs=1e-4)
    assert report.passed


def test_cap_extremal_attains_three_dimensional_constant():
    report = check_boundary_bound(build_cap_extremal(3, 2, 0.0))
    assert report.lam == pytest.approx(heinz_schwarz_constant(3), abs=1e-4)
    assert report.passed


def test_cap_extremal_grid_matches_limit_formula():
    for n in (2, 3, 4):
        for a in (-0.5, 0.0, 0.5):
            report = check_boundary_bound(build_cap_extremal(n, 2, a))
            assert abs(report.margin) / report.bound < 1e-3
            assert report.passed


def test_cap_extremal_off_axis_value_agrees_with_monte_carlo():
    case = build_cap_extremal(3, 2, 0.2)
    x = np.array([0.25, 0.3, -0.1])
    value = float(np.dot(case.f(x), case.y0))
    cap_angle = math.acos(1.0 - 2.0 * 0.6)  # c = (1 + 0.2)/2

    def lifted(eta):
        angles = np.arccos(np.clip(eta[:, 0], -1.0, 1.0))
        return np.where(angles <= cap_angle, 1.0, -1.0)[:, None]

    gmap = BoundaryMap(n=3, m=1, eval=lifted)
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 200_000, seed=99)
    assert abs(value - estimate[0]) <= 4.0 * stderr[0]


def test_cap_extremal_rotation_invariance():
    rng = np.random.Generator(np.random.Philox(123))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    baseline = check_boundary_bound(build_cap_extremal(3, 2, 0.3))
    rotated = check_boundary_bound(build_cap_extremal(3, 2, 0.3, axis=q[:, 0]))
    assert abs(baseline.lam - rotated.lam) < 1e-8


def test_identity_map_clears_bound():
    case = ContactTestCase(
        n=3,
        m=3,
        f=lambda x: np.asarray(x, dtype=float),
        x0=_axis(3),
        y0=_axis(3),
        a0=np.zeros(3),
        a=0.0,
        case_id="identity",
    )
    report = check_boundary_bound(case)
    assert report.lam == pytest.approx(1.0, abs=1e-10)
    assert report.bound < 1.0
    assert report.passed


def test_shrunk_cap_has_strictly_positive_margin():
    # Keep the contact cap but move part of its mass inward: boundary
    # data 1 on [0, 0.8 alpha], 0 on a middle band, -1 beyond, chosen so
    # the base value stays 0.  Sub-extremal data must beat the bound
    # strictly.
    n = 3
    alpha = math.pi / 2.0
    inner_edge = 0.8 * alpha
    # solve cap_measure(w) = 1 - cap_measure(inner_edge) for the -1 edge
    target = 1.0 - cap_measure_from_angle(n, inner_edge)
    lo, hi = inner_edge, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cap_measure_from_angle(n, mid) < target:
            lo = mid
        else:
            hi = mid
    outer_edge = 0.5 * (lo + hi)

    def profile(t):
        t = np.asarray(t)
        return np.where(t <= inner_edge, 1.0, np.where(t <= outer_edge, 0.0, -1.0))

    case = zonal_contact_case(n, 2, profile, (inner_edge, outer_edge), "shrunk-cap")
    assert abs(case.a) < 1e-9
    report = check_boundary_bound(case)
    assert report.margin > 1e-3
    assert report.passed


def test_sandwich_cap_indicator_attains_upper_envelope():
    data = random_zonal_profile(np.random.Generator(np.random.Philox(1)), 3)
    cap_alpha = math.pi / 2.0

    def indicator(t):
        return np.where(np.asarray(t) <= cap_alpha, 1.0, -1.0)

    cap_data = ZonalBoundaryData(n=3, axis=_axis(3), profile=indicator, breakpoints=(cap_alpha,))
    violation = check_envelope_sandwich(HARM, 3, cap_data, [0.1 * j for j in range(10)])
    assert abs(violation) <= 2e-9
    # and a generic profile stays strictly inside
    assert check_envelope_sandwich(HARM, 3, data, [0.1 * j for j in range(10)]) <= 2e-9


def test_sandwich_cosine_profile():
    data = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    violation = check_envelope_sandwich(HARM, 3, data, [0.1 * j for j in range(1, 10)])
    assert violation <= 1e-9


def test_sandwich_random_profiles_both_kernels():
    rng = np.random.Generator(np.random.Philox(2024))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for kind in (HARM, HYP):
        for _ in range(10):
            data = random_zonal_profile(rng, 3)
            assert check_envelope_sandwich(kind, 3, data, grid) <= 1e-8


def test_planar_bound_reports():
    reports = check_planar_bound([0.0])
    assert reports[0].lam == pytest.approx(TWO_OVER_PI, abs=1e-6)
    assert reports[0].passed

    grid = np.linspace(-0.9, 0.9, 10)
    for report in check_planar_bound(grid):
        assert abs(report.margin) <= 1e-6
        assert report.passed


def test_planar_bound_vanishes_toward_full_contact():
    values = [rep.lam for rep in check_planar_bound([0.9, 0.99, 0.999])]
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 1e-3


def test_precomposition_identity_parameter_reduces_to_planar_sharpness():
    report = check_mobius_precomposition(2, np.zeros(2, dtype=complex))
    assert report.lam == pytest.approx(TWO_OVER_PI, abs=1e-9)
    assert report.details["alignment_residual"] < 1e-12
    assert report.passed


def test_precomposition_random_parameters():
    rng = np.random.Generator(np.random.Philox(31))
    for k in (2, 3):
        for _ in range(10):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            xi = 0.7 * rng.uniform() * z / np.linalg.norm(z)
            report = check_mobius_precomposition(k, xi)
            assert report.details["alignment_residual"] < 1e-8
            assert report.lam >= TWO_OVER_PI - 1e-6
            assert report.passed


def test_precomposition_nonzero_base_value():
    xi = np.array([0.2 + 0.1j, -0.3j])
    report = check_mobius_precomposition(2, xi, a=0.3)
    assert report.bound == pytest.approx(schwarz_planar_bound(0.3), abs=1e-15)
    assert abs(report.margin) <= 1e-6


def test_precomposition_unitary_invariance():
    rng = np.random.Generator(np.random.Philox(67))
    k = 3
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    xi = 0.5 * z / np.linalg.norm(z)
    base = check_mobius_precomposition(k, xi)
    gauss = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    unitary, _ = np.linalg.qr(gauss)
    z0 = np.zeros(k, dtype=complex)
    z0[0] = 1.0
    rotated = check_mobius_precomposition(k, unitary @ xi, z0=unitary @ z0)
    assert abs(base.lam - rotated.lam) < 1e-8


def test_hemisphere_majorant_axis_equality():
    # The hemisphere sign data itself: |f(r N)| equals the majorant along
    # the axis, up to Monte-Carlo noise.
    from ballschwarz import CapSpec, envelope_upper

    def sign_data(eta):
        return np.sign(eta[:, 2])[:, None]

    gmap = BoundaryMap(n=3, m=1, eval=sign_data)
    x = np.array([0.0, 0.0, 0.6])
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 200_000, seed=8)
    hemisphere = CapSpec(n=3, c=0.5, alpha=math.pi / 2.0)
    majorant = envelope_upper(HARM, hemisphere, 0.6)
    assert abs(abs(estimate[0]) - majorant) <= 4.0 * stderr[0]


def test_hemisphere_majorant_random_trials():
    worst = check_hemisphere_majorant(3, 2, trials=8, seed=17, samples=20_000)
    assert worst <= 0.0


def test_hemisphere_majorant_reproducible():
    a = check_hemisphere_majorant(3, 2, trials=3, seed=5, samples=5_000)
    b = check_hemisphere_majorant(3, 2, trials=3, seed=5, samples=5_000)
    assert a == b


def test_hopf_scan_slope_and_coefficient():
    # the quadratic correction regressor keeps the fit's bias far below the
    # suite's 1% tolerance, also at n = 16, c = 0.1 where it is largest
    for n in (3, 4, 8, 16):
        for c in (0.1, 0.5, 0.9):
            scan = hopf_failure_scan(n, c)
            assert abs(scan.slope - (n - 2)) <= 1e-3
            d_n = hyperbolic_decay_coefficient(n, c)
            assert abs(scan.coefficient - d_n) / d_n <= 1e-3
            assert np.all(np.diff(scan.values) < 0.0)


def test_hopf_scan_domain():
    with pytest.raises(DomainError):
        hopf_failure_scan(2, 0.5)


def test_majorant_slope_at_origin():
    # dM_{1/2}^m/dr at 0 = 4 sigma_star(m) (m/2)/(m-1), from
    # differentiating the cap integral under the integral sign.
    assert majorant_radial_slope(2, 0.0) == pytest.approx(4.0 / math.pi, abs=1e-7)
    assert majorant_radial_slope(3, 0.0) == pytest.approx(1.5, abs=1e-7)
    assert majorant_radial_slope(4, 0.0) == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-7)


def test_majorant_slope_monotone_and_end_value():
    for m in (2, 3, 4):
        assert check_V_monotone(m)
    # the end of the grid sits just above the limiting constant
    end = majorant_radial_slope(2, 0.99)
    assert end > heinz_schwarz_constant(2)
    assert end - heinz_schwarz_constant(2) < 0.05


def test_default_suite_passes_and_reproduces():
    first = default_verification_suite()
    second = default_verification_suite()
    assert all(rep.passed for rep in first)
    assert [rep.case for rep in first] == [rep.case for rep in second]
    assert [rep.lam for rep in first] == [rep.lam for rep in second]
    for rep in first:
        # report invariant: a pass implies the margin cleared the tolerance
        assert rep.margin >= -rep.tolerance


def test_default_suite_corrupted_bounds_fail():
    corrupted = default_verification_suite(bound_scale=1.5)
    assert not all(rep.passed for rep in corrupted)


def test_contact_case_validation():
    with pytest.raises(DomainError):
        ContactTestCase(
            n=3,
            m=3,
            f=lambda x: x,
            x0=np.array([0.5, 0.0, 0.0]),
            y0=_axis(3),
            a0=np.zeros(3),
            a=0.0,
            case_id="bad",
        )

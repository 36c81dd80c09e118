import math

import mpmath
import numpy as np
import pytest

from ballschwarz import (
    CapSpec,
    DomainError,
    KernelKind,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    cap_measure_from_angle,
    envelope_lower,
    envelope_upper,
    heinz_schwarz_constant,
    hopf_condition_ratio,
    hyperbolic_decay_coefficient,
    schwarz_planar_bound,
)

HARM = KernelKind.HARMONIC
HYP = KernelKind.HYPERBOLIC_HARMONIC
TWO_OVER_PI = 2.0 / math.pi

# m_{1/4}^2(1/2), frozen from the closed-form planar arc antiderivative
PLANAR_LOWER_QUARTER_HALF = -0.825306813226184


def _mp_envelopes(kind, cap, r):
    """(M_c^n(r), m_c^n(r)) by 30-digit mpmath quadrature.

    Each envelope is integrated over whichever of its arc or its
    complement arc leaves out the kernel peak (t = 0 for r >= 0, t = pi
    for r < 0), using that the kernel integrates to 1.  No reflection
    through the origin is used.
    """
    with mpmath.workdps(30):
        n = cap.n
        nu, mu = (mpmath.mpf(e) for e in kind.exponents(n))
        r_mp, alpha = mpmath.mpf(r), mpmath.mpf(cap.alpha)
        star = mpmath.gamma(mpmath.mpf(n) / 2) / (
            mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n - 1) / 2)
        )
        scale = 2 * star * (1 - r_mp**2) ** nu

        def arc(t0, t1):
            def f(t):
                return mpmath.sin(t) ** (n - 2) * (1 - 2 * r_mp * mpmath.cos(t) + r_mp**2) ** -mu

            return scale * mpmath.quad(f, [t0, t1])

        if r >= 0.0:
            upper, lower = 1 - arc(alpha, mpmath.pi), arc(mpmath.pi - alpha, mpmath.pi) - 1
        else:
            upper, lower = arc(0, alpha) - 1, 1 - arc(0, mpmath.pi - alpha)
        return float(upper), float(lower)


def test_kernel_exponent_pairs():
    assert HARM.exponents(3) == (1.0, 1.5)
    assert HARM.exponents(5) == (1.0, 2.5)
    assert HYP.exponents(3) == (2.0, 2.0)
    assert HYP.exponents(5) == (4.0, 4.0)


def test_cap_angle_planar_is_linear():
    for c in (0.1, 0.25, 0.5, 0.9):
        assert cap_angle_from_measure(2, c).alpha == pytest.approx(math.pi * c, abs=1e-12)


def test_cap_angle_three_dimensional_closed_form():
    for c in (0.05, 0.3, 0.5, 0.8):
        assert cap_angle_from_measure(3, c).alpha == pytest.approx(
            math.acos(1.0 - 2.0 * c), abs=1e-12
        )


def test_half_measure_is_hemisphere_in_every_dimension():
    for n in range(2, 9):
        assert cap_angle_from_measure(n, 0.5).alpha == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_cap_angle_roundtrip_and_monotonicity():
    for n in (4, 6):
        previous = 0.0
        for c in np.linspace(0.05, 0.95, 10):
            cap = cap_angle_from_measure(n, float(c))
            assert cap_measure_from_angle(n, cap.alpha) == pytest.approx(c, abs=1e-12)
            assert cap.alpha > previous
            previous = cap.alpha


def test_cap_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            cap_angle_from_measure(3, bad)
    with pytest.raises(DomainError):
        cap_angle_from_measure(1, 0.5)
    with pytest.raises(DomainError):
        CapSpec(n=3, c=0.5, alpha=1.0)  # inconsistent pair


def test_envelopes_at_origin_equal_recentred_measure():
    for kind in (HARM, HYP):
        for n, c in [(2, 0.3), (3, 0.5), (4, 0.7), (5, 0.2)]:
            cap = cap_angle_from_measure(n, c)
            assert envelope_upper(kind, cap, 0.0) == pytest.approx(2.0 * c - 1.0, abs=1e-10)
            assert envelope_lower(kind, cap, 0.0) == pytest.approx(2.0 * c - 1.0, abs=1e-10)


def test_full_sphere_cap_gives_constant_one():
    full = CapSpec(n=3, c=1.0, alpha=math.pi)
    for kind in (HARM, HYP):
        for r in (0.0, 0.4, 0.9, 0.9999):
            assert envelope_upper(kind, full, r) == pytest.approx(1.0, abs=1e-10)


def test_lower_envelope_is_reflected_complement_upper():
    # m_c^n(r) = -M_{1-c}^n(r) over a 20 x 20 (c, r) grid, both kernels
    c_grid = np.linspace(0.04, 0.96, 20)
    r_grid = np.linspace(0.0, 0.95, 20)
    for kind in (HARM, HYP):
        for c in c_grid:
            cap = cap_angle_from_measure(3, float(c))
            comp = cap_angle_from_measure(3, float(1.0 - c))
            for r in r_grid:
                lower = envelope_lower(kind, cap, float(r))
                upper = envelope_upper(kind, comp, float(r))
                assert lower == pytest.approx(-upper, abs=1e-9)


def test_envelope_sandwich_strictness():
    # m(0) = M(0) = 2c - 1 exactly, so the comparison carries quadrature slack.
    for kind in (HARM, HYP):
        cap = cap_angle_from_measure(3, 0.35)
        for r in np.linspace(0.0, 0.95, 8):
            lower = envelope_lower(kind, cap, float(r))
            upper = envelope_upper(kind, cap, float(r))
            assert -1.0 < lower <= upper + 1e-10
            assert upper < 1.0


def test_upper_envelope_monotone_in_radius():
    for kind in (HARM, HYP):
        cap = cap_angle_from_measure(3, 0.3)
        values = [envelope_upper(kind, cap, r) for r in np.arange(0.0, 0.96, 0.05)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)


def test_upper_envelope_tends_to_one():
    for kind in (HARM, HYP):
        cap = cap_angle_from_measure(3, 0.3)
        values = [envelope_upper(kind, cap, 1.0 - 10.0**-k) for k in range(1, 7)]
        assert np.all(np.diff(values) > 0.0)
        assert values[-1] > 1.0 - 1e-4


def test_upper_envelope_matches_large_monte_carlo():
    # M_{1/2}^3(0.9) against a 10^7-sample Poisson integral of the
    # hemisphere data 2 chi - 1, within three standard errors.
    from ballschwarz import BoundaryMap, monte_carlo_extension

    cap = cap_angle_from_measure(3, 0.5)
    quadrature_value = envelope_upper(HARM, cap, 0.9)

    gmap = BoundaryMap(n=3, m=1, eval=lambda eta: np.sign(eta[:, :1]))
    x = np.array([0.9, 0.0, 0.0])
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 10_000_000, seed=31)
    assert abs(quadrature_value - estimate[0]) <= 3.0 * stderr[0]


def test_planar_lower_envelope_matches_disc_closed_form():
    from ballschwarz.disc import arc_extension

    cap = cap_angle_from_measure(2, 0.25)
    value = envelope_lower(HARM, cap, 0.5)
    assert value == pytest.approx(PLANAR_LOWER_QUARTER_HALF, abs=1e-10)
    live = 2.0 * arc_extension(0.5 + 0.0j, math.pi - cap.alpha, math.pi + cap.alpha) - 1.0
    assert value == pytest.approx(live, abs=1e-10)


def test_hyperbolic_one_sided_quotient_vanishes():
    # (1 - M)/(1 - r) decreasing to 0 along r = 1 - 2^-k: the boundary
    # derivative of the hyperbolic envelope is zero.
    for n in (3, 4):
        cap = cap_angle_from_measure(n, 0.5)
        quotients = []
        for k in range(4, 15):
            r = 1.0 - 2.0**-k
            quotients.append(boundary_difference_quotient(HYP, cap, r))
        assert np.all(np.diff(quotients) < 0.0)
        assert quotients[-1] < 1e-3


def test_difference_quotient_consistent_with_envelope():
    cap = cap_angle_from_measure(3, 0.4)
    for kind in (HARM, HYP):
        r = 0.9
        reference = (1.0 - _mp_envelopes(kind, cap, r)[0]) / (1.0 - r)
        factored = boundary_difference_quotient(kind, cap, r)
        assert factored == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize("kind", [HARM, HYP], ids=lambda k: k.value)
@pytest.mark.parametrize("n", [3, 5, 32])
def test_envelopes_match_mpmath_near_the_sphere(kind, n):
    # Radii on both sides of 0.999 and on the antipodal ray, where a
    # quadrature across the kernel peak loses the requested accuracy.
    for c in (0.3, 0.5):
        cap = cap_angle_from_measure(n, c)
        for r in (0.99, 0.998, 0.9989, 0.9995, -0.9995):
            upper, lower = _mp_envelopes(kind, cap, r)
            assert envelope_upper(kind, cap, r) == pytest.approx(upper, abs=1e-11), (c, r)
            assert envelope_lower(kind, cap, r) == pytest.approx(lower, abs=1e-11), (c, r)


def test_boundary_derivative_planar_base_value():
    assert boundary_derivative_harmonic(2, 0.0) == pytest.approx(TWO_OVER_PI, abs=1e-11)


def test_boundary_derivative_planar_closed_form_grid():
    for a in np.linspace(-0.9, 0.9, 13):
        closed = (2.0 / math.pi) / math.tan(math.pi * (1.0 + a) / 4.0)
        assert boundary_derivative_harmonic(2, float(a)) == pytest.approx(closed, abs=1e-10)


def test_boundary_derivative_matches_hypergeometric_constant():
    for n in (2, 3, 4, 5):
        assert boundary_derivative_harmonic(n, 0.0) == pytest.approx(
            heinz_schwarz_constant(n), abs=1e-8
        )


def test_boundary_derivative_decreasing_in_base_value():
    for n in (2, 3, 4):
        values = [boundary_derivative_harmonic(n, a) for a in np.linspace(-0.8, 0.8, 9)]
        assert np.all(np.diff(values) < 0.0)


def test_boundary_derivative_agrees_with_finite_difference():
    # Central difference of the envelope at r = 1 - 1e-4 vs the limit formula.
    n, a = 3, 0.2
    cap = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    r = 1.0 - 1e-4
    step = 1e-5
    slope = (envelope_upper(HARM, cap, r + step) - envelope_upper(HARM, cap, r - step)) / (
        2.0 * step
    )
    limit = boundary_derivative_harmonic(n, a)
    assert abs(slope - limit) / limit < 1e-3


def test_boundary_derivative_domain():
    with pytest.raises(DomainError):
        boundary_derivative_harmonic(3, 1.0)
    with pytest.raises(DomainError):
        boundary_derivative_harmonic(1, 0.0)


def test_heinz_schwarz_constants_closed_forms():
    assert heinz_schwarz_constant(2) == pytest.approx(TWO_OVER_PI, abs=1e-13)
    assert heinz_schwarz_constant(3) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-13)
    assert heinz_schwarz_constant(4) == pytest.approx(4.0 / math.pi - 1.0, abs=1e-13)
    # frozen from an independent quadrature evaluation of D_5(0)
    assert heinz_schwarz_constant(5) == pytest.approx(0.18198051533946388, abs=1e-10)
    with pytest.raises(DomainError):
        heinz_schwarz_constant(1)


def test_planar_bound_basics():
    assert schwarz_planar_bound(0.0) == pytest.approx(TWO_OVER_PI, abs=1e-15)
    with pytest.raises(DomainError):
        schwarz_planar_bound(1.0)
    with pytest.raises(DomainError):
        schwarz_planar_bound(-1.0)


def test_planar_bound_tangent_subtraction_identity():
    for b in np.linspace(-0.95, 0.95, 21):
        t = math.tan(b * math.pi / 4.0)
        identity = (2.0 / math.pi) * (1.0 - t) / (1.0 + t)
        assert schwarz_planar_bound(float(b)) == pytest.approx(identity, rel=1e-13)


def test_planar_bound_halfline_minorant_and_monotonicity():
    grid = np.linspace(-0.99, 0.99, 81)
    values = [schwarz_planar_bound(float(b)) for b in grid]
    assert np.all(np.diff(values) < 0.0)
    for b, v in zip(grid, values):
        assert v >= 0.5 * (1.0 - b) - 1e-12
        assert v > 0.0


def test_hyperbolic_decay_coefficient_closed_forms():
    assert hyperbolic_decay_coefficient(3, 0.5) == pytest.approx(0.5, abs=1e-10)
    assert hyperbolic_decay_coefficient(4, 0.5) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)


def test_hyperbolic_decay_coefficient_decreasing_in_measure():
    for n in (3, 4):
        values = [hyperbolic_decay_coefficient(n, c) for c in np.linspace(0.1, 0.9, 9)]
        assert np.all(np.diff(values) < 0.0)


def test_hyperbolic_decay_coefficient_domain():
    with pytest.raises(DomainError):
        hyperbolic_decay_coefficient(2, 0.5)


def test_hopf_condition_ratio_values():
    assert hopf_condition_ratio(3, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert hopf_condition_ratio(4, 0.5) == pytest.approx(16.0 / 3.0, rel=1e-15)


def test_hopf_condition_ratio_diverges_toward_boundary():
    values = [hopf_condition_ratio(3, r) for r in (0.0, 0.9, 0.99, 0.999, 0.99999)]
    assert np.all(np.diff(values) > 0.0)
    assert values[-1] > 1e4


def test_hopf_condition_ratio_domain():
    with pytest.raises(DomainError):
        hopf_condition_ratio(2, 0.5)
    with pytest.raises(DomainError):
        hopf_condition_ratio(3, 1.0)


def test_envelope_radius_domain():
    cap = cap_angle_from_measure(3, 0.5)
    with pytest.raises(DomainError):
        envelope_upper(HARM, cap, 1.0)
    with pytest.raises(DomainError):
        envelope_lower(HARM, cap, -1.0)

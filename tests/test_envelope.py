import json
import math

import mpmath
import numpy as np
import pytest

import ballschwarz.envelope
from ballschwarz import (
    AccuracyError,
    CapSpec,
    DomainError,
    KernelKind,
    QuadratureConfig,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    cap_measure_from_angle,
    envelope_lower,
    envelope_upper,
    heinz_schwarz_constant,
    hyperbolic_decay_coefficient,
    integrate_rows,
    schwarz_planar_bound,
    sigma_star,
)

import montecarlo

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
        nu, mu = (mpmath.mpf(e) for e in montecarlo.exponents(kind, n))
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


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_kernel_matches_the_textbook_form(kind, n):
    # sin^{n-2}t (1-r^2)^nu / (1 - 2r cos t + r^2)^mu, which neither overflows nor cancels for n <= 16
    # and |r| <= 1/2, where the distance is at least 1/4; the radii are a column, one row each, and -0.0
    # peaks at t = 0 like +0.0
    radii = np.array([-0.5, -0.3, -0.1, -0.0, 0.0, 0.1, 0.3, 0.5])[:, None]
    t = np.linspace(0.0, math.pi, 257)
    nu, mu = montecarlo.exponents(kind, n)
    textbook = np.sin(t) ** (n - 2) * (1.0 - radii**2) ** nu / (1.0 - 2.0 * radii * np.cos(t) + radii**2) ** mu
    values = kind.kernel(n, radii, t)
    assert values.shape == textbook.shape
    np.testing.assert_allclose(values, textbook, rtol=1e-13, atol=0.0)
    assert np.array_equal(values[3], values[4])
    for r, row in zip(radii[:, 0].tolist(), values):
        assert np.array_equal(kind.kernel(n, r, t), row), r


def test_cap_angle_planar_is_linear():
    for c in (0.1, 0.25, 0.5, 0.9):
        assert cap_angle_from_measure(2, c) == pytest.approx(math.pi * c, abs=1e-12)


def test_cap_angle_three_dimensional_closed_form():
    for c in (0.05, 0.3, 0.5, 0.8):
        assert cap_angle_from_measure(3, c) == pytest.approx(
            math.acos(1.0 - 2.0 * c), abs=1e-12
        )


def test_half_measure_is_hemisphere_in_every_dimension():
    for n in range(2, 65):
        assert cap_angle_from_measure(n, 0.5) == math.pi / 2.0


def test_cap_angle_roundtrip_and_monotonicity():
    for n in (4, 6, 16, 64):
        previous = 0.0
        for c in np.linspace(0.05, 0.95, 10):
            alpha = cap_angle_from_measure(n, float(c))
            assert cap_measure_from_angle(n, alpha) == pytest.approx(c, abs=1e-12)
            assert alpha > previous
            previous = alpha


# measures per cap: one per Newton step after the first, none to check the cap
_MEASURES_PER_CAP = {0.05: 6, 0.1: 5, 0.3: 4, 0.45: 3, 0.7: 4, 0.95: 6}


def test_cap_inversion_needs_few_measure_quadratures(monkeypatch):
    calls = []
    kernel = ballschwarz.envelope._cap_measure

    def counting(n, star, alpha):
        calls.append(alpha)
        return kernel(n, star, alpha)

    # the one measure kernel: every Newton step reaches it
    monkeypatch.setattr(ballschwarz.envelope, "_cap_measure", counting)
    for n in (4, 5, 8, 16, 32, 64):
        for c, measures in _MEASURES_PER_CAP.items():
            calls.clear()
            CapSpec(n, c)
            assert len(calls) == measures, (n, c, len(calls))
    calls.clear()
    CapSpec(8, 0.5)
    CapSpec(8, 1.0)
    assert calls == []  # the hemisphere's first step is exact, the full cap is pi


@pytest.mark.parametrize("n", [4, 5])
def test_cap_inversion_raises_when_measure_never_reaches_target(monkeypatch, n):
    monkeypatch.setattr(ballschwarz.envelope, "_cap_measure", lambda n, star, alpha: 0.0)
    with pytest.raises(AccuracyError, match=f"n={n}, c=0.3"):
        cap_angle_from_measure(n, 0.3)


def test_cap_inversion_refuses_an_angle_outside_the_sphere(monkeypatch):
    # a slope that sends the first step from pi/2 to exactly 0, where the measure then reads c
    monkeypatch.setattr(ballschwarz.envelope, "sigma_star", lambda n: 0.25 / (0.5 * math.pi))
    monkeypatch.setattr(ballschwarz.envelope, "_cap_measure", lambda n, star, alpha: 0.25)
    with pytest.raises(DomainError, match=r"^cap angle must lie in \(0, pi\], got 0\.0$"):
        cap_angle_from_measure(2, 0.25)


_BENCH_MEASURES = sorted({0.1, 0.3, 0.5, 0.7, 0.9} | {0.5 * (1.0 + a) for a in (
    -0.9, -0.75, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9)})
_TINY_MEASURES = [1e-6, 1e-12, 1e-20, 1e-28, 1.0 - 1e-6, 1.0 - 1e-12]


@pytest.mark.parametrize("n", [*range(2, 65), 1080, 2055, 19999])
def test_inverted_caps_equal_the_checked_cap(n):
    # what the constructor's re-measure of a cap guaranteed, now of the inverter itself
    for c in _BENCH_MEASURES + _TINY_MEASURES:
        try:
            alpha = cap_angle_from_measure(n, c)
        except AccuracyError:
            assert c < 1e-12 and n > 2, (n, c)  # too tiny for 100 Newton steps
            continue
        assert type(alpha) is float and 0.0 < alpha <= math.pi, (n, c)
        assert abs(cap_measure_from_angle(n, alpha) - c) <= 1e-10, (n, c)
        cap = CapSpec(n, c)
        assert cap.alpha == alpha and cap == CapSpec(n, c) and hash(cap) == hash(CapSpec(n, c))
        assert type(cap.n) is int and type(cap.c) is float


@pytest.mark.parametrize("n", [*range(2, 65), 1080, 2055, 19999])
def test_hemisphere_and_full_caps_have_exact_angles(n):
    assert CapSpec(n, 0.5).alpha == 0.5 * math.pi
    assert CapSpec(n, 1.0).alpha == math.pi
    assert type(CapSpec(float(n), 0.5).n) is int


def _mp_cap_measure(n, alpha):
    with mpmath.workdps(50):
        x = mpmath.sin(mpmath.mpf(alpha)) ** 2
        return mpmath.betainc(mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("c", [1e-20, 1e-24, 1e-28])
def test_tiny_caps_invert_to_the_angle_of_their_measure(n, c):
    # an absolute stop of 1e-13 on the angle left the measure 10 times too large at n = 3, c = 1e-28
    alpha = cap_angle_from_measure(n, c)
    with mpmath.workdps(50):
        assert abs(_mp_cap_measure(n, alpha) / mpmath.mpf(c) - 1) <= 1e-14, (n, c)


def test_a_cap_too_tiny_for_the_newton_budget_raises():
    with pytest.raises(AccuracyError, match="did not converge in 100 Newton steps"):
        cap_angle_from_measure(3, 1e-60)


def test_hopf_row_of_a_tiny_cap_has_the_exact_decay_coefficient(capsys):
    from ballschwarz.cli import main

    # at n = 3, d_n = cot^2(alpha/2) / 2 = (1-c)/(2c) exactly
    assert main(["hopf", "--n", "3", "--c-grid", "1e-28", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    d_n = rows[-1]["d_n"]
    assert abs(d_n / ((1.0 - 1e-28) / 2e-28) - 1.0) <= 1e-11, d_n


def test_cap_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            cap_angle_from_measure(3, bad)
    with pytest.raises(DomainError):
        cap_angle_from_measure(1, 0.5)
    for bad in (0.0, -0.2, 1.3, math.nan):
        with pytest.raises(DomainError, match=r"cap measure must lie in \(0, 1\]"):
            CapSpec(3, bad)
    for n in (1, 2.5):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            CapSpec(n, 0.5)
    with pytest.raises(TypeError):
        CapSpec(3, 0.5, 1.0)  # the angle is derived from (n, c), never given


def test_envelopes_at_origin_equal_recentred_measure():
    for kind in (HARM, HYP):
        for n, c in [(2, 0.3), (3, 0.5), (4, 0.7), (5, 0.2)]:
            cap = CapSpec(n, c)
            assert envelope_upper(kind, cap, 0.0) == pytest.approx(2.0 * c - 1.0, abs=1e-10)
            assert envelope_lower(kind, cap, 0.0) == pytest.approx(2.0 * c - 1.0, abs=1e-10)


def test_full_sphere_cap_gives_constant_one():
    full = CapSpec(3, 1.0)
    for kind in (HARM, HYP):
        for r in (0.0, 0.4, 0.9, 0.9999):
            assert envelope_upper(kind, full, r) == pytest.approx(1.0, abs=1e-10)


def test_lower_envelope_is_reflected_complement_upper():
    # m_c^n(r) = -M_{1-c}^n(r) over a 20 x 20 (c, r) grid, both kernels
    c_grid = np.linspace(0.04, 0.96, 20)
    r_grid = np.linspace(0.0, 0.95, 20)
    for kind in (HARM, HYP):
        for c in c_grid:
            cap = CapSpec(3, float(c))
            comp = CapSpec(3, float(1.0 - c))
            for r in r_grid:
                lower = envelope_lower(kind, cap, float(r))
                upper = envelope_upper(kind, comp, float(r))
                assert lower == pytest.approx(-upper, abs=1e-9)


def test_envelope_sandwich_strictness():
    # m(0) = M(0) = 2c - 1 exactly, so the comparison carries quadrature slack.
    for kind in (HARM, HYP):
        cap = CapSpec(3, 0.35)
        for r in np.linspace(0.0, 0.95, 8):
            lower = envelope_lower(kind, cap, float(r))
            upper = envelope_upper(kind, cap, float(r))
            assert -1.0 < lower <= upper + 1e-10
            assert upper < 1.0


def test_upper_envelope_monotone_in_radius():
    for kind in (HARM, HYP):
        cap = CapSpec(3, 0.3)
        values = [envelope_upper(kind, cap, r) for r in np.arange(0.0, 0.96, 0.05)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)


def test_upper_envelope_tends_to_one():
    for kind in (HARM, HYP):
        cap = CapSpec(3, 0.3)
        values = [envelope_upper(kind, cap, 1.0 - 10.0**-k) for k in range(1, 7)]
        assert np.all(np.diff(values) > 0.0)
        assert values[-1] > 1.0 - 1e-4


def test_upper_envelope_matches_large_monte_carlo():
    # M_{1/2}^3(0.9) against a 10^7-sample Poisson integral of the
    # hemisphere data 2 chi - 1, within three standard errors.
    from montecarlo import BoundaryMap, monte_carlo_extension

    cap = CapSpec(3, 0.5)
    quadrature_value = envelope_upper(HARM, cap, 0.9)

    gmap = BoundaryMap(n=3, m=1, eval=lambda eta: np.sign(eta[:, :1]))
    x = np.array([0.9, 0.0, 0.0])
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 10_000_000, seed=31)
    assert abs(quadrature_value - estimate[0]) <= 3.0 * stderr[0]


def test_planar_lower_envelope_matches_disc_closed_form():
    # at n = 2 the two kernels coincide, so the disc's arc measure checks
    # the hyperbolic closed form by a separate path
    from ballschwarz.disc import arc_extension

    cap = CapSpec(2, 0.25)
    live = 2.0 * arc_extension(0.5 + 0.0j, math.pi - cap.alpha, math.pi + cap.alpha) - 1.0
    for kind in (HARM, HYP):
        value = envelope_lower(kind, cap, 0.5)
        assert value == pytest.approx(PLANAR_LOWER_QUARTER_HALF, abs=1e-10), kind
        assert value == pytest.approx(live, abs=1e-10), kind


def test_hyperbolic_one_sided_quotient_vanishes():
    # (1 - M)/(1 - r) decreasing to 0 along r = 1 - 2^-k: the boundary
    # derivative of the hyperbolic envelope is zero.
    for n in (3, 4):
        cap = CapSpec(n, 0.5)
        quotients = []
        for k in range(4, 15):
            r = 1.0 - 2.0**-k
            quotients.append(boundary_difference_quotient(HYP, cap, r))
        assert np.all(np.diff(quotients) < 0.0)
        assert quotients[-1] < 1e-3


def test_difference_quotient_consistent_with_envelope():
    cap = CapSpec(3, 0.4)
    for kind in (HARM, HYP):
        r = 0.9
        reference = (1.0 - _mp_envelopes(kind, cap, r)[0]) / (1.0 - r)
        factored = boundary_difference_quotient(kind, cap, r)
        assert factored == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize("n, c, r, reference", [
    (128, 0.5, 0.95, 3.5823146323920251e-19),
    (256, 0.5, 0.95, 3.3986208096156704e-37),
    (256, 0.5, 0.999, 6.5892270400514766e-40),
    (1024, 0.5, 0.7, 1.9167920342668922e-90),
    (1024, 0.1, 0.999, 6.9942739304413462e-147),
])
def test_harmonic_quotient_at_large_dimension_meets_a_relative_tolerance(n, c, r, reference):
    """Harmonic T, a tail quadrature of 1e-19 to 1e-147, to rel_tol once abs_tol is out of the way.

    Each reference is, at the library's own alpha and 50 digits,

        2 sigma_star (1+r) mpmath.quad(g, mpmath.linspace(alpha, pi, 401)),
        g(t) = sin^{n-2}t (1 - 2 r cos t + r^2)^{-n/2},

    with g divided by its largest value on 2001 grid points inside the quad
    and the factor put back outside it: mpmath stops on an absolute error of
    1e-50, which an unscaled g of 1e-90 meets at once.  Tanh-sinh and
    Gauss-Legendre agree to every printed digit, on 400 and 1000 subintervals.
    """
    cap = CapSpec(n, c)
    value = boundary_difference_quotient(HARM, cap, r, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10))
    assert value == pytest.approx(reference, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("c", [0.1, 0.9])
@pytest.mark.parametrize("n", [13, 15, 16, 24, 32, 48, 64])
def test_hyperbolic_quotient_matches_mpmath_on_the_hopf_radii(n, c):
    # T(r) = 2 sigma_star (1-r)^{n-2} (1+r)^{n-1} int_alpha^pi of the kernel,
    # at the library's own alpha so that only the closed form is tested; the
    # factored quadrature that preceded it missed this by 2.1e-5 at n = 64
    cap = CapSpec(n, c)
    with mpmath.workdps(40):
        half = mpmath.mpf(n) / 2
        star = mpmath.gamma(half) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(half - mpmath.mpf(1) / 2))
        for k in range(4, 15):
            r = 1.0 - 2.0**-k
            r_mp = mpmath.mpf(r)

            def f(t):
                return mpmath.sin(t) ** (n - 2) / (1 - 2 * r_mp * mpmath.cos(t) + r_mp**2) ** (n - 1)

            body = mpmath.quad(f, [mpmath.mpf(cap.alpha), mpmath.pi])
            ref = 2 * star * (1 - r_mp) ** (n - 2) * (1 + r_mp) ** (n - 1) * body
            value = boundary_difference_quotient(HYP, cap, r)
            assert value == pytest.approx(float(ref), rel=1e-12, abs=0.0), k


def _quadrature_hyperbolic_quotient(cap, r):
    """T(r) = 2 sigma_star int_alpha^pi K dt / (1-r), K the hyperbolic ``KernelKind.kernel``."""
    tail = integrate_rows(lambda t: HYP.kernel(cap.n, r, t), cap.alpha, math.pi, TIGHT)[0]
    return 2.0 * sigma_star(cap.n) * tail / (1.0 - r)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16])
def test_hyperbolic_quotient_matches_the_factored_quadrature(n):
    for c in (0.1, 0.5, 0.9):
        cap = CapSpec(n, c)
        for r in (0.0, 0.3, 0.9, 0.99, 1.0 - 2.0**-10):
            value = boundary_difference_quotient(HYP, cap, r)
            _assert_rel(value, _quadrature_hyperbolic_quotient(cap, r), 1e-12, (c, r))


PLANAR_QUOTIENT_AT_THE_SPHERE = 1.2494366532609131  # T(1) at n = 2, c = 0.3, both kinds: 2 cot(0.15 pi) / pi


@pytest.mark.parametrize("n", [2, 3, 8])
def test_difference_quotient_at_the_sphere(n):
    # T(1) is dM/dr at r = 1: D_n(a) for the harmonic kernel, 0 for the
    # hyperbolic one with n > 2, and the planar 2 cot(alpha/2) / pi for both
    # at n = 2, where the closed form's 0/0 takes its limit
    for c in (0.3, 0.5, 0.9):
        cap = CapSpec(n, c)
        harmonic = boundary_difference_quotient(HARM, cap, 1.0)
        hyperbolic = boundary_difference_quotient(HYP, cap, 1.0)
        assert harmonic == pytest.approx(boundary_derivative_harmonic(n, 2.0 * c - 1.0), rel=1e-10), c
        if n > 2:
            assert hyperbolic == 0.0, c
            continue
        assert hyperbolic == pytest.approx(harmonic, rel=1e-12), c
        assert hyperbolic == pytest.approx(boundary_difference_quotient(HYP, cap, 1.0 - 2.0**-30), rel=1e-8), c
        if c == 0.3:
            assert harmonic == pytest.approx(PLANAR_QUOTIENT_AT_THE_SPHERE, rel=1e-12)


@pytest.mark.parametrize("kind", [HARM, HYP], ids=lambda k: k.value)
@pytest.mark.parametrize("n", [3, 5, 32])
def test_envelopes_match_mpmath_near_the_sphere(kind, n):
    # Radii on both sides of 0.999 and on the antipodal ray, where a
    # quadrature across the kernel peak loses the requested accuracy; the
    # hyperbolic closed form is held to rounding.
    tol = 1e-14 if kind is HYP else 1e-11
    for c in (0.3, 0.5):
        cap = CapSpec(n, c)
        for r in (0.99, 0.998, 0.9989, 0.9995, -0.9995):
            upper, lower = _mp_envelopes(kind, cap, r)
            assert envelope_upper(kind, cap, r) == pytest.approx(upper, abs=tol), (c, r)
            assert envelope_lower(kind, cap, r) == pytest.approx(lower, abs=tol), (c, r)
    # the full cap: data 1 everywhere, so M = m = 1 at every radius
    full = CapSpec(n, 1.0)
    for r in (0.9995, -0.9995):
        assert envelope_upper(kind, full, r) == pytest.approx(1.0, abs=1e-11), r
        assert envelope_lower(kind, full, r) == pytest.approx(1.0, abs=1e-11), r


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
    cap = CapSpec(n, 0.5 * (1.0 + a))
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
    assert hyperbolic_decay_coefficient(CapSpec(3, 0.5)) == pytest.approx(0.5, abs=1e-10)
    assert hyperbolic_decay_coefficient(CapSpec(4, 0.5)) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)


def test_hyperbolic_decay_coefficient_decreasing_in_measure():
    for n in (3, 4):
        values = [hyperbolic_decay_coefficient(CapSpec(n, c)) for c in np.linspace(0.1, 0.9, 9)]
        assert np.all(np.diff(values) < 0.0)


def test_hyperbolic_decay_coefficient_domain():
    with pytest.raises(DomainError, match=r"^dimension must be an integer >= 3, got 2$"):
        hyperbolic_decay_coefficient(CapSpec(2, 0.5))
    # the full cap is a cap, but its T is 0 and has no decay coefficient
    with pytest.raises(DomainError, match=r"^cap measure must lie in \(0, 1\), got 1\.0$"):
        hyperbolic_decay_coefficient(CapSpec(3, 1.0))


def test_envelope_radius_domain():
    cap = CapSpec(3, 0.5)
    with pytest.raises(DomainError):
        envelope_upper(HARM, cap, 1.0)
    with pytest.raises(DomainError):
        envelope_lower(HARM, cap, -1.0)


# -- closed forms against independent paths ---------------------------------

MP_HALF = mpmath.mpf(1) / 2


def _assert_rel(value, reference, rel, where=None):
    # pytest.approx would also accept anything within 1e-12 absolute
    assert abs(value - reference) <= rel * abs(reference), (where, value, reference)


def _mp_star(n):
    return mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n - 1) / 2))


def _mp_measure(n, alpha):
    """F_n(alpha) by mpmath's incomplete beta function, at the working precision."""
    alpha = mpmath.mpf(alpha)
    small = min(alpha, mpmath.pi - alpha)
    half = mpmath.betainc(mpmath.mpf(n - 1) / 2, MP_HALF, 0, mpmath.sin(small) ** 2, regularized=True) / 2
    return half if alpha <= mpmath.pi / 2 else 1 - half


def _mp_angle(n, c):
    """alpha(c) by Newton in mpmath, started from the library's angle."""
    c = mpmath.mpf(c)
    if c == MP_HALF:
        return mpmath.pi / 2
    alpha = mpmath.mpf(cap_angle_from_measure(n, float(c)))
    for _ in range(3):
        alpha -= (_mp_measure(n, alpha) - c) / (_mp_star(n) * mpmath.sin(alpha) ** (n - 2))
    return alpha


def _mp_boundary_derivative(n, a):
    """D_n(a) = 2 sigma_star cot h cos^{n-2}h - 2(n-2) F_n(pi/2 - h), h = alpha/2, at 40 digits."""
    with mpmath.workdps(40):
        h = _mp_angle(n, (1 + mpmath.mpf(a)) / 2) / 2
        return float(
            2 * _mp_star(n) * mpmath.cot(h) * mpmath.cos(h) ** (n - 2)
            - 2 * (n - 2) * _mp_measure(n, mpmath.pi / 2 - h)
        )


def _mp_decay_coefficient(n, c):
    with mpmath.workdps(40):
        return float(2 * _mp_star(n) * mpmath.cot(_mp_angle(n, c) / 2) ** (n - 1) / (n - 1))


@pytest.mark.parametrize("n", list(range(2, 65)) + [1080, 2049, 20000])
def test_cap_measure_matches_mpmath_incomplete_beta(n):
    rel = 1e-13 if n <= 64 else 1e-10
    for alpha in (1e-6, 0.3, 1.0, math.pi / 2, 2.0, 3.1):
        with mpmath.workdps(40):
            reference = _mp_measure(n, alpha)
        if reference < 1e-300:
            continue
        _assert_rel(cap_measure_from_angle(n, alpha), float(reference), rel, alpha)


def test_small_caps_in_three_dimensions_keep_their_digits():
    # 1 - cos(alpha) and acos(1 - 2c) cancel for small caps
    with mpmath.workdps(40):
        measure = float(_mp_measure(3, 1e-6))
        angle = float(2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(1e-12))))
    _assert_rel(cap_measure_from_angle(3, 1e-6), measure, 1e-13)
    _assert_rel(cap_angle_from_measure(3, 1e-12), angle, 1e-13)


def test_beta_fraction_raises_past_its_term_budget():
    with pytest.raises(AccuracyError, match="did not converge"):
        ballschwarz.envelope._beta_fraction(0.5, 5e5, 0.99)


def _beta_fraction_loop(a, b, x):
    """``_beta_fraction`` with its two Lentz steps as a loop over the coefficient pair."""
    tiny = ballschwarz.envelope._TINY
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    value = d
    for m in range(1, ballschwarz.envelope._FRACTION_TERMS + 1):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d, c = 1.0 / ((1.0 + coef * d) or tiny), (1.0 + coef / c) or tiny
            value *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return value
    raise AccuracyError(f"incomplete-beta fraction for a={a!r}, b={b!r}, x={x!r} did not converge")


def _fraction_outcome(fraction, a, b, x):
    try:
        return fraction(a, b, x)
    except AccuracyError as exc:
        return str(exc)


def test_beta_fraction_keeps_the_bits_of_the_coefficient_loop():
    rng = np.random.default_rng(20260)
    dims = np.unique(np.concatenate([[2, 3, 20000], np.rint(np.exp(rng.uniform(math.log(2), math.log(20000), 400)))]))
    converged = 0
    for n in dims.astype(int):
        for alpha in rng.uniform(0.0, 0.5 * math.pi, 5):
            sin, cos = math.sin(alpha), math.cos(alpha)
            # the small-cap branch of F_n and D_n, then the complement branch
            for a, b, x in ((0.5 * (n - 1), 0.5, sin * sin), (0.5, 0.5 * (n - 1), cos * cos)):
                expected = _fraction_outcome(_beta_fraction_loop, a, b, x)
                assert _fraction_outcome(ballschwarz.envelope._beta_fraction, a, b, x) == expected, (a, b, x)
                converged += isinstance(expected, float)
    assert converged >= 0.5 * 2 * 5 * len(dims)


@pytest.mark.parametrize("n", range(2, 65))
def test_boundary_derivative_matches_mpmath(n):
    for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
        _assert_rel(boundary_derivative_harmonic(n, a), _mp_boundary_derivative(n, a), 1e-12, a)


@pytest.mark.parametrize("n", [1080, 1400, 2049])
def test_boundary_derivative_at_large_dimension_is_a_positive_double(n):
    # the parent returned 0 (underflow) from n ~ 1080 and NaN from n = 2049
    _assert_rel(boundary_derivative_harmonic(n, 0.0), _mp_boundary_derivative(n, 0.0), 1e-11)


@pytest.mark.parametrize("n", range(3, 65))
def test_hyperbolic_decay_coefficient_matches_mpmath(n):
    # Away from c = 1/2 the angle comes from inverting the measure, whose
    # rounding error (sigma_star's lgamma difference) reaches d_n amplified
    # by (n-1) / (sin(alpha) F_n'(alpha)), about 40 at n = 62, c = 0.9.
    for c, rel in ((0.1, 1e-12), (0.5, 1e-13), (0.9, 1e-12)):
        _assert_rel(hyperbolic_decay_coefficient(CapSpec(n, c)), _mp_decay_coefficient(n, c), rel, c)


def _mp_tail(n, alpha, r):
    """T(r) at the half-angle alpha by 40-digit mpmath Gauss-Legendre quadrature of the direct arc.

    Below r = 1, T = 2 sigma_star (1+r) int_alpha^pi sin^{n-2}t (1 - 2r cos t + r^2)^{-n/2} dt, broken
    at alpha + (1-r) 2^k, where the kernel's layer of width 1-r sits, and divided inside the quad by its
    largest value on those points: mpmath stops on an absolute error, which a tiny integrand meets at
    once.  At r = 1, the limit 2 sigma_star int_0^{cot(alpha/2)} (u^2 / (1+u^2))^{(n-2)/2} du, broken
    at 2^k.
    """
    with mpmath.workdps(40):
        alpha, two = mpmath.mpf(alpha), mpmath.mpf(2)
        if r == 1.0:
            top = mpmath.cot(alpha / 2)
            points = [0, *(two**k for k in range(-4, 1100) if two**k < top), top]
            return 2 * _mp_star(n) * mpmath.quad(lambda u: (u * u / (1 + u * u)) ** ((n - 2) * MP_HALF), points,
                                                 method="gauss-legendre")
        r = mpmath.mpf(r)

        def kernel(t):
            return mpmath.sin(t) ** (n - 2) * (1 - 2 * r * mpmath.cos(t) + r * r) ** (-n * MP_HALF)

        points = [alpha, *(alpha + (1 - r) * two**k for k in range(60) if alpha + (1 - r) * two**k < mpmath.pi),
                  mpmath.pi]
        scale = max(kernel(t) for t in points[:-1])
        body = mpmath.quad(lambda t: kernel(t) / scale, points, method="gauss-legendre")
        return 2 * _mp_star(n) * (1 + r) * scale * body


_PIN_MEASURES = (1e-6, 0.02, 0.5, 0.98, 1.0 - 1e-6)
_PIN_RADII = (0.001, 0.3, 0.9, 0.99999)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32, 64])
def test_harmonic_envelopes_and_quotients_match_mpmath(n):
    # Every cap measure, one radius of each in rotation, and the sphere, at the default tolerances.
    # T(r) within 1e-13 relative; M(r) and m(r) = M(-r), which lie in [-1, 1], within 1e-13.  The
    # references take the library's own alpha, so only the tails are tested.
    for i, c in enumerate(_PIN_MEASURES):
        cap = CapSpec(n, c)
        r = _PIN_RADII[(n + i) % len(_PIN_RADII)]
        own, other = _mp_tail(n, cap.alpha, r), _mp_tail(n, math.pi - cap.alpha, r)
        with mpmath.workdps(40):
            upper, lower = float(1 - (1 - mpmath.mpf(r)) * own), float((1 - mpmath.mpf(r)) * other - 1)
        assert abs(envelope_upper(HARM, cap, r) - upper) <= 1e-13, (c, r)
        assert abs(envelope_lower(HARM, cap, r) - lower) <= 1e-13, (c, r)
        quotients = boundary_difference_quotient(HARM, cap, [r, 1.0]).tolist()
        _assert_rel(quotients[0], float(own), 1e-13, (c, r))
        _assert_rel(quotients[1], float(_mp_tail(n, cap.alpha, 1.0)), 1e-13, (c, 1.0))


def test_tails_that_miss_on_the_image_rule_continue_in_the_engine(engine_calls):
    # a tiny cap: the image integrand falls off long before the end of its arc, so the fixed nodes miss
    cap = CapSpec(4, 1e-12)
    radii = [1e-12, 0.5, 0.999]
    for r, value in zip(radii, boundary_difference_quotient(HARM, cap, radii).tolist()):
        _assert_rel(value, float(_mp_tail(4, cap.alpha, r)), 1e-13, r)
    assert engine_calls == ["integrate_rows"]  # all the rows that missed, in one call
    # a tolerance below the rounding of T is missed on the fixed nodes and refused by the engine
    with pytest.raises(AccuracyError, match="subdivisions"):
        boundary_difference_quotient(HARM, CapSpec(8, 0.3), 0.5, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-17))


TIGHT = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-13)


def _old_boundary_derivative(n, a):
    """D_n(a) from its limiting integrand, as computed before the closed form."""
    alpha = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    star = sigma_star(n)
    tail = integrate_rows(lambda t: np.sin(t) ** (n - 2) / np.sin(0.5 * t) ** n, alpha, math.pi, TIGHT)[0]
    return 2.0 ** (2 - n) * star * tail


def _old_decay_coefficient(n, c):
    """d_n = 2^n sigma_star int_alpha^pi 4^{1-n} sin^{n-2}t sin^{-2(n-1)}(t/2) dt."""
    alpha = cap_angle_from_measure(n, c)
    star = sigma_star(n)

    def q_hyp(t):
        return 4.0 ** (1 - n) * np.sin(t) ** (n - 2) / np.sin(0.5 * t) ** (2 * (n - 1))

    return 2.0**n * star * integrate_rows(q_hyp, alpha, math.pi, TIGHT)[0]


@pytest.mark.parametrize("n", range(2, 17))
def test_closed_forms_match_the_old_integrands(n):
    for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
        _assert_rel(boundary_derivative_harmonic(n, a), _old_boundary_derivative(n, a), 1e-10, a)
        if n > 2:
            c = 0.5 * (1.0 + a)
            _assert_rel(hyperbolic_decay_coefficient(CapSpec(n, c)), _old_decay_coefficient(n, c), 1e-10, c)


@pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
def test_constants_layer_makes_no_quadrature_calls(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("the constants layer called integrate_rows")

    monkeypatch.setattr(ballschwarz.envelope, "integrate_rows", refuse)
    for c in (0.05, 0.3, 0.5, 0.7, 0.95):
        cap_angle_from_measure(n, c)
        boundary_derivative_harmonic(n, 2.0 * c - 1.0)
        if n > 2:
            hyperbolic_decay_coefficient(CapSpec(n, c))
    heinz_schwarz_constant(n)


def test_hyperbolic_cli_tables_make_no_quadrature_calls(monkeypatch, capsys):
    from ballschwarz.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a hyperbolic value called integrate_rows")

    monkeypatch.setattr(ballschwarz.envelope, "integrate_rows", refuse)
    grid = ["--n", "2,3,8,32", "--c-grid", "0.1,0.5,0.9,1", "--r-grid=-0.9995,-0.5,0,0.5,0.9995"]
    assert main(["envelope", "--kind", "hyperbolic", *grid]) == 0
    assert main(["hopf", "--n", "3,4,16,64", "--c-grid", "0.1,0.5,0.9"]) == 0
    # at n = 2 the kernels coincide, so the harmonic envelopes take the closed form too
    assert main(["envelope", "--kind", "harmonic", "--n", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_harmonic_envelope_table_makes_no_engine_calls(engine_calls, capsys):
    from ballschwarz.cli import main

    grid = ["--n", "3,8,32,64", "--c-grid", "1e-6,0.1,0.5,0.9,0.999999", "--r-grid=-0.99999,-0.5,0,0.5,0.9,0.999"]
    assert main(["envelope", "--kind", "harmonic", *grid]) == 0
    assert capsys.readouterr().err == ""
    # every tail meets the tolerance on the fixed image rule
    assert engine_calls == []
    # and so do the difference quotients, the sphere included
    for n in (3, 8, 64):
        boundary_difference_quotient(HARM, CapSpec(n, 0.3), [0.0, 0.5, 0.99999, 1.0])
    assert engine_calls == []


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
def test_array_radii_match_the_scalar_envelopes(kind, n):
    # a value's bits do not depend on the radii computed with it: each harmonic row is its own
    # 1 x k product, on the fixed image rule or in the engine
    radii = np.array([-0.999, -0.5, -0.0, 0.0, 0.3, 0.9, 0.999])
    for c in (1e-6, 0.1, 0.5, 0.9, 1.0):
        cap = CapSpec(n, c)
        for envelope in (envelope_upper, envelope_lower):
            values = envelope(kind, cap, radii)
            assert isinstance(values, np.ndarray) and values.shape == radii.shape
            for r, value in zip(radii.tolist(), values.tolist()):
                scalar = envelope(kind, cap, r)
                assert type(scalar) is float and scalar.hex() == value.hex(), (c, r)


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_one_envelope_pass_has_the_bits_of_each_side(kind, n):
    # m(r) is M(-r) bit for bit, +-0 included, and one pass over r and -r gives each side's bits
    radii = [-0.999, -0.5, -0.0, 0.0, 0.3, 0.9, 0.999]
    config = QuadratureConfig()
    for c in (0.1, 0.5, 0.9, 1.0):
        cap = CapSpec(n, c)
        for r in radii + [0]:
            lower = envelope_lower(kind, cap, r, config)
            assert type(lower) is float and lower.hex() == envelope_upper(kind, cap, -float(r), config).hex(), (c, r)
        for r in (radii, np.array(radii)):
            both = envelope_upper(kind, cap, np.concatenate((r, np.negative(r))), config).tolist()
            for side, envelope in ((both[:len(radii)], envelope_upper), (both[len(radii):], envelope_lower)):
                alone = envelope(kind, cap, r, config)
                assert [v.hex() for v in side] == [v.hex() for v in alone.tolist()], (c, envelope)


@pytest.mark.parametrize("kind, pins", [
    (HARM, [("-0x1.9999999999998p-1", "-0x1.9999999999999p-1"), ("-0x1.0000000000000p-51", "0x1.0000000000000p-51"),
            ("0x1.9999999999993p-1", "0x1.9999999999994p-1")]),
    (HYP, [("-0x1.9999999999998p-1", "-0x1.9999999999999p-1"), ("-0x1.0000000000000p-51", "0x1.0000000000000p-51"),
           ("0x1.9999999999993p-1", "0x1.9999999999994p-1")]),
])
def test_the_envelopes_at_positive_zero_keep_their_bits(kind, pins):
    # +0.0 takes M's own tail and m = M(-0.0) the reflected one, which differ in their last bits; at
    # r = 0 the kernels coincide and both take the closed form, so the two kinds have the same bits,
    # each within 5.7e-16 of M(0) = 2 F_n(alpha) - 1 by mpmath betainc at the cap's own alpha
    for c, (upper, lower) in zip((0.1, 0.5, 0.9), pins):
        cap = CapSpec(8, c)
        assert (envelope_upper(kind, cap, 0.0).hex(), envelope_lower(kind, cap, 0.0).hex()) == (upper, lower), c


@pytest.mark.parametrize("kind", ["harmonic", "hyperbolic"])
def test_the_envelope_table_makes_one_pass_per_cap(monkeypatch, capsys, kind):
    import ballschwarz.cli
    from ballschwarz.cli import main

    passes = []
    one_pass = ballschwarz.cli.envelope_upper

    def counted(kind, cap, r, config):
        passes.append((cap.n, cap.c, list(r)))
        return one_pass(kind, cap, r, config)

    def refuse(*args):
        raise AssertionError("the envelope table called the lower envelope")

    monkeypatch.setattr(ballschwarz.cli, "envelope_upper", counted)
    monkeypatch.setattr(ballschwarz.envelope, "envelope_lower", refuse)
    argv = ["envelope", "--n", "2,8", "--c-grid", "0.3,1", "--r-grid=-0.5,0,0.9", "--kind", kind]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    # each cap's radii, then their reflections: M over the grid and m = M(-r)
    both = [-0.5, 0.0, 0.9, 0.5, -0.0, -0.9]
    assert [(n, c, [x.hex() for x in r]) for n, c, r in passes] == [
        (n, c, [x.hex() for x in both]) for n in (2, 8) for c in (0.3, 1.0)]


def test_array_radii_outside_the_ball_raise_naming_the_radius():
    cap = CapSpec(3, 0.5)
    for bad in (1.0, -1.5, math.nan):
        with pytest.raises(DomainError, match=f"got {bad!r}"):
            envelope_upper(HARM, cap, np.array([0.2, bad, 0.4]))
        with pytest.raises(DomainError, match=f"got {bad!r}"):
            envelope_lower(HYP, cap, [0.2, bad])


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_array_radii_match_the_scalar_difference_quotients(kind, n):
    radii = [0.0, 0.3, 0.9, 0.999, 1.0 - 2.0**-14, 1.0]
    for c in (0.1, 0.5, 0.9, 1.0):
        cap = CapSpec(n, c)
        for r in (radii, np.array(radii), tuple(radii)):
            values = boundary_difference_quotient(kind, cap, r)
            assert isinstance(values, np.ndarray) and values.shape == (len(radii),)
            for x, value in zip(radii, values.tolist()):  # the bits of the scalar call
                scalar = boundary_difference_quotient(kind, cap, x)
                assert type(scalar) is float and scalar.hex() == value.hex(), (c, x)
    cap = CapSpec(n, 0.5)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError, match=rf"^difference quotient needs 0 <= r <= 1, got {bad!r}$"):
            boundary_difference_quotient(kind, cap, [0.2, bad])


@pytest.mark.parametrize("n", [76, 80])
def test_difference_quotient_below_the_normal_doubles_raises(n):
    # (1-r) T / 2 at r = 1 - 2^-14 is subnormal at n = 76 and 0 at n = 80
    cap = CapSpec(n, 0.5)
    r = 1.0 - 2.0**-14
    with pytest.raises(DomainError, match=f"n={n}") as single:
        boundary_difference_quotient(HYP, cap, r)
    assert str(single.value).startswith(f"T(r) for n={n}, c=0.5 at r={r!r} is ")
    # an array raises for the first radius that underflows, with the message of that radius alone
    with pytest.raises(DomainError) as first:
        boundary_difference_quotient(HYP, cap, [0.5, r, 1.0 - 2.0**-20])
    assert str(first.value) == str(single.value)
    # the envelope itself is the double nearest 1 - (1-r) T, which is 1
    assert envelope_upper(HYP, cap, 1.0 - 2.0**-14) == 1.0


def test_heinz_schwarz_constant_raises_once_it_underflows():
    assert 0.0 < heinz_schwarz_constant(2049) < 2.3e-308  # subnormal but positive: kept
    for m in (5000, 20000):
        with pytest.raises(DomainError, match=f"m={m}"):
            heinz_schwarz_constant(m)


@pytest.mark.parametrize("c", [1e-9, 1.0 - 1e-9])
def test_hyperbolic_decay_coefficient_outside_the_doubles_raises(c):
    # c = 1e-9 overflows, c = 1 - 1e-9 underflows
    with pytest.raises(DomainError, match=r"n=20000"):
        hyperbolic_decay_coefficient(CapSpec(20000, c))


def test_boundary_derivative_underflow_raises():
    with pytest.raises(DomainError, match=r"n=30000, a=0\.0"):
        boundary_derivative_harmonic(30000, 0.0)

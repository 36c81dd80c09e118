import importlib
import math
import pathlib
import types

import numpy as np
import pytest

import ballschwarz
from ballschwarz import (
    AccuracyError,
    CapSpec,
    ContactTestCase,
    DomainError,
    KernelKind,
    MarginReport,
    ZonalBoundaryData,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    build_cap_extremal,
    cap_angle_from_measure,
    cap_measure_from_angle,
    check_V_monotone,
    check_boundary_bound,
    check_envelope_sandwich,
    check_hemisphere_majorant,
    check_mobius_precomposition,
    check_planar_bound,
    default_verification_suite,
    envelope_upper,
    heinz_schwarz_constant,
    hopf_failure_scan,
    hyperbolic_decay_coefficient,
    majorant_radial_slope,
    schwarz_planar_bound,
    sigma_star,
    zonal_contact_case,
    zonal_extension_on_axis,
)
from ballschwarz.poisson import uniform_sphere_samples
from ballschwarz.quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_rows
from ballschwarz import envelope, verify
from ballschwarz.cli import main as cli_main
from ballschwarz.disc import DiscCapExtremal, arc_extension
from ballschwarz.errors import _base_value, _unit
from ballschwarz.hilbert_ball import MobiusParams, RealLinearMap, boundary_lambda
from ballschwarz.verify import (
    DEFAULT_SEED,
    _MAP_COMPONENTS,
    _PlaneWaveMap,
    random_zonal_profile,
)

from montecarlo import BoundaryMap, monte_carlo_extension
from test_envelope import _mp_boundary_derivative

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


def _nested_quadrature_value(data, x):
    """Off-axis harmonic extension by the nested quadrature the library used
    before its Gegenbauer series: the kernel averaged over the azimuthal
    sphere S^{n-2}, inside an integral over the polar angle; a single circle
    integral for n = 2.  Kept here as an independent oracle."""
    n = data.n
    r = float(np.linalg.norm(x))
    cos_psi = float(np.dot(x, data.axis)) / r
    psi = math.acos(cos_psi)
    if n == 2:
        def circle_integrand(t):
            prof = np.asarray(data.profile(np.abs(t)), dtype=float)
            return prof * (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t - psi) + r * r)

        breaks = [*data.breakpoints, *(-b for b in data.breakpoints), psi]
        return integrate_rows(circle_integrand, -math.pi, math.pi, breakpoints=breaks)[0] / (2.0 * math.pi)

    sin_psi = math.sin(psi)
    inner_star = sigma_star(n - 1)

    def azimuth_average(phi):
        base = 1.0 + r * r - 2.0 * r * cos_psi * math.cos(phi)
        cross = 2.0 * r * sin_psi * math.sin(phi)

        def az_integrand(theta):
            return np.sin(theta) ** (n - 3) / (base - cross * np.cos(theta)) ** (0.5 * n)

        return inner_star * integrate_rows(az_integrand, 0.0, math.pi)[0]

    def outer_integrand(phi):
        prof = np.asarray(data.profile(phi), dtype=float)
        averages = np.array([azimuth_average(float(p)) for p in np.atleast_1d(phi)])
        return prof * np.sin(phi) ** (n - 2) * averages

    body = integrate_rows(outer_integrand, 0.0, math.pi, breakpoints=data.breakpoints)[0]
    return sigma_star(n) * (1.0 - r * r) * body


def _off_axis_point(rng, n, rho, psi):
    ortho = np.concatenate([[0.0], rng.standard_normal(n - 1)])
    return rho * (math.cos(psi) * _axis(n) + math.sin(psi) * ortho / np.linalg.norm(ortho))


def _step(levels, cuts):
    return lambda t: levels[np.searchsorted(cuts, np.asarray(t, dtype=float), side="right")]


@pytest.mark.parametrize("n", range(2, 9))
def test_offaxis_series_matches_nested_quadrature(n):
    # Every n sees all four radii, two on its cap extremal and two on a
    # random three-step profile, plus one angle 1e-9 from a jump.
    rng = np.random.Generator(np.random.Philox(700 + n))
    rhos = (0.1, 0.5, 0.9, 0.95)
    a = float(rng.uniform(-0.8, 0.8))
    alpha = cap_angle_from_measure(n, 0.5 * (1.0 + a))
    cap = ZonalBoundaryData(n=n, axis=_axis(n), profile=_step(np.array([1.0, -1.0]), np.array([alpha])),
                            breakpoints=(alpha,))
    cuts = np.sort(rng.uniform(0.15, math.pi - 0.15, 2))
    step = ZonalBoundaryData(n=n, axis=_axis(n), profile=_step(rng.uniform(-1.0, 1.0, 3), cuts),
                             breakpoints=tuple(cuts))
    cases = [(build_cap_extremal(n, 2, a), cap), (zonal_contact_case(n, 2, step.profile, cuts, "step"), step)]
    points = [(case, data, rhos[(n + shift) % 4], float(rng.uniform(0.05, math.pi - 0.05)))
              for shift, (case, data) in zip((0, 1, 2, 3), cases * 2)]
    points.append((cases[1][0], step, 0.5, float(cuts[0]) + 1e-9))
    for case, data, rho, psi in points:
        x = _off_axis_point(rng, n, rho, psi)
        assert abs(case.f(x)[0] - _nested_quadrature_value(data, x)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_offaxis_values_make_no_quadrature_calls(n, monkeypatch):
    case = build_cap_extremal(n, 2, 0.3)  # its base value a = h(0) is a quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("off-axis evaluation called integrate_rows")

    for module in ("poisson", "envelope"):
        monkeypatch.setattr(f"ballschwarz.{module}.integrate_rows", refuse)
    value = case.f(_off_axis_point(np.random.Generator(np.random.Philox(n)), n, 0.8, 1.1))[0]
    assert -1.0 < value < 1.0


def test_offaxis_values_need_step_data():
    case = zonal_contact_case(3, 2, np.cos, (), "cosine")
    # on the axis any profile works: cos extends to the coordinate x_1
    assert case.radial_section(0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError, match="constant between its breakpoints"):
        case.f(np.array([0.3, 0.4, 0.0]))


def test_offaxis_series_past_its_term_budget_raises():
    # K ~ 3.9e8 terms is known before the sum starts; summing them would take minutes
    case = build_cap_extremal(3, 2, 0.0)
    with pytest.raises(AccuracyError, match=r"\|x\|=0\.99999.* K=\d{9} terms"):
        case.f((1.0 - 1e-7) * np.array([0.6, 0.8, 0.0]))


def test_offaxis_series_raises_where_its_terms_cancel():
    # n = 32 at |x| = 0.95, 0.05 from the axis: the terms reach about 1e13
    # and cancel; the unchecked sum is 1.0053, outside the range of the data
    case = build_cap_extremal(32, 2, 0.0)
    with pytest.raises(AccuracyError, match="abs_tol") as info:
        case.f(_off_axis_point(np.random.Generator(np.random.Philox(3)), 32, 0.95, 0.05))
    assert info.value.estimate > 1.0


@pytest.mark.parametrize("x", [np.zeros(3), np.array([0.1, 0.2, 0.0]), np.zeros((1, 4))],
                         ids=["origin-of-R3", "point-of-R3", "batch-of-one"])
def test_offaxis_point_of_the_wrong_shape_names_n(x):
    # before the check the origin of R^3 returned the centre value and the others raised numpy's errors
    case = build_cap_extremal(4, 2, 0.3)
    with pytest.raises(DomainError, match=r"shape \(4,\) for n=4, got \(" + ", ".join(map(str, x.shape))):
        case.f(x)


def _term_by_term_value(data, x, abs_tol=1e-11):
    """An off-axis value as the series was first summed: the levels, cap measures and edge weights
    recomputed per point and every term added in a Python loop.  The reference for the bits of
    ``verify._zonal_value``, refusals included."""
    r = float(np.linalg.norm(x))
    cos_psi = min(1.0, max(-1.0, float(np.dot(x, data.axis)) / r))
    n, edges, levels = data.n, data.breakpoints, data.step_levels()
    if n == 2:
        z = complex(r * cos_psi, r * math.sqrt(1.0 - cos_psi * cos_psi))
        bounds = zip((0.0, *edges), (*edges, math.pi))
        return sum(level * (arc_extension(z, lo, hi) + arc_extension(z, -hi, -lo))
                   for level, (lo, hi) in zip(levels, bounds))
    terms = math.ceil(math.log(1e-17) / math.log(r)) + 60
    lam = 0.5 * (n - 2)
    coefs, c_prev, c_cur, power = [], 1.0, cos_psi, 1.0
    for k in range(1, terms + 1):
        power *= r
        coefs.append(power * 2.0 * (k + lam) / (k * (k + 2.0 * lam)) * c_cur)
        c_prev, c_cur = c_cur, (2.0 * (k + lam) * cos_psi * c_cur - k * c_prev) / (k + 2.0 * lam)
    value, series, bound = float(levels[-1]), 0.0, 0.0
    for jump, t in zip(levels[:-1] - levels[1:], edges):
        cos_t, d_prev, d_cur, edge_sum, edge_abs = math.cos(t), 0.0, 1.0, 0.0, 0.0
        for k, coef in enumerate(coefs, start=1):
            term = coef * d_cur
            edge_sum += term
            edge_abs += abs(term)
            d_prev, d_cur = d_cur, (2.0 * (k + lam) * cos_t * d_cur - (k + 2.0 * lam) * d_prev) / k
        weight = jump * math.sin(t) ** (n - 1)
        value += jump * cap_measure_from_angle(n, t)
        series += weight * edge_sum
        bound += abs(weight) * (2.0**-52 * edge_abs + abs(term) / (1.0 - r))
    star = sigma_star(n)
    if not star * bound <= abs_tol:
        raise AccuracyError(f"off-axis series at |x|={r!r}, n={n} is only good to {star * bound:.3g}, "
                            f"past abs_tol={abs_tol!r}", value + star * series)
    return value + star * series


def _outcome(evaluate, data, x):
    try:
        value = evaluate(data, x)
    except AccuracyError as exc:
        return "AccuracyError", str(exc), type(exc.estimate), float(exc.estimate).hex()
    return type(value), float(value).hex()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 32])
def test_offaxis_values_have_the_bits_of_the_term_by_term_loop(n):
    # random cap extremals and three-step profiles; points anywhere, near an edge and near the axis
    rng = np.random.Generator(np.random.Philox(900 + n))
    cuts = np.sort(rng.uniform(0.15, math.pi - 0.15, 2))
    alpha = cap_angle_from_measure(n, float(rng.uniform(0.1, 0.9)))
    cases = [_cuts_data(n, (alpha,), (1.0, -1.0)), _cuts_data(n, tuple(cuts), (1.0, *rng.uniform(-1.0, 1.0, 2)))]
    refused = 0
    for data in cases:
        edge = data.breakpoints[0]
        for psi in (*rng.uniform(0.05, math.pi - 0.05, 4), edge + 1e-9, edge - 0.01, 1e-4, math.pi - 1e-3):
            for rho in (float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 0.97))):
                x = _off_axis_point(rng, n, rho, float(psi))
                expected = _outcome(_term_by_term_value, data, x)
                assert _outcome(verify._zonal_value, data, x) == expected
                refused += expected[0] == "AccuracyError"
    assert refused > 0 or n < 12  # the refusals are compared too


def _cuts_data(n, cuts, levels):
    return ZonalBoundaryData(n=n, axis=_axis(n), profile=_step(np.array(levels), np.array(cuts)),
                             breakpoints=tuple(cuts))


def test_offaxis_memo_keeps_no_refusal_and_the_axis_never_builds_it():
    data = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    # on the axis any profile evaluates, and nothing off-axis is built
    assert verify._zonal_value(data, np.array([0.5, 0.0, 0.0])) == pytest.approx(0.5, abs=1e-12)
    assert verify._zonal_value(data, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    assert "_step_series" not in vars(data)
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError, match="constant between its breakpoints") as info:
            verify._zonal_value(data, np.array([0.3, 0.4, 0.0]))
        messages.append(str(info.value))
        assert "_step_series" not in vars(data)
    assert messages[0] == messages[1]
    step = _cuts_data(3, (1.0,), (1.0, -1.0))
    verify._zonal_value(step, np.array([-0.5, 0.0, 0.0]))
    assert "_step_series" not in vars(step)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_offaxis_memo_is_per_data_and_order_free(n):
    rng = np.random.Generator(np.random.Philox(40 + n))
    points = [_off_axis_point(rng, n, rho, float(rng.uniform(0.1, math.pi - 0.1)))
              for rho in (0.2, 0.6, 0.9, 0.35, 0.75)]

    def values(data, order):
        return {i: float(verify._zonal_value(data, points[i])).hex() for i in order}

    first, second = _cuts_data(n, (0.8, 2.1), (1.0, 0.2, -0.6)), _cuts_data(n, (0.5, 2.6), (1.0, 0.2, -0.6))
    forward = values(first, range(len(points)))
    # the same data built again, its points in reverse order, gives the same bits
    assert values(_cuts_data(n, (0.8, 2.1), (1.0, 0.2, -0.6)), reversed(range(len(points)))) == forward
    # a second data object of the same n with other cuts: its own values, whichever object goes first
    other = values(second, range(len(points)))
    assert other != forward
    assert values(_cuts_data(n, (0.5, 2.6), (1.0, 0.2, -0.6)), range(len(points))) == other
    assert values(first, reversed(range(len(points)))) == forward
    assert first._step_series is not second._step_series and first._step_series != second._step_series
    # equality and repr see fields only
    assert "_step_series" not in repr(first)


def test_cap_extremal_rotation_invariance():
    rng = np.random.Generator(np.random.Philox(123))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    baseline = check_boundary_bound(build_cap_extremal(3, 2, 0.3))
    rotated = check_boundary_bound(build_cap_extremal(3, 2, 0.3, axis=q[:, 0]))
    assert abs(baseline.lam - rotated.lam) < 1e-8


def _three_call_estimate(h, base_step=1e-3):
    """The Richardson estimate with one scalar call of h per radius of its ladder."""
    quotients = []
    for j in range(3):
        s = base_step / 2.0 ** j
        quotients.append((1.0 - h(1.0 - s)) / s)
    for k in range(1, 3):
        factor = 2.0 ** k
        quotients = [(factor * quotients[j + 1] - quotients[j]) / (factor - 1.0) for j in range(len(quotients) - 1)]
    return quotients[0]


def test_planar_and_mobius_ladders_are_one_section_call_with_the_bits_of_three(monkeypatch):
    ladders = []

    def spy(h, base_step=1e-3):
        calls = []

        def counted(radii):
            calls.append(radii.tolist())
            return h(radii)

        value = ballschwarz.radial_derivative_estimate(counted, base_step)
        assert calls == [[1.0 - base_step / 2.0 ** j for j in range(3)]]
        # each section is a comprehension over a scalar closed form, so one radius alone is the old scalar call
        assert value.hex() == _three_call_estimate(lambda r: h(np.array([r]))[0], base_step).hex()
        ladders.append(base_step)
        return value

    monkeypatch.setattr(verify, "radial_derivative_estimate", spy)
    check_planar_bound([-0.8, 0.0, 0.4])
    xi = np.array([0.3 + 0.2j, -0.1 + 0.25j])
    check_mobius_precomposition(2, xi)
    check_mobius_precomposition(2, xi, a=0.4)
    assert ladders == [1e-3] * 3 + [1e-4] * 2


def test_cap_extremal_ladders_keep_the_bits_of_three_point_calls():
    rng = np.random.Generator(np.random.Philox(123))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cases = [build_cap_extremal(n, 2, a) for n, a in [(2, 0.0), (3, 0.0), (3, 0.5), (4, -0.5), (8, 0.3)]]
    cases.append(build_cap_extremal(3, 3, 0.3, axis=q[:, 0]))  # |t x0| need not be t
    for case in cases:
        old = _three_call_estimate(lambda r: float(np.dot(case.f(r * case.x0), case.y0)))
        assert check_boundary_bound(case).lam.hex() == old.hex(), case.case_id


def test_each_cap_extremal_ladder_is_one_engine_call_and_a_suite_makes_twenty(engine_calls):
    for n, a in [(2, 0.0), (3, 0.0), (3, 0.5), (4, -0.5)]:
        case = build_cap_extremal(n, 2, a)
        engine_calls.clear()
        check_boundary_bound(case)
        assert engine_calls == ["integrate_rows"], case.case_id
    verify._seed_free_rows.cache_clear()
    engine_calls.clear()
    default_verification_suite()
    # cold: per cap extremal its base value a and its ladder, then one call per sandwich profile
    assert len(engine_calls) == 4 * 2 + 12
    engine_calls.clear()
    default_verification_suite(seed=3)
    # warm: the cap extremals come from the memo, so only the sandwich profiles reach the engine
    assert len(engine_calls) == 12


def test_radial_sections_of_a_radius_are_floats_and_of_an_array_are_rows():
    identity = ContactTestCase(3, lambda x: np.asarray(x, dtype=float), _axis(3), _axis(3), 0.0, "identity")
    radii = [0.999, 0.9995, 0.99975, -0.5, 0.0]
    for case in (build_cap_extremal(3, 2, 0.3), zonal_contact_case(4, 2, np.cos, (), "cosine"), identity):
        singles = [case.radial_section(r) for r in radii]
        assert all(type(value) is float for value in singles)
        rows = case.radial_section(np.array(radii))
        assert isinstance(rows, np.ndarray) and rows.shape == (5,)
        assert [value.hex() for value in rows.tolist()] == [value.hex() for value in singles], case.case_id
        assert case.radial_section(np.float64(0.5)) == case.radial_section(0.5)
        with pytest.raises(DomainError, match=r"^radii must be a radius or a 1-D array, got shape \(1, 2\)$"):
            case.radial_section(np.array([[0.1, 0.2]]))


@pytest.mark.parametrize("n, a", [(5, 0.3), (8, 0.3), (16, -0.5), (32, 0.5), (64, 0.0)])
def test_cap_extremals_meet_the_betainc_bound_up_to_dimension_64(n, a):
    report = check_boundary_bound(build_cap_extremal(n, 2, a))
    assert report.passed and abs(report.margin) <= 1e-9, (report.lam, report.bound)
    reference = _mp_boundary_derivative(n, a)
    assert abs(report.bound - reference) <= 1e-12 * reference


def test_identity_map_clears_bound():
    case = ContactTestCase(
        n=3,
        f=lambda x: np.asarray(x, dtype=float),
        x0=_axis(3),
        y0=_axis(3),
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
    violation = check_envelope_sandwich(HARM, [cap_data], [0.1 * j for j in range(10)])
    assert abs(violation) <= 2e-9
    # and a generic profile stays strictly inside
    assert check_envelope_sandwich(HARM, [data], [0.1 * j for j in range(10)]) <= 2e-9


def test_sandwich_cosine_profile():
    data = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    violation = check_envelope_sandwich(HARM, [data], [0.1 * j for j in range(1, 10)])
    assert violation <= 1e-9


def test_sandwich_random_profiles_both_kernels():
    rng = np.random.Generator(np.random.Philox(2024))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for kind in (HARM, HYP):
        for _ in range(10):
            data = random_zonal_profile(rng, 3)
            assert check_envelope_sandwich(kind, [data], grid) <= 1e-8


@pytest.mark.parametrize("kind, calls", [(HARM, 1), (HYP, 1)])
def test_sandwich_integrates_each_grid_in_one_call_per_side(kind, calls, engine_calls):
    # h at 0 and the grid radii in one engine call; the M and m tails call none (the image rule for the
    # harmonic kernel, closed forms for the hyperbolic one)
    rng = np.random.Generator(np.random.Philox(7))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for _ in range(4):
        engine_calls.clear()
        check_envelope_sandwich(kind, [random_zonal_profile(rng, 3)], grid)
        assert len(engine_calls) == calls


@pytest.mark.parametrize("kind", [HARM, HYP])
def test_sandwich_makes_one_envelope_pass(kind, monkeypatch):
    # M over the grid and m = M(-r) in one envelope_rows call on the profile's cap
    passes = []
    one_pass = verify.envelope_rows

    def counted(kind, caps, r, config):
        assert len(caps) == 1
        passes.append(r.tolist())
        return one_pass(kind, caps, r, config)

    monkeypatch.setattr(verify, "envelope_rows", counted)
    rng = np.random.Generator(np.random.Philox(7))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for _ in range(3):
        data = random_zonal_profile(rng, 3)
        passes.clear()
        assert check_envelope_sandwich(kind, [data], grid) <= 1e-8
        assert passes == [grid + [-x for x in grid]]


@pytest.mark.parametrize("kind", [HARM, HYP])
def test_the_sandwich_of_six_profiles_has_the_bits_of_each_profile_alone(kind):
    # one envelope pass over the six caps, and the largest excess of the six one-profile checks, bit for bit
    rng = np.random.Generator(np.random.Philox(19))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for _ in range(3):
        datas = [random_zonal_profile(rng, 3) for _ in range(6)]
        alone = max(check_envelope_sandwich(kind, [data], grid) for data in datas)
        assert check_envelope_sandwich(kind, datas, grid).hex() == alone.hex()


def test_a_suite_makes_eight_tail_passes_two_of_them_for_the_sandwich(engine_calls, monkeypatch):
    # per kernel, the six sandwich profiles in one envelope_rows pass; then one pass for the majorant, one per
    # Hopf scan and one per V_monotone dimension; the engine calls stay at 20
    passes, sandwich = [], []
    one_pass, all_caps = envelope._tail_quotient, verify.envelope_rows

    def tails(kind, n, alpha, r, config):
        passes.append((kind, n))
        return one_pass(kind, n, alpha, r, config)

    def counted(kind, caps, r, config):
        sandwich.append((kind, len(caps), len(r)))
        return all_caps(kind, caps, r, config)

    monkeypatch.setattr(envelope, "_tail_quotient", tails)
    monkeypatch.setattr(verify, "envelope_rows", counted)
    verify._seed_free_rows.cache_clear()
    assert all(report.passed for report in default_verification_suite())
    assert sandwich == [(HARM, 6, 20), (HYP, 6, 20)]
    # the memo's Hopf scans and V_monotone dimensions are built before the seeded rows
    assert passes == [(HYP, 3), (HYP, 4), (HARM, 2), (HARM, 3), (HARM, 4), (HARM, 3), (HYP, 3), (HARM, 3)]
    assert len(engine_calls) == 20
    # warm: only the seeded rows' passes, the sandwich's two and the majorant's
    del passes[:], sandwich[:], engine_calls[:]
    assert all(report.passed for report in default_verification_suite(seed=3))
    assert sandwich == [(HARM, 6, 20), (HYP, 6, 20)]
    assert passes == [(HARM, 3), (HYP, 3), (HARM, 3)]
    assert len(engine_calls) == 12


_SEEDED_FAMILIES = ("mobius-precomposition", "envelope-sandwich", "hemisphere-majorant")


def _row(report):
    return (report.case, report.lam.hex(), report.bound.hex(), report.tolerance.hex(), report.relation,
            report.checks, report.details)


@pytest.mark.parametrize("m", [2, 3, 1000])
def test_seed_free_rows_are_the_bits_of_a_cold_suite_at_every_seed(m):
    seed_free = []
    for seed in (0, 1, 7):
        verify._seed_free_rows.cache_clear()
        cold = [_row(report) for report in default_verification_suite(seed, target_dim=m)]
        warm = [_row(report) for report in default_verification_suite(seed, target_dim=m)]
        assert warm == cold, seed
        seed_free.append([row for row in cold if not row[0].startswith(_SEEDED_FAMILIES)])
    assert len(seed_free[0]) == 17 and len(cold) == 22
    assert seed_free[1] == seed_free[0] and seed_free[2] == seed_free[0]


def test_another_config_or_dimension_misses_the_memo(engine_calls):
    verify._seed_free_rows.cache_clear()
    for config, m, cold in [(DEFAULT_CONFIG, 2, True), (DEFAULT_CONFIG, 2, False), (DEFAULT_CONFIG, 3, True),
                            (QuadratureConfig(1e-10, 1e-10), 2, True), (QuadratureConfig(1e-11, 1e-10), 3, False)]:
        misses = verify._seed_free_rows.cache_info().misses
        engine_calls.clear()
        default_verification_suite(seed=5, config=config, target_dim=m)
        assert verify._seed_free_rows.cache_info().misses == misses + cold, (config, m)
        assert len(engine_calls) == (20 if cold else 12), (config, m)


def test_a_returned_report_cannot_reach_the_memo():
    first = default_verification_suite(seed=2, bound_scale=1.5)
    for report in first:
        report.details["planted"] = True
        report.checks["planted"] = False
    second = default_verification_suite(seed=2)
    assert all("planted" not in report.details and "planted" not in report.checks for report in second)
    assert all(report.passed for report in second)
    assert [report.bound * 1.5 for report in second] == [report.bound for report in first]


def _sandwich_per_radius(kind, data, grid):
    a = zonal_extension_on_axis(kind, data, 0.0)
    cap = CapSpec(data.n, 0.5 * (1.0 + a))
    worst = -math.inf
    for r in grid:
        h = zonal_extension_on_axis(kind, data, r)
        worst = max(worst, h - envelope_upper(kind, cap, r), envelope_upper(kind, cap, -r) - h)
    return worst


@pytest.mark.parametrize("kind", [HARM, HYP])
def test_sandwich_matches_a_per_radius_loop(kind):
    rng = np.random.Generator(np.random.Philox(31))
    grid = [0.05 + 0.1 * j for j in range(10)]
    for n in (3, 4, 5):
        for _ in range(6):
            data = random_zonal_profile(rng, n)
            assert abs(check_envelope_sandwich(kind, [data], grid) - _sandwich_per_radius(kind, data, grid)) <= 1e-14
    cosine = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    assert abs(check_envelope_sandwich(kind, [cosine], grid) - _sandwich_per_radius(kind, cosine, grid)) <= 1e-14


def test_V_monotone_makes_no_engine_call(engine_calls):
    # the 22 stencil radii of every dimension take the image rule, or the closed form at m = 2
    for m in (2, 3, 4, 5, 8):
        assert check_V_monotone(m).passed
    assert engine_calls == []


def test_majorant_slopes_over_an_array_match_the_scalar_slopes():
    radii = np.array([0.1 * j for j in range(10)] + [0.99])
    for m in (2, 3, 4, 8):
        slopes = majorant_radial_slope(m, radii)
        assert isinstance(slopes, np.ndarray) and slopes.shape == radii.shape
        for r, slope in zip(radii.tolist(), slopes.tolist()):
            scalar = majorant_radial_slope(m, r)
            assert isinstance(scalar, float)
            # a central difference at step 1e-4 multiplies rounding in M by 5000
            assert abs(slope - scalar) <= 1e-12
    with pytest.raises(DomainError):
        majorant_radial_slope(3, np.array([0.2, 1.0 - 1e-5]))


def test_hemisphere_majorant_makes_one_envelope_call_per_row(engine_calls, monkeypatch):
    series, envelopes = [], []

    def extension(waves, *args, _extension=_PlaneWaveMap.extension):
        series.append(waves.freqs.shape)
        return _extension(waves, *args)

    def counted(kind, cap, r, config, _envelope=verify.envelope_upper):
        envelopes.append(len(r))
        return _envelope(kind, cap, r, config)

    monkeypatch.setattr(_PlaneWaveMap, "extension", extension)
    monkeypatch.setattr(verify, "envelope_upper", counted)
    for trials in (1, 5, 12):
        envelopes.clear()
        series.clear()
        report = check_hemisphere_majorant(3, 2, trials=trials, seed=11)
        assert report.passed
        # one envelope pass over all 4 trials radii, whose tails call no engine, and one series over
        # the stack of all maps
        assert envelopes == [4 * trials]
        assert series == [(trials, _MAP_COMPONENTS)]
    assert engine_calls == []


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
    def sign_data(eta):
        return np.sign(eta[:, 2])[:, None]

    gmap = BoundaryMap(n=3, m=1, eval=sign_data)
    x = np.array([0.0, 0.0, 0.6])
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 200_000, seed=8)
    hemisphere = CapSpec(3, 0.5)
    majorant = envelope_upper(HARM, hemisphere, 0.6)
    assert abs(abs(estimate[0]) - majorant) <= 4.0 * stderr[0]


def test_hemisphere_majorant_random_trials():
    report = check_hemisphere_majorant(3, 2, trials=8, seed=17)
    assert report.passed and report.lam <= 0.0


def test_hemisphere_majorant_reproducible():
    a = check_hemisphere_majorant(3, 2, trials=3, seed=5)
    b = check_hemisphere_majorant(3, 2, trials=3, seed=5)
    assert a == b
    assert (a.case, a.relation, a.bound, a.tolerance) == ("hemisphere-majorant n=3 m=2", "<=", 0.0, 0.0)
    assert set(a.details) == {"points", "series_terms", "worst_radius", "boundary_residual"}
    assert a.details["points"] == 12 and a.details["series_terms"] == 40
    assert 0.1 <= a.details["worst_radius"] < 0.85
    assert a.checks == {"boundary": True} and a.details["boundary_residual"] <= 1e-12


def test_hopf_scan_slope_and_coefficient():
    # the quadratic correction regressor keeps the fit's bias far below the
    # suite's 1% tolerance, also at n = 16, c = 0.1 where it is largest
    for n in (3, 4, 8, 16):
        for c in (0.1, 0.5, 0.9):
            scan = hopf_failure_scan(n, c)
            assert abs(scan.slope - (n - 2)) <= 1e-3
            d_n = hyperbolic_decay_coefficient(CapSpec(n, c))
            assert scan.d_n == d_n
            assert abs(scan.coefficient - d_n) / d_n <= 1e-3
            assert np.all(np.diff(scan.values) < 0.0)


def test_a_hopf_row_inverts_its_cap_once(monkeypatch, capsys):
    calls, invert = [], envelope.cap_angle_from_measure
    monkeypatch.setattr(envelope, "cap_angle_from_measure", lambda n, c: calls.append((n, c)) or invert(n, c))
    assert cli_main(["hopf", "--n", "12", "--c-grid", "0.1"]) == 0
    assert calls == [(12, 0.1)]
    calls.clear()
    scan = hopf_failure_scan(12, 0.1)
    assert calls == [(12, 0.1)]
    assert capsys.readouterr().out.splitlines()[-1].endswith(f",{scan.d_n:.12g}")


def test_hopf_scan_domain():
    with pytest.raises(DomainError):
        hopf_failure_scan(2, 0.5)
    # at n = 74 the smallest T, 3.4e-305, is still a normal double, but the
    # cap measure (1-r) T / 2 it is computed from is not
    assert hopf_failure_scan(73, 0.5).values[-1] > 0.0
    with pytest.raises(DomainError, match="n=74"):
        hopf_failure_scan(74, 0.5)
    # the full cap is a cap, but its T is 0, whose log the fit cannot take
    for c in (0.0, 1.0):
        with pytest.raises(DomainError, match=rf"cap measure must lie in \(0, 1\), got {c!r}"):
            hopf_failure_scan(3, c)


def test_majorant_slope_at_origin():
    # dM_{1/2}^m/dr at 0 = 4 sigma_star(m) (m/2)/(m-1), from
    # differentiating the cap integral under the integral sign.
    assert majorant_radial_slope(2, 0.0) == pytest.approx(4.0 / math.pi, abs=1e-7)
    assert majorant_radial_slope(3, 0.0) == pytest.approx(1.5, abs=1e-7)
    assert majorant_radial_slope(4, 0.0) == pytest.approx(16.0 / (3.0 * math.pi), abs=1e-7)


def test_majorant_slope_monotone_and_end_value():
    for m in (2, 3, 4):
        assert check_V_monotone(m).passed
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
    halved = default_verification_suite(bound_scale=0.5)
    # equality rows fail whichever way the bound moves; lower bounds still hold
    assert {rep.case for rep in halved if not rep.passed} == {
        rep.case for rep in halved if rep.case.startswith(("planar-extremal", "hopf-scan"))
    }
    raised = default_verification_suite(bound_scale=1.5)
    sharp = ("planar-extremal", "cap-extremal", "mobius-precomposition", "hopf-scan",
             "majorant-slope-monotone")
    assert all(not rep.passed for rep in raised if rep.case.startswith(sharp))
    assert sum(rep.case.startswith(sharp) for rep in raised) == 18
    # the pointwise envelope comparisons hold their bound of 0 at any scale
    for rep in raised:
        if rep.case.startswith(("envelope-sandwich", "hemisphere-majorant")):
            assert rep.bound == 0.0 and rep.passed


def test_margin_report_relations():
    lower = MarginReport("lower", 1.0, 1.1, 0.2, ">=")
    assert lower.margin == pytest.approx(-0.1) and lower.passed
    upper = MarginReport("upper", 1.0, 1.1, 0.0, "<=")
    assert upper.margin == pytest.approx(0.1) and upper.passed
    assert not MarginReport("upper", 1.2, 1.1, 0.0, "<=").passed
    assert MarginReport("equal", 1.0, 1.05, 0.1, "==").passed
    assert not MarginReport("equal", 1.2, 1.05, 0.1, "==").passed
    # a side check is stored as given and a false one fails the row
    failing = MarginReport("side", 2.0, 1.0, 0.0, ">=", checks={"alignment": False})
    assert failing.checks == {"alignment": False} and not failing.passed
    with pytest.raises(DomainError):
        MarginReport("bad", 1.0, 1.0, 0.0, "=>")
    with pytest.raises(TypeError):
        MarginReport("set", 1.0, 1.0, 0.0, ">=", passed=True)


def test_contact_case_validation():
    with pytest.raises(DomainError):
        ContactTestCase(
            n=3,
            f=lambda x: x,
            x0=np.array([0.5, 0.0, 0.0]),
            y0=_axis(3),
            a=0.0,
            case_id="bad",
        )


_NAN_UNIT = [math.nan, 0.0, 0.0]
_IDENTITY_MAP = RealLinearMap(B=np.eye(2), C=np.zeros((2, 2)))


_NAN_BASE = r"^base value must lie in \(-1, 1\), got nan$"


@pytest.mark.parametrize("build, message", [
    (lambda: _unit(_NAN_UNIT, "v"), r"^v must be a unit vector to 1e-12, got norm nan$"),
    (lambda: ZonalBoundaryData(3, _NAN_UNIT, np.cos), r"^zonal axis must be a unit vector to 1e-14, got norm nan$"),
    (lambda: zonal_contact_case(3, 2, lambda t: np.where(t <= 1.0, 1.0, -1.0), (1.0,), "x", axis=_NAN_UNIT),
     r"^zonal axis must be a unit vector to 1e-14, got norm nan$"),
    (lambda: ContactTestCase(3, np.asarray, _NAN_UNIT, _axis(3), 0.0, "x0"),
     r"^contact point x0 must be a unit vector to 1e-12, got norm nan$"),
    (lambda: ContactTestCase(3, np.asarray, _axis(3), _NAN_UNIT, 0.0, "y0"),
     r"^target point y0 must be a unit vector to 1e-12, got norm nan$"),
    (lambda: check_mobius_precomposition(2, [0.3, 0.0], z0=[math.nan, 0.0]),
     r"^contact point z0 must be a unit vector to 1e-12, got norm nan$"),
    (lambda: boundary_lambda(_IDENTITY_MAP, [math.nan, 0.0], [1.0, 0.0]),
     r"^contact direction a must be a unit vector to 1e-12, got norm nan$"),
    (lambda: boundary_lambda(_IDENTITY_MAP, [1.0, 0.0], [math.nan, 0.0]),
     r"^target direction b must be a unit vector to 1e-12, got norm nan$"),
    (lambda: MobiusParams(np.array([math.nan, 0.0])), r"^Moebius parameter must satisfy \|xi\| < 1$"),
    (lambda: MobiusParams(np.array([[0.5, 0.0], [math.nan, 0.0]])), r"\|xi\| < 1 \(batch row \[1\]\)"),
    (lambda: _base_value(math.nan), _NAN_BASE),
    (lambda: ContactTestCase(3, np.asarray, _axis(3), _axis(3), math.nan, "a"), _NAN_BASE),
    (lambda: build_cap_extremal(3, 2, math.nan), _NAN_BASE),
    (lambda: DiscCapExtremal(math.nan), _NAN_BASE),
    (lambda: boundary_derivative_harmonic(3, math.nan), _NAN_BASE),
    (lambda: schwarz_planar_bound(math.nan), _NAN_BASE),
    (lambda: envelope_upper(HARM, CapSpec(3, 0.5), "0.5"), r"^radius must be a number, got '0\.5'$"),
    (lambda: envelope_upper(HARM, CapSpec(3, 0.5), b"0.5"), r"^radius must be a number, got b'0\.5'$"),
    (lambda: envelope_upper(HARM, CapSpec(3, 0.5), np.str_("0.5")), r"^radius must be a number, got '0\.5'$"),
    (lambda: envelope_upper(HARM, CapSpec(3, 0.5), np.array(["0.5", "0.2"])),
     r"^radius must be a number, got np\.str_\('0\.5'\)$"),
    (lambda: _RADIUS_TAKERS["zonal_extension_on_axis"]([0.2, "0.5"]), r"^radius must be a number, got '0\.5'$"),
    (lambda: check_envelope_sandwich(HARM, [], [0.5]), r"^envelope sandwich needs at least one profile, got none$"),
], ids=["unit", "axis", "contact-axis", "x0", "y0", "z0", "a", "b", "xi", "xi-batch", "base-value", "contact-base",
        "cap-extremal-base", "disc-base", "D_n-base", "planar-base", "text-radius", "bytes-radius",
        "numpy-text-radius", "text-radii", "text-among-radii", "no-sandwich-profile"])
def test_nan_fails_every_unit_vector_and_ball_check(build, message):
    # each check compares as "not within tolerance", which NaN cannot pass; the unit vectors and the base
    # values each take their one rule and its text from errors.  The shared radius rule also refuses text,
    # which float() would parse, naming the caller's value, and the sandwich a call with no profile
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: build_cap_extremal(3, 2, 0.3).f(_NAN_UNIT), "^zonal evaluation point must lie inside the ball$"),
    (lambda: monte_carlo_extension(HARM, BoundaryMap(n=3, m=1, eval=lambda eta: eta[:, :1]), _NAN_UNIT, 10,
                                 seed=0),
     "^evaluation point must lie strictly inside the ball$"),
    (lambda: arc_extension(complex(math.nan, 0.0), 0.0, 1.0), "^evaluation point must lie inside the disc, got"),
], ids=["zonal-value", "monte-carlo", "arc"])
def test_nan_point_fails_its_own_ball_check(build, message):
    # each ball check is written "not |x| < 1", which a NaN radius cannot pass
    with pytest.raises(DomainError, match=message):
        build()


def _zero_map(eta):
    return np.zeros((len(eta), 1))


_DIMENSION_CHECKS = {
    "cap_measure_from_angle": (lambda n: cap_measure_from_angle(n, 0.5), "dimension must be an integer >= 2"),
    "cap_angle_from_measure": (lambda n: cap_angle_from_measure(n, 0.5), "dimension must be an integer >= 2"),
    "CapSpec": (lambda n: CapSpec(n, 0.5), "dimension must be an integer >= 2"),
    "boundary_derivative_harmonic": (lambda n: boundary_derivative_harmonic(n, 0.0),
                                     "dimension must be an integer >= 2"),
    "heinz_schwarz_constant": (heinz_schwarz_constant, "dimension must be an integer >= 2"),
    "ZonalBoundaryData": (lambda n: ZonalBoundaryData(n, _axis(3), np.cos),
                          "dimension must be an integer >= 2"),
    "sigma_star": (sigma_star, "dimension must be an integer >= 2"),
    "hopf_failure_scan": (lambda n: hopf_failure_scan(n, 0.5), "dimension must be an integer >= 3"),
    "check_V_monotone": (check_V_monotone, "dimension must be an integer >= 2"),
    "BoundaryMap.n": (lambda n: BoundaryMap(n, 1, _zero_map), "dimension must be an integer >= 2"),
    "BoundaryMap.m": (lambda m: BoundaryMap(3, m, _zero_map), "target dimension must be an integer >= 1"),
    "zonal_contact_case.n": (lambda n: zonal_contact_case(n, 1, np.cos, (), "cosine"),
                             "dimension must be an integer >= 2"),
    "zonal_contact_case.m": (lambda m: zonal_contact_case(3, m, np.cos, (), "cosine"),
                             "target dimension must be an integer >= 1"),
    "build_cap_extremal.m": (lambda m: build_cap_extremal(3, m, 0.0), "target dimension must be an integer >= 2"),
    "check_hemisphere_majorant.m": (lambda m: check_hemisphere_majorant(3, m, 1, 1),
                                    "target dimension must be an integer >= 1"),
    "check_hemisphere_majorant.trials": (lambda trials: check_hemisphere_majorant(3, 2, trials, 1),
                                         "trials must be an integer >= 1"),
    "default_verification_suite.target_dim": (lambda m: default_verification_suite(target_dim=m),
                                              "target dimension must be an integer >= 2"),
    "uniform_sphere_samples.n": (lambda n: uniform_sphere_samples(np.random.default_rng(0), 3, n),
                                 "dimension must be an integer >= 1"),
    "uniform_sphere_samples.count": (lambda count: uniform_sphere_samples(np.random.default_rng(0), count, 3),
                                     "sample count must be an integer >= 0"),
    "monte_carlo_extension.samples": (lambda samples: monte_carlo_extension(
        HARM, BoundaryMap(3, 1, _zero_map), np.zeros(3), samples, 1), "samples must be an integer >= 1"),
}


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5], ids=["nan", "inf", "-inf", "2.5"])
@pytest.mark.parametrize("name", list(_DIMENSION_CHECKS))
def test_a_non_integer_dimension_is_a_domain_error(name, n):
    # NaN and +-inf fail the range test before int() could raise ValueError or OverflowError
    build, message = _DIMENSION_CHECKS[name]
    with pytest.raises(DomainError, match=f"^{message}, got n?=?{n!r}$"):
        build(n)


@pytest.mark.parametrize("name", list(_DIMENSION_CHECKS))
def test_an_integer_below_the_least_is_a_domain_error(name):
    # at 0, uniform_sphere_samples and the majorant's targets used to resample zero-norm rows forever
    build, message = _DIMENSION_CHECKS[name]
    below = int(message.rpartition(" ")[2]) - 1
    with pytest.raises(DomainError, match=f"^{message}, got {below}$"):
        build(below)


_RADIUS_TAKERS = {
    "envelope_upper": lambda r: envelope_upper(HARM, CapSpec(3, 0.5), r),
    "boundary_difference_quotient": lambda r: boundary_difference_quotient(HARM, CapSpec(3, 0.5), r),
    "zonal_extension_on_axis": lambda r: zonal_extension_on_axis(
        HARM, ZonalBoundaryData(3, _axis(3), lambda t: np.where(t <= 1.0, 1.0, -1.0), (1.0,)), r),
    "majorant_radial_slope": lambda r: majorant_radial_slope(3, r),
}


@pytest.mark.parametrize("name", list(_RADIUS_TAKERS))
def test_a_radius_array_of_two_dimensions_is_a_domain_error_naming_its_shape(name):
    # each takes a radius or a 1-D array of radii; a 2-D array used to reach float() and raise numpy's TypeError
    with pytest.raises(DomainError, match=r"1-D array, got shape \(1, 2\)$"):
        _RADIUS_TAKERS[name]([[0.1, 0.2]])


def _majorant_draws(n, m, trials, seed):
    """The seven arrays of a majorant row, drawn in the order its docstring states, and the stack of maps they make."""
    rng = np.random.Generator(np.random.Philox(seed))
    size = (trials, _MAP_COMPONENTS)
    draws = types.SimpleNamespace(
        directions=uniform_sphere_samples(rng, trials * _MAP_COMPONENTS, n).reshape(*size, n),
        targets=uniform_sphere_samples(rng, trials * _MAP_COMPONENTS, m).reshape(*size, m),
        freqs=rng.uniform(0.5, 4.0, size),
        phases=rng.uniform(0.0, 2.0 * math.pi, size),
        weights=rng.dirichlet(np.ones(_MAP_COMPONENTS), trials) * rng.uniform(0.6, 1.0, (trials, 1)),
        radii=rng.uniform(0.1, 0.85, (trials, 4)),
    )
    draws.points = draws.radii[..., None] * uniform_sphere_samples(rng, 4 * trials, n).reshape(trials, 4, n)
    draws.waves = _PlaneWaveMap(draws.directions, draws.freqs,
                                -(draws.weights * np.sin(draws.phases))[..., None] * draws.targets)
    return draws


def _row_series_input(n, m, trials, seed):
    """The stack of maps and the points that one majorant row hands to its series, caught as it calls it."""
    seen = []

    def extension(waves, x, *args, _extension=_PlaneWaveMap.extension):
        seen.append((waves, x))
        return _extension(waves, x, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PlaneWaveMap, "extension", extension)
        check_hemisphere_majorant(n, m, trials=trials, seed=seed)
    [(waves, x)] = seen
    return waves, x


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_boundary_map_closed_form(n, m):
    # the row's maps are the odd parts of cosine mixtures drawn in the documented order
    waves, x = _row_series_input(n, m, 4, 40 + n)
    draws = _majorant_draws(n, m, 4, 40 + n)
    for name in ("directions", "freqs", "amplitudes"):
        assert np.array_equal(getattr(waves, name), getattr(draws.waves, name))
    assert np.array_equal(x[:, :4], draws.points)

    def raw(eta, trial):
        out = np.zeros((eta.shape[0], m))
        for i in range(_MAP_COMPONENTS):
            s = np.cos(draws.freqs[trial, i] * (eta @ draws.directions[trial, i]) + draws.phases[trial, i])
            out += draws.weights[trial, i] * s[:, None] * draws.targets[trial, i][None, :]
        return out

    eta = uniform_sphere_samples(np.random.Generator(np.random.Philox(7)), 1000, n)
    values = waves.eval(eta)
    assert values.shape == (4, 1000, m)
    for trial in range(4):
        assert np.max(np.abs(values[trial] - 0.5 * (raw(eta, trial) - raw(-eta, trial)))) <= 1e-15
    assert np.array_equal(waves.eval(-eta), -values)


def test_hemisphere_majorant_keeps_its_value():
    # Pinned from the exact plane-wave series, and held against a Monte Carlo
    # estimate of |f| at the worst point, within four standard errors.
    report = check_hemisphere_majorant(3, 2, trials=3, seed=5)
    assert report.lam == pytest.approx(-0.15996155668192336, abs=1e-12)
    draws = _majorant_draws(3, 2, 3, 5)
    [[trial, point]] = np.argwhere(draws.radii == report.details["worst_radius"])
    gmap = BoundaryMap(n=3, m=2, eval=_one_map(draws.waves, trial).eval)
    estimate, stderr = monte_carlo_extension(HARM, gmap, draws.points[trial, point], 400_000, seed=19)
    bound = envelope_upper(HARM, CapSpec(3, 0.5), report.details["worst_radius"])
    assert abs(float(np.linalg.norm(estimate)) - bound - report.lam) <= 4.0 * float(np.linalg.norm(stderr))


def _series_per_map(waves, x):
    """The plane-wave series of one map at the rows of x, as the per-map recurrence of the batched series summed it."""
    n = waves.directions.shape[1]
    lam = 0.5 * (n - 2)
    degrees, coefs = waves.coefficients()
    proj = x @ waves.directions.T
    r2 = np.einsum("ij,ij->i", x, x)[:, None]
    prev, cur = np.ones_like(proj), proj
    total = coefs[0] * cur
    for k in range(1, int(degrees[-1])):
        prev, cur = cur, (2.0 * (k + lam) * proj * cur - k * r2 * prev) / (k + 2.0 * lam)
        if k % 2 == 0:
            total += coefs[k // 2] * cur
    return total @ waves.amplitudes


def _one_map(waves, index):
    """Map ``index`` of a stack, as a map of its own."""
    return _PlaneWaveMap(waves.directions[index], waves.freqs[index], waves.amplitudes[index])


def _majorant_trials(n, m, trials, seed):
    """Each trial's own map, radii and series points (its four points, then the sphere probes), from the row's draws."""
    draws = _majorant_draws(n, m, trials, seed)
    probes = uniform_sphere_samples(np.random.Generator(np.random.Philox(0)), verify._BOUNDARY_PROBES, n)
    for trial in range(trials):
        yield _one_map(draws.waves, trial), draws.radii[trial].tolist(), np.vstack([draws.points[trial], probes])


def _majorant_per_trial(n, m, trials, seed):
    """lam, worst radius and boundary residual of the majorant row, one series and one envelope call per trial."""
    hemisphere = CapSpec(n, 0.5)
    worst, worst_radius, residual = -math.inf, math.nan, 0.0
    for waves, radii, x in _majorant_trials(n, m, trials, seed):
        values = _series_per_map(waves, x)
        residual = max(residual, float(np.max(np.abs(values[4:] - waves.eval(x[4:])))))
        bounds = envelope_upper(HARM, hemisphere, radii)
        for radius, norm, bound in zip(radii, np.linalg.norm(values[:4], axis=-1).tolist(), bounds.tolist()):
            excess = norm - bound
            if excess > worst:
                worst, worst_radius = excess, radius
    return worst, worst_radius, residual


@pytest.mark.parametrize("trials", [1, 6, 50])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_batched_majorant_is_the_per_trial_loop(m, n, trials):
    for seed in range(20):
        report = check_hemisphere_majorant(n, m, trials=trials, seed=seed)
        lam, worst_radius, residual = _majorant_per_trial(n, m, trials, seed)
        assert report.lam == lam
        assert report.details["worst_radius"] == worst_radius
        assert report.details["boundary_residual"] == residual


def test_one_map_extension_is_its_row_of_the_stack():
    stack = _majorant_draws(4, 3, 5, 3).waves
    x = 0.9 * uniform_sphere_samples(np.random.Generator(np.random.Philox(3)), 5 * 7, 4).reshape(5, 7, 4)
    values = stack.extension(x)
    assert values.shape == (5, 7, 3)
    for index, (points, row) in enumerate(zip(x, values)):
        waves = _one_map(stack, index)
        assert np.array_equal(waves.extension(points), row)
        assert np.array_equal(_series_per_map(waves, points), row)


def _plane_wave_bessel_coefficients(n, f, degrees):
    """sin(f t) = sum over odd k of a_k C_k^lam(t)/C_k^lam(1), from scipy's Bessel functions."""
    from scipy import special

    signs = np.where(degrees % 4 == 1, 1.0, -1.0)
    if n == 2:  # Jacobi-Anger
        return signs * 2.0 * special.jv(degrees, f)
    if n == 3:  # Rayleigh's plane-wave expansion
        return signs * (2 * degrees + 1) * special.spherical_jn(degrees, f)
    lam = 0.5 * (n - 2)
    at_one = special.poch(2.0 * lam, degrees) / special.factorial(degrees)  # C_k^lam(1)
    return signs * special.gamma(lam) * (0.5 * f) ** -lam * (degrees + lam) * special.jv(degrees + lam, f) * at_one


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32, 48, 64])
def test_plane_wave_coefficients_match_bessel_functions(n):
    freqs = np.array([0.5, 1.3, 2.9, 3.99])
    directions = uniform_sphere_samples(np.random.Generator(np.random.Philox(n)), freqs.size, n)
    degrees, coefs = _PlaneWaveMap(directions, freqs, np.eye(freqs.size)).coefficients()
    assert list(degrees) == list(range(1, 40, 2))
    for i, f in enumerate(freqs):
        reference = _plane_wave_bessel_coefficients(n, f, degrees)
        assert np.all(np.abs(coefs[:, i] - reference) <= 1e-12 * np.abs(reference))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_plane_wave_series_reproduces_the_map_on_the_sphere(n):
    eta = uniform_sphere_samples(np.random.Generator(np.random.Philox(60 + n)), 500, n)
    for m in (2, 3):
        waves = _majorant_draws(n, m, 4, 60 + n).waves
        assert np.max(np.abs(waves.extension(np.broadcast_to(eta, (4, *eta.shape))) - waves.eval(eta))) <= 1e-14


def _suite_majorant_points(m):
    """The maps and points of the default suite's hemisphere-majorant row, each with a Monte Carlo seed of its own."""
    seed = int(np.random.SeedSequence(DEFAULT_SEED).spawn(4)[2].generate_state(1)[0])
    draws = _majorant_draws(3, m, 6, seed)
    point_seeds = np.random.Generator(np.random.Philox(100 + m)).integers(0, 2**62, (6, 4)).tolist()
    for trial in range(6):
        for x, point_seed in zip(draws.points[trial], point_seeds[trial]):
            yield _one_map(draws.waves, trial), x, point_seed


@pytest.mark.parametrize("m", [2, 3])
def test_plane_wave_series_agrees_with_monte_carlo_at_the_suite_points(m):
    count = 0
    for waves, x, point_seed in _suite_majorant_points(m):
        gmap = BoundaryMap(n=3, m=m, eval=waves.eval)
        estimate, stderr = monte_carlo_extension(HARM, gmap, x, 400_000, seed=point_seed)
        value = waves.extension(x[None, :])[0]
        assert np.all(np.abs(value - estimate) <= 4.0 * stderr)
        count += 1
    assert count == 24


def test_plane_wave_series_refuses_a_short_sum(monkeypatch):
    monkeypatch.setattr(verify, "_PLANE_WAVE_TERMS", 2)
    verify._plane_wave_rule.cache_clear()
    refusal = r"\|x\|=[0-9.]+, n=3 is only good to [0-9.e+-]+, past abs_tol=1e-11"
    try:
        with pytest.raises(AccuracyError, match=refusal) as info:
            check_hemisphere_majorant(3, 2, trials=1, seed=5)
    finally:
        verify._plane_wave_rule.cache_clear()
    assert info.value.estimate is not None


def test_a_short_sum_refusal_names_the_first_map_that_misses(monkeypatch):
    # With 16 terms some maps of a row pass and some miss: the row's refusal
    # is the one the first missing map raises alone, message and estimate.
    monkeypatch.setattr(verify, "_PLANE_WAVE_TERMS", 16)
    verify._plane_wave_rule.cache_clear()
    try:
        first = []
        for seed in range(10):
            with pytest.raises(AccuracyError) as row:
                check_hemisphere_majorant(3, 2, trials=6, seed=seed)
            for index, (waves, _, x) in enumerate(_majorant_trials(3, 2, 6, seed)):
                try:
                    waves.extension(x)
                except AccuracyError as alone:
                    assert str(row.value) == str(alone)
                    assert np.array_equal(row.value.estimate, alone.estimate)
                    first.append(index)
                    break
    finally:
        verify._plane_wave_rule.cache_clear()
    assert len(first) == 10 and first[0] > 0 and len(set(first)) >= 3


def test_hemisphere_majorant_boundary_check_catches_a_wrong_series(monkeypatch):
    # Too few quadrature panels for the coefficients: the tail bound cannot
    # see it, the comparison with the map on the sphere does.
    monkeypatch.setattr(verify, "_PLANE_WAVE_PANELS", 1)
    verify._plane_wave_rule.cache_clear()
    try:
        report = check_hemisphere_majorant(3, 2, trials=2, seed=5)
    finally:
        verify._plane_wave_rule.cache_clear()
    assert report.details["boundary_residual"] > 1e-12
    assert report.checks == {"boundary": False} and not report.passed


def test_verify_runs_no_monte_carlo():
    # Monte Carlo lives in the tests' helper: no module of the package defines, imports or exports it
    names = {"monte_carlo_extension", "BoundaryMap"}
    for path in pathlib.Path(ballschwarz.__file__).parent.glob("*.py"):
        module = ballschwarz if path.stem == "__init__" else importlib.import_module(f"ballschwarz.{path.stem}")
        assert not names & (set(vars(module)) | set(getattr(module, "__all__", ()))), path.stem

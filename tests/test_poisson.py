import math

import numpy as np
import pytest

from ballschwarz import (
    BoundaryMap,
    DomainError,
    KernelKind,
    ZonalBoundaryData,
    cap_angle_from_measure,
    envelope_upper,
    laplace_beltrami_residual,
    monte_carlo_extension,
    poisson_kernel,
    radial_derivative_estimate,
    sphere_prefactors,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)

HARM = KernelKind.HARMONIC
HYP = KernelKind.HYPERBOLIC_HARMONIC


def _axis(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _cap_data(n, c):
    cap = cap_angle_from_measure(n, c)
    alpha = cap.alpha

    def profile(t):
        return np.where(np.asarray(t) <= alpha, 1.0, -1.0)

    return ZonalBoundaryData(n=n, axis=_axis(n), profile=profile, breakpoints=(alpha,)), cap


def test_kernel_at_origin_is_reciprocal_area():
    for n in (2, 3, 4):
        eta = _axis(n)
        expected = 1.0 / sphere_prefactors(n).sigma_area
        for kind in (HARM, HYP):
            assert poisson_kernel(kind, np.zeros(n), eta) == pytest.approx(expected, rel=1e-14)


def test_kernel_planar_closed_form():
    for r in (0.2, 0.7, 0.95):
        x = np.array([r, 0.0])
        eta = np.array([1.0, 0.0])
        expected = (1.0 + r) / ((1.0 - r) * 2.0 * math.pi)
        assert poisson_kernel(HARM, x, eta) == pytest.approx(expected, rel=1e-13)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        poisson_kernel(HARM, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        poisson_kernel(HARM, np.array([0.1, 0.0]), np.array([0.5, 0.0]))


def test_zonal_constant_profile_extends_to_one():
    # P[1] = 1 for both kernels, near the sphere and on the antipodal ray too.
    for n in (2, 3, 5):
        data = ZonalBoundaryData(n=n, axis=_axis(n), profile=lambda t: np.ones_like(t))
        for kind in (HARM, HYP):
            for r in (0.0, 0.5, 0.95, 0.9995, -0.9995):
                assert zonal_extension_on_axis(kind, data, r) == pytest.approx(1.0, abs=1e-10)


def test_zonal_cap_profile_reproduces_envelope():
    # Indicator data through the generic zonal machinery must match the
    # dedicated envelope evaluation: two independent code paths, crossed
    # near the sphere and on the antipodal ray.
    data, cap = _cap_data(3, 0.3)
    for kind in (HARM, HYP):
        for r in (0.0, 0.35, 0.8, 0.95, 0.998, 0.9989, 0.9995, -0.5, -0.9995):
            h = zonal_extension_on_axis(kind, data, r)
            m = envelope_upper(kind, cap, r)
            assert h == pytest.approx(m, abs=1e-9)


def test_zonal_cosine_profile_is_linear_harmonic():
    # cos(polar angle) is the boundary trace of the coordinate function.
    data = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    for r in (0.0, 0.3, 0.6, 0.9):
        assert zonal_extension_on_axis(HARM, data, r) == pytest.approx(r, abs=1e-10)


def test_zonal_mean_value_at_origin():
    # At r = 0 both kernels reduce to the profile's mean against the
    # normalized zonal weight; closed form for n = 3 with a step profile.
    data, cap = _cap_data(3, 0.3)
    mean = 2.0 * 0.3 - 1.0
    for kind in (HARM, HYP):
        assert zonal_extension_on_axis(kind, data, 0.0) == pytest.approx(mean, abs=1e-10)


def test_zonal_rejects_bad_axis_and_profile():
    with pytest.raises(DomainError):
        ZonalBoundaryData(n=3, axis=np.array([1.0, 1e-6, 0.0]), profile=np.cos)
    with pytest.raises(DomainError):
        ZonalBoundaryData(n=3, axis=_axis(3), profile=lambda t: 2.0 * np.ones_like(t))
    data = ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos)
    with pytest.raises(DomainError):
        zonal_extension_on_axis(HARM, data, 1.0)


def test_monte_carlo_constant_map_is_exact_at_origin():
    v = np.array([0.25, -0.5])
    gmap = BoundaryMap(n=3, m=2, eval=lambda eta: np.tile(v, (eta.shape[0], 1)))
    estimate, stderr = monte_carlo_extension(HARM, gmap, np.zeros(3), 4000, seed=3)
    # Kernel is constant at the origin, so the estimator returns the
    # sample mean of a constant exactly.
    assert np.allclose(estimate, v, atol=1e-12)
    assert np.all(stderr < 1e-12)


def test_monte_carlo_constant_map_interior():
    v = np.array([0.25, -0.5])
    gmap = BoundaryMap(n=3, m=2, eval=lambda eta: np.tile(v, (eta.shape[0], 1)))
    estimate, stderr = monte_carlo_extension(HARM, gmap, np.array([0.3, -0.2, 0.1]), 20000, seed=4)
    assert np.all(np.abs(estimate - v) <= 3.0 * stderr + 1e-12)


def test_monte_carlo_coordinate_function():
    gmap = BoundaryMap(n=3, m=1, eval=lambda eta: eta[:, :1])
    x = np.array([0.5, 0.0, 0.0])
    estimate, stderr = monte_carlo_extension(HARM, gmap, x, 60000, seed=5)
    assert abs(estimate[0] - 0.5) <= 3.0 * stderr[0]


def test_monte_carlo_determinism_and_chunking():
    gmap = BoundaryMap(n=3, m=1, eval=lambda eta: eta[:, :1])
    x = np.array([0.4, 0.1, 0.0])
    a = monte_carlo_extension(HYP, gmap, x, 300_000, seed=11)
    b = monte_carlo_extension(HYP, gmap, x, 300_000, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_monte_carlo_agrees_with_zonal_on_axis():
    data, cap = _cap_data(3, 0.4)
    alpha = cap.alpha

    def lifted(eta):
        angles = np.arccos(np.clip(eta @ data.axis, -1.0, 1.0))
        return np.where(angles <= alpha, 1.0, -1.0)[:, None]

    gmap = BoundaryMap(n=3, m=1, eval=lifted)
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(20):
        r = float(rng.uniform(-0.85, 0.85))
        x = r * data.axis
        estimate, stderr = monte_carlo_extension(HARM, gmap, x, 40000, seed=int(rng.integers(2**32)))
        exact = zonal_extension_on_axis(HARM, data, r)
        assert abs(estimate[0] - exact) <= 4.0 * stderr[0]


def test_extension_preserves_range():
    data, _ = _cap_data(3, 0.4)
    for kind in (HARM, HYP):
        for r in np.linspace(-0.95, 0.95, 9):
            assert abs(zonal_extension_on_axis(kind, data, float(r))) <= 1.0 + 1e-10


def test_radial_derivative_linear_function():
    assert radial_derivative_estimate(lambda r: r) == pytest.approx(1.0, abs=1e-10)


def test_radial_derivative_planar_envelope():
    cap = cap_angle_from_measure(2, 0.5)
    estimate = radial_derivative_estimate(lambda r: envelope_upper(HARM, cap, r))
    assert estimate == pytest.approx(2.0 / math.pi, abs=1e-4)


def test_radial_derivative_hyperbolic_envelope_vanishes():
    cap = cap_angle_from_measure(3, 0.5)
    estimate = radial_derivative_estimate(lambda r: envelope_upper(HYP, cap, r))
    assert abs(estimate) < 1e-3


def test_radial_derivative_rejects_unknown_method():
    with pytest.raises(DomainError):
        radial_derivative_estimate(lambda r: r, method="central")


def test_laplace_beltrami_constant_function():
    assert laplace_beltrami_residual(lambda x: 1.0, 3, np.array([0.3, 0.0, 0.0])) == 0.0


def test_laplace_beltrami_annihilates_hyperbolic_kernel():
    eta = np.array([0.0, 0.6, 0.8])
    h = lambda x: poisson_kernel(HYP, x, eta)
    x = np.array([0.3, 0.0, 0.0])
    coarse = laplace_beltrami_residual(h, 3, x, step=1e-2)
    fine = laplace_beltrami_residual(h, 3, x, step=5e-3)
    assert abs(coarse) < 1e-4
    # O(step^2): halving the step shrinks the residual about fourfold
    assert abs(fine) < 0.4 * abs(coarse)


def test_laplace_beltrami_mixture_of_hyperbolic_kernels():
    rng = np.random.Generator(np.random.Philox(21))
    etas = uniform_sphere_samples(rng, 4, 3)
    weights = rng.uniform(0.1, 1.0, 4)

    def h(x):
        return sum(w * poisson_kernel(HYP, x, e) for w, e in zip(weights, etas))

    x = np.array([0.2, -0.1, 0.25])
    assert abs(laplace_beltrami_residual(h, 3, x, step=2e-3)) < 1e-5


def test_laplace_beltrami_drift_on_coordinate_function():
    # Delta_0 x_1 = (n-2)/2 x_1: the Euclidean Laplacian term vanishes
    # and only the drift survives.
    h = lambda x: float(x[0])
    value = laplace_beltrami_residual(h, 3, np.array([0.3, 0.0, 0.0]), step=1e-3)
    assert value == pytest.approx(0.15, abs=1e-9)
    value4 = laplace_beltrami_residual(h, 4, np.array([0.3, 0.0, 0.0, 0.0]), step=1e-3)
    assert value4 == pytest.approx(0.3, abs=1e-9)


def test_euclidean_laplacian_of_harmonic_kernel_is_small():
    eta = np.array([0.0, 0.6, 0.8])
    h = lambda x: poisson_kernel(HARM, x, eta)
    x = np.array([0.3, 0.0, 0.0])
    for step, bound in ((1e-2, 1e-3), (2e-3, 5e-5)):
        lap = 0.0
        center = h(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            lap += (h(x + e) + h(x - e) - 2.0 * center) / step**2
        assert abs(lap) < bound


def test_laplace_beltrami_stencil_domain():
    with pytest.raises(DomainError):
        laplace_beltrami_residual(lambda x: 1.0, 3, np.array([0.999, 0.0, 0.0]), step=1e-2)


def test_boundary_map_probes_range():
    with pytest.raises(DomainError):
        BoundaryMap(n=3, m=1, eval=lambda eta: 2.0 * eta[:, :1])


def test_uniform_sphere_samples_are_unit():
    rng = np.random.Generator(np.random.Philox(1))
    samples = uniform_sphere_samples(rng, 500, 4)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)

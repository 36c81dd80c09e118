import math

import numpy as np
import pytest

from ballschwarz import (
    CapSpec,
    DomainError,
    KernelKind,
    ZonalBoundaryData,
    envelope_upper,
    radial_derivative_estimate,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)
from ballschwarz.verify import build_cap_extremal

import montecarlo
from montecarlo import BoundaryMap, monte_carlo_extension

HARM = KernelKind.HARMONIC
HYP = KernelKind.HYPERBOLIC_HARMONIC


def _axis(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _cap_data(n, c):
    cap = CapSpec(n, c)
    alpha = cap.alpha

    def profile(t):
        return np.where(np.asarray(t) <= alpha, 1.0, -1.0)

    return ZonalBoundaryData(n=n, axis=_axis(n), profile=profile, breakpoints=(alpha,)), cap


def _kernel(kind, x, eta):
    """Normalized Poisson kernel on S^2, (1-|x|^2)^nu / |x-eta|^{2 mu} / 4 pi, either kind."""
    nu, mu = montecarlo.exponents(kind, 3)
    dist2 = float(np.dot(x - eta, x - eta))
    return (1.0 - float(np.dot(x, x))) ** nu / dist2**mu / (4.0 * math.pi)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [80, 96, 144, 256, 1024])
def test_cap_extensions_past_dimension_64_meet_the_envelope(kind, n):
    # a kernel taken as sin^{n-2}t (1 - 2r cos t + r^2)^{-mu} times (1-r^2)^nu overflows and cancels here
    # (at c = 1/2 from n = 80 hyperbolic and n = 144 harmonic, r = 0.999), warns, then raises on a panel
    radii = [-0.999, -0.99, -0.9, 0.9, 0.99, 0.999, 0.9999]
    for c in (0.02, 0.5, 0.98):
        data, cap = _cap_data(n, c)
        values = zonal_extension_on_axis(kind, data, radii)
        assert np.all(np.abs(values - envelope_upper(kind, cap, radii)) <= 1e-13), c


@pytest.mark.filterwarnings("error")
def test_a_cap_extremal_past_dimension_64_takes_the_envelope_near_the_sphere():
    x = 0.999 * _axis(256)
    value = build_cap_extremal(256, 2, 0.3).f(x)
    assert abs(value[0] - envelope_upper(HARM, CapSpec(256, 0.65), 0.999)) <= 1e-13 and value[1] == 0.0


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [4.0, 0.0, math.pi, -0.5])
def test_zonal_rejects_breakpoints_outside_the_open_angle_range(n, bad):
    with pytest.raises(DomainError, match=rf"breakpoint must lie in \(0, pi\), got {bad!r}"):
        ZonalBoundaryData(n=n, axis=_axis(n), profile=np.cos, breakpoints=(1.0, bad))


def test_step_levels_read_midpoints_and_skip_probes_on_a_breakpoint():
    # the hemisphere cap (c = 1/2) jumps at exactly pi/2, which is a probe
    # angle; its profile takes the upper level there
    data, cap = _cap_data(3, 0.5)
    assert cap.alpha == math.pi / 2.0 and math.pi / 2.0 in np.linspace(0.0, math.pi, 65)
    assert data.step_levels().tolist() == [1.0, -1.0]
    steps = ZonalBoundaryData(n=4, axis=_axis(4), profile=lambda t: np.where(np.asarray(t) < 1.0, 0.5, -0.25),
                              breakpoints=(2.0, 1.0))
    assert steps.step_levels().tolist() == [0.5, -0.25, -0.25]
    with pytest.raises(DomainError, match="constant between its breakpoints"):
        ZonalBoundaryData(n=3, axis=_axis(3), profile=np.cos, breakpoints=(1.0,)).step_levels()


def test_step_levels_skip_every_probe_on_a_breakpoint_and_no_other():
    probes = np.linspace(0.0, math.pi, 65)
    quarter, half = probes[16], probes[32]
    assert (quarter, half) == (0.25 * math.pi, 0.5 * math.pi)

    # a third value exactly on each breakpoint: only a probe that the mask skips may see it
    def profile(t):
        t = np.asarray(t)
        return np.where((t == quarter) | (t == half), 0.0, np.where(t < quarter, 1.0, np.where(t < half, 0.5, -1.0)))

    data = ZonalBoundaryData(n=4, axis=_axis(4), profile=profile, breakpoints=(half, quarter))
    assert data.step_levels().tolist() == [1.0, 0.5, -1.0]
    # a breakpoint a hair off the probe leaves that probe in, where it sees the third value
    off = ZonalBoundaryData(n=4, axis=_axis(4), profile=profile,
                            breakpoints=(quarter, math.nextafter(half, math.pi)))
    with pytest.raises(DomainError, match="constant between its breakpoints"):
        off.step_levels()


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


@pytest.mark.parametrize("base_step", [1e-3, 1e-4, 0.3])
def test_radial_derivative_calls_h_once_on_its_ladder(base_step):
    calls = []

    def h(radii):
        calls.append((type(radii), radii.tolist()))
        return radii * radii

    assert radial_derivative_estimate(h, base_step) == pytest.approx(2.0, abs=1e-10)
    assert calls == [(np.ndarray, [1.0 - base_step, 1.0 - base_step / 2.0, 1.0 - base_step / 4.0])]


def test_radial_derivative_refuses_an_h_without_one_value_per_radius():
    for h in (lambda radii: radii[:2], lambda radii: np.ones((3, 1)), lambda radii: 1.0):
        with pytest.raises(DomainError, match=r"^h must return one value per radius, shape \(3,\)"):
            radial_derivative_estimate(h)


def test_radial_derivative_planar_envelope():
    cap = CapSpec(2, 0.5)
    estimate = radial_derivative_estimate(lambda r: envelope_upper(HARM, cap, r))
    assert estimate == pytest.approx(2.0 / math.pi, abs=1e-4)


def test_radial_derivative_hyperbolic_envelope_vanishes():
    cap = CapSpec(3, 0.5)
    estimate = radial_derivative_estimate(lambda r: envelope_upper(HYP, cap, r))
    assert abs(estimate) < 1e-3


def test_euclidean_laplacian_of_harmonic_kernel_is_small():
    eta = np.array([0.0, 0.6, 0.8])
    h = lambda x: _kernel(HARM, x, eta)
    x = np.array([0.3, 0.0, 0.0])
    for step, bound in ((1e-2, 1e-3), (2e-3, 5e-5)):
        lap = 0.0
        center = h(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            lap += (h(x + e) + h(x - e) - 2.0 * center) / step**2
        assert abs(lap) < bound


def test_boundary_map_probes_range():
    with pytest.raises(DomainError):
        BoundaryMap(n=3, m=1, eval=lambda eta: 2.0 * eta[:, :1])


def test_uniform_sphere_samples_are_unit():
    rng = np.random.Generator(np.random.Philox(1))
    samples = uniform_sphere_samples(rng, 500, 4)
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)


def _positive_map(n, m):
    """Components (1 + eta_j)/(2 sqrt m): nonnegative, so the sums have no cancellation."""
    return BoundaryMap(n=n, m=m, eval=lambda eta: (1.0 + eta[:, [j % n for j in range(m)]]) / (2.0 * math.sqrt(m)))


def _point(n):
    x = np.linspace(0.6, -0.3, n)
    return 0.6 * x / np.linalg.norm(x)


def _two_pass_extension(kind, g, x, samples, seed):
    """The estimator as two reductions of the (N, m) products P·g, from one draw of the samples."""
    nu, mu = montecarlo.exponents(kind, g.n)
    eta = uniform_sphere_samples(np.random.Generator(np.random.Philox(seed)), samples, g.n)
    diff = eta - x[None, :]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    kernel = (1.0 - float(np.dot(x, x))) ** nu / dist2**mu
    vals = kernel[:, None] * g.eval(eta)
    mean = vals.sum(axis=0) / samples
    var = np.maximum((vals * vals).sum(axis=0) / samples - mean * mean, 0.0) * (samples / (samples - 1.0))
    return mean, np.sqrt(var / samples)


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 3])
def test_monte_carlo_one_pass_sums_match_two_reductions(kind, n, m):
    g, x = _positive_map(n, m), _point(n)
    estimate, stderr = monte_carlo_extension(kind, g, x, 5000, seed=n + 10 * m)
    ref_estimate, ref_stderr = _two_pass_extension(kind, g, x, 5000, seed=n + 10 * m)
    np.testing.assert_allclose(estimate, ref_estimate, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", [HARM, HYP])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 3])
def test_monte_carlo_chunking_keeps_the_result(kind, n, m, monkeypatch):
    g, x = _positive_map(n, m), _point(n)
    whole = monte_carlo_extension(kind, g, x, 3001, seed=7 * n + m)
    monkeypatch.setattr(montecarlo, "_MC_CHUNK", 7)
    chunked = monte_carlo_extension(kind, g, x, 3001, seed=7 * n + m)
    for value, reference in zip(chunked, whole):
        np.testing.assert_allclose(value, reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", [HARM, HYP])
def test_zonal_extension_takes_an_array_of_radii(kind):
    radii = np.array([-0.95, -0.3, -0.0, 0.0, 0.2, 0.7, 0.95])
    step, _ = _cap_data(4, 0.3)
    smooth = ZonalBoundaryData(n=4, axis=_axis(4), profile=np.cos)
    for data in (step, smooth):
        values = zonal_extension_on_axis(kind, data, radii)
        assert isinstance(values, np.ndarray) and values.shape == radii.shape
        for r, value in zip(radii.tolist(), values.tolist()):
            scalar = zonal_extension_on_axis(kind, data, r)
            assert isinstance(scalar, float)
            assert abs(value - scalar) <= 1e-14, r
    with pytest.raises(DomainError, match="got -1.0"):
        zonal_extension_on_axis(kind, step, np.array([0.5, -1.0]))

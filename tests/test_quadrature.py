import math

import numpy as np
import pytest

import ballschwarz.quadrature
from ballschwarz import AccuracyError, DomainError, QuadratureConfig, integrate


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1e-3)


def test_polynomial_is_exact():
    assert integrate(lambda x: x**5, 0.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_sine_over_period():
    assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)


def test_empty_and_reversed_intervals():
    assert integrate(np.cos, 1.3, 1.3) == 0.0
    forward = integrate(np.cos, 0.0, 1.0)
    assert integrate(np.cos, 1.0, 0.0) == pytest.approx(-forward, abs=1e-15)


def test_sharp_peak_is_resolved():
    eps = 1e-6
    value = integrate(lambda x: eps / (x * x + eps * eps), -1.0, 1.0)
    assert value == pytest.approx(2.0 * math.atan(1.0 / eps), abs=1e-9)


def test_breakpoints_handle_steps():
    def step(x):
        return np.where(x < 0.3, 1.0, -2.0)

    value = integrate(step, 0.0, 1.0, breakpoints=[0.3])
    assert value == pytest.approx(0.3 - 2.0 * 0.7, abs=1e-14)


def test_budget_exhaustion_reports_estimate(monkeypatch):
    eps = 1e-9
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(AccuracyError) as excinfo:
        integrate(lambda x: eps / (x * x + eps * eps), -1.0, 1.0)
    assert excinfo.value.estimate is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_integrand_raises_naming_the_panel(bad):
    with pytest.raises(AccuracyError, match=r"panel \[0, 1\]"):
        integrate(lambda x: np.where(x > 0.5, bad, 1.0), 0, 1)


def test_nonfinite_endpoints_rejected():
    with pytest.raises(DomainError):
        integrate(np.sin, 0.0, math.inf)


def test_kronrod_and_gauss_rules_are_exact_to_their_degrees():
    nodes = ballschwarz.quadrature._NODES
    kronrod = ballschwarz.quadrature._KRONROD_WEIGHTS
    gauss = ballschwarz.quadrature._GAUSS_WEIGHTS
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.dot(kronrod, nodes**k)) == pytest.approx(exact, abs=1e-15), k
        if k <= 19:
            assert float(np.dot(gauss, nodes[1::2] ** k)) == pytest.approx(exact, abs=1e-15), k
    assert float(np.dot(gauss, nodes[1::2] ** 20)) != pytest.approx(2.0 / 21.0, abs=1e-6)


def test_gauss_nodes_are_the_legendre_nodes():
    legendre, weights = np.polynomial.legendre.leggauss(10)
    assert ballschwarz.quadrature._NODES[1::2] == pytest.approx(legendre, abs=1e-15)
    assert ballschwarz.quadrature._GAUSS_WEIGHTS == pytest.approx(weights, abs=1e-15)
    assert np.all(np.diff(ballschwarz.quadrature._NODES) > 0.0)


def test_one_integrand_call_per_panel_on_21_nodes():
    shapes = []

    def counting(f):
        def wrapped(x):
            shapes.append(np.shape(x))
            return f(x)

        return wrapped

    integrate(counting(lambda x: x**7), 0.0, 1.0, breakpoints=[0.25, 0.5])
    assert shapes == [(21,)] * 3
    shapes.clear()
    eps = 1e-6
    integrate(counting(lambda x: eps / (x * x + eps * eps)), -1.0, 1.0)
    # the first panel, then two halves per bisection
    assert len(shapes) % 2 == 1 and len(shapes) > 1
    assert set(shapes) == {(21,)}


def test_tolerance_below_rounding_floor_raises():
    with pytest.raises(AccuracyError) as excinfo:
        integrate(np.exp, 0.0, 1.0, QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30))
    assert excinfo.value.estimate == pytest.approx(math.e - 1.0, rel=1e-15)

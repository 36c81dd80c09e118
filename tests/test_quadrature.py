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

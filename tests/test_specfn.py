import math

import numpy as np
import pytest
from scipy.special import gammaln as scipy_gammaln

from ballschwarz import (
    DomainError,
    gauss_2f1_neg1,
    gauss_2f1_neg1_series,
    log_gamma,
    sphere_prefactors,
)

SQRT2 = math.sqrt(2.0)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -3.7):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_log_gamma_matches_independent_implementation():
    xs = np.linspace(0.5, 50.0, 397)
    ours = np.array([log_gamma(float(x)) for x in xs])
    ref = scipy_gammaln(xs)
    big = np.abs(ref) > 1e-3
    assert np.max(np.abs(ours[big] - ref[big]) / np.abs(ref[big])) < 1e-13
    assert np.max(np.abs(ours[~big] - ref[~big])) < 1e-14


def test_2f1_truncates_to_one_when_a_or_b_vanishes():
    assert gauss_2f1_neg1(0.0, 1.7, 2.5) == 1.0
    assert gauss_2f1_neg1(1.7, 0.0, 2.5) == 1.0


def test_2f1_arctan_instance():
    # sum (-1)^n / (2n+1) = pi/4
    assert gauss_2f1_neg1(0.5, 1.0, 1.5) == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_2f1_closed_form_instance():
    # 2F1[1/2, 1; 3; -1] = (16 sqrt 2 - 20)/3, from the m = 3 sharp constant
    expected = (16.0 * SQRT2 - 20.0) / 3.0
    assert gauss_2f1_neg1(0.5, 1.0, 3.0) == pytest.approx(expected, abs=1e-12)


def test_2f1_cesaro_oracle_confirms_arctan_instance():
    # Brute-force oracle: raw alternating partial sums, Cesaro-averaged.
    n = np.arange(10**6, dtype=float)
    terms = (-1.0) ** n / (2.0 * n + 1.0)
    cesaro = float(np.cumsum(terms).mean())
    assert abs(cesaro - gauss_2f1_neg1(0.5, 1.0, 1.5)) < 1e-6


def test_2f1_series_path_agrees_with_transformed_path():
    for m in (2, 3, 4, 5):
        c = 0.5 * (3 + m)
        fast = gauss_2f1_neg1(0.5, 1.0, c)
        slow = gauss_2f1_neg1_series(0.5, 1.0, c)
        assert abs(fast - slow) < 1e-12


def _euler_integral_2f1_neg1(a, b, c, nsub=100_000):
    """Euler's integral representation, midpoint rule on a smoothing substitution.

    2F1[a,b;c;-1] = Gamma(c)/(Gamma(b) Gamma(c-b))
                    * int_0^1 t^{b-1} (1-t)^{c-b-1} (1+t)^{-a} dt,
    with t = 1 - s^2 so the (1-t) endpoint factor becomes smooth.
    """
    s = (np.arange(nsub) + 0.5) / nsub
    t = 1.0 - s * s
    values = t ** (b - 1.0) * s ** (2.0 * (c - b) - 2.0) * (1.0 + t) ** (-a) * 2.0 * s
    prefactor = math.exp(log_gamma(c) - log_gamma(b) - log_gamma(c - b))
    return prefactor * float(values.mean())


@pytest.mark.parametrize("abc", [(0.5, 1.0, 2.5), (0.5, 1.0, 3.5)])
def test_2f1_agrees_with_euler_integral(abc):
    a, b, c = abc
    assert gauss_2f1_neg1(a, b, c) == pytest.approx(_euler_integral_2f1_neg1(a, b, c), abs=1e-9)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1_neg1(2.0, 2.0, 1.0)  # c - a - b = -3: divergent
    with pytest.raises(DomainError):
        gauss_2f1_neg1(0.5, 1.0, 0.0)  # c non-positive integer
    with pytest.raises(DomainError):
        gauss_2f1_neg1(0.5, 1.0, -2.0)


def test_sphere_prefactors_small_dimensions():
    two = sphere_prefactors(2)
    assert two.sigma_area == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert two.sigma_star == pytest.approx(1.0 / math.pi, rel=1e-14)
    three = sphere_prefactors(3)
    assert three.sigma_area == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert three.sigma_star == pytest.approx(0.5, rel=1e-14)
    four = sphere_prefactors(4)
    assert four.sigma_area == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert four.sigma_star == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_sphere_prefactor_ladder_consistency():
    # sigma_star(n) sigma_area(n) = sigma_area(n-1)
    for n in range(3, 11):
        here = sphere_prefactors(n)
        below = sphere_prefactors(n - 1)
        assert here.sigma_star * here.sigma_area == pytest.approx(below.sigma_area, rel=1e-12)


def test_sphere_prefactors_domain():
    with pytest.raises(DomainError):
        sphere_prefactors(1)

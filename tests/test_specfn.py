import math

import mpmath
import numpy as np
import pytest

from ballschwarz import (
    DomainError,
    gauss_2f1_neg1,
    sigma_star,
)

SQRT2 = math.sqrt(2.0)


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


def test_2f1_of_every_heinz_schwarz_instance_matches_mpmath():
    # 2F1[1/2, 1; (3+m)/2; -1], the hypergeometric part of C_m; measured max 2.9e-15 relative
    with mpmath.workdps(40):
        for m in range(2, 200):
            reference = float(mpmath.hyp2f1(0.5, 1, mpmath.mpf(3 + m) / 2, -1))
            assert gauss_2f1_neg1(0.5, 1.0, 0.5 * (3 + m)) == pytest.approx(reference, rel=5e-15, abs=0.0), m


def _euler_integral_2f1_neg1(a, b, c, nsub=100_000):
    """Euler's integral representation, midpoint rule on a smoothing substitution.

    2F1[a,b;c;-1] = Gamma(c)/(Gamma(b) Gamma(c-b))
                    * int_0^1 t^{b-1} (1-t)^{c-b-1} (1+t)^{-a} dt,
    with t = 1 - s^2 so the (1-t) endpoint factor becomes smooth.
    """
    s = (np.arange(nsub) + 0.5) / nsub
    t = 1.0 - s * s
    values = t ** (b - 1.0) * s ** (2.0 * (c - b) - 2.0) * (1.0 + t) ** (-a) * 2.0 * s
    prefactor = math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))
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


@pytest.mark.parametrize("c", [-math.inf, math.nan], ids=["-inf", "nan"])
def test_2f1_of_a_non_finite_c_is_a_domain_error(c):
    # -inf used to reach int() in the pole test and raise OverflowError
    with pytest.raises(DomainError, match="^2F1 at argument -1 needs c - a - b > -1"):
        gauss_2f1_neg1(0.5, 1.0, c)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("slot", range(3), ids=["a", "b", "c"])
@pytest.mark.parametrize("evaluate", [gauss_2f1_neg1], ids=["transformed"])
def test_2f1_of_any_non_finite_parameter_is_a_domain_error(evaluate, slot, value):
    # c = inf used to sum 100000 NaN terms and raise AccuracyError
    abc = [0.5, 1.0, 2.5]
    abc[slot] = value
    with pytest.raises(DomainError, match="^2F1 (parameters must be finite|at argument -1 needs c - a - b > -1)"):
        evaluate(*abc)


def test_sphere_prefactors_small_dimensions():
    assert sigma_star(2) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert sigma_star(3) == pytest.approx(0.5, rel=1e-14)
    assert sigma_star(4) == pytest.approx(2.0 / math.pi, rel=1e-14)


def _sphere_area(n):
    """Surface area of S^{n-1}, 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def test_sphere_prefactor_ladder_consistency():
    # sigma_star(n) sigma_area(n) = sigma_area(n-1)
    for n in range(3, 11):
        assert sigma_star(n) * _sphere_area(n) == pytest.approx(_sphere_area(n - 1), rel=1e-12)


def test_sigma_star_matches_mpmath():
    # a difference of log-gammas is off by 1.5e-14 at n = 62 and 1.5e-11 at n = 20000
    with mpmath.workdps(40):
        for n in (*range(2, 200), 1080, 2049, 20000, 40000):
            half = mpmath.mpf(n) / 2
            ref = mpmath.gamma(half) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(half - mpmath.mpf(1) / 2))
            assert sigma_star(n) == pytest.approx(float(ref), rel=2e-15, abs=0.0), n


def test_sphere_prefactors_domain():
    for bad in (1, 2.5):
        with pytest.raises(DomainError):
            sigma_star(bad)

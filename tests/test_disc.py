import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballschwarz import DomainError, integrate_rows, radial_derivative_estimate, schwarz_planar_bound
from ballschwarz.disc import DiscCapExtremal, arc_antiderivative, arc_extension


def _arc_extension_quadrature(z, theta1, theta2):
    r = abs(z)
    phase = cmath.phase(z)

    def kernel(t):
        return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t - phase) + r * r)

    if theta2 == theta1:  # the engine takes a < b only; an empty arc has measure 0
        return 0.0
    return integrate_rows(kernel, theta1, theta2)[0] / (2.0 * math.pi)


def test_full_circle_has_measure_one():
    for z in (0.0, 0.3 + 0.4j, -0.7j):
        assert arc_extension(z, -math.pi, math.pi) == pytest.approx(1.0, abs=1e-13)


def test_empty_arc_has_measure_zero():
    assert arc_extension(0.3, 1.0, 1.0) == 0.0


def test_antiderivative_period_shift():
    for r in (0.0, 0.5, 0.9):
        for s in (-2.0, 0.3, 1.7):
            assert arc_antiderivative(s + 2.0 * math.pi, r) == pytest.approx(
                arc_antiderivative(s, r) + 2.0 * math.pi, abs=1e-12
            )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_closed_form_matches_quadrature(r, phase, theta1, width):
    z = r * cmath.exp(1j * phase)
    theta2 = theta1 + width
    closed = arc_extension(z, theta1, theta2)
    assert abs(closed - _arc_extension_quadrature(z, theta1, theta2)) < 1e-10


def test_arc_domain_errors():
    with pytest.raises(DomainError):
        arc_extension(1.0 + 0.0j, 0.0, 1.0)
    with pytest.raises(DomainError):
        arc_extension(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        arc_extension(0.0, 0.0, 7.0)


def test_cap_extremal_origin_and_contact_values():
    for a in (-0.6, 0.0, 0.45):
        u = DiscCapExtremal(a)
        assert u(0.0) == pytest.approx(a, abs=1e-13)
        assert u(1.0 - 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert abs(u(0.3 + 0.2j)) < 1.0


def test_cap_extremal_contact_slope_matches_measurement():
    for a in (-0.5, 0.0, 0.5):
        u = DiscCapExtremal(a)
        measured = radial_derivative_estimate(lambda r: u(complex(r, 0.0)))
        assert measured == pytest.approx(schwarz_planar_bound(a), abs=1e-6)


def test_cap_extremal_domain():
    with pytest.raises(DomainError):
        DiscCapExtremal(1.0)

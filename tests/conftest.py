"""Fixtures shared by the test modules."""

import pytest

import ballschwarz.envelope
import ballschwarz.poisson


@pytest.fixture
def engine_calls(monkeypatch):
    """The quadrature calls that the envelope and Poisson layers make, one entry per call."""
    calls = []
    for module in (ballschwarz.envelope, ballschwarz.poisson):

        def counted(*args, _engine=module.integrate_rows, **kwargs):
            calls.append("integrate_rows")
            return _engine(*args, **kwargs)

        monkeypatch.setattr(module, "integrate_rows", counted)
    return calls

"""Fixtures shared by the test modules."""

import pytest

import ballschwarz.envelope
import ballschwarz.poisson


@pytest.fixture
def engine_calls(monkeypatch):
    """The quadrature calls that the envelope and Poisson layers make, one engine name per call."""
    calls = []
    for module in (ballschwarz.envelope, ballschwarz.poisson):
        for name in ("integrate", "integrate_rows"):

            def counted(*args, _engine=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _engine(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls

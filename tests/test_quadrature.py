import math

import numpy as np
import pytest

import ballschwarz.poisson
import ballschwarz.quadrature
from ballschwarz import (
    AccuracyError,
    DomainError,
    KernelKind,
    QuadratureConfig,
    ZonalBoundaryData,
    integrate_rows,
    zonal_extension_on_axis,
)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1e-3)


def test_polynomial_is_exact():
    assert integrate_rows(lambda x: x**5, 0.0, 1.0)[0] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_sine_over_period():
    assert integrate_rows(np.sin, 0.0, math.pi)[0] == pytest.approx(2.0, abs=1e-13)


def test_sharp_peak_is_resolved():
    eps = 1e-6
    value = integrate_rows(lambda x: eps / (x * x + eps * eps), -1.0, 1.0)[0]
    assert value == pytest.approx(2.0 * math.atan(1.0 / eps), abs=1e-9)


def test_breakpoints_handle_steps():
    def step(x):
        return np.where(x < 0.3, 1.0, -2.0)

    value = integrate_rows(step, 0.0, 1.0, breakpoints=[0.3])[0]
    assert value == pytest.approx(0.3 - 2.0 * 0.7, abs=1e-14)


def test_budget_exhaustion_reports_estimate(monkeypatch):
    eps = 1e-9
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(AccuracyError) as excinfo:
        integrate_rows(lambda x: eps / (x * x + eps * eps), -1.0, 1.0)
    assert excinfo.value.estimate is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_integrand_raises_naming_the_panel(bad):
    with pytest.raises(AccuracyError, match=r"panel \[0, 1\]"):
        integrate_rows(lambda x: np.where(x > 0.5, bad, 1.0), 0, 1)


def test_nonfinite_endpoints_rejected():
    with pytest.raises(DomainError):
        integrate_rows(np.sin, 0.0, math.inf)
    for a, b in ((1.3, 1.3), (1.0, 0.0)):  # an empty or a reversed interval is refused too
        with pytest.raises(DomainError, match="a < b"):
            integrate_rows(np.cos, a, b)


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


def test_one_integrand_call_per_batch_of_panels_on_21_nodes():
    shapes = []

    def counting(f):
        def wrapped(x):
            shapes.append(np.shape(x))
            return f(x)

        return wrapped

    # the three initial panels between the breakpoints in one call
    integrate_rows(counting(lambda x: x**7), 0.0, 1.0, breakpoints=[0.25, 0.5])
    assert shapes == [(63,)]
    shapes.clear()
    eps = 1e-6
    integrate_rows(counting(lambda x: eps / (x * x + eps * eps)), -1.0, 1.0)
    # the first panel, then both halves of each bisection in one call
    assert shapes[0] == (21,) and len(shapes) > 1
    assert set(shapes[1:]) == {(42,)}


def test_the_first_bisection_splits_the_worst_initial_panel():
    batches = []

    def peak(x):
        batches.append(x)
        return 1e-4 / ((x - 0.9) ** 2 + 1e-8)

    # the heap is keyed before the first bisection: the peak's panel is split first, not the first panel
    integrate_rows(peak, 0.0, 1.0, breakpoints=[0.25, 0.5, 0.75])
    assert len(batches[0]) == 4 * 21 and len(batches) > 2
    assert 0.75 < batches[1].min() and batches[1].max() < 1.0


def test_tolerance_below_rounding_floor_raises():
    with pytest.raises(AccuracyError) as excinfo:
        integrate_rows(np.exp, 0.0, 1.0, QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30))
    assert excinfo.value.estimate.shape == (1,)
    assert excinfo.value.estimate[0] == pytest.approx(math.e - 1.0, rel=1e-15)


def _counting(f, counter):
    def wrapped(x):
        counter.append(len(x))
        return f(x)

    return wrapped


def _peak(x0, eps):
    return lambda x: eps / ((x - x0) ** 2 + eps * eps)


def _rows(*fs):
    """The integrand of integrate_rows whose rows are the functions fs."""
    return lambda x: np.array([f(x) for f in fs])


ROWS = [np.sin, np.exp, _peak(0.3, 1e-3), _peak(0.7, 1e-5), lambda x: np.where(x < 0.4, 1.0, -2.0) * np.cos(x)]


def test_each_batch_row_matches_its_row_alone():
    batch = integrate_rows(_rows(*ROWS), 0.0, 1.0, breakpoints=[0.4])
    assert batch.shape == (len(ROWS),)
    for f, value in zip(ROWS, batch):
        assert value == integrate_rows(f, 0.0, 1.0, breakpoints=[0.4])[0]


@pytest.mark.parametrize("seed", range(8))
def test_random_peaked_batch_rows_have_the_bits_of_their_rows_alone(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        functions = [_peak(x0, eps) for x0, eps in zip(rng.uniform(0.0, 1.0, rng.integers(2, 7)),
                                                      10.0 ** rng.uniform(-6.0, -2.0, 6))]
        functions.insert(int(rng.integers(len(functions) + 1)), np.cos)
        batch = integrate_rows(_rows(*functions), 0.0, 1.0)
        assert batch.tolist() == [integrate_rows(f, 0.0, 1.0)[0] for f in functions]


def test_a_batch_refuses_only_where_a_row_alone_refuses(monkeypatch):
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 10)
    left, right = _peak(0.25, 1e-2), _peak(0.75, 1e-2)
    # each row alone finishes in exactly ten bisections
    for f in (left, right):
        calls = []
        integrate_rows(_counting(f, calls), 0.0, 1.0)
        assert len(calls) == 11
    batch = integrate_rows(_rows(left, right), 0.0, 1.0)
    assert batch.tolist() == [integrate_rows(left, 0.0, 1.0)[0], integrate_rows(right, 0.0, 1.0)[0]]


def test_a_refusal_carries_earlier_rows_final_and_later_rows_initial(monkeypatch):
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 10)
    done, refused, later = _peak(0.25, 1e-2), _peak(0.5, 1e-9), _peak(0.75, 1e-3)

    def refusal(f):
        with pytest.raises(AccuracyError) as excinfo:
            integrate_rows(f, 0.0, 1.0)
        return excinfo.value.estimate

    with pytest.raises(AccuracyError, match="in row 1") as excinfo:
        integrate_rows(_rows(done, refused, later), 0.0, 1.0)
    expected = [integrate_rows(done, 0.0, 1.0)[0], refusal(refused)[0]]
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 0)
    expected.append(refusal(later)[0])  # the one initial panel
    assert excinfo.value.estimate.tolist() == expected


@pytest.mark.parametrize("f", ROWS)
def test_a_one_dimensional_result_is_one_row_with_the_same_bits(f):
    rows = integrate_rows(_rows(f), 0.0, 1.0, breakpoints=[0.4])
    assert rows.shape == (1,)
    assert np.array_equal(integrate_rows(f, 0.0, 1.0, breakpoints=[0.4]), rows)


def test_rows_of_very_different_size_stop_on_their_own_tolerance():
    # 1e4 sin x needs a tolerance of 1e-6, the 1e-3 peak one of 1e-11: a shared
    # tolerance would leave the small row 1e5 times short.
    config = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
    small = _peak(0.5, 1e-3)
    exact = np.array([1e4 * (1.0 - math.cos(1.0)), 1e-3 * 2.0 * math.atan(0.5 / 1e-3)])
    shapes = []
    batch = integrate_rows(_counting(_rows(lambda x: 1e4 * np.sin(x), lambda x: 1e-3 * small(x)), shapes),
                           0.0, 1.0, config)
    assert np.all(np.abs(batch - exact) <= np.maximum(config.abs_tol, config.rel_tol * np.abs(exact)))
    alone = []
    integrate_rows(_counting(lambda x: 1e-3 * small(x), alone), 0.0, 1.0, config)
    assert len(shapes) >= len(alone) > 1


@pytest.mark.parametrize("functions", [
    (np.sin, _peak(0.5, 1e-4)),
    (_peak(0.3, 1e-4), np.sin, _peak(0.7, 1e-5)),
])
def test_a_row_that_is_done_keeps_its_value(functions):
    shapes = []
    batch = integrate_rows(_counting(_rows(*functions), shapes), 0.0, 1.0)
    done = functions.index(np.sin)
    # sin is done on the first panel; the peaks bisect on, and its total stays that panel's
    assert len(shapes) > 1
    assert batch[done] == integrate_rows(np.sin, 0.0, 1.0)[0]


def test_a_row_that_is_done_and_not_finite_on_a_later_panel_raises_naming_it():
    calls = []

    def rows(x):
        calls.append(len(x))
        # sin is done on the first panel, and is nan on every later one
        done = np.sin(x) if len(calls) == 1 else np.full_like(x, math.nan)
        return np.array([_peak(0.5, 1e-4)(x), done])

    with pytest.raises(AccuracyError, match=r"panel \[0.0, 0.5\] is not finite in row 1"):
        integrate_rows(rows, 0.0, 1.0)
    assert calls == [21, 42]


def test_budget_exhaustion_reports_every_row_estimate(monkeypatch):
    monkeypatch.setattr(ballschwarz.quadrature, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(AccuracyError, match="in row 1") as excinfo:
        integrate_rows(_rows(np.sin, _peak(0.0, 1e-9)), -1.0, 1.0)
    estimate = excinfo.value.estimate
    assert isinstance(estimate, np.ndarray) and estimate.shape == (2,)
    assert abs(estimate[0]) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_value_in_one_row_names_the_panel_and_row(bad):
    rows = _rows(np.cos, lambda x: np.where(x > 0.5, bad, 1.0), np.sin)
    with pytest.raises(AccuracyError, match=r"panel \[0, 1\] is not finite in row 1"):
        integrate_rows(rows, 0, 1)


@pytest.mark.parametrize("easy, hard", [
    (np.sin, _peak(0.3, 1e-4)),
    (np.exp, _peak(0.9, 1e-6)),
    (_peak(0.2, 1e-2), _peak(0.8, 1e-5)),
    (lambda x: np.sqrt(x), _peak(0.5, 1e-3)),
])
def test_a_batch_evaluates_no_more_panels_than_its_rows_alone(easy, hard):
    def panels(*fs):
        shapes = []
        integrate_rows(_counting(_rows(*fs), shapes), 0.0, 1.0)
        return sum(shapes) // 21

    assert panels(easy, hard) <= panels(easy) + panels(hard)
    assert panels(hard, easy) <= panels(easy) + panels(hard)


def _per_panel(f, calls):
    """The integrand f called once per panel: each batch of nodes split back into its 21-node panels."""
    def each(x):
        calls.append(len(x))
        return np.concatenate([np.reshape(f(panel), (-1, 21)) for panel in np.split(x, len(x) // 21)], axis=1)

    return each


def _assert_batches_match_panels(f, a, b, breakpoints=()):
    calls = []
    batched = integrate_rows(f, a, b, breakpoints=breakpoints)
    reference = integrate_rows(_per_panel(f, calls), a, b, breakpoints=breakpoints)
    assert np.array_equal(batched, reference)
    return calls


RADII = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.85, 0.9, 0.95, 0.99])


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("n", [3, 5])
def test_batched_panels_keep_the_bits_of_per_panel_calls_on_angle_kernels(kind, n):
    column = RADII[:, None]
    calls = _assert_batches_match_panels(lambda t: kind.kernel(n, column, t), 0.3, math.pi)
    assert len(calls) > 1 and set(calls[1:]) == {42}  # the peaked rows bisect


@pytest.mark.parametrize("kind", list(KernelKind))
def test_batched_panels_keep_the_bits_of_per_panel_calls_on_a_step_profile(kind, monkeypatch):
    cuts, levels = np.array([0.4, 1.3, 2.5]), np.array([1.0, -0.3, 0.6, -0.9])
    data = ZonalBoundaryData(n=3, axis=np.array([1.0, 0.0, 0.0]),
                             profile=lambda t: levels[np.searchsorted(cuts, t, side="right")],
                             breakpoints=tuple(cuts))
    radii = np.concatenate((-RADII[1:], RADII))
    batched = zonal_extension_on_axis(kind, data, radii)
    calls = []
    monkeypatch.setattr(ballschwarz.poisson, "integrate_rows",
                        lambda f, *args, **kwargs: integrate_rows(_per_panel(f, calls), *args, **kwargs))
    assert np.array_equal(zonal_extension_on_axis(kind, data, radii), batched)
    assert calls[0] == 4 * 21  # four panels between three breakpoints


def test_batched_panels_keep_the_bits_of_per_panel_calls_on_a_peaked_row():
    for functions in ((_peak(0.3, 1e-4),), (np.sin, _peak(0.7, 1e-5), np.exp)):
        calls = _assert_batches_match_panels(_rows(*functions), 0.0, 1.0, breakpoints=[0.5])
        assert calls[0] == 42 and len(calls) > 10

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballschwarz import (
    DomainError,
    MobiusParams,
    RealLinearMap,
    boundary_lambda,
    hermitian_adjoint,
    hilbert_ball,
    inner,
    mobius_A,
    mobius_derivative_adjoint,
    mobius_identity_residuals,
    mobius_map,
    real_adjoint,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_ball_vector(rng, k, max_norm=0.9):
    z = _random_complex(rng, k)
    return z / np.linalg.norm(z) * max_norm * rng.uniform() ** (1.0 / (2 * k))


def _random_unit_vector(rng, k):
    z = _random_complex(rng, k)
    return z / np.linalg.norm(z)


def _columns(apply, k):
    """The (..., k, k) matrix of a linear map, built column by column from its action."""
    return np.stack([apply(e) for e in np.eye(k, dtype=complex)], axis=-1)


def _a_matrix(p):
    return _columns(lambda v: mobius_A(p, v), p.k)


def _derivative_adjoint_matrix(p, z):
    return _columns(lambda w: mobius_derivative_adjoint(p, z, w), p.k)


def _dphi_adjoint_residual(p, z0):
    """|Dphi_xi(z0)^H phi_xi(z0) - mu z0|, mu = (1-|xi|^2)/|1-<z0,xi>|^2, from the residual pass."""
    return mobius_identity_residuals(p, z0)["derivative_adjoint"]


def test_mobius_s_is_computed_once_from_xi(monkeypatch):
    rng = _rng(4)
    xi = np.stack([_random_ball_vector(rng, 3) for _ in range(5)])
    p, single = MobiusParams(xi), MobiusParams(xi[0])
    gap = 1.0 - np.linalg.norm(xi, axis=-1) ** 2
    expected = np.sqrt(gap)

    def refuse(*args, **kwargs):
        raise AssertionError("reading s or gap recomputed a norm")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    for _ in range(3):
        assert np.array_equal(p.s, expected)
        assert single.s == expected[0]
        # gap holds 1 - |xi|^2 itself, which s**2 need not reproduce bit for bit
        assert gap.tobytes() == p.gap.tobytes()
        assert single.gap == gap[0]


def test_residual_pass_takes_one_norm_per_residual(monkeypatch):
    rng = _rng(5)
    xi = np.stack([_random_ball_vector(rng, 4) for _ in range(6)])
    z = np.stack([_random_unit_vector(rng, 4) for _ in range(6)])
    p = MobiusParams(xi)
    norm, calls = np.linalg.norm, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    mobius_identity_residuals(p, z)
    # mu reads p.gap: the norm of xi taken by MobiusParams is not taken again
    assert calls == [-1] * 4


def test_residual_pass_composes_the_public_maps(monkeypatch):
    """The residuals are the public maps composed, so no second copy of the Moebius algebra can hide in the pass."""
    rng = _rng(6)
    xi, z = _batch(rng, 5, 3)
    p = MobiusParams(xi)
    calls = []

    def spy(function):
        def counted(*args):
            calls.append(function.__name__)
            return function(*args)
        return counted

    for function in (mobius_map, mobius_A, mobius_derivative_adjoint):
        monkeypatch.setattr(hilbert_ball, function.__name__, spy(function))
    mobius_identity_residuals(p, z)
    assert calls.count("mobius_map") == 2
    assert calls.count("mobius_derivative_adjoint") == 1
    # two for A^2, then the one inside each map and inside the derivative adjoint
    assert calls.count("mobius_A") == 5


def test_mobius_A_identity_at_origin():
    p = MobiusParams(np.zeros(3, dtype=complex))
    assert np.allclose(_a_matrix(p), np.eye(3), atol=1e-15)


def test_mobius_A_one_dimensional_is_identity():
    # s + |xi|^2/(1+s) = 1 for every |xi| < 1
    for xi in (0.3 + 0.0j, -0.5 + 0.4j, 0.0 + 0.9j):
        p = MobiusParams(np.array([xi]))
        assert np.allclose(_a_matrix(p), np.eye(1), atol=1e-14)


def test_mobius_A_square_identity_and_hermitian():
    rng = _rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        xi = _random_ball_vector(rng, k)
        p = MobiusParams(xi)
        amat = _a_matrix(p)
        target = p.s**2 * np.eye(k) + np.outer(xi, np.conj(xi))
        assert np.linalg.norm(amat @ amat - target) < 1e-13
        assert np.linalg.norm(amat - hermitian_adjoint(amat)) < 1e-14
        assert np.linalg.norm(amat @ xi - xi) < 1e-13


def test_mobius_A_spectrum():
    rng = _rng(2)
    xi = _random_ball_vector(rng, 4, max_norm=0.8)
    p = MobiusParams(xi)
    eigs = np.sort(np.linalg.eigvalsh(_a_matrix(p)))
    assert np.all(eigs > 0.0)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(eigs[:-1], p.s, atol=1e-12)


def test_mobius_map_special_points():
    rng = _rng(3)
    xi = _random_ball_vector(rng, 3)
    p = MobiusParams(xi)
    assert np.linalg.norm(mobius_map(p, xi)) < 1e-14
    assert np.allclose(mobius_map(p, np.zeros(3, dtype=complex)), xi, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_mobius_map_is_an_involution(k, seed):
    rng = _rng(seed)
    p = MobiusParams(_random_ball_vector(rng, k))
    z = _random_ball_vector(rng, k, max_norm=0.999)
    assert np.linalg.norm(mobius_map(p, mobius_map(p, z)) - z) < 1e-12


def test_mobius_map_preserves_sphere():
    rng = _rng(4)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        p = MobiusParams(_random_ball_vector(rng, k))
        z = _random_unit_vector(rng, k)
        assert abs(np.linalg.norm(mobius_map(p, z)) - 1.0) < 1e-12


def test_mobius_derivative_at_origin_parameter():
    p = MobiusParams(np.zeros(2, dtype=complex))
    z = np.array([0.3 + 0.1j, -0.2j])
    assert np.allclose(_derivative_adjoint_matrix(p, z), -np.eye(2), atol=1e-15)


def test_mobius_derivative_matches_finite_differences():
    rng = _rng(5)
    k = 3
    p = MobiusParams(_random_ball_vector(rng, k))
    z = _random_ball_vector(rng, k, max_norm=0.7)
    analytic = hermitian_adjoint(_derivative_adjoint_matrix(p, z))
    step = 1e-6
    numeric = np.zeros((k, k), dtype=complex)
    for j in range(k):
        e = np.zeros(k, dtype=complex)
        e[j] = step
        # complex-linear: real and imaginary directional derivatives agree
        d_re = (mobius_map(p, z + e) - mobius_map(p, z - e)) / (2.0 * step)
        d_im = (mobius_map(p, z + 1j * e) - mobius_map(p, z - 1j * e)) / (2.0 * step)
        numeric[:, j] = 0.5 * (d_re - 1j * d_im)
        assert np.linalg.norm(d_re + 1j * d_im) < 1e-7  # antilinear part absent
    assert np.linalg.norm(analytic - numeric) < 1e-7


def test_mobius_derivative_chain_rule_on_involution():
    rng = _rng(6)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        p = MobiusParams(_random_ball_vector(rng, k))
        z = _random_ball_vector(rng, k, max_norm=0.8)
        # Dphi(phi(z)) Dphi(z) = Id, applied as Dphi(z)^H Dphi(phi(z))^H = Id
        image = mobius_map(p, z)
        product = _columns(lambda w: mobius_derivative_adjoint(p, z, mobius_derivative_adjoint(p, image, w)), k)
        assert np.linalg.norm(product - np.eye(k)) < 1e-11


def test_hermitian_adjoint_examples():
    assert np.array_equal(hermitian_adjoint(np.eye(3, dtype=complex)), np.eye(3))
    rng = _rng(7)
    xi = _random_complex(rng, 4)
    rank_one = np.outer(xi, np.conj(xi))  # v -> xi <v, xi>
    assert np.allclose(hermitian_adjoint(rank_one), rank_one, atol=1e-15)
    z = _random_complex(rng, 4)
    q = np.outer(z, np.conj(xi))  # Q v = z <v, xi>
    r_mat = np.outer(xi, np.conj(z))  # R v = xi <v, z>
    assert np.allclose(hermitian_adjoint(q), r_mat, atol=1e-15)


def test_hermitian_adjoint_pairing():
    rng = _rng(8)
    m_mat = _random_complex(rng, 3, 5)
    for _ in range(20):
        w = _random_complex(rng, 3)
        z = _random_complex(rng, 5)
        lhs = inner(hermitian_adjoint(m_mat) @ w, z)
        rhs = inner(w, m_mat @ z)
        assert abs(lhs - rhs) < 1e-12


def test_real_adjoint_of_complex_linear_is_hermitian_adjoint():
    rng = _rng(9)
    b_mat = _random_complex(rng, 4, 3)
    L = RealLinearMap(B=b_mat, C=np.zeros_like(b_mat))
    star = real_adjoint(L)
    assert np.allclose(star.B, hermitian_adjoint(b_mat), atol=1e-15)
    assert np.allclose(star.C, 0.0, atol=1e-15)


def test_real_adjoint_of_conjugation_is_itself():
    conj = RealLinearMap(B=np.zeros((3, 3)), C=np.eye(3, dtype=complex))
    star = real_adjoint(conj)
    assert np.allclose(star.B, 0.0, atol=1e-15)
    assert np.allclose(star.C, np.eye(3), atol=1e-15)
    rng = _rng(10)
    for _ in range(100):
        w = _random_complex(rng, 3)
        z = _random_complex(rng, 3)
        assert abs(
            np.real(inner(conj(z), w)) - np.real(inner(z, conj(w)))
        ) < 1e-13


def test_real_adjoint_pairing_on_random_operators():
    rng = _rng(11)
    L = RealLinearMap(B=_random_complex(rng, 3, 4), C=_random_complex(rng, 3, 4))
    star = real_adjoint(L)
    for _ in range(100):
        w = _random_complex(rng, 3)
        z = _random_complex(rng, 4)
        lhs = np.real(inner(star(w), z))
        rhs = np.real(inner(w, L(z)))
        assert abs(lhs - rhs) < 1e-13


def _compose(L, K):
    """L after K in (B, C) form: B_L B_K + C_L conj(C_K), B_L C_K + C_L conj(B_K)."""
    return RealLinearMap(B=L.B @ K.B + L.C @ np.conj(K.C), C=L.B @ K.C + L.C @ np.conj(K.B))


def test_adjoints_reverse_composition():
    rng = _rng(12)
    m_mat = _random_complex(rng, 4, 3)
    n_mat = _random_complex(rng, 3, 5)
    assert np.allclose(
        hermitian_adjoint(m_mat @ n_mat),
        hermitian_adjoint(n_mat) @ hermitian_adjoint(m_mat),
        atol=1e-13,
    )
    L = RealLinearMap(B=_random_complex(rng, 4, 3), C=_random_complex(rng, 4, 3))
    K = RealLinearMap(B=_random_complex(rng, 3, 5), C=_random_complex(rng, 3, 5))
    lhs = real_adjoint(_compose(L, K))
    rhs = _compose(real_adjoint(K), real_adjoint(L))
    assert np.allclose(lhs.B, rhs.B, atol=1e-13)
    assert np.allclose(lhs.C, rhs.C, atol=1e-13)


def test_dphi_adjoint_identity_origin_parameter_is_exact():
    p = MobiusParams(np.zeros(3, dtype=complex))
    z0 = np.array([0.2 + 0.1j, 0.0, -0.3j])
    assert _dphi_adjoint_residual(p, z0) == 0.0


def test_dphi_adjoint_identity_on_sphere():
    rng = _rng(15)
    for _ in range(50):
        p = MobiusParams(_random_ball_vector(rng, 3))
        on_sphere = _random_unit_vector(rng, 3)
        assert _dphi_adjoint_residual(p, on_sphere) < 1e-12


def test_dphi_adjoint_identity_needs_boundary_point():
    # The identity's derivation replaces <z0, xi - z0> by <z0, xi> - 1,
    # which requires |z0| = 1: strictly inside the ball the residual is
    # genuinely nonzero.  Pin the restriction with a 1-D counterexample.
    p = MobiusParams(np.array([0.5 + 0.0j]))
    assert _dphi_adjoint_residual(p, np.array([0.3 + 0.0j])) > 0.05
    # ... while xi = 0 is exact everywhere (phi_0 = -Id).
    origin = MobiusParams(np.zeros(1, dtype=complex))
    assert _dphi_adjoint_residual(origin, np.array([0.3 + 0.0j])) == 0.0


def _complex_linear(matrix):
    return RealLinearMap(B=matrix, C=np.zeros_like(matrix))


def test_boundary_lambda_identity_and_diagonal():
    e1 = np.array([1.0, 0.0], dtype=complex)
    ident = _complex_linear(np.eye(2, dtype=complex))
    lam, residual = boundary_lambda(ident, e1, e1)
    assert lam == pytest.approx(1.0, abs=1e-15)
    assert residual < 1e-15

    diag = _complex_linear(np.diag([2.0 + 0.0j, 3.0 + 0.0j]))
    lam, residual = boundary_lambda(diag, e1, e1)
    assert lam == pytest.approx(2.0, abs=1e-15)
    assert residual < 1e-15


def test_boundary_lambda_requires_unit_vectors():
    ident = _complex_linear(np.eye(2, dtype=complex))
    with pytest.raises(DomainError):
        boundary_lambda(ident, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        boundary_lambda(ident, np.array([1.0, 0.0]), np.array([0.0, 2.0]))


def test_boundary_lambda_cauchy_schwarz():
    rng = _rng(16)
    for _ in range(50):
        L = RealLinearMap(B=_random_complex(rng, 3, 3), C=_random_complex(rng, 3, 3))
        a = _random_unit_vector(rng, 3)
        b = _random_unit_vector(rng, 3)
        lam, _ = boundary_lambda(L, a, b)
        assert lam <= np.linalg.norm(L(a)) + 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e12])
def test_boundary_lambda_guard_scales_with_the_map(scale):
    # b is a unit vector to within the unit tolerance, so lambda may pass
    # |Df(a)| by that tolerance relative to |Df(a)|, however large it is
    L = RealLinearMap(B=scale * np.eye(2), C=np.zeros((2, 2)))
    lam, residual = boundary_lambda(L, np.array([1.0, 0.0]), np.array([1.0 + 5e-13, 0.0]))
    assert lam == pytest.approx(scale, rel=1e-12) and lam > scale
    assert residual == pytest.approx(0.0, abs=1e-12 * scale)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["B", "C"])
def test_boundary_lambda_of_a_non_finite_operator_is_a_domain_error(part, entry):
    # Cauchy-Schwarz holds for every finite operator; a NaN or inf entry used to leave as (nan, nan) or inf
    parts = {"B": np.eye(2), "C": np.zeros((2, 2))}
    parts[part][0, 0] = entry
    # built outside np.errstate: an inf entry used to warn in the map itself (inf times the 0 imaginary part
    # of a direction) before boundary_lambda raised; the map now refuses the part when it is built
    with pytest.raises(DomainError, match=f"^matrix part {part} must have finite entries$"):
        boundary_lambda(RealLinearMap(**parts), np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_boundary_lambda_of_an_overflowing_operator_is_a_domain_error():
    # finite entries whose products overflow (the residual's norm along e1, the map itself along the
    # diagonal) reach boundary_lambda's own check with no numpy warning, which the warning filter would raise
    operator = RealLinearMap(B=np.full((2, 2), 1.5e308), C=np.zeros((2, 2)))
    for a, last in ((np.array([1.0, 0.0]), "residual inf"), (np.array([1.0, 1.0]) / math.sqrt(2.0), "residual nan")):
        with pytest.raises(DomainError, match=f"^boundary eigenvalue of the operator is not finite: .*{last}$"):
            boundary_lambda(operator, a, a)


def test_mobius_rejects_boundary_parameter():
    with pytest.raises(DomainError):
        MobiusParams(np.array([1.0 + 0.0j]))


def test_mobius_degenerate_denominator():
    p = MobiusParams(np.array([0.999 + 0.0j]))
    # z on the sphere aligned with xi: <z, xi> -> |xi| < 1, fine;
    # push z outside the closed ball to force the degenerate case
    z = np.array([1.0 / 0.999 + 0.0j])
    with pytest.raises(DomainError):
        mobius_map(p, z)


def _batch(rng, count, k):
    xi = np.stack([_random_ball_vector(rng, k) for _ in range(count)])
    z = np.stack([_random_unit_vector(rng, k) for _ in range(count)])
    return xi, z


def _rel_close(batched, looped):
    scale = max(1.0, float(np.max(np.abs(looped))))
    return float(np.max(np.abs(batched - looped))) <= 1e-14 * scale


@pytest.mark.parametrize("k", [1, 2, 3, 8, 32])
def test_batched_functions_match_a_per_row_loop(k):
    rng = _rng(17 + k)
    xi, z = _batch(rng, 7, k)
    batch = MobiusParams(xi)
    rows = [MobiusParams(row) for row in xi]
    assert batch.k == k and batch.s.shape == (7,)
    w = np.roll(z, 1, axis=0)
    assert _rel_close(mobius_A(batch, z), np.stack([mobius_A(p, v) for p, v in zip(rows, z)]))
    assert _rel_close(mobius_map(batch, z), np.stack([mobius_map(p, v) for p, v in zip(rows, z)]))
    assert _rel_close(
        mobius_derivative_adjoint(batch, z, w),
        np.stack([mobius_derivative_adjoint(p, v, u) for p, v, u in zip(rows, z, w)]),
    )
    residuals = mobius_identity_residuals(batch, z)
    looped = [mobius_identity_residuals(p, w) for p, w in zip(rows, z)]
    for name, values in residuals.items():
        assert values.shape == (7,)
        row_values = np.array([row[name] for row in looped])
        assert np.all(np.abs(values - row_values) <= 1e-14 * np.maximum(1.0, row_values)), name


def test_batch_broadcasts_one_point_against_many_parameters():
    rng = _rng(23)
    xi, _ = _batch(rng, 5, 3)
    w = _random_unit_vector(rng, 3)
    images = mobius_map(MobiusParams(xi), w)
    for row, image in zip(xi, images):
        assert np.linalg.norm(image - mobius_map(MobiusParams(row), w)) <= 1e-15


def test_hermitian_adjoint_of_a_stack():
    rng = _rng(24)
    stack = _random_complex(rng, 4, 3, 5)
    adjoint = hermitian_adjoint(stack)
    assert adjoint.shape == (4, 5, 3)
    for m_mat, m_adj in zip(stack, adjoint):
        assert np.array_equal(m_adj, hermitian_adjoint(m_mat))


def test_batch_with_one_parameter_outside_the_ball_raises():
    rng = _rng(25)
    xi, _ = _batch(rng, 6, 3)
    xi[4] = xi[4] / np.linalg.norm(xi[4])  # |xi| = 1
    with pytest.raises(DomainError, match=r"batch row \[4\]"):
        MobiusParams(xi)
    xi[4] *= 1.5
    with pytest.raises(DomainError):
        MobiusParams(xi)


def test_batch_with_one_degenerate_denominator_raises():
    rng = _rng(26)
    xi, z = _batch(rng, 6, 2)
    xi[2] = np.array([0.999 + 0.0j, 0.0])
    z[2] = np.array([1.0 / 0.999 + 0.0j, 0.0])  # <z, xi> = 1
    p = MobiusParams(xi)
    for call in (mobius_map, mobius_identity_residuals):
        with pytest.raises(DomainError, match="degenerate"):
            call(p, z)
    with pytest.raises(DomainError, match="degenerate"):
        mobius_derivative_adjoint(p, z, z)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 32])
def test_rank_one_map_matches_the_matrix_form(k):
    rng = _rng(27 + k)
    for _ in range(20):
        p = MobiusParams(_random_ball_vector(rng, k))
        z = _random_ball_vector(rng, k, max_norm=0.999)
        v = (p.xi - z) / (1.0 - inner(z, p.xi))
        amat = p.s * np.eye(k) + np.outer(p.xi, np.conj(p.xi)) / (1.0 + p.s)
        expected = amat @ v
        assert np.linalg.norm(mobius_map(p, z) - expected) <= 1e-14 * max(1.0, np.linalg.norm(expected))


@pytest.mark.parametrize("k", [1, 2, 3, 8, 32])
def test_rank_one_derivative_adjoint_matches_the_matrix_form(k):
    rng = _rng(41 + k)
    for _ in range(20):
        p = MobiusParams(_random_ball_vector(rng, k))
        z = _random_ball_vector(rng, k, max_norm=0.999)
        w = _random_complex(rng, k)
        d = 1.0 - inner(z, p.xi)
        amat = p.s * np.eye(k) + np.outer(p.xi, np.conj(p.xi)) / (1.0 + p.s)
        dphi = amat @ (-np.eye(k) / d + np.outer(p.xi - z, np.conj(p.xi)) / d**2)
        expected = hermitian_adjoint(dphi) @ w
        scale = max(1.0, float(np.linalg.norm(expected)))
        assert np.linalg.norm(mobius_derivative_adjoint(p, z, w) - expected) <= 1e-13 * scale


def _raised(call, *args):
    with pytest.raises(DomainError) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("k", [1, 3])
def test_residuals_refuse_where_the_maps_refuse(k):
    """Both denominators are checked: that of z, and that of phi_xi(z) in the involution's second map."""
    rng = _rng(70 + k)
    xi, z = _batch(rng, 4, k)
    e1 = np.eye(k, dtype=complex)[0]
    # z's own denominator: <z, xi> = 1
    xi[1], z[1] = 0.999 * e1, e1 / 0.999
    p = MobiusParams(xi)
    message = _raised(mobius_map, p, z)
    assert "degenerate" in message
    assert _raised(mobius_identity_residuals, p, z) == message
    # phi_xi(-e1) = e1, and 1 - <e1, xi> = 4e-15 is below the degeneracy threshold
    xi, z = _batch(rng, 4, k)
    xi[2], z[2] = (1.0 - 4e-15) * e1, -e1
    p = MobiusParams(xi)
    image = mobius_map(p, z)
    assert np.array_equal(image[2], e1)
    assert abs(1.0 - inner(image[2], xi[2])) < 1e-14
    message = _raised(mobius_map, p, image)
    assert "degenerate" in message
    assert _raised(mobius_identity_residuals, p, z) == message
    assert _raised(mobius_identity_residuals, MobiusParams(xi[2]), z[2]) == message

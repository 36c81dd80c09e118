"""Finite-dimensional complex-ball operator algebra.

Inner products are linear in the first slot: <u, v> = sum u_i conj(v_i).
A real-linear operator L between complex coordinate spaces splits
uniquely into a complex-linear part B and an antilinear part C,

    L(z) = B z + C conj(z),
    B e_j = (L(e_j) - i L(i e_j)) / 2,   C e_j = (L(e_j) + i L(i e_j)) / 2,

and carries two adjoints: the hermitian adjoint (conjugate transpose,
defined through the complex pairing) and the real adjoint L* defined by
Re<L* w, z> = Re<w, L z>.  In the (B, C) representation the real adjoint
is (B^H, C^T): the complex-linear part contributes its conjugate
transpose (so L* = L^H when C = 0), while matching the antilinear part
under the real pairing transposes C without conjugation.

The ball automorphism exchanging 0 and xi is

    phi_xi(z) = A (xi - z) / (1 - <z, xi>),   s = sqrt(1 - |xi|^2),

an involution mapping sphere to sphere.  Its factor A is a hermitian
rank-one update of a scalar (Rudin, Function Theory in the Unit Ball of
C^n, 2.2.1), so neither A nor the derivative of phi_xi needs a matrix:

    A v = s v + xi <v, xi> / (1 + s),
    Dphi_xi(z)^H w = -(A w) / conj(d) + xi <A w, xi - z> / conj(d)^2,
    d = 1 - <z, xi>,

each O(k).  The adjoint identity Dphi_xi(z0)^H phi_xi(z0) = mu z0 with
mu = (1 - |xi|^2) / |1 - <z0, xi>|^2 is what transfers sharp boundary
constants through precomposition by phi_xi.  ``mobius_identity_residuals``
measures it, the involution, sphere preservation and A^2 by composing
the functions above: they are the module's one Moebius algebra, and
``inner`` its one complex inner product.

``inner``, ``mobius_A``, ``mobius_map``, ``mobius_derivative_adjoint``,
``mobius_identity_residuals`` and ``hermitian_adjoint`` broadcast over
leading batch axes: vectors have shape (..., k) and matrices (..., k, k),
and a plain (k,) vector is the same computation with no batch axis.
Every domain check applies to every batch row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _unit

__all__ = [
    "inner",
    "MobiusParams",
    "mobius_A",
    "mobius_map",
    "mobius_derivative_adjoint",
    "hermitian_adjoint",
    "RealLinearMap",
    "real_adjoint",
    "mobius_identity_residuals",
    "boundary_lambda",
]

_DEGENERATE_TOL = 1e-14


def inner(u: np.ndarray, v: np.ndarray) -> complex | np.ndarray:
    """Complex inner product over the last axis, linear in the first argument."""
    return np.sum(np.asarray(u) * np.conj(np.asarray(v)), axis=-1)


@dataclass(frozen=True)
class MobiusParams:
    """Center parameter xi (|xi| < 1) of the ball automorphism phi_xi.

    ``xi`` has shape (..., k): one automorphism per batch row.  ``gap`` is
    1 - |xi|^2 and ``s`` is sqrt(gap), one value each per batch row,
    computed once from ``xi``; ``s**2`` need not have the bits of ``gap``.
    """

    xi: np.ndarray
    gap: float | np.ndarray = field(init=False, repr=False, compare=False)
    s: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex)
        if xi.ndim < 1 or xi.shape[-1] < 1:
            raise DomainError("xi must be a nonempty complex vector")
        object.__setattr__(self, "xi", xi)
        norm = np.linalg.norm(xi, axis=-1)
        outside = ~(norm < 1.0)  # NaN is outside
        if np.any(outside):
            where = "" if xi.ndim == 1 else f" (batch row {np.argwhere(outside)[0].tolist()})"
            raise DomainError(f"Moebius parameter must satisfy |xi| < 1{where}")
        object.__setattr__(self, "gap", 1.0 - norm**2)
        object.__setattr__(self, "s", np.sqrt(self.gap))

    @property
    def k(self) -> int:
        return self.xi.shape[-1]


def _checked(denom: np.ndarray) -> np.ndarray:
    """The Moebius denominator 1 - <z, xi>, refused where it is degenerate in any row."""
    if np.any(np.abs(denom) < _DEGENERATE_TOL):
        raise DomainError("degenerate Moebius denominator: <z, xi> too close to 1")
    return denom


def mobius_A(p: MobiusParams, v: np.ndarray) -> np.ndarray:
    """A v = s v + xi <v, xi> / (1 + s), the hermitian factor of phi_xi applied to v."""
    v = np.asarray(v, dtype=complex)
    s = p.s[..., None]
    return s * v + p.xi * (inner(v, p.xi)[..., None] / (1.0 + s))


def mobius_map(p: MobiusParams, z: np.ndarray) -> np.ndarray:
    """phi_xi(z) = A v, v = (xi - z) / (1 - <z, xi>)."""
    z = np.asarray(z, dtype=complex)
    return mobius_A(p, (p.xi - z) / _checked(1.0 - inner(z, p.xi)[..., None]))


def mobius_derivative_adjoint(p: MobiusParams, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dphi_xi(z)^H w = -(A w)/conj(d) + xi <A w, xi - z>/conj(d)^2, d = 1 - <z, xi>."""
    z = np.asarray(z, dtype=complex)
    d = np.conj(_checked(1.0 - inner(z, p.xi)[..., None]))
    aw = mobius_A(p, w)
    return -aw / d + p.xi * (inner(aw, p.xi - z)[..., None] / d**2)


def hermitian_adjoint(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes: <M^H w, z> = <w, M z>."""
    return np.conj(np.asarray(matrix, dtype=complex)).swapaxes(-1, -2)


@dataclass(frozen=True)
class RealLinearMap:
    """A real-linear map C^k -> C^m stored by its (complex-linear, antilinear) parts."""

    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=complex))
        C = np.atleast_2d(np.asarray(self.C, dtype=complex))
        if B.shape != C.shape:
            raise DomainError(f"matrix parts must share a shape, got {B.shape} vs {C.shape}")
        for name, part in (("B", B), ("C", C)):
            if not np.isfinite(part).all():
                raise DomainError(f"matrix part {name} must have finite entries")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return self.B @ z + self.C @ np.conj(z)


def real_adjoint(L: RealLinearMap) -> RealLinearMap:
    """The adjoint for the real pairing: Re<L* w, z> = Re<w, L z>."""
    return RealLinearMap(B=hermitian_adjoint(L.B), C=L.C.T)


def mobius_identity_residuals(p: MobiusParams, z: np.ndarray) -> dict[str, np.ndarray]:
    """Residuals of the four identities of phi_xi at z, one value per batch row.

        involution            |phi_xi(phi_xi(z)) - z|
        sphere_preservation   | |phi_xi(z)| - 1 |
        A_squared             |A A z - (s^2 z + xi <z, xi>)|
        derivative_adjoint    |Dphi_xi(z)^H phi_xi(z) - mu z|,  mu = (1 - |xi|^2) / |1 - <z, xi>|^2

    Each is the public maps composed: ``mobius_map`` twice (phi_xi(z), then
    its image), ``mobius_A`` twice and ``mobius_derivative_adjoint`` once.
    The last identity is exact only for unit z (and for xi = 0): its
    algebra replaces <z, xi - z> by <z, xi> - 1, so at interior z with
    xi != 0 its residual is genuinely of order |xi| (1 - |z|^2).  Raises
    :class:`DomainError` where 1 - <z, xi>, or the denominator 1 - <phi_xi(z), xi>
    of the involution's second map, is degenerate in any row.
    """
    z = np.asarray(z, dtype=complex)
    image = mobius_map(p, z)
    z_xi = inner(z, p.xi)[..., None]
    mu = p.gap[..., None] / np.abs(1.0 - z_xi) ** 2
    return {
        "involution": np.linalg.norm(mobius_map(p, image) - z, axis=-1),
        "sphere_preservation": np.abs(np.linalg.norm(image, axis=-1) - 1.0),
        "A_squared": np.linalg.norm(mobius_A(p, mobius_A(p, z)) - (p.s[..., None] ** 2 * z + p.xi * z_xi), axis=-1),
        "derivative_adjoint": np.linalg.norm(mobius_derivative_adjoint(p, z, image) - mu * z, axis=-1),
    }


def boundary_lambda(
    Df: RealLinearMap, a: np.ndarray, b: np.ndarray
) -> tuple[float, float]:
    """Boundary eigenvalue extraction at a contact point.

    For unit vectors a (source normal) and b (target normal) returns

        lambda = Re<Df(a), b>,
        alignment_residual = || Df*(b) - lambda a ||,

    the residual vanishing exactly when the eigen-relation
    Df* b = lambda a holds.  Cauchy-Schwarz bounds lambda by |Df(a)| |b|
    for every operator, and ``RealLinearMap`` refuses a NaN or inf entry,
    so only an operator whose products overflow can break it: a lambda or
    residual that is not finite raises :class:`DomainError`, not numpy's
    overflow warning.
    """
    a = _unit(np.asarray(a, dtype=complex), "contact direction a")
    b = _unit(np.asarray(b, dtype=complex), "target direction b")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        lam = float(np.real(inner(Df(a), b)))
        residual = float(np.linalg.norm(real_adjoint(Df)(b) - lam * a))
    if not (np.isfinite(lam) and np.isfinite(residual)):
        raise DomainError(f"boundary eigenvalue of the operator is not finite: lambda {lam!r}, residual {residual!r}")
    return lam, residual

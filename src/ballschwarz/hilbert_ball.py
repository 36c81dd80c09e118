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
constants through precomposition by phi_xi.

``inner``, the Moebius functions, ``hermitian_adjoint`` and
``verify_dphi_adjoint_identity`` broadcast over leading batch axes:
vectors have shape (..., k) and matrices (..., k, k), and a plain (k,)
vector is the same computation with no batch axis.  Every domain check
applies to every batch row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "inner",
    "MobiusParams",
    "mobius_A",
    "mobius_map",
    "mobius_derivative_adjoint",
    "hermitian_adjoint",
    "RealLinearMap",
    "real_adjoint",
    "verify_dphi_adjoint_identity",
    "boundary_lambda",
]

_DEGENERATE_TOL = 1e-14
_UNIT_TOL = 1e-12


def inner(u: np.ndarray, v: np.ndarray) -> complex | np.ndarray:
    """Complex inner product over the last axis, linear in the first argument."""
    return np.sum(np.asarray(u) * np.conj(np.asarray(v)), axis=-1)


@dataclass(frozen=True)
class MobiusParams:
    """Center parameter xi (|xi| < 1) of the ball automorphism phi_xi.

    ``xi`` has shape (..., k): one automorphism per batch row.  ``s`` is
    sqrt(1 - |xi|^2), one value per batch row, computed once from ``xi``.
    """

    xi: np.ndarray
    s: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex)
        if xi.ndim < 1 or xi.shape[-1] < 1:
            raise DomainError("xi must be a nonempty complex vector")
        object.__setattr__(self, "xi", xi)
        norm = np.linalg.norm(xi, axis=-1)
        outside = norm >= 1.0
        if np.any(outside):
            where = "" if xi.ndim == 1 else f" (batch row {np.argwhere(outside)[0].tolist()})"
            raise DomainError(f"Moebius parameter must satisfy |xi| < 1{where}")
        object.__setattr__(self, "s", np.sqrt(1.0 - norm**2))

    @property
    def k(self) -> int:
        return self.xi.shape[-1]


def mobius_A(p: MobiusParams, v: np.ndarray) -> np.ndarray:
    """A v = s v + xi <v, xi> / (1 + s), the hermitian factor of phi_xi applied to v."""
    v = np.asarray(v, dtype=complex)
    s = p.s[..., None]
    return s * v + p.xi * (inner(v, p.xi)[..., None] / (1.0 + s))


def _denominator(p: MobiusParams, z: np.ndarray) -> complex | np.ndarray:
    denom = 1.0 - inner(z, p.xi)
    if np.any(np.abs(denom) < _DEGENERATE_TOL):
        raise DomainError("degenerate Moebius denominator: <z, xi> too close to 1")
    return denom


def mobius_map(p: MobiusParams, z: np.ndarray) -> np.ndarray:
    """phi_xi(z) = A v, v = (xi - z) / (1 - <z, xi>)."""
    z = np.asarray(z, dtype=complex)
    return mobius_A(p, (p.xi - z) / _denominator(p, z)[..., None])


def mobius_derivative_adjoint(p: MobiusParams, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dphi_xi(z)^H w = -(A w)/conj(d) + xi <A w, xi - z>/conj(d)^2, d = 1 - <z, xi>."""
    z = np.asarray(z, dtype=complex)
    d = np.conj(_denominator(p, z))[..., None]
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
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return self.B @ z + self.C @ np.conj(z)


def real_adjoint(L: RealLinearMap) -> RealLinearMap:
    """The adjoint for the real pairing: Re<L* w, z> = Re<w, L z>."""
    return RealLinearMap(B=hermitian_adjoint(L.B), C=L.C.T)


def verify_dphi_adjoint_identity(p: MobiusParams, z0: np.ndarray) -> float | np.ndarray:
    """Residual of Dphi_xi(z0)^H phi_xi(z0) = mu z0, mu = (1-|xi|^2)/|1-<z0,xi>|^2.

    The identity is exact for unit z0 (and for xi = 0 everywhere): the
    algebra behind it replaces <z0, xi - z0> by <z0, xi> - 1, which needs
    |z0| = 1.  At strictly interior z0 with xi != 0 the residual is
    genuinely of order |xi| (1 - |z0|^2); this function reports it
    either way, one value per batch row.
    """
    z0 = np.asarray(z0, dtype=complex)
    denom = _denominator(p, z0)
    image = mobius_map(p, z0)
    pulled = mobius_derivative_adjoint(p, z0, image)
    mu = (1.0 - np.linalg.norm(p.xi, axis=-1) ** 2) / np.abs(denom) ** 2
    return np.linalg.norm(pulled - mu[..., None] * z0, axis=-1)


def boundary_lambda(
    Df: RealLinearMap, a: np.ndarray, b: np.ndarray
) -> tuple[float, float]:
    """Boundary eigenvalue extraction at a contact point.

    For unit vectors a (source normal) and b (target normal) returns

        lambda = Re<Df(a), b>,
        alignment_residual = || Df*(b) - lambda a ||,

    the residual vanishing exactly when the eigen-relation
    Df* b = lambda a holds.  Cauchy-Schwarz forces
    lambda <= |Df(a)|; a violation beyond 1e-12 indicates a broken
    operator and raises :class:`ContractError`.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if abs(float(np.linalg.norm(a)) - 1.0) > _UNIT_TOL:
        raise DomainError("contact direction a must be a unit vector")
    if abs(float(np.linalg.norm(b)) - 1.0) > _UNIT_TOL:
        raise DomainError("target direction b must be a unit vector")
    image = Df(a)
    lam = float(np.real(inner(image, b)))
    if lam > float(np.linalg.norm(image)) + 1e-12:
        raise ContractError("lambda exceeded |Df(a) a|, violating Cauchy-Schwarz")
    residual = float(np.linalg.norm(real_adjoint(Df)(b) - lam * a))
    return lam, residual

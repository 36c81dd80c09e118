"""Poisson-integral machinery on the unit ball of R^n.

Covers both reproducing kernels (Euclidean harmonic and hyperbolic-
harmonic), the one-dimensional reduction of zonal boundary data along
its axis, Monte-Carlo extension of arbitrary boundary maps, one-sided
Richardson estimation of radial boundary derivatives, and a central-
difference evaluation of the Laplace-Beltrami operator

    Delta_0 = (1-|x|^2)/4 ( Delta + 2(n-2)/(1-|x|^2) <x, grad> ).

The zonal reduction is exact only on the axis of symmetry, where the
integrand depends on a single polar angle; it subtracts the profile's
value at the kernel's peak so that no radius integrates across the
peak.  Off-axis evaluation goes through Monte Carlo.  Sphere samples
are normalized isotropic Gaussian vectors drawn from a counter-based
Philox stream, so every randomized result is reproducible from its seed
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envelope import KernelKind
from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .specfn import sphere_prefactors

__all__ = [
    "ZonalBoundaryData",
    "BoundaryMap",
    "poisson_kernel",
    "zonal_extension_on_axis",
    "uniform_sphere_samples",
    "monte_carlo_extension",
    "radial_derivative_estimate",
    "laplace_beltrami_residual",
]

_AXIS_TOL = 1e-14
_PROFILE_SLACK = 1e-9
_MC_CHUNK = 262_144


@dataclass(frozen=True)
class ZonalBoundaryData:
    """Boundary data on S^{n-1} depending only on the polar angle to an axis.

    ``profile`` maps arrays of angles in [0, pi] to values in [-1, 1];
    jump locations of step profiles belong in ``breakpoints`` so the
    quadrature can split panels there.
    """

    n: int
    axis: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = field(default=())

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        object.__setattr__(self, "axis", axis)
        if self.n < 2 or self.n != int(self.n) or axis.shape != (self.n,):
            raise DomainError(f"axis must be a vector of integer dimension n >= 2, got n={self.n!r}")
        if abs(float(np.linalg.norm(axis)) - 1.0) > _AXIS_TOL:
            raise DomainError("zonal axis must be a unit vector to 1e-14")
        probe = np.linspace(0.0, math.pi, 65)
        vals = np.asarray(self.profile(probe), dtype=float)
        if vals.shape != probe.shape or not np.all(np.isfinite(vals)):
            raise DomainError("zonal profile must map angle arrays to finite value arrays")
        if np.max(np.abs(vals)) > 1.0 + _PROFILE_SLACK:
            raise DomainError("zonal profile must take values in [-1, 1]")
        object.__setattr__(self, "breakpoints", tuple(sorted(float(t) for t in self.breakpoints)))


@dataclass(frozen=True)
class BoundaryMap:
    """A boundary map S^{n-1} -> closed unit ball of R^m.

    ``eval`` is vectorized: it receives an (N, n) array of unit vectors
    and returns an (N, m) array with row norms at most 1.
    """

    n: int
    m: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n < 2 or self.m < 1:
            raise DomainError(f"boundary map needs n >= 2, m >= 1, got ({self.n!r}, {self.m!r})")
        probe = uniform_sphere_samples(np.random.Generator(np.random.Philox(0)), 8, self.n)
        vals = np.asarray(self.eval(probe), dtype=float)
        if vals.shape != (8, self.m):
            raise DomainError(f"boundary map eval must return shape (N, {self.m})")
        if np.max(np.linalg.norm(vals, axis=1)) > 1.0 + _PROFILE_SLACK:
            raise DomainError("boundary map values must lie in the closed unit ball")


def poisson_kernel(kind: KernelKind, x: np.ndarray, eta: np.ndarray) -> float:
    """Normalized Poisson kernel P(x, eta), either kind.

    Harmonic:            (1-|x|^2)   / |x-eta|^n      / sigma(S^{n-1})
    hyperbolic-harmonic: (1-|x|^2)^{n-1} / |x-eta|^{2(n-1)} / sigma(S^{n-1}).
    """
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if x.ndim != 1 or x.shape != eta.shape:
        raise DomainError("x and eta must be vectors of the same dimension")
    n = x.shape[0]
    if n < 2:
        raise DomainError("Poisson kernel needs dimension n >= 2")
    r2 = float(np.dot(x, x))
    if r2 >= 1.0:
        raise DomainError("kernel evaluation point must lie strictly inside the ball")
    if abs(float(np.linalg.norm(eta)) - 1.0) > 1e-9:
        raise DomainError("eta must be a unit vector")
    nu, mu = kind.exponents(n)
    dist2 = float(np.dot(x - eta, x - eta))
    area = sphere_prefactors(n).sigma_area
    return (1.0 - r2) ** nu / dist2 ** mu / area


def zonal_extension_on_axis(
    kind: KernelKind,
    data: ZonalBoundaryData,
    r: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Poisson extension of zonal data evaluated at r * axis.

    On the axis the kernel depends only on the polar angle t, so the
    surface integral collapses to

        sigma_star(n) (1-r^2)^nu
            int_0^pi profile(t) sin^{n-2}t (1 - 2 r cos t + r^2)^{-mu} dt.

    Negative r continues the same formula analytically along the axis
    (used by central differences at r = 0); |r| >= 1 is rejected.

    The kernel peaks at t* = 0 for r >= 0 and at t* = pi for r < 0.
    Because it integrates to exactly 1, the profile's value there can be
    subtracted under the integral and added back outside:

        h = p(t*) + sigma_star(n) (1-r^2)^nu
                int_0^pi (p(t) - p(t*)) sin^{n-2}t (1 - 2 r cos t + r^2)^{-mu} dt,

    whose integrand vanishes at the peak wherever the profile is
    continuous there, so no radius integrates across it.
    """
    if not -1.0 < r < 1.0:
        raise DomainError(f"radius must satisfy |r| < 1, got {r!r}")
    n = data.n
    nu, mu = kind.exponents(n)
    star = sphere_prefactors(n).sigma_star
    t_peak = 0.0 if r >= 0.0 else math.pi
    peak = float(np.asarray(data.profile(np.array([t_peak])), dtype=float)[0])

    def integrand(t: np.ndarray) -> np.ndarray:
        weight = np.sin(t) ** (n - 2) / (1.0 - 2.0 * r * np.cos(t) + r * r) ** mu
        return (np.asarray(data.profile(t), dtype=float) - peak) * weight

    body = integrate(integrand, 0.0, math.pi, config, breakpoints=data.breakpoints)
    return peak + star * (1.0 - r * r) ** nu * body


def uniform_sphere_samples(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Uniform samples on S^{n-1} as normalized isotropic Gaussian vectors."""
    out = rng.standard_normal((count, n))
    norms = np.linalg.norm(out, axis=1)
    bad = norms < 1e-8
    while np.any(bad):  # astronomically rare; keeps the map well-defined
        out[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(out, axis=1)
        bad = norms < 1e-8
    return out / norms[:, None]


def monte_carlo_extension(
    kind: KernelKind,
    g: BoundaryMap,
    x: np.ndarray,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Poisson extension of a boundary map at an interior point.

    Returns ``(estimate, stderr)`` where both are length-m arrays: the
    unbiased estimate of int P(x, eta) g(eta) dsigma(eta) over uniform
    sphere samples and its per-component standard error.  Deterministic
    given ``seed``; the stream is consumed sequentially so the chunked
    evaluation does not affect the result.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DomainError(f"evaluation point must have dimension {g.n}")
    r2 = float(np.dot(x, x))
    if r2 >= 1.0:
        raise DomainError("evaluation point must lie strictly inside the ball")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    nu, mu = kind.exponents(g.n)

    rng = np.random.Generator(np.random.Philox(seed))
    total = np.zeros(g.m)
    total_sq = np.zeros(g.m)
    done = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        eta = uniform_sphere_samples(rng, count, g.n)
        diff = eta - x[None, :]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        kernel = (1.0 - r2) ** nu / dist2 ** mu
        vals = kernel[:, None] * np.asarray(g.eval(eta), dtype=float)
        total += vals.sum(axis=0)
        total_sq += (vals * vals).sum(axis=0)
        done += count

    mean = total / samples
    if samples == 1:
        stderr = np.full(g.m, np.inf)
    else:
        var = np.maximum(total_sq / samples - mean * mean, 0.0) * (samples / (samples - 1.0))
        stderr = np.sqrt(var / samples)
    return mean, stderr


def radial_derivative_estimate(
    h: Callable[[float], float],
    method: str = "one_sided_richardson",
    base_step: float = 1e-3,
    levels: int = 3,
    boundary_value: float = 1.0,
) -> float:
    """Estimate lim_{r -> 1-} (h(1) - h(r)) / (1 - r) by Richardson extrapolation.

    The boundary value h(1) is supplied by the caller (known to be 1 at
    contact points) rather than extrapolated from samples: extracting
    the boundary limit from interior values is ill-conditioned.  The
    one-sided quotients at steps base_step / 2^j are combined through a
    Richardson tableau removing the O(s), O(s^2), ... terms.
    """
    if method != "one_sided_richardson":
        raise DomainError(f"unknown derivative method {method!r}")
    if not 0.0 < base_step < 1.0:
        raise DomainError(f"base_step must lie in (0, 1), got {base_step!r}")
    if levels < 1:
        raise DomainError("levels must be >= 1")
    quotients = []
    for j in range(levels):
        s = base_step / 2.0 ** j
        quotients.append((boundary_value - h(1.0 - s)) / s)
    for k in range(1, levels):
        factor = 2.0 ** k
        quotients = [
            (factor * quotients[j + 1] - quotients[j]) / (factor - 1.0)
            for j in range(len(quotients) - 1)
        ]
    return quotients[0]


def laplace_beltrami_residual(
    h: Callable[[np.ndarray], float],
    n: int,
    x: np.ndarray,
    step: float = 1e-3,
) -> float:
    """Central-difference value of Delta_0 h at x.

    Near zero when h is hyperbolic-harmonic; for general smooth h it
    approximates (1-|x|^2)/4 Delta h + (n-2)/2 <x, grad h> to O(step^2).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DomainError(f"point must have dimension {n}")
    if step <= 0.0:
        raise DomainError("step must be positive")
    r = float(np.linalg.norm(x))
    if r + n * step >= 1.0:
        raise DomainError("finite-difference stencil leaves the unit ball")

    center = float(h(x))
    lap = 0.0
    grad = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        plus = float(h(x + e))
        minus = float(h(x - e))
        lap += (plus + minus - 2.0 * center) / step ** 2
        grad[j] = (plus - minus) / (2.0 * step)
    r2 = r * r
    return 0.25 * (1.0 - r2) * lap + 0.5 * (n - 2) * float(np.dot(x, grad))

"""Monte-Carlo Poisson extension of arbitrary boundary maps: the tests' referee.

The package evaluates every extension it ships exactly (zonal data on its
axis, Gegenbauer series off it, plane-wave series for the majorant row).
This estimate shares no formula with them, so the tests hold those values
against it where Monte Carlo behaves: small n, points away from the
sphere, where the kernel's variance stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ballschwarz.envelope import KernelKind
from ballschwarz.errors import DomainError, _integer
from ballschwarz.poisson import uniform_sphere_samples

_PROFILE_SLACK = 1e-9
_MC_CHUNK = 262_144


def exponents(kind: KernelKind, n: int) -> tuple[float, float]:
    """The exponent pair (nu, mu) of the kernel (1-|x|^2)^nu / |x - eta|^{2 mu} in dimension n:
    (1, n/2) for the Euclidean Laplacian, (n-1, n-1) for the Laplace-Beltrami operator of the ball."""
    if kind is KernelKind.HARMONIC:
        return 1.0, 0.5 * n
    return float(n - 1), float(n - 1)


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
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "m", _integer(self.m, "target dimension", 1))
        probe = uniform_sphere_samples(np.random.Generator(np.random.Philox(0)), 8, self.n)
        vals = np.asarray(self.eval(probe), dtype=float)
        if vals.shape != (8, self.m):
            raise DomainError(f"boundary map eval must return shape (N, {self.m})")
        if np.max(np.linalg.norm(vals, axis=1)) > 1.0 + _PROFILE_SLACK:
            raise DomainError("boundary map values must lie in the closed unit ball")


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
    evaluation does not affect the result beyond rounding.

    Each chunk takes |eta - x|^2 as (1 + |x|^2) - 2<eta, x> (the samples
    are unit vectors), held at or above its least value (1 - |x|)^2, and
    adds its sums of P·g and P²·g² in one pass, as ``kernel @ g`` and
    ``kernel² @ g²``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DomainError(f"evaluation point must have dimension {g.n}")
    r2 = float(np.dot(x, x))
    if not r2 < 1.0:
        raise DomainError("evaluation point must lie strictly inside the ball")
    samples = _integer(samples, "samples", 1)
    nu, mu = exponents(kind, g.n)

    floor = (1.0 - math.sqrt(r2)) ** 2
    rng = np.random.Generator(np.random.Philox(seed))
    total = np.zeros(g.m)
    total_sq = np.zeros(g.m)
    done = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        eta = uniform_sphere_samples(rng, count, g.n)
        dist2 = np.maximum((1.0 + r2) - 2.0 * (eta @ x), floor)
        kernel = (1.0 - r2) ** nu / dist2**mu
        vals = np.asarray(g.eval(eta), dtype=float)
        total += kernel @ vals
        total_sq += (kernel * kernel) @ (vals * vals)
        done += count

    mean = total / samples
    if samples == 1:
        stderr = np.full(g.m, np.inf)
    else:
        var = np.maximum(total_sq / samples - mean * mean, 0.0) * (samples / (samples - 1.0))
        stderr = np.sqrt(var / samples)
    return mean, stderr

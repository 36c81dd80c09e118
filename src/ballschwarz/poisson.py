"""Poisson-integral machinery on the unit ball of R^n.

Covers both reproducing kernels (Euclidean harmonic and hyperbolic-
harmonic), the one-dimensional reduction of zonal boundary data along
its axis, uniform samples of the sphere, and one-sided Richardson
estimation of radial boundary derivatives.

The zonal reduction is exact only on the axis of symmetry, where the
integrand depends on a single polar angle under ``KernelKind.kernel``.
It subtracts the profile's value p* at the kernel's peak, so that no
radius integrates across the peak, and takes sigma_star under the
integral, so the quadrature's tolerance bounds h - p*, the error of the
extension itself.  Off the axis, step data has the Gegenbauer series of
``verify._zonal_value``.  What that series needs of the data alone (the
levels, the cap measures and weights of the edges, sigma_star, the arcs
of n = 2) is computed on the first off-axis call and kept on the data,
so each further point pays only for what depends on it.  Its per-point sums are sequential
(``np.add.accumulate``, never the pairwise ``np.sum``), so each value
rounds exactly as the term-by-term loop it replaced did.  Sphere
samples are normalized isotropic Gaussian vectors, drawn from the
caller's generator (a counter-based Philox stream in ``verify``), so
every randomized result is reproducible from its seed alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .envelope import KernelKind, _axis_kernel, _radii, _shaped, cap_measure_from_angle
from .errors import DomainError, _integer
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_rows
from .specfn import sigma_star

__all__ = [
    "ZonalBoundaryData",
    "zonal_extension_on_axis",
    "uniform_sphere_samples",
    "radial_derivative_estimate",
]

_AXIS_TOL = 1e-14
_PROFILE_SLACK = 1e-9
_PROBE_ANGLES = np.linspace(0.0, math.pi, 65)
_RICHARDSON_LEVELS = 3  # one-sided quotients combined per derivative estimate


class _StepSeries(NamedTuple):
    """What an off-axis value of step data needs that does not depend on the point.

    For n >= 3: ``base`` = l_J + sum_i (l_{i-1} - l_i) F_n(t_i), summed in edge
    order; per edge, ``edges`` holds ((l_{i-1} - l_i) sin^{n-1} t_i, cos t_i);
    ``star`` is sigma_star(n).  For n = 2: ``arcs`` holds (level, lo, hi) per piece.
    """

    base: float = 0.0
    edges: tuple[tuple[float, float], ...] = ()
    star: float = 0.0
    arcs: tuple[tuple[float, float, float], ...] = ()


@dataclass(frozen=True)
class ZonalBoundaryData:
    """Boundary data on S^{n-1} depending only on the polar angle to an axis.

    ``profile`` maps arrays of angles in [0, pi] to values in [-1, 1].
    ``breakpoints`` split quadrature panels along the axis and must lie in
    (0, pi); off the axis the profile must be a step function and they
    carry its jumps.
    """

    n: int
    axis: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = field(default=())

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        object.__setattr__(self, "axis", axis)
        if axis.shape != (_integer(self.n),):
            raise DomainError(f"axis must be a vector of dimension n={self.n!r}, got shape {axis.shape}")
        if not abs(float(np.linalg.norm(axis)) - 1.0) <= _AXIS_TOL:
            raise DomainError("zonal axis must be a unit vector to 1e-14")
        vals = np.asarray(self.profile(_PROBE_ANGLES), dtype=float)
        if vals.shape != _PROBE_ANGLES.shape or not np.all(np.isfinite(vals)):
            raise DomainError("zonal profile must map angle arrays to finite value arrays")
        if np.max(np.abs(vals)) > 1.0 + _PROFILE_SLACK:
            raise DomainError("zonal profile must take values in [-1, 1]")
        breakpoints = tuple(sorted(float(t) for t in self.breakpoints))
        for t in breakpoints:
            if not 0.0 < t < math.pi:
                raise DomainError(f"zonal breakpoint must lie in (0, pi), got {t!r}")
        object.__setattr__(self, "breakpoints", breakpoints)

    def step_levels(self) -> np.ndarray:
        """Profile values at the midpoints of the pieces between 0, the breakpoints and pi.

        Raises :class:`DomainError` unless the profile is that step function on the
        probe grid (probes exactly on a breakpoint left out).
        """
        edges = np.array([0.0, *self.breakpoints, math.pi])
        levels = np.asarray(self.profile(0.5 * (edges[:-1] + edges[1:])), dtype=float)
        probe = _PROBE_ANGLES[(_PROBE_ANGLES[:, None] != self.breakpoints).all(axis=1)]
        piece = np.minimum(np.searchsorted(edges, probe, side="right") - 1, levels.size - 1)
        if np.any(np.asarray(self.profile(probe), dtype=float) != levels[piece]):
            raise DomainError("off-axis values need a profile that is constant between its breakpoints")
        return levels

    @functools.cached_property
    def _step_series(self) -> _StepSeries:
        """The point-free part of an off-axis value, from :meth:`step_levels`.

        Computed on first use and kept in the instance ``__dict__`` (not a
        field, so equality and ``repr`` ignore it); a profile that is not a
        step function raises :class:`DomainError` on every use and keeps nothing.
        """
        levels, edges = self.step_levels(), self.breakpoints
        if self.n == 2:
            return _StepSeries(arcs=tuple(zip(levels, (0.0, *edges), (*edges, math.pi))))
        base, weighted = float(levels[-1]), []
        for jump, t in zip(levels[:-1] - levels[1:], edges):
            base += jump * cap_measure_from_angle(self.n, t)
            weighted.append((jump * math.sin(t) ** (self.n - 1), math.cos(t)))
        return _StepSeries(base=base, edges=tuple(weighted), star=sigma_star(self.n))


def zonal_extension_on_axis(
    kind: KernelKind,
    data: ZonalBoundaryData,
    r: float | np.ndarray,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Poisson extension of zonal data evaluated at r * axis.

    On the axis the kernel depends only on the polar angle t, so the
    surface integral collapses to

        h(r) = sigma_star(n) int_0^pi profile(t) K(r, t) dt

    with K = ``kind.kernel(n, r, t)``.  Negative r continues the same
    formula analytically along the axis (used by central differences at
    r = 0); |r| >= 1 is rejected.  ``r`` may be a 1-D array of radii: the
    result is then the array of values, all radii integrated as rows of
    one quadrature, each with the bits it gets alone.

    The kernel peaks at p = 0 for r >= 0 (-0.0 included) and at p = pi for
    r < 0.  Because sigma_star K integrates to exactly 1, the profile's
    value p* there is subtracted under the integral and added back outside,
    radius by radius:

        h(r) = p* + int_0^pi sigma_star (profile(t) - p*) K(r, t) dt,

    whose integrand vanishes at the peak wherever the profile is
    continuous there, so no radius integrates across it.  The whole of
    h - p* is the integral, so ``config`` bounds the error of h itself.
    |r|, the peak angles, p* and sigma_star are taken once per call, not
    once per batch of panels.
    """
    radii = np.array(_radii(r))
    n = data.n
    star = sigma_star(n)
    angle = np.where(radii < 0.0, math.pi, 0.0)  # the kernel's peak
    peak = np.asarray(data.profile(angle), dtype=float)
    rho, angles, peaks = np.abs(radii)[:, None], angle[:, None], peak[:, None]

    def integrand(t: np.ndarray) -> np.ndarray:
        return star * (np.asarray(data.profile(t), dtype=float) - peaks) * _axis_kernel(kind, n, rho, angles, t)

    return _shaped(peak + integrate_rows(integrand, 0.0, math.pi, config, breakpoints=data.breakpoints), r)


def uniform_sphere_samples(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Uniform samples on S^{n-1} as normalized isotropic Gaussian vectors."""
    n = _integer(n, least=1)
    out = rng.standard_normal((_integer(count, "sample count", 0), n))
    norms = np.linalg.norm(out, axis=1)
    bad = norms < 1e-8
    while np.any(bad):  # astronomically rare; keeps the map well-defined
        out[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(out, axis=1)
        bad = norms < 1e-8
    return out / norms[:, None]


def radial_derivative_estimate(h: Callable[[float], float], base_step: float = 1e-3) -> float:
    """Estimate lim_{r -> 1-} (1 - h(r)) / (1 - r) by Richardson extrapolation.

    The boundary value h(1) = 1 holds at contact points and is used as
    given rather than extrapolated from samples: extracting the boundary
    limit from interior values is ill-conditioned.  The one-sided
    quotients at steps base_step / 2^j, j = 0, 1, 2, are combined through
    a Richardson tableau removing the O(s) and O(s^2) terms.
    """
    if not 0.0 < base_step < 1.0:
        raise DomainError(f"base_step must lie in (0, 1), got {base_step!r}")
    quotients = []
    for j in range(_RICHARDSON_LEVELS):
        s = base_step / 2.0 ** j
        quotients.append((1.0 - h(1.0 - s)) / s)
    for k in range(1, _RICHARDSON_LEVELS):
        factor = 2.0 ** k
        quotients = [
            (factor * quotients[j + 1] - quotients[j]) / (factor - 1.0)
            for j in range(len(quotients) - 1)
        ]
    return quotients[0]

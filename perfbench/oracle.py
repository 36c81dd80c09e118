"""Reference values the benchmark checks the library against.

Every reference is computed apart from the library and outside every
timed region:

* constants, envelopes and the hyperbolic scan come from mpmath at 30
  digits.  The cap angle is inverted through the regularized incomplete
  beta function (DLMF 8.17) rather than by quadrature; ``D_n(a)`` uses the
  half-angle form ``2 s*(n) int_{alpha/2}^{pi/2} cos^{n-2}u / sin^2 u du``;
  the envelopes use the complement-arc form, so ``1 - M`` never cancels.
* off-axis point values come from scipy QUADPACK over the polar angle,
  with the azimuthal average in closed form (elliptic integrals for
  n = 3, 5; rational for n = 4).

Values are cached by input.  ``refs.txt`` beside this file holds the
pools the ``tables`` and ``checks`` workloads draw from; regenerate it
with ``python3 perfbench/oracle.py --build`` after changing a pool.
Anything else (the off-axis points, which are continuous) is computed on
first use and kept in ``.cache/refs.txt``.  Before any comparison the
oracle checks itself: ``s^-(a)`` against the ``n = 2`` quadrature and
``C_n`` against ``D_n(0)`` to 1e-13, and QUADPACK against mpmath on
fixed off-axis points.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import mpmath as mp

from pools import (
    A_GRID, C_GRID, CONST_N, ENV_N, HOPF_N, HOPF_RADII, KINDS, LARGE_N, OFFAXIS_N,
    R_GRID, SELF_CHECK_POINTS, VERIFY_CAP_CASES, VERIFY_PLANAR_B,
)

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "refs.txt"
CACHE_FILE = HERE / ".cache" / "refs.txt"

SELF_CHECK_TOL = 1e-13
mp.mp.dps = 30


def key(*parts) -> str:
    """Canonical cache key; floats by repr so the exact double is named."""
    return "/".join(repr(p) if isinstance(p, float) else str(p) for p in parts)


# ---------------------------------------------------------------------------
# mpmath formulas


def _star(n):
    """sigma_{n-2}/sigma_{n-1} = 1 / B((n-1)/2, 1/2)."""
    return 1 / mp.beta(mp.mpf(n - 1) / 2, mp.mpf(1) / 2)


def _measure(n, alpha):
    half = mp.betainc(mp.mpf(n - 1) / 2, mp.mpf(1) / 2, 0, mp.sin(alpha) ** 2, regularized=True) / 2
    return half if alpha <= mp.pi / 2 else 1 - half


def mp_cap_angle(n: int, c: float):
    c = mp.mpf(c)
    if n == 2:
        return mp.pi * c
    if n == 3:
        return mp.acos(1 - 2 * c)
    return mp.findroot(lambda al: _measure(n, al) - c, (mp.mpf(0), mp.pi), solver="anderson")


def mp_D(n: int, a: float):
    alpha = mp_cap_angle(n, (1 + mp.mpf(a)) / 2)
    body = mp.quad(lambda u: mp.cos(u) ** (n - 2) / mp.sin(u) ** 2, [alpha / 2, mp.pi / 2])
    return 2 * _star(n) * body


def mp_C(m: int):
    m = mp.mpf(m)
    f = mp.hyp2f1(mp.mpf(1) / 2, 1, (3 + m) / 2, -1)
    return mp.factorial(m) * (1 + m - (m - 2) * f) / (
        2 ** (3 * m / 2) * mp.gamma((1 + m) / 2) * mp.gamma((3 + m) / 2)
    )


def mp_S(a: float):
    return 2 / mp.pi / mp.tan(mp.pi * (1 + mp.mpf(a)) / 4)


def _exponents(kind: str, n: int):
    return (1, mp.mpf(n) / 2) if kind == "harmonic" else (n - 1, n - 1)


def mp_envelope(kind: str, n: int, c: float, r: float):
    """(M, m) by the complement arcs: the kernel integrates to 1 over [0, pi]."""
    r = mp.mpf(r)
    alpha = mp_cap_angle(n, c)
    nu, mu = _exponents(kind, n)
    scale = 2 * _star(n) * (1 - r * r) ** nu

    def kernel(t):
        return mp.sin(t) ** (n - 2) / (1 - 2 * r * mp.cos(t) + r * r) ** mu

    upper = 1 - scale * mp.quad(kernel, [alpha, mp.pi])
    lower = -1 + scale * mp.quad(kernel, [mp.pi - alpha, mp.pi])
    return upper, lower


def mp_T(n: int, c: float, r: float):
    """(1 - M)/(1 - r) for the hyperbolic kernel, with (1-r) divided out exactly."""
    r = mp.mpf(r)
    alpha = mp_cap_angle(n, c)
    tail = mp.quad(
        lambda t: mp.sin(t) ** (n - 2) / (1 - 2 * r * mp.cos(t) + r * r) ** (n - 1), [alpha, mp.pi]
    )
    return 2 * _star(n) * (1 - r) ** (n - 2) * (1 + r) ** (n - 1) * tail


def mp_dn(n: int, c: float):
    alpha = mp_cap_angle(n, c)
    body = mp.quad(
        lambda t: mp.sin(t) ** (n - 2) / mp.sin(t / 2) ** (2 * (n - 1)), [alpha, mp.pi]
    )
    return 2 ** n * _star(n) * 4 ** (1 - n) * body


def mp_zonal_point(n: int, levels, edges, rho: float, psi: float):
    """Harmonic extension of a zonal step profile, straight from the Poisson integral.

    With eta = (cos p, sin p cos q, sin p sin q w), w on S^{n-3}, and
    x = rho (cos psi, sin psi, 0, ...), the surface integral is a double
    integral over (p, q) weighted by |S^{n-3}| / |S^{n-1}|; no sigma-star
    ladder and no closed-form inner average is involved.  Runs at 20
    digits: the double integral is slow, and the result is only compared
    at 1e-13.
    """
    with mp.workdps(20):
        return _mp_zonal_point(n, levels, edges, mp.mpf(rho), mp.mpf(psi))


def _mp_zonal_point(n, levels, edges, rho, psi):

    def area(k):  # |S^{k-1}|
        return 2 * mp.pi ** (mp.mpf(k) / 2) / mp.gamma(mp.mpf(k) / 2)

    def kernel(p, q):
        d2 = 1 + rho * rho - 2 * rho * (mp.cos(psi) * mp.cos(p) + mp.sin(psi) * mp.sin(p) * mp.cos(q))
        return (1 - rho * rho) / d2 ** (mp.mpf(n) / 2) * mp.sin(p) ** (n - 2) * mp.sin(q) ** (n - 3)

    total = 0
    for level, t0, t1 in zip(levels, edges[:-1], edges[1:]):
        cuts = [mp.mpf(t0)] + ([psi] if t0 < psi < t1 else []) + [mp.mpf(t1)]
        total += level * mp.quad(kernel, cuts, [0, mp.pi])
    return total * area(n - 2) / area(n)


# ---------------------------------------------------------------------------
# QUADPACK reference for off-axis points (double precision, fast)


def _star_f(n: int) -> float:
    return math.exp(math.lgamma(0.5 * n) - math.lgamma(0.5 * (n - 1))) / math.sqrt(math.pi)


def _azimuth(n: int, b: float, c: float) -> float:
    """int_0^pi sin^{n-3}q (b - c cos q)^{-n/2} dq for n = 3, 4, 5."""
    from scipy.integrate import quad
    from scipy.special import ellipe, ellipk

    if n == 4:
        return 2.0 / ((b - c) * (b + c))
    m = 2.0 * c / (b + c)
    j32 = 2.0 * ellipe(m) / ((b - c) * math.sqrt(b + c))
    if n == 3:
        return j32
    if c < 0.1 * b:
        # b J_{3/2} - J_{1/2} cancels to O(c^2); integrate directly instead.
        return quad(lambda q: math.sin(q) ** 2 / (b - c * math.cos(q)) ** 2.5, 0.0, math.pi,
                    epsabs=0.0, epsrel=2e-14, limit=200)[0]
    j12 = 2.0 * ellipk(m) / math.sqrt(b + c)
    # integration by parts: int sin^2 w^{-5/2} = 2/(3c^2) (b J_{3/2} - J_{1/2})
    return 2.0 / (3.0 * c * c) * (b * j32 - j12)


def quadpack_zonal_point(n: int, levels, edges, rho: float, psi: float) -> float:
    from scipy.integrate import IntegrationWarning, quad

    warnings.simplefilter("ignore", IntegrationWarning)  # accuracy is self-checked instead
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    total = 0.0
    if n == 2:
        def circle(t):
            return (1.0 - rho * rho) / (1.0 - 2.0 * rho * math.cos(t - psi) + rho * rho)

        for level, t0, t1 in zip(levels, edges[:-1], edges[1:]):
            # the profile depends on |t|: the piece appears at [t0, t1] and [-t1, -t0]
            for lo, hi in ((t0, t1), (-t1, -t0)):
                pts = [psi] if lo < psi < hi else None
                total += level * quad(circle, lo, hi, points=pts, **opts)[0]
        return total / (2.0 * math.pi)

    cos_psi, sin_psi = math.cos(psi), math.sin(psi)

    def outer(p):
        b = 1.0 + rho * rho - 2.0 * rho * cos_psi * math.cos(p)
        c = 2.0 * rho * sin_psi * math.sin(p)
        return math.sin(p) ** (n - 2) * _azimuth(n, b, c)

    for level, t0, t1 in zip(levels, edges[:-1], edges[1:]):
        pts = [psi] if t0 < psi < t1 else None
        total += level * quad(outer, t0, t1, points=pts, **opts)[0]
    return _star_f(n) * _star_f(n - 1) * (1.0 - rho * rho) * total


# ---------------------------------------------------------------------------
# the cache


def _read(path: Path) -> dict[str, float]:
    values = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            name, _, text = line.partition(" ")
            values[name] = float(text)
    return values


class Oracle:
    """Reference lookup: committed pool values, then the run-time cache, then compute."""

    def __init__(self):
        self._values = _read(REFS_FILE)
        self._values.update(_read(CACHE_FILE))
        self._new: dict[str, float] = {}

    def _get(self, name: str, compute) -> float:
        if name not in self._values:
            value = float(compute())
            self._values[name] = value
            self._new[name] = value
        return self._values[name]

    def D(self, n: int, a: float) -> float:
        if n > max(CONST_N):  # large-n rows are only asked at a = 0, where D_n(0) = C_n
            return self.C(n)
        return self._get(key("D", n, a), lambda: mp_D(n, a))

    def C(self, n: int) -> float:
        return self._get(key("C", n), lambda: mp_C(n))

    def S(self, a: float) -> float:
        return self._get(key("S", a), lambda: mp_S(a))

    def envelope(self, kind: str, n: int, c: float, r: float) -> tuple[float, float]:
        name = key("M", kind, n, c, r)
        if name not in self._values:
            upper, lower = mp_envelope(kind, n, c, r)
            self._get(name, lambda: upper)
            self._get(key("m", kind, n, c, r), lambda: lower)
        return self._values[name], self._values[key("m", kind, n, c, r)]

    def T(self, n: int, c: float, r: float) -> float:
        return self._get(key("T", n, c, r), lambda: mp_T(n, c, r))

    def dn(self, n: int, c: float) -> float:
        return self._get(key("dn", n, c), lambda: mp_dn(n, c))

    def alpha(self, n: int, c: float) -> float:
        return self._get(key("alpha", n, c), lambda: mp_cap_angle(n, c))

    def zonal_point(self, n: int, levels, edges, rho: float, psi: float) -> float:
        name = key("off", n, *levels, *edges, rho, psi)
        return self._get(name, lambda: quadpack_zonal_point(n, levels, edges, rho, psi))

    def self_check(self, off_axis: bool) -> list[str]:
        """Problems found when the oracle's paths are compared with each other.

        The QUADPACK comparison runs only when off-axis references are used.
        """
        problems = []

        def compare(label, got, want):
            err = abs(got - want) / abs(want)
            if not err <= SELF_CHECK_TOL:
                problems.append(f"{label}: relative disagreement {err:.2e}")

        for a in (-0.5, 0.3):
            compare(f"s^-({a}) vs D_2({a})", float(mp_D(2, a)), float(mp_S(a)))
        for n in (3, 7, 24):
            compare(f"C_{n} vs D_{n}(0)", float(mp_D(n, 0.0)), float(mp_C(n)))
        for n, levels, edges, rho, psi in SELF_CHECK_POINTS if off_axis else ():
            want = self._get(key("offmp", n, *levels, *edges, rho, psi),
                             lambda: mp_zonal_point(n, levels, edges, rho, psi))
            compare(f"QUADPACK vs mpmath off-axis n={n}",
                    quadpack_zonal_point(n, levels, edges, rho, psi), want)
        return problems

    def save(self) -> None:
        """Append values computed in this process to the run-time cache."""
        if not self._new:
            return
        CACHE_FILE.parent.mkdir(exist_ok=True)
        with open(CACHE_FILE, "a", encoding="utf-8") as handle:
            for name, value in self._new.items():
                handle.write(f"{name} {value!r}\n")
        self._new.clear()


# ---------------------------------------------------------------------------
# building refs.txt


def _pool_jobs():
    for n in CONST_N:
        for a in A_GRID:
            yield ("D", n, a)
    for n in list(CONST_N) + list(LARGE_N):
        yield ("C", n)
    for a in sorted(set(A_GRID) | set(VERIFY_PLANAR_B)):
        yield ("S", a)
    for n, a in VERIFY_CAP_CASES:
        yield ("D", n, a)
    for kind in KINDS:
        for n in ENV_N:
            for c in C_GRID:
                for r in R_GRID:
                    yield ("env", kind, n, c, r)
    for n in HOPF_N:
        for c in C_GRID:
            yield ("dn", n, c)
            for r in HOPF_RADII:
                yield ("T", n, c, r)
    for n in OFFAXIS_N:
        for a in A_GRID:
            yield ("alpha", n, 0.5 * (1.0 + a))
    for n, levels, edges, rho, psi in SELF_CHECK_POINTS:
        yield ("offmp", n, levels, edges, rho, psi)


def _run_job(job) -> list[tuple[str, float]]:
    kind, *args = job
    if kind == "env":
        upper, lower = mp_envelope(*args)
        return [(key("M", *args), float(upper)), (key("m", *args), float(lower))]
    if kind == "offmp":
        n, levels, edges, rho, psi = args
        return [(key("offmp", n, *levels, *edges, rho, psi), float(mp_zonal_point(*args)))]
    compute = {"D": mp_D, "C": mp_C, "S": mp_S, "T": mp_T, "dn": mp_dn, "alpha": mp_cap_angle}[kind]
    return [(key(kind, *args), float(compute(*args)))]


def build(workers: int = 2) -> None:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    jobs = sorted(set(_pool_jobs()), key=repr)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = dict(pair for chunk in pool.map(_run_job, jobs, chunksize=16) for pair in chunk)
    REFS_FILE.write_text("".join(f"{name} {results[name]!r}\n" for name in sorted(results)))
    print(f"wrote {len(results)} references to {REFS_FILE.name}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--build"]:
        build()
    else:
        sys.exit("usage: python3 perfbench/oracle.py --build")

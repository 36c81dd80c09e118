"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces both the numeric tolerance and the runtime budget.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from ballschwarz import (
    KernelKind,
    RealLinearMap,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    build_cap_extremal,
    check_V_monotone,
    check_boundary_bound,
    check_envelope_sandwich,
    check_hemisphere_majorant,
    check_mobius_precomposition,
    heinz_schwarz_constant,
    hermitian_adjoint,
    hopf_failure_scan,
    hyperbolic_decay_coefficient,
    inner,
    majorant_radial_slope,
    mobius_A,
    mobius_identity_residuals,
    mobius_map,
    real_adjoint,
    schwarz_planar_bound,
)
from ballschwarz.envelope import CapSpec
from ballschwarz.hilbert_ball import MobiusParams
from ballschwarz.verify import random_zonal_profile
from ballschwarz.cli import main as cli_main

HARM = KernelKind.HARMONIC
HYP = KernelKind.HYPERBOLIC_HARMONIC
TWO_OVER_PI = 2.0 / math.pi


def _finish(name, ok, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_01_sharp_planar_constant(capsys):
    started = time.perf_counter()
    code = cli_main(["constants", "--n", "2", "--a-grid", "0"])
    out = capsys.readouterr().out
    row = next(csv.DictReader(io.StringIO(out)))
    ok = (
        code == 0
        and abs(float(row["D_cap_quadrature"]) - TWO_OVER_PI) <= 1e-9
        and abs(float(row["C_hypergeometric"]) - TWO_OVER_PI) <= 1e-9
        and abs(float(row["s_minus_closed_form"]) - TWO_OVER_PI) <= 1e-9
    )
    with capsys.disabled():
        _finish("criterion 1: planar constant 2/pi via CLI", ok, started, 1.0)


def test_criterion_02_constant_consistency():
    started = time.perf_counter()
    ok = all(
        abs(boundary_derivative_harmonic(n, 0.0) - heinz_schwarz_constant(n)) <= 1e-8
        for n in (2, 3, 4, 5)
    )
    _finish("criterion 2: cap integral vs hypergeometric constants", ok, started, 5.0)


def test_criterion_03_planar_closed_form_grid():
    started = time.perf_counter()
    grid = np.linspace(-0.98, 0.98, 50)
    ok = True
    for a in grid:
        a = float(a)
        closed = (2.0 / math.pi) / math.tan(math.pi * (1.0 + a) / 4.0)
        s_minus = schwarz_planar_bound(a)
        ok &= abs(boundary_derivative_harmonic(2, a) - closed) <= 1e-8
        ok &= abs(s_minus - closed) <= 1e-8
        ok &= s_minus >= 0.5 * (1.0 - a) - 1e-12
    _finish("criterion 3: D_2(a) = (2/pi)cot(pi(1+a)/4) = s^-(a)", bool(ok), started, 30.0)


def test_criterion_04_extremal_sharpness():
    started = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for a in (-0.5, 0.0, 0.5):
            report = check_boundary_bound(build_cap_extremal(n, 2, a))
            ok &= abs(report.margin) / report.bound <= 1e-3
    _finish("criterion 4: cap extremals attain D_n(a)", bool(ok), started, 30.0)


def test_criterion_05_envelope_sandwich():
    started = time.perf_counter()
    grid = [0.05 + 0.1 * j for j in range(10)]
    ok = True
    for kind, seed in ((HARM, 501), (HYP, 502)):
        rng = _rng(seed)
        for _ in range(50):
            data = random_zonal_profile(rng, 3)
            ok &= check_envelope_sandwich(kind, [data], grid) <= 1e-8
    _finish("criterion 5: random zonal profiles stay inside envelopes", bool(ok), started, 60.0)


def test_criterion_06_hopf_failure():
    started = time.perf_counter()
    ok = True
    for n in (3, 4):
        scan = hopf_failure_scan(n, 0.5)
        d_n = hyperbolic_decay_coefficient(CapSpec(n, 0.5))
        ok &= abs(scan.slope - (n - 2)) <= 0.02
        ok &= abs(scan.coefficient - d_n) / d_n <= 0.01
        # one-sided boundary derivative of the hyperbolic envelope -> 0
        cap = CapSpec(n, 0.5)
        quotients = [
            boundary_difference_quotient(HYP, cap, 1.0 - 2.0**-k) for k in range(4, 15)
        ]
        ok &= bool(np.all(np.diff(quotients) < 0.0)) and quotients[-1] < 1e-3
    _finish("criterion 6: hyperbolic scan slopes and coefficients", bool(ok), started, 30.0)


def test_criterion_07_mobius_identity_suite():
    started = time.perf_counter()
    rng = _rng(7)
    dims = (1, 2, 3, 8)
    ok = True
    for i in range(1000):
        k = dims[i % len(dims)]
        direction = _random_complex(rng, k)
        xi = direction / np.linalg.norm(direction) * 0.9 * rng.uniform() ** 0.5
        params = MobiusParams(xi)
        z_dir = _random_complex(rng, k)
        z0 = z_dir / np.linalg.norm(z_dir)  # the adjoint identity lives on the sphere
        interior = z0 * rng.uniform()
        a_squared = mobius_A(params, mobius_A(params, z0))
        ok &= float(np.linalg.norm(a_squared - params.s**2 * z0 - xi * inner(z0, xi))) < 1e-11
        ok &= float(np.linalg.norm(mobius_map(params, mobius_map(params, z0)) - z0)) < 1e-11
        ok &= float(np.linalg.norm(mobius_map(params, mobius_map(params, interior)) - interior)) < 1e-11
        ok &= abs(float(np.linalg.norm(mobius_map(params, z0))) - 1.0) < 1e-11
        ok &= mobius_identity_residuals(params, z0)["derivative_adjoint"] < 1e-11
    _finish("criterion 7: Moebius identities over 1000 draws", bool(ok), started, 10.0)


def test_criterion_08_operator_algebra():
    started = time.perf_counter()
    rng = _rng(8)
    ok = True
    for i in range(1000):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        b_mat = _random_complex(rng, m, k)
        c_mat = _random_complex(rng, m, k)
        original = RealLinearMap(B=b_mat, C=c_mat)
        # the split B e_j = (L e_j - i L(i e_j)) / 2, C e_j = (L e_j + i L(i e_j)) / 2
        basis = np.eye(k, dtype=complex)
        direct, rotated = original(basis), original(1j * basis)
        ok &= float(np.linalg.norm(0.5 * (direct - 1j * rotated) - b_mat)) < 1e-12
        ok &= float(np.linalg.norm(0.5 * (direct + 1j * rotated) - c_mat)) < 1e-12
        z = _random_complex(rng, k)
        star = real_adjoint(original)
        w = _random_complex(rng, m)
        pairing = np.real(inner(star(w), z)) - np.real(inner(w, original(z)))
        ok &= abs(float(pairing)) < 1e-12
        # complex-linear maps: real adjoint coincides with hermitian adjoint
        ok &= float(
            np.linalg.norm(real_adjoint(RealLinearMap(B=b_mat, C=np.zeros_like(b_mat))).B - hermitian_adjoint(b_mat))
        ) < 1e-12
    _finish("criterion 8: real-linear split and adjoint algebra", bool(ok), started, 5.0)


def test_criterion_09_mobius_precomposition():
    started = time.perf_counter()
    rng = _rng(9)
    ok = True
    for k in (2, 3):
        for _ in range(100):
            direction = _random_complex(rng, k)
            xi = direction / np.linalg.norm(direction) * 0.75 * rng.uniform() ** 0.5
            report = check_mobius_precomposition(xi)
            ok &= report.details["alignment_residual"] < 1e-8
            ok &= report.lam >= TWO_OVER_PI - 1e-6
    _finish("criterion 9: precomposition sharpness over random centers", bool(ok), started, 60.0)


def test_criterion_10_majorant():
    started = time.perf_counter()
    report = check_hemisphere_majorant(3, 2, trials=50, seed=10)
    _finish("criterion 10: hemisphere majorant over 50 random maps", report.passed, started, 10.0)


def test_criterion_11_monotone_slope():
    started = time.perf_counter()
    ok = True
    for m in (2, 3, 4):
        ok &= check_V_monotone(m).passed
        ok &= majorant_radial_slope(m, 0.99) >= heinz_schwarz_constant(m) - 1e-6
    _finish("criterion 11: majorant slope decreasing to C_m", bool(ok), started, 30.0)

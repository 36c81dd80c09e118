"""Last-bit pins of the values that go through the quadrature engine.

The CLI prints 12 digits, so an output comparison cannot see a move in
the last bits.  These tests compare ``float.hex`` of harmonic envelopes
and on-axis zonal extensions with values recorded before the engine's
integrand contract became ``f(x)``: a change to the engine that moves
any bit of them fails here.
"""

import numpy as np
import pytest

from ballschwarz import (
    KernelKind,
    ZonalBoundaryData,
    cap_angle_from_measure,
    envelope_lower,
    envelope_upper,
    zonal_extension_on_axis,
)

# rows that finish at different times: the peaked radii near 1 bisect long after the others
GRID = np.array([-0.999, -0.5, 0.0, 0.5, 0.99, 0.999])
SINGLE = 0.9
STEP_RADII = np.array([-0.99, -0.5, -0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
CUTS, LEVELS = np.array([0.4, 1.3, 2.5]), np.array([1.0, -0.3, 0.6, -0.9])


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def envelope_values(n: int, c: float) -> list[str]:
    """M and m over GRID, then M and m at the single radius, as hex strings."""
    cap = cap_angle_from_measure(n, c)
    kind = KernelKind.HARMONIC
    return (_hex(envelope_upper(kind, cap, GRID)) + _hex(envelope_lower(kind, cap, GRID))
            + _hex(envelope_upper(kind, cap, SINGLE)) + _hex(envelope_lower(kind, cap, SINGLE)))


def step_values(kind: KernelKind) -> list[str]:
    """The on-axis extension of a three-breakpoint step profile over STEP_RADII, then at 0.7 alone."""
    data = ZonalBoundaryData(n=3, axis=np.array([1.0, 0.0, 0.0]),
                             profile=lambda t: LEVELS[np.searchsorted(CUTS, t, side="right")],
                             breakpoints=tuple(CUTS))
    return _hex(zonal_extension_on_axis(kind, data, STEP_RADII)) + _hex(zonal_extension_on_axis(kind, data, 0.7))


# recorded while the engine still evaluated only the rows not done
ENVELOPES = {
    (3, 0.1): [
        "-0x1.fff8e723838cep-1", "-0x1.e79b043366f43p-1", "-0x1.99999999999a2p-1",
        "-0x1.e3779b97f4a90p-3", "0x1.f4d1b51917a51p-1", "0x1.fee44d7e88a0cp-1",
        "0x1.fee44d7e88a0cp-1", "-0x1.e3779b97f4a90p-3", "-0x1.9999999999999p-1",
        "-0x1.e79b043366f43p-1", "-0x1.ffb862b6dbb54p-1", "-0x1.fff8e723838cep-1",
        "0x1.87311d17ac74cp-1", "-0x1.fcee94ff35a47p-1",
    ],
    (3, 0.5): [
        "-0x1.ffc9a7647c0ecp-1", "-0x1.5114757601b38p-1", "0x1.0000000000000p-53",
        "0x1.5114757601b38p-1", "0x1.fddb9f226fa94p-1", "0x1.ffc9a7647c0ecp-1",
        "0x1.ffc9a7647c0ecp-1", "0x1.5114757601b38p-1", "-0x1.0000000000000p-53",
        "-0x1.5114757601b38p-1", "-0x1.fddb9f226fa94p-1", "-0x1.ffc9a7647c0ecp-1",
        "0x1.e88c0b8075702p-1", "-0x1.e88c0b8075702p-1",
    ],
    (3, 0.9): [
        "-0x1.fee44d7e88a0cp-1", "0x1.e3779b97f4a90p-3", "0x1.9999999999999p-1",
        "0x1.e79b043366f43p-1", "0x1.ffb862b6dbb54p-1", "0x1.fff8e723838cep-1",
        "0x1.fff8e723838cep-1", "0x1.e79b043366f43p-1", "0x1.99999999999a2p-1",
        "0x1.e3779b97f4a90p-3", "-0x1.f4d1b51917a51p-1", "-0x1.fee44d7e88a0cp-1",
        "0x1.fcee94ff35a47p-1", "-0x1.87311d17ac74cp-1",
    ],
    (10, 0.1): [
        "-0x1.ffffcd4627288p-1", "-0x1.fbb135501063cp-1", "-0x1.9999999999990p-1",
        "0x1.61f204571e0d6p-2", "0x1.fecbdcb1d1e7ep-1", "0x1.ffe26800b4e0ap-1",
        "0x1.ffe26800b4e0ap-1", "0x1.61f204571e0d6p-2", "-0x1.9999999999992p-1",
        "-0x1.fbb135501063cp-1", "-0x1.fffdefbca3bbdp-1", "-0x1.ffffcd4627288p-1",
        "0x1.ee29c3a90dfdfp-1", "-0x1.ffe0d7381c637p-1",
    ],
    (10, 0.5): [
        "-0x1.fffc984b948aep-1", "-0x1.c49a3a81b4a86p-1", "0x1.0000000000000p-53",
        "0x1.c49a3a81b4a86p-1", "0x1.ffdc8a80cc7cfp-1", "0x1.fffc984b948aep-1",
        "0x1.fffc984b948aep-1", "0x1.c49a3a81b4a86p-1", "-0x1.0000000000000p-53",
        "-0x1.c49a3a81b4a86p-1", "-0x1.ffdc8a80cc7cfp-1", "-0x1.fffc984b948aep-1",
        "0x1.fdebb4b25638ep-1", "-0x1.fdebb4b25638ep-1",
    ],
    (10, 0.9): [
        "-0x1.ffe26800b4e0ap-1", "-0x1.61f204571e0d6p-2", "0x1.9999999999992p-1",
        "0x1.fbb135501063cp-1", "0x1.fffdefbca3bbdp-1", "0x1.ffffcd4627288p-1",
        "0x1.ffffcd4627288p-1", "0x1.fbb135501063cp-1", "0x1.9999999999990p-1",
        "-0x1.61f204571e0d6p-2", "-0x1.fecbdcb1d1e7ep-1", "-0x1.ffe26800b4e0ap-1",
        "0x1.ffe0d7381c637p-1", "-0x1.ee29c3a90dfdfp-1",
    ],
    (32, 0.1): [
        "-0x1.ffffffff10692p-1", "-0x1.ffec579af5868p-1", "-0x1.99999999999a0p-1",
        "0x1.c9c22596d0fe8p-1", "0x1.ffff9409dd090p-1", "0x1.fffff69ba24a0p-1",
        "0x1.fffff69ba24a0p-1", "0x1.c9c22596d0fe8p-1", "-0x1.999999999999cp-1",
        "-0x1.ffec579af5868p-1", "-0x1.fffffff53d035p-1", "-0x1.ffffffff10692p-1",
        "0x1.ffef58dc1ffefp-1", "-0x1.fffffe4761d2dp-1",
    ],
    (32, 0.5): [
        "-0x1.ffffffba5b484p-1", "-0x1.fca071c5dba18p-1", "-0x1.8000000000000p-51",
        "0x1.fca071c5dba18p-1", "0x1.fffffcdf4a26bp-1", "0x1.ffffffba5b484p-1",
        "0x1.ffffffba5b484p-1", "0x1.fca071c5dba18p-1", "0x1.8000000000000p-51",
        "-0x1.fca071c5dba18p-1", "-0x1.fffffcdf4a26bp-1", "-0x1.ffffffba5b484p-1",
        "0x1.ffff81c0a782dp-1", "-0x1.ffff81c0a782dp-1",
    ],
    (32, 0.9): [
        "-0x1.fffff69ba24a0p-1", "-0x1.c9c22596d0fe9p-1", "0x1.999999999999ap-1",
        "0x1.ffec579af5868p-1", "0x1.fffffff53d035p-1", "0x1.ffffffff10692p-1",
        "0x1.ffffffff10692p-1", "0x1.ffec579af5868p-1", "0x1.99999999999a0p-1",
        "-0x1.c9c22596d0fe9p-1", "-0x1.ffff9409dd090p-1", "-0x1.fffff69ba24a0p-1",
        "0x1.fffffe4761d2dp-1", "-0x1.ffef58dc1ffefp-1",
    ],
    (64, 0.1): [
        "-0x1.ffffffffffffdp-1", "-0x1.ffffdde426d7ep-1", "-0x1.999999999999ep-1",
        "0x1.fc9e628853829p-1", "0x1.fffffffe84162p-1", "0x1.ffffffffe3614p-1",
        "0x1.ffffffffe3614p-1", "0x1.fc9e628853829p-1", "-0x1.999999999999ep-1",
        "-0x1.ffffdde426d7ep-1", "-0x1.fffffffffffddp-1", "-0x1.ffffffffffffdp-1",
        "0x1.ffffff0b6a512p-1", "-0x1.fffffffffe809p-1",
    ],
    (64, 0.5): [
        "-0x1.ffffffffffcc2p-1", "-0x1.ffedda7cd2e73p-1", "-0x1.0000000000000p-51",
        "0x1.ffedda7cd2e73p-1", "0x1.fffffffffd4fap-1", "0x1.ffffffffffcc2p-1",
        "0x1.ffffffffffcc2p-1", "0x1.ffedda7cd2e73p-1", "0x1.0000000000000p-51",
        "-0x1.ffedda7cd2e73p-1", "-0x1.fffffffffd4fap-1", "-0x1.ffffffffffcc2p-1",
        "0x1.fffffffe37040p-1", "-0x1.fffffffe37040p-1",
    ],
    (64, 0.9): [
        "-0x1.ffffffffe3614p-1", "-0x1.fc9e628853829p-1", "0x1.999999999999ep-1",
        "0x1.ffffdde426d7ep-1", "0x1.fffffffffffddp-1", "0x1.ffffffffffffdp-1",
        "0x1.ffffffffffffdp-1", "0x1.ffffdde426d7ep-1", "0x1.999999999999ep-1",
        "-0x1.fc9e628853829p-1", "-0x1.fffffffe84162p-1", "-0x1.ffffffffe3614p-1",
        "0x1.fffffffffe809p-1", "-0x1.ffffff0b6a512p-1",
    ],
}

STEPS = {
    "harmonic": [
        "-0x1.c4e82b29e0632p-1", "-0x1.d35c5a933efc0p-5", "0x1.62bf4df9e042cp-3",
        "0x1.615dfb7e20c40p-3", "0x1.47e7f38e8dc1cp-3", "0x1.053f3bc390ffcp-3",
        "0x1.29f0017e0f0f8p-3", "0x1.499500c41c206p-2", "0x1.7f2314cf550a8p-1",
        "0x1.f3c17e5056e07p-1", "0x1.fec93ea1e015ap-1", "0x1.499500c41c206p-2",
    ],
    "hyperbolic": [
        "-0x1.cca1630d76b98p-1", "-0x1.916c2345293acp-3", "0x1.5efd87e603b74p-3",
        "0x1.615dfb7e20c40p-3", "0x1.3d5e947306884p-3", "0x1.d9301301b81d8p-4",
        "0x1.6c65087c695c8p-3", "0x1.ebf0bfe398c6cp-2", "0x1.d7ed5e305fad6p-1",
        "0x1.ff9bf5599e130p-1", "0x1.ffff0208900e6p-1", "0x1.ebf0bfe398c6cp-2",
    ],
}


@pytest.mark.parametrize("n, c", list(ENVELOPES))
def test_harmonic_envelopes_keep_their_bits(n, c):
    assert envelope_values(n, c) == ENVELOPES[n, c]


@pytest.mark.parametrize("kind", list(KernelKind))
def test_step_extensions_on_the_axis_keep_their_bits(kind):
    assert step_values(kind) == STEPS[kind.value]

"""Last-bit pins of the harmonic envelopes, of the values that go through
the quadrature engine, of the off-axis zonal values, and of the ``mobius``
residuals.

The CLI prints 12 digits, so an output comparison cannot see a move in
the last bits.  These tests compare ``float.hex`` of on-axis zonal
extensions with values recorded from the one angle kernel,
``KernelKind.kernel``: a change to the engine or the kernel that moves
any bit of them fails here.  The harmonic envelopes were recorded from the fixed image rule of
their tails, each within 2.3e-15 of a 40-digit mpmath quadrature of the
direct complement arc at the library's own cap angle.  The off-axis values of step data (the
Gegenbauer series for n >= 3, the arcs for n = 2), and every refusal of
the series with its message and estimate, were recorded while each point
still recomputed its levels, cap measures and edge weights and summed its
series term by term in Python.  The ``mobius`` residual arrays, all rows of
every draw, are pinned by a SHA-256 of their bytes, recorded while each
identity was still computed on its own through the public functions.
"""

import hashlib
import math

import numpy as np
import pytest

from ballschwarz import (
    CapSpec,
    KernelKind,
    MobiusParams,
    ZonalBoundaryData,
    cap_angle_from_measure,
    cli,
    envelope_lower,
    envelope_upper,
    mobius_identity_residuals,
    zonal_extension_on_axis,
)
from ballschwarz.errors import AccuracyError
from ballschwarz.verify import _zonal_value

# rows that finish at different times: the peaked radii near 1 bisect long after the others
GRID = np.array([-0.999, -0.5, 0.0, 0.5, 0.99, 0.999])
SINGLE = 0.9
STEP_RADII = np.array([-0.99, -0.5, -0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
CUTS, LEVELS = np.array([0.4, 1.3, 2.5]), np.array([1.0, -0.3, 0.6, -0.9])
OFFAXIS_N = (2, 3, 4, 8, 16, 32)
OFFAXIS_RADII = (0.05, 0.3, 0.6, 0.9, 0.97)
# 1e-10 from the axis on both sides, and 0.05 past the step profile's first jump
OFFAXIS_COS = (1.0 - 1e-10, 0.95, math.cos(0.45), 0.3, -0.6, -(1.0 - 1e-10))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def envelope_values(n: int, c: float) -> list[str]:
    """M and m over GRID, then M and m at the single radius, as hex strings."""
    cap = CapSpec(n, c)
    kind = KernelKind.HARMONIC
    return (_hex(envelope_upper(kind, cap, GRID)) + _hex(envelope_lower(kind, cap, GRID))
            + _hex(envelope_upper(kind, cap, SINGLE)) + _hex(envelope_lower(kind, cap, SINGLE)))


def _step_profile(t):
    return LEVELS[np.searchsorted(CUTS, t, side="right")]


def step_values(kind: KernelKind) -> list[str]:
    """The on-axis extension of a three-breakpoint step profile over STEP_RADII, then at 0.7 alone."""
    data = ZonalBoundaryData(n=3, axis=np.array([1.0, 0.0, 0.0]), profile=_step_profile, breakpoints=tuple(CUTS))
    return _hex(zonal_extension_on_axis(kind, data, STEP_RADII)) + _hex(zonal_extension_on_axis(kind, data, 0.7))


def offaxis_values(profile: str, n: int) -> list[str]:
    """``_zonal_value`` of the cap extremal at a = 0.3 (``"cap"``) or of the three-breakpoint step
    profile (``"step"``) at every |x| of OFFAXIS_RADII and cos(angle to the axis) of OFFAXIS_COS: its
    ``float.hex``, or for a refusal the exception's type and message and the ``float.hex`` of its estimate."""
    axis = np.eye(n)[0]
    if profile == "cap":
        alpha = cap_angle_from_measure(n, 0.65)
        data = ZonalBoundaryData(n=n, axis=axis, profile=lambda t: np.where(np.asarray(t) <= alpha, 1.0, -1.0),
                                 breakpoints=(alpha,))
    else:
        data = ZonalBoundaryData(n=n, axis=axis, profile=_step_profile, breakpoints=tuple(CUTS))
    out = []
    for r in OFFAXIS_RADII:
        for c in OFFAXIS_COS:
            x = r * (c * axis + math.sqrt(1.0 - c * c) * np.eye(n)[1])
            try:
                out.append(float(_zonal_value(data, x)).hex())
            except AccuracyError as exc:
                out.append(f"{type(exc).__name__}: {exc} | {float(exc.estimate).hex()}")
    return out


# recorded from the image rule of the harmonic tails, which calls no engine
ENVELOPES = {
    (3, 0.1): [
        "-0x1.fff8e723838cep-1", "-0x1.e79b043366f43p-1", "-0x1.999999999999ap-1",
        "-0x1.e3779b97f4a90p-3", "0x1.f4d1b51917a51p-1", "0x1.fee44d7e88a0cp-1",
        "0x1.fee44d7e88a0cp-1", "-0x1.e3779b97f4a90p-3", "-0x1.9999999999999p-1",
        "-0x1.e79b043366f43p-1", "-0x1.ffb862b6dbb54p-1", "-0x1.fff8e723838cep-1",
        "0x1.87311d17ac74cp-1", "-0x1.fcee94ff35a47p-1",
    ],
    (3, 0.5): [
        "-0x1.ffc9a7647c0ecp-1", "-0x1.5114757601b38p-1", "-0x1.0000000000000p-51",
        "0x1.5114757601b38p-1", "0x1.fddb9f226fa94p-1", "0x1.ffc9a7647c0ecp-1",
        "0x1.ffc9a7647c0ecp-1", "0x1.5114757601b38p-1", "0x1.0000000000000p-51",
        "-0x1.5114757601b38p-1", "-0x1.fddb9f226fa94p-1", "-0x1.ffc9a7647c0ecp-1",
        "0x1.e88c0b8075702p-1", "-0x1.e88c0b8075702p-1",
    ],
    (3, 0.9): [
        "-0x1.fee44d7e88a0cp-1", "0x1.e3779b97f4a90p-3", "0x1.9999999999999p-1",
        "0x1.e79b043366f43p-1", "0x1.ffb862b6dbb54p-1", "0x1.fff8e723838cep-1",
        "0x1.fff8e723838cep-1", "0x1.e79b043366f43p-1", "0x1.999999999999ap-1",
        "0x1.e3779b97f4a90p-3", "-0x1.f4d1b51917a51p-1", "-0x1.fee44d7e88a0cp-1",
        "0x1.fcee94ff35a47p-1", "-0x1.87311d17ac74cp-1",
    ],
    (10, 0.1): [
        "-0x1.ffffcd4627288p-1", "-0x1.fbb135501063cp-1", "-0x1.9999999999998p-1",
        "0x1.61f204571e0dap-2", "0x1.fecbdcb1d1e7ep-1", "0x1.ffe26800b4e0ap-1",
        "0x1.ffe26800b4e0ap-1", "0x1.61f204571e0dap-2", "-0x1.9999999999998p-1",
        "-0x1.fbb135501063cp-1", "-0x1.fffdefbca3bbdp-1", "-0x1.ffffcd4627288p-1",
        "0x1.ee29c3a90dfe0p-1", "-0x1.ffe0d7381c637p-1",
    ],
    (10, 0.5): [
        "-0x1.fffc984b948aep-1", "-0x1.c49a3a81b4a86p-1", "-0x1.8000000000000p-51",
        "0x1.c49a3a81b4a86p-1", "0x1.ffdc8a80cc7cfp-1", "0x1.fffc984b948aep-1",
        "0x1.fffc984b948aep-1", "0x1.c49a3a81b4a86p-1", "0x1.8000000000000p-51",
        "-0x1.c49a3a81b4a86p-1", "-0x1.ffdc8a80cc7cfp-1", "-0x1.fffc984b948aep-1",
        "0x1.fdebb4b25638ep-1", "-0x1.fdebb4b25638ep-1",
    ],
    (10, 0.9): [
        "-0x1.ffe26800b4e0ap-1", "-0x1.61f204571e0dap-2", "0x1.9999999999998p-1",
        "0x1.fbb135501063cp-1", "0x1.fffdefbca3bbdp-1", "0x1.ffffcd4627288p-1",
        "0x1.ffffcd4627288p-1", "0x1.fbb135501063cp-1", "0x1.9999999999998p-1",
        "-0x1.61f204571e0dap-2", "-0x1.fecbdcb1d1e7ep-1", "-0x1.ffe26800b4e0ap-1",
        "0x1.ffe0d7381c637p-1", "-0x1.ee29c3a90dfe0p-1",
    ],
    (32, 0.1): [
        "-0x1.ffffffff10692p-1", "-0x1.ffec579af5868p-1", "-0x1.99999999999a8p-1",
        "0x1.c9c22596d0fe7p-1", "0x1.ffff9409dd090p-1", "0x1.fffff69ba24a0p-1",
        "0x1.fffff69ba24a0p-1", "0x1.c9c22596d0fe7p-1", "-0x1.999999999999cp-1",
        "-0x1.ffec579af5868p-1", "-0x1.fffffff53d035p-1", "-0x1.ffffffff10692p-1",
        "0x1.ffef58dc1ffefp-1", "-0x1.fffffe4761d2dp-1",
    ],
    (32, 0.5): [
        "-0x1.ffffffba5b484p-1", "-0x1.fca071c5dba18p-1", "-0x1.8000000000000p-50",
        "0x1.fca071c5dba18p-1", "0x1.fffffcdf4a26bp-1", "0x1.ffffffba5b484p-1",
        "0x1.ffffffba5b484p-1", "0x1.fca071c5dba18p-1", "0x1.8000000000000p-50",
        "-0x1.fca071c5dba18p-1", "-0x1.fffffcdf4a26bp-1", "-0x1.ffffffba5b484p-1",
        "0x1.ffff81c0a782dp-1", "-0x1.ffff81c0a782dp-1",
    ],
    (32, 0.9): [
        "-0x1.fffff69ba24a0p-1", "-0x1.c9c22596d0fecp-1", "0x1.999999999998dp-1",
        "0x1.ffec579af5868p-1", "0x1.fffffff53d035p-1", "0x1.ffffffff10692p-1",
        "0x1.ffffffff10692p-1", "0x1.ffec579af5868p-1", "0x1.999999999999cp-1",
        "-0x1.c9c22596d0fecp-1", "-0x1.ffff9409dd090p-1", "-0x1.fffff69ba24a0p-1",
        "0x1.fffffe4761d2dp-1", "-0x1.ffef58dc1ffefp-1",
    ],
    (64, 0.1): [
        "-0x1.ffffffffffffdp-1", "-0x1.ffffdde426d7ep-1", "-0x1.99999999999b2p-1",
        "0x1.fc9e62885382ap-1", "0x1.fffffffe84162p-1", "0x1.ffffffffe3614p-1",
        "0x1.ffffffffe3614p-1", "0x1.fc9e62885382ap-1", "-0x1.99999999999b2p-1",
        "-0x1.ffffdde426d7ep-1", "-0x1.fffffffffffddp-1", "-0x1.ffffffffffffdp-1",
        "0x1.ffffff0b6a512p-1", "-0x1.fffffffffe809p-1",
    ],
    (64, 0.5): [
        "-0x1.ffffffffffcc2p-1", "-0x1.ffedda7cd2e73p-1", "-0x1.0000000000000p-49",
        "0x1.ffedda7cd2e73p-1", "0x1.fffffffffd4fap-1", "0x1.ffffffffffcc2p-1",
        "0x1.ffffffffffcc2p-1", "0x1.ffedda7cd2e73p-1", "0x1.0000000000000p-49",
        "-0x1.ffedda7cd2e73p-1", "-0x1.fffffffffd4fap-1", "-0x1.ffffffffffcc2p-1",
        "0x1.fffffffe37040p-1", "-0x1.fffffffe37040p-1",
    ],
    (64, 0.9): [
        "-0x1.ffffffffe3614p-1", "-0x1.fc9e62885382ap-1", "0x1.99999999999b2p-1",
        "0x1.ffffdde426d7ep-1", "0x1.fffffffffffddp-1", "0x1.ffffffffffffdp-1",
        "0x1.ffffffffffffdp-1", "0x1.ffffdde426d7ep-1", "0x1.99999999999b2p-1",
        "-0x1.fc9e62885382ap-1", "-0x1.fffffffe84162p-1", "-0x1.ffffffffe3614p-1",
        "0x1.fffffffffe809p-1", "-0x1.ffffff0b6a512p-1",
    ],
}

# recorded from ``KernelKind.kernel`` with sigma_star under the integral; against 40-digit mpmath, the 3 harmonic
# values that moved from the earlier pins came closer, and the 5 hyperbolic ones (4 radii) went up to 2.2e-16
# farther, the largest error of each kind staying 2.5e-16 (harmonic) and 3.8e-16 (hyperbolic)
STEPS = {
    "harmonic": [
        "-0x1.c4e82b29e0632p-1", "-0x1.d35c5a933efc0p-5", "0x1.62bf4df9e042cp-3",
        "0x1.615dfb7e20c40p-3", "0x1.47e7f38e8dc1cp-3", "0x1.053f3bc391000p-3",
        "0x1.29f0017e0f0f8p-3", "0x1.499500c41c208p-2", "0x1.7f2314cf550a8p-1",
        "0x1.f3c17e5056e07p-1", "0x1.fec93ea1e015ap-1", "0x1.499500c41c208p-2",
    ],
    "hyperbolic": [
        "-0x1.cca1630d76b98p-1", "-0x1.916c2345293a4p-3", "0x1.5efd87e603b74p-3",
        "0x1.615dfb7e20c40p-3", "0x1.3d5e947306880p-3", "0x1.d9301301b81d8p-4",
        "0x1.6c65087c695c4p-3", "0x1.ebf0bfe398c6ep-2", "0x1.d7ed5e305fad6p-1",
        "0x1.ff9bf5599e130p-1", "0x1.ffff0208900e6p-1", "0x1.ebf0bfe398c6ep-2",
    ],
}


# recorded while every off-axis point recomputed its constants and summed its series term by term
OFFAXIS = {
    ("cap", 2): [
        "0x1.6bf5a0a875484p-2", "0x1.69508b7d8e6f2p-2", "0x1.66ae25063a871p-2",
        "0x1.45b6c10c7598ep-2", "0x1.10b575bbfa766p-2", "0x1.ef9d642725830p-3",
        "0x1.303a0b5d25b7ep-1", "0x1.2be0e3551ad8cp-1", "0x1.2769d008fd55ep-1",
        "0x1.c481389ffbd94p-2", "0x1.adbea7b3aa830p-4", "-0x1.5049bd801b81cp-4",
        "0x1.9ce6465e5a6a4p-1", "0x1.99bb09b42de46p-1", "0x1.96640cf8ddf6bp-1",
        "0x1.53dae09d96aeep-1", "-0x1.d0145dfd51f8cp-4", "-0x1.037c57dfb09fcp-1",
        "0x1.eafb580808340p-1", "0x1.ea3ca02ab8e8ep-1", "0x1.e971cf5c09e89p-1",
        "0x1.d7af341cf0682p-1", "-0x1.42e1d42e0251cp-1", "-0x1.c825c1e8a4090p-1",
        "0x1.f9eaaa7b02ef0p-1", "0x1.f9b33a122ed3ap-1", "0x1.f9783f4cb718ap-1",
        "0x1.f4463291265c7p-1", "-0x1.c40125c5977c6p-1", "-0x1.efcda55d07843p-1",
    ],
    ("cap", 3): [
        "0x1.774a1485f9ddcp-2", "0x1.741071401e004p-2", "0x1.70da7d266fb2dp-2",
        "0x1.48d36e4bce6abp-2", "0x1.092cdba9765a6p-2", "0x1.d740448fc94c4p-3",
        "0x1.488af83ef56c4p-1", "0x1.43302dccc2a86p-1", "0x1.3daa78337890ep-1",
        "0x1.cce6c600b222bp-2", "0x1.712e9e104bea0p-5", "-0x1.3a7114722980ep-3",
        "0x1.b4e91b27b8885p-1", "0x1.b15190f09665dp-1", "0x1.ad7a04cd85432p-1",
        "0x1.5711b2afa4410p-1", "-0x1.1fc7f54ef75fcp-2", "-0x1.33333332bfefbp-1",
        "0x1.f261251868c5ep-1", "0x1.f1a43f18a2122p-1", "0x1.f0d7697b79f3dp-1",
        "0x1.dad369b51d635p-1", "-0x1.9be7f31b14816p-1", "-0x1.d8f9bb0178728p-1",
        "0x1.fc3200120cc28p-1", "0x1.fbfcf4a6394b6p-1", "0x1.fbc3665088e2ep-1",
        "0x1.f582289cb09a2p-1", "-0x1.e3332510975a4p-1", "-0x1.f5131ef54352ap-1",
    ],
    ("cap", 4): [
        "0x1.809e3eba2308cp-2", "0x1.7cef5533b9638p-2", "0x1.7944a6349c8f4p-2",
        "0x1.4b932a75bce28p-2", "0x1.03145864c14ecp-2", "0x1.c3115a6a38118p-3",
        "0x1.5b9134973e6bep-1", "0x1.55a22d89614a7p-1", "0x1.4f7d2ab672ebap-1",
        "0x1.d89f60dea458bp-2", "0x1.7fb02a5233a80p-9", "-0x1.b0cdc510f468cp-3",
        "0x1.c5c646e68706dp-1", "0x1.c2303769fb626p-1", "0x1.be4ea1e20fb2fp-1",
        "0x1.5e5e69d6b2eb7p-1", "-0x1.7b0b7d9388bcep-2", "-0x1.569dd532d5f91p-1",
        "0x1.f6f1a44dc648ap-1", "0x1.f64ddabadf926p-1", "0x1.f599840715c96p-1",
        "0x1.dedf4ec066306p-1", "-0x1.b61b13c7bed8ep-1", "-0x1.e4146b82decd2p-1",
        "0x1.fd8eec5407b13p-1", "0x1.fd62811b20bccp-1", "0x1.fd318ebc1b033p-1",
        "0x1.f6ee1410e05d7p-1", "-0x1.eb9253c0b13e4p-1", "-0x1.f873c80fd8bf6p-1",
    ],
    ("cap", 8): [
        "0x1.9d59f57316844p-2", "0x1.984dfa86fda4ep-2", "0x1.9346eb1eaa90ap-2",
        "0x1.5465423f3d6fcp-2", "0x1.e06796bc30102p-3", "0x1.83bcb3d6850b6p-3",
        "0x1.8ed26643d8216p-1", "0x1.880cf7c01692ep-1", "0x1.80ec0fb1d2a4ap-1",
        "0x1.022e50ec404d2p-1", "-0x1.e4aef75922f2cp-4", "-0x1.888fb66c41568p-2",
        "0x1.e8b9b4441ef54p-1", "0x1.e61f1dbfe01f9p-1", "0x1.e32e8f44e75c8p-1",
        "0x1.7c9b3ad6a1cb2p-1", "-0x1.282aaad6860c9p-1", "-0x1.abd2a456c9bbep-1",
        "0x1.fe052c5dddc68p-1", "0x1.fdc235ac1ddf3p-1", "0x1.fd7465d0feea7p-1",
        "0x1.ec2d1cbae9687p-1", "-0x1.e1ccfa9a930a8p-1", "-0x1.f82a49fa30508p-1",
        "0x1.ff8953dd8596ep-1", "0x1.ff7989325d747p-1", "0x1.ff67293153807p-1",
        "0x1.fb32515c7143cp-1", "-0x1.f8b912690ba0ap-1", "-0x1.fe287116e697cp-1",
    ],
    ("cap", 16): [
        "0x1.c5876406233b8p-2", "0x1.bea7997ed3c86p-2", "0x1.b7cb7c95752aep-2",
        "0x1.6125b8e127d9bp-2", "0x1.aa0d020f83caep-3", "0x1.27dd6598c4ce9p-3",
        "0x1.c307de14e35fep-1", "0x1.bccd3817253ddp-1", "0x1.b60661bbdd149p-1",
        "0x1.2277d299cf1a7p-1", "-0x1.20d9f3bf01efcp-2", "-0x1.318b433478d36p-1",
        "0x1.fb74e35c902d7p-1", "0x1.fa7fb9d8626d8p-1", "0x1.f9538c2559da5p-1",
        "0x1.a675ca06d1ef4p-1", "-0x1.925fb8c012770p-1", "-0x1.e90485ae87c38p-1",
        "AccuracyError: off-axis series at |x|=0.9, n=16 is only good to 4.16e-09, past abs_tol=1e-11 | 0x1.ffe1b6ef3a45ep-1",
        "0x1.ffd9ee1ce0ceap-1", "0x1.ffcfe796f389bp-1", "0x1.f8b27755eef1ap-1",
        "-0x1.f9b585a3e276cp-1",
        "AccuracyError: off-axis series at |x|=0.9, n=16 is only good to 4.16e-09, past abs_tol=1e-11 | -0x1.ff4fb9bd92bd2p-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=16 is only good to 0.0029, past abs_tol=1e-11 | 0x1.0000563c2857cp+0",
        "0x1.fff9422a8723cp-1", "0x1.fff7777692ab8p-1", "0x1.fe9cf656ef029p-1",
        "-0x1.fed6868279576p-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=16 is only good to 0.0029, past abs_tol=1e-11 | -0x1.ffdbabc68ec3ep-1",
    ],
    ("cap", 32): [
        "0x1.fc87bb89a0056p-2", "0x1.f34e22e8e4736p-2", "0x1.ea11d122756a2p-2",
        "0x1.733d4f9e51faap-2", "0x1.5bc3daad3fc0cp-3", "0x1.466577553187ep-4",
        "0x1.eabf062f3c140p-1", "0x1.e6d9949603470p-1", "0x1.e2546311d4ab8p-1",
        "0x1.4d2eefd91ddf0p-1", "-0x1.f83a50f297520p-2", "-0x1.9f9c4978752acp-1",
        "0x1.ffc54b30ffdc9p-1", "0x1.ffac4991c8ba5p-1", "0x1.ff885a4369294p-1",
        "0x1.d1b705259e7c4p-1", "-0x1.e05eb210dd614p-1", "-0x1.fe13ea73fa652p-1",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 111, past abs_tol=1e-11 | -0x1.783a92f1e4b49p+4",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 9.62e-11, past abs_tol=1e-11 | 0x1.ffffc5b758e89p-1",
        "0x1.ffffa56947836p-1", "0x1.fed9dda7baee5p-1", "-0x1.ffaf51953c5aap-1",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 111, past abs_tol=1e-11 | 0x1.01566e0b7a4a2p+4",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 4.74e+11, past abs_tol=1e-11 | 0x1.7b38affb0dd37p+30",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 1.43e-09, past abs_tol=1e-11 | 0x1.fffffa197bc19p-1",
        "AccuracyError: off-axis series at |x|=0.97, n=32 is only good to 1.86e-11, past abs_tol=1e-11 | 0x1.fffff6ca22bcap-1",
        "0x1.ffdd8e6865701p-1", "-0x1.fff738f1f0774p-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 4.74e+11, past abs_tol=1e-11 | -0x1.f4b8798cfb151p+33",
    ],
    ("step", 2): [
        "0x1.a68c8e4086038p-4", "0x1.a383bed0b8daep-4", "0x1.a07f3606efc96p-4",
        "0x1.7aae6bff9e366p-4", "0x1.3a97c16d2000ep-4", "0x1.19e1f5f19c582p-4",
        "0x1.74c733e568433p-3", "0x1.624db87be1132p-3", "0x1.52758296df962p-3",
        "0x1.03072babcbb2fp-3", "0x1.925468d7c0d74p-5", "-0x1.f06db5709a2f0p-5",
        "0x1.778f3ba189342p-2", "0x1.244bc1febd3fep-2", "0x1.c2a59360e6baep-3",
        "0x1.20f1f924559a6p-3", "0x1.ec9984d8c50a8p-4", "-0x1.66234c672669ep-2",
        "0x1.a01631821aba2p-1", "0x1.2f6ed8d98a1aep-1", "0x1.2c508ead2fda1p-3",
        "0x1.0a91b45d9850dp-4", "0x1.bde0a979855a6p-2", "-0x1.87342b70fb91cp-1",
        "0x1.e3a0f66eb8336p-1", "0x1.b0393766edbd1p-1", "-0x1.4534f1ba464e0p-4",
        "-0x1.6ca3f0956146dp-4", "0x1.19d585cc988c0p-1", "-0x1.b87ee4816b4fap-1",
    ],
    ("step", 3): [
        "0x1.56d6e8c19018cp-3", "0x1.57981a0241c9cp-3", "0x1.585450e4a2f3bp-3",
        "0x1.6009b22932a2cp-3", "0x1.6600f52b40ee7p-3", "0x1.65dae22b3e25ep-3",
        "0x1.053f3bc37ea4dp-3", "0x1.044090029aeb5p-3", "0x1.0555f2a3195bdp-3",
        "0x1.6636f82e8a3c0p-3", "0x1.8c37b1c4da913p-3", "0x1.d9400012eaf17p-4",
        "0x1.a4b6f23ae1220p-3", "0x1.19a651ed6c560p-3", "0x1.6a565ee9ff66dp-4",
        "0x1.4dd605b239371p-3", "0x1.11d6f7e6c16d2p-2", "-0x1.8f1fb2b061596p-3",
        "0x1.7f2314ccf7815p-1", "0x1.011dadfbecaeap-1", "0x1.a98be21a05e60p-5",
        "0x1.2061cb5a71930p-4", "0x1.f7bee1b0bf7dep-2", "-0x1.779a768812a29p-1",
        "0x1.daa3492a4a1b6p-1", "0x1.a16213edddc06p-1", "-0x1.e62afe8c64bf4p-4",
        "-0x1.6b7f69ebd5794p-4", "0x1.22fcfcf34d466p-1", "-0x1.b4aacd08cda58p-1",
    ],
    ("step", 4): [
        "0x1.c6c8bc7e80630p-3", "0x1.c8fe3d50b5e86p-3", "0x1.cb2a41a419ab5p-3",
        "0x1.e3f0f5e9c03d0p-3", "0x1.013c84c1754cbp-2", "0x1.0676002037680p-2",
        "0x1.a5c4d222fee80p-4", "0x1.bbc5b98489658p-4", "0x1.d4df59e7634a4p-4",
        "0x1.bd53431d65f90p-3", "0x1.3137266312bd3p-2", "0x1.f5a183b4c3e9ep-3",
        "0x1.7cb759e484aa8p-4", "0x1.3d0ed042da9f8p-5", "0x1.12627e86704e0p-8",
        "0x1.7989ec7cddd6ep-3", "0x1.796a15def5634p-2", "-0x1.41caf1fca7b74p-4",
        "0x1.661dc84ca6525p-1", "0x1.b92117660317ap-2", "-0x1.2ddbb11b22b30p-6",
        "0x1.34cefb8c30b08p-4", "0x1.0e85ec5eb66d6p-1", "-0x1.6e59a225e8575p-1",
        "0x1.d44b7f6f0fc83p-1", "0x1.95cf07e80075dp-1", "-0x1.31133cfdef85ep-3",
        "-0x1.6b01f4403a8c0p-4", "0x1.28bbd63520009p-1", "-0x1.b2d31f74ea4d6p-1",
    ],
    ("step", 8): [
        "0x1.55b6f0e4d099ep-2", "0x1.57f316fb88c7cp-2", "0x1.5a26a8ada7287p-2",
        "0x1.73b3b34616e83p-2", "0x1.95c147805fd9bp-2", "0x1.a31e333ed1e93p-2",
        "0x1.4af348a835a98p-4", "0x1.8a21d3999ec40p-4", "0x1.ca5f3270db3f0p-4",
        "0x1.3b5dfa54dcd01p-2", "0x1.ee5aed10def9bp-2", "0x1.ef54796372206p-2",
        "-0x1.f567d6efd17dcp-4", "-0x1.188b928caaee8p-3", "-0x1.188b0c0ac26c4p-3",
        "0x1.e1fe335932b6ap-3", "0x1.13aa08f4b9f58p-1", "0x1.7493a934c6187p-3",
        "0x1.293d1e020c8f1p-1", "0x1.f429d6a74f3f0p-3", "-0x1.639329a5d4070p-3",
        "0x1.6200d9d2b34a8p-4", "0x1.2b4197b1572d7p-1", "-0x1.63d2984087452p-1",
        "0x1.c7aaa148c8539p-1", "0x1.781503f963798p-1", "-0x1.c52993888c694p-3",
        "-0x1.7457a66753084p-4", "0x1.31289a7721960p-1", "-0x1.b313618f33a66p-1",
    ],
    ("step", 16): [
        "0x1.acc36dac7d98bp-2", "0x1.af694eac4ac69p-2", "0x1.b20288c793a65p-2",
        "0x1.cf72050047bbcp-2", "0x1.f4874e1d0b644p-2", "0x1.013536e34850cp-1",
        "0x1.364c7627ac8c0p-4", "0x1.91925f5a49694p-4", "0x1.edd7c0623b76cp-4",
        "0x1.8a462ce77ead7p-2", "0x1.2190adcc446e7p-1", "0x1.298c80975b11cp-1",
        "-0x1.da1fbc5897254p-3", "-0x1.c87cf5d11806cp-3", "-0x1.ac6874809e808p-3",
        "0x1.270989d06cd22p-2", "0x1.2ff8876b2c392p-1", "0x1.90bce34f4d4fcp-2",
        "AccuracyError: off-axis series at |x|=0.9, n=16 is only good to 2.13e-09, past abs_tol=1e-11 | 0x1.dfaedd1ba6246p-2",
        "0x1.b08a87af017b0p-5", "-0x1.13cde73dd9accp-2", "0x1.8717952152fb0p-4",
        "0x1.32b9421fc74c4p-1",
        "AccuracyError: off-axis series at |x|=0.9, n=16 is only good to 2.13e-09, past abs_tol=1e-11 | -0x1.6aafbcef0e93cp-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=16 is only good to 0.001, past abs_tol=1e-11 | 0x1.c21cb8c78001ep-1",
        "0x1.59cd92523bd86p-1", "-0x1.1963e792e0f7ap-2", "-0x1.9570d893dcc40p-4",
        "0x1.3319baa4ef521p-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=16 is only good to 0.001, past abs_tol=1e-11 | -0x1.b98e14afb4b04p-1",
    ],
    ("step", 32): [
        "0x1.0029c549dcbeap-1", "0x1.01681592aa401p-1", "0x1.029da45968669p-1",
        "0x1.0f84326231f6ep-1", "0x1.1d7b2e6d674a4p-1", "0x1.21fb11b33a009p-1",
        "0x1.055c4f7945b98p-4", "0x1.84ba9c608b488p-4", "0x1.030186b6e35c0p-3",
        "0x1.dd614eb3321c5p-2", "0x1.30a2c86a1eb32p-1", "0x1.32ae6baba0e0dp-1",
        "-0x1.1de73ef8c7b06p-2", "-0x1.162c2e40f30c4p-2", "-0x1.0bb4399e56c54p-2",
        "0x1.68722dc5b69aep-2", "0x1.332274db2f49cp-1", "0x1.108c5e6773194p-1",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 115, past abs_tol=1e-11 | 0x1.586b1a324ea0cp+2",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 2.61e-11, past abs_tol=1e-11 | -0x1.ede68bffb4c58p-4",
        "-0x1.30e1f38ddddaep-2", "0x1.a4039431c5c9cp-4", "0x1.33329c924c6d1p-1",
        "AccuracyError: off-axis series at |x|=0.9, n=32 is only good to 115, past abs_tol=1e-11 | 0x1.319e264e3f5f4p+2",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 1.7e+11, past abs_tol=1e-11 | 0x1.1e9b91ae95802p+32",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 3.89e-10, past abs_tol=1e-11 | 0x1.3c4bcd61d06d9p-1",
        "-0x1.2fe986a451d26p-2", "-0x1.dc285082b3498p-4", "0x1.33331e3ba14c7p-1",
        "AccuracyError: off-axis series at |x|=0.9700000000000001, n=32 is only good to 1.7e+11, past abs_tol=1e-11 | 0x1.140cd628d2698p+30",
    ],
}


# SHA-256 of tobytes() of each residual array, over the origin row and every draw
MOBIUS = {
    (5, 1): {
        "involution": "dee5a67b0720bcce17cb6de6f109b99461fd31d563873ec810456e892158680e",
        "sphere_preservation": "3d67cefd41c5f9d57f30fc2dfef458051f124c7d31e28292b94f66fb00f9b95d",
        "A_squared": "393b68961810cc864d5a9943dc15c540d3509b7c9d220e6f31067ce95523cd52",
        "derivative_adjoint": "ac0af565ada23bbbc38a2d7880134ed65a388ab5ff3806e0d23d614292a5bc0c",
    },
    (5, 2): {
        "involution": "ee13647dd3f2485d4f5be8ea94517ee470de8dc7c245b61ce51c60c19390ca8c",
        "sphere_preservation": "20159282dcfe74ac376c243dbfb74da14d4272110d7f3dfcbd4fa37fd15a58ba",
        "A_squared": "ca1624748320b7b0448d4a3d29ae198480be524f9c4278a575eaa2b6cc39bc67",
        "derivative_adjoint": "5803fbb4f5f21a41233b760e55efab2fce8d46d4d5daeffe82d6b9114265cd85",
    },
    (5, 3): {
        "involution": "c75ec1f08b2d16af55676645fbceb98630063b5bf70571e468dfd4f4eddd4abd",
        "sphere_preservation": "bc76eeb0a29ef1081f24fcf50814fe3a2ded269f9300c03f30b2745b8cbf41e1",
        "A_squared": "19cb62b7d2758b5e3f07bd33c71f23614dc03b098a40b13a89df45536be4f007",
        "derivative_adjoint": "a9c1dddaf7c823f5b9289bdf8c204caea88386616a4dbee493b63171ad6c2f17",
    },
    (5, 8): {
        "involution": "f1ba6a313fc8f88580babe956731a2f54f7860c118b3c77d2b5fbf6ed98195a5",
        "sphere_preservation": "4b6735aa51cf174a691610a2c7f1fff6dfd7b03aa92b74db0e39c3884c5b8c08",
        "A_squared": "4c15412de5f1bba30885b11c118d4633ea76e7d2e7b66a10d93e20fa2eb9aa1e",
        "derivative_adjoint": "9f6078cbc8453e5621e0b9118a634f203d4c75320b1d3252a2ab2f6dd05a514b",
    },
    (5, 32): {
        "involution": "3042d63e03af00debe3102757334ffbaabe4a1a8123300a0bc7326bc0ed464dd",
        "sphere_preservation": "5bd94c10a9cf5bb7fba089541e7b35b5df89213c591619702756491bea1927c9",
        "A_squared": "7596d071001dc789a54699691fb2c983b77c6f61167f3ac660e033f3d8c62afb",
        "derivative_adjoint": "1d3363b78cee6547b32463f8fe741f024cfbb873e150328b021683c57f2b4e64",
    },
    (7, 1): {
        "involution": "01caea12cb4cf40dbe1f9fe6158ac31e22a594b6b18b6a68194da19ef4227720",
        "sphere_preservation": "d35103f210c6808860937c4906ba95cc4e88cbd8595ec09a8eb6d9a48bd6cfd4",
        "A_squared": "0c4d7e99c7811951ba444d8f79ec65ca6ee0181ea472e18a72b4dfad9d1791dd",
        "derivative_adjoint": "ac766078c2b6e3e35589a971ecc064ff3c7cbcebcd1f17843a4a6b683408f76d",
    },
    (7, 2): {
        "involution": "2a38c70015d268de0342c5ab041e646b23c295dddd5f37a8a95052274bc63c65",
        "sphere_preservation": "53058a8f8336af1e2a791e9dbe00fdf8345b618b44c31eb66aa3060043449da6",
        "A_squared": "24eff587dd8ebdf16ef090456d782a8e759553f1e397e47a998a3bd576d66239",
        "derivative_adjoint": "6bb9e9da0da9f4218a41eb47fda865730588a4d8baf6307a71a0fb02c59b316d",
    },
    (7, 3): {
        "involution": "1c9e2a30594a499d68c47daef59386f8d635c8dd2aa2c498b6bb74769c1e2188",
        "sphere_preservation": "c129802f4a69423dd27e51a036d54f3e6d7ed3273edac42ab247e84a58281e5f",
        "A_squared": "954f23e98ff2a44992040a86d63d5f35557088b605f895965b0355418247f362",
        "derivative_adjoint": "2342d0ef43379d3761ad18ea6365f8cada360a3902db4e594b3b2bf25438ff69",
    },
    (7, 8): {
        "involution": "70e004ed6dbb8eb5a928592e5c93b3c307daf164e9f908801b932b34d7646a1b",
        "sphere_preservation": "e4db7a5d8cb6c36c086f3c091fc853d7c9cfa5082d998bb3be309ed9c2f179f6",
        "A_squared": "cea8abe92c5a2c4b46c0305ecb1d84e63b5dc5e6d98de97a6822ba504e867e3c",
        "derivative_adjoint": "1bd14daaaee1fa3e340aaa613b50794d0364ffeca40cf55d8295c2df3b2ce4d2",
    },
    (7, 32): {
        "involution": "6cfa451999fd35c15df63340642908296208ed02058bddf84308cc9162fb9d18",
        "sphere_preservation": "4956cccdb4842cc28fa99c37fd284296cbe3f8ec26111e3f5fe9bcbfc8edf01f",
        "A_squared": "cfb753cdb4bcac5701c26aa392228acad29839eec5cf91b7ab5f98448a97e1d0",
        "derivative_adjoint": "e10e0463bb85c0065ca9ee849ae7d1cde128c4a933e9e9418090a49e8f487dc6",
    },
}


@pytest.mark.parametrize("n, c", list(ENVELOPES))
def test_harmonic_envelopes_keep_their_bits(n, c):
    assert envelope_values(n, c) == ENVELOPES[n, c]


@pytest.mark.parametrize("kind", list(KernelKind))
def test_step_extensions_on_the_axis_keep_their_bits(kind):
    assert step_values(kind) == STEPS[kind.value]


@pytest.mark.parametrize("profile, n", list(OFFAXIS))
def test_offaxis_values_and_refusals_keep_their_bits(profile, n):
    assert offaxis_values(profile, n) == OFFAXIS[profile, n]


@pytest.mark.parametrize("seed, k", list(MOBIUS))
def test_mobius_residual_arrays_keep_their_bits(seed, k):
    xis, zs = cli._mobius_draws(seed, k)
    residuals = mobius_identity_residuals(MobiusParams(xis), zs)
    assert all(values.shape == (cli._MOBIUS_BATCH + 1,) for values in residuals.values())
    assert {name: hashlib.sha256(values.tobytes()).hexdigest() for name, values in residuals.items()} == MOBIUS[seed, k]

"""Last-bit pins of the values that go through the quadrature engine, and
of the ``mobius`` residuals.

The CLI prints 12 digits, so an output comparison cannot see a move in
the last bits.  These tests compare ``float.hex`` of harmonic envelopes
and on-axis zonal extensions with values recorded before the engine's
integrand contract became ``f(x)``: a change to the engine that moves
any bit of them fails here.  The ``mobius`` residual arrays, all rows of
every draw, are pinned by a SHA-256 of their bytes, recorded while each
identity was still computed on its own through the public functions.
"""

import hashlib

import numpy as np
import pytest

from ballschwarz import (
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


@pytest.mark.parametrize("seed, k", list(MOBIUS))
def test_mobius_residual_arrays_keep_their_bits(seed, k):
    xis, zs = cli._mobius_draws(seed, k)
    residuals = mobius_identity_residuals(MobiusParams(xis), zs)
    assert all(values.shape == (cli._MOBIUS_BATCH + 1,) for values in residuals.values())
    assert {name: hashlib.sha256(values.tobytes()).hexdigest() for name, values in residuals.items()} == MOBIUS[seed, k]

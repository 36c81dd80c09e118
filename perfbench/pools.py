"""Input pools the workloads draw from.

The ``tables`` and ``checks`` inputs come from these finite grids so that
their mpmath references can be computed once and shipped in
``refs.txt``.  The grids still span what the workloads are for: ``n`` from
2 to 64, radii on both sides of the library's 0.999 formula switch, and
the large-``n`` rows where the constants leave the double range.
"""

import math

CONST_N = tuple(range(2, 65))
A_GRID = (-0.9, -0.75, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9)

KINDS = ("harmonic", "hyperbolic")
ENV_N_STRATA = ((2, 3, 4), (5, 6, 8), (10, 12, 16), (24, 32, 48, 64))
ENV_N = sum(ENV_N_STRATA, ())
C_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
R_FAR = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95)
# Straddles the envelope's switch to the complement form at r = 0.999.
R_NEAR = (0.99, 0.998, 0.9985, 0.9989, 0.9995)
R_GRID = R_FAR + R_NEAR

HOPF_N = tuple(range(3, 17))
# The library's default scan radii, 1 - 2^-k for k = 4..14.
HOPF_RADII = tuple(1.0 - 2.0 ** (-k) for k in range(4, 15))

# Own invocations each: where D_n underflows to 0.0 (n >= ~1080), where it
# turns NaN while C_n is still a double (2049..2055), and where the
# constants leave the double range altogether.
UNDERFLOW_N = (1080, 1200, 1400, 1700, 2000)
NAN_N = (2049, 2050, 2052, 2055)
REFUSE_N = (20000, 30000, 40000)
LARGE_N = UNDERFLOW_N + NAN_N + REFUSE_N

# Fixed inputs of the library's default verification suite whose bounds
# have closed forms or mpmath references.
VERIFY_PLANAR_B = (-0.8, -0.4, 0.0, 0.4, 0.8)
VERIFY_CAP_CASES = ((2, 0.0), (3, 0.0), (3, 0.5), (4, -0.5))

OFFAXIS_N = (2, 3, 4, 5)

# (n, levels, edges, |x|, angle to the axis): QUADPACK is checked against
# the mpmath double integral on these before any off-axis comparison.
SELF_CHECK_POINTS = (
    (3, (1.0, -0.4), (0.0, 1.1, math.pi), 0.6, 1.2),
    (5, (1.0, 0.3, -0.8), (0.0, 0.7, 2.0, math.pi), 0.8, 2.1),
)

MOBIUS_DIMS = (1, 2, 3, 8, 32)
MOBIUS_IDENTITIES = ("involution", "sphere_preservation", "A_squared", "derivative_adjoint")

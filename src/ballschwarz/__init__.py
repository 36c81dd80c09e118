"""Sharp boundary-derivative constants, extremal envelopes, and ball-automorphism
operator identities for harmonic and pluriharmonic maps of the unit ball."""

from .envelope import (
    CapSpec,
    KernelKind,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    cap_measure_from_angle,
    envelope_rows,
    envelope_upper,
    heinz_schwarz_constant,
    hyperbolic_decay_coefficient,
    schwarz_planar_bound,
)
from .errors import AccuracyError, DomainError
from .hilbert_ball import (
    MobiusParams,
    RealLinearMap,
    boundary_lambda,
    hermitian_adjoint,
    inner,
    mobius_A,
    mobius_derivative_adjoint,
    mobius_identity_residuals,
    mobius_map,
    real_adjoint,
)
from .poisson import (
    ZonalBoundaryData,
    radial_derivative_estimate,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_rows
from .specfn import gauss_2f1_neg1, sigma_star
from .verify import (
    DEFAULT_SEED,
    ContactTestCase,
    HopfScanResult,
    MarginReport,
    build_cap_extremal,
    check_V_monotone,
    check_boundary_bound,
    check_envelope_sandwich,
    check_hemisphere_majorant,
    check_mobius_precomposition,
    check_planar_bound,
    default_verification_suite,
    hopf_failure_scan,
    majorant_radial_slope,
    zonal_contact_case,
)

__version__ = "0.1.0"

"""Sharp boundary-derivative constants, extremal envelopes, and ball-automorphism
operator identities for harmonic and pluriharmonic maps of the unit ball."""

from .envelope import (
    CapSpec,
    KernelKind,
    boundary_derivative_harmonic,
    boundary_difference_quotient,
    cap_angle_from_measure,
    cap_measure_from_angle,
    envelope_lower,
    envelope_upper,
    heinz_schwarz_constant,
    hopf_condition_ratio,
    hyperbolic_decay_coefficient,
    schwarz_planar_bound,
)
from .errors import AccuracyError, ContractError, DomainError
from .hilbert_ball import (
    MobiusParams,
    RealLinearMap,
    boundary_lambda,
    hermitian_adjoint,
    inner,
    mobius_A,
    mobius_derivative,
    mobius_map,
    real_adjoint,
    split_real_linear,
    verify_dphi_adjoint_identity,
)
from .poisson import (
    BoundaryMap,
    ZonalBoundaryData,
    laplace_beltrami_residual,
    monte_carlo_extension,
    poisson_kernel,
    radial_derivative_estimate,
    uniform_sphere_samples,
    zonal_extension_on_axis,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .specfn import (
    SpherePrefactors,
    gauss_2f1_neg1,
    gauss_2f1_neg1_series,
    log_gamma,
    sphere_prefactors,
)
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

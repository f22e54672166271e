"""Vacuum-friction decoherence toolkit.

Damping rates and decoherence times for superpositions of mirror motional
states coupled to the radiation field, Gaussian moment dynamics with a
predictability sieve, and a phase-space grid solver for watching the
interference fringes die.
"""

from .errors import (
    CasidecError,
    ConfigError,
    DomainError,
    FitFailure,
    GridTooSmall,
    IoError,
    NonPhysicalInput,
    OptimizationFailure,
    QuadratureFailure,
    RegimeViolation,
    RegimeWarning,
    StabilityViolation,
    StepSizeError,
    UnknownScenario,
)
from .params import (
    CODATA,
    CatSpec,
    DerivedQuantities,
    MirrorParams,
    PhysicalConstants,
    RegimeCheck,
    ValidationReport,
    alpha_from_separation,
    derived_quantities,
    ground_state_width,
    packet_velocity,
    resolve_cat,
    separation_from_alpha,
    thermal_de_broglie,
    validate,
)
from .spectra_damping import (
    CharacteristicRoots,
    CoefficientSet,
    SpectrumModel,
    characteristic_roots,
    coefficient_set,
    damping_rate,
    diffusion_asymptotic,
    diffusion_finite_time,
    force_spectrum_vacuum_1d,
    gamma_thermal_sphere,
    gamma_vacuum_1d,
    gamma_vacuum_sphere,
)
from .decoherence_times import (
    td_cat_vacuum,
    td_from_diffusion,
    td_from_separation,
    td_high_T,
    td_relative_1d,
    td_relative_sphere,
    td_thermal_sphere_free,
)
from .pair_emission import (
    PairEmissionState,
    emission_state,
    pair_probability,
    reduced_offdiagonal_weight,
    which_way_overlap,
)
from .gaussian_dynamics import (
    GaussianState,
    SieveResult,
    entropy_production_rate,
    evolve,
    linear_entropy,
    moment_derivatives,
    purity,
    secular_linear_entropy,
    sieve_search,
    squeezed_pure_state,
)
from .wigner_solver import (
    CatWignerSpec,
    DecayFit,
    PhaseSpaceGrid,
    ScaleSet,
    SolverCoefficients,
    StepPlan,
    evolve_grid,
    fringe_visibility,
    grid_moments,
    grid_norm,
    grid_purity,
    init_cat,
    init_gaussian,
    marginals,
    measure_td,
    nondimensionalize,
    step,
    step_plan,
    wmin_over_wmax,
)

__version__ = "0.1.0"

"""Numerical laboratory for semilinear heat flows u_t + L u = |u|^(p-1) u
with self-adjoint spectral operators L on truncated domains.

The package is organized bottom-up:

  grids        interior-node tensor grids, fields, quadrature norms
  operators    certified operator families and their spectral assembly
  semigroup    heat propagators, kernel columns, estimate verifiers
  variational  energy, Nehari functional, ground states, thresholds
  evolution    exponential integrators, blow-up detection, Picard iteration
  diagnostics  trajectory-level checks: verdicts, concavity, invariance
  experiments  config-driven runs writing csv/txt artifacts
  cli          the `heatlab` command
"""

from .grids import (
    DomainSpec,
    Field,
    Grid,
    build_grid,
    field_from_function,
    inner_product,
    lp_norm,
    zero_field,
)
from .operators import (
    AssemblyError,
    OperatorSpec,
    PotentialSpec,
    SpectralOperator,
    ZERO_POTENTIAL,
    assemble,
    classify_assumption,
    validate_potential,
)
from .semigroup import (
    DecayReport,
    EstimateSpec,
    GaussReport,
    apply_semigroup,
    default_decay_t_grid,
    decay_probe_family,
    free_gaussian_kernel,
    heat_kernel_column,
    smoothing_norm_2_to_inf,
    verify_gaussian_bound,
    verify_l2lq_decay,
    verify_spacetime,
)
from .variational import (
    ConvergenceError,
    EquationMode,
    FunctionalReport,
    ProjectionResult,
    VariationalConstants,
    best_sobolev_constant,
    classify,
    energy,
    energy_gradient,
    ground_state,
    mountain_pass_level,
    nehari_projection,
    sobolev_bound_from_semigroup,
)
from .evolution import (
    CSV_HEADER,
    IntegratorConfig,
    PicardResult,
    Trajectory,
    TrajectorySample,
    energy_identity_residual,
    integrate,
    mass_identity_residual,
    picard_iterate,
    step,
    trajectory_rows,
)
from .diagnostics import (
    ConcavityReport,
    CoercivityReport,
    Verdict,
    coercivity_check,
    concavity,
    invariance_check,
    linear_profile_smallness,
    negativity_gap_check,
    verdict,
)
from .config import ConfigError, ExperimentConfig, load_experiment_config, parse_config_text
from .experiments import (
    ExperimentResult,
    build_mode,
    build_operator,
    make_initial_data,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "CSV_HEADER",
    "ConcavityReport",
    "CoercivityReport",
    "ConfigError",
    "ConvergenceError",
    "DecayReport",
    "DomainSpec",
    "EquationMode",
    "EstimateSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "Field",
    "FunctionalReport",
    "GaussReport",
    "Grid",
    "IntegratorConfig",
    "OperatorSpec",
    "PicardResult",
    "PotentialSpec",
    "ProjectionResult",
    "SpectralOperator",
    "Trajectory",
    "TrajectorySample",
    "VariationalConstants",
    "Verdict",
    "ZERO_POTENTIAL",
    "apply_semigroup",
    "assemble",
    "best_sobolev_constant",
    "build_grid",
    "build_mode",
    "build_operator",
    "classify",
    "classify_assumption",
    "coercivity_check",
    "concavity",
    "decay_probe_family",
    "default_decay_t_grid",
    "energy",
    "energy_gradient",
    "energy_identity_residual",
    "field_from_function",
    "free_gaussian_kernel",
    "ground_state",
    "heat_kernel_column",
    "inner_product",
    "integrate",
    "invariance_check",
    "linear_profile_smallness",
    "load_experiment_config",
    "lp_norm",
    "make_initial_data",
    "mass_identity_residual",
    "mountain_pass_level",
    "negativity_gap_check",
    "nehari_projection",
    "parse_config_text",
    "picard_iterate",
    "run_experiment",
    "smoothing_norm_2_to_inf",
    "sobolev_bound_from_semigroup",
    "step",
    "sweep",
    "trajectory_rows",
    "validate_potential",
    "verdict",
    "verify_gaussian_bound",
    "verify_l2lq_decay",
    "verify_spacetime",
    "zero_field",
]

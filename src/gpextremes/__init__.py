"""gpextremes: a Monte Carlo laboratory for extremes of vector-valued Gaussian processes.

The package simulates independent-coordinate Gaussian vector processes
exactly on uniform grids, estimates the generalized extremal constants that
govern their conjunction tails, evaluates the first-order tail formulas,
and audits the comparison inequalities behind them -- all reproducibly from
declarative experiment configs.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguousMinimumError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EmbeddingError,
    FactorizationError,
    GpxError,
    PreconditionError,
    ProviderError,
    SpecValidationError,
    TruncationError,
    UnsupportedModelError,
)
from .rng import RngStream, derive_stream
from .processes import (
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    ProfileTable,
    Stationary,
    ThresholdFamily,
    ValidationReport,
    VarianceProfileReport,
    VectorProcessSpec,
    coord_covariance,
    coord_variance,
    eval_correlation,
    gaussian_tail,
    validate_spec,
    variance_profile,
)
from .sampling import (
    PathBatch,
    SampleGrid,
    read_path_dump,
    sample_cholesky_oracle,
    sample_fbm,
    sample_vector,
    write_path_dump,
)
from .orthants import PointCloud, ewv_exact, ewv_mc, pareto_prune
from .constants import (
    ConstantEstimate,
    DriftSpec,
    closed_forms_n1,
    default_window_step,
    estimate_discrete_zero,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
    pickands_bounds,
    piterbarg_lower_bound,
)
from .asymptotics import (
    AsymptoticApproximation,
    ClosedFormProvider,
    ConstantProvider,
    MonteCarloProvider,
    ScalingProvider,
    approx_locally_stationary,
    approx_nonstationary,
    case_i_leading_constant,
    local_window_approx,
    order_stats_approx,
    theta_combination,
)
from .conjunction import (
    BorellReport,
    DoubleEventResult,
    PiterbargDecayReport,
    ProbEstimate,
    RatioReport,
    SlepianReport,
    audit_borell,
    audit_piterbarg_decay,
    audit_slepian,
    compare_with_asymptotic,
    conjunction_prob_nested,
    default_grid_step,
    estimate_conjunction_prob,
    estimate_double_event,
)
from .experiments import (
    ResultsManifest,
    config_hash,
    emit_bounds_table,
    load_config,
    run_experiment,
    write_results,
)

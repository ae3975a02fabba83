"""Constrained learning by projected dual ascent over an empirical Lagrangian."""

from .bounds import (
    BoundsReport,
    empirical_rademacher_stats,
    gap_report,
    multiplier_bound,
    zeta_rademacher,
    zeta_vc,
)
from .core import (
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    ReferenceTerm,
    empirical_risk,
)
from .errors import (
    ConfigurationError,
    DualLearnError,
    InputError,
    NumericError,
    SurrogateRequiredError,
)
from .lagrangian import (
    DualState,
    InnerSolverConfig,
    dual_function,
    empirical_lagrangian,
    slacks,
)
from .models import (
    Evaluation,
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    OptimizerState,
    grad_params,
    init_model,
    load_model,
    optimizer_step,
    save_model,
)
from .oracle import (
    DualEnumResult,
    EcrmResult,
    EnumerableProblem,
    constrained_argmin,
    dual_enumerate,
    ecrm_enumerate,
    example1_population_objective,
    example1_problem,
    example1_sample,
    example1_trial,
    example1_trials,
)
from .primaldual import (
    RandomizedSolution,
    TrainConfig,
    TrainTrace,
    dual_update,
    load_trace,
    mixture_risks,
    randomized_solution,
    recommend_hyperparams,
    save_trace,
    train,
)
from .rate import (
    MarginReport,
    margin_check,
    surrogate_gap_bound,
)
from .robust import AttackConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

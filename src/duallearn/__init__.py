"""Constrained learning by projected dual ascent over an empirical Lagrangian."""

from .bounds import (
    BoundsReport,
    empirical_rademacher,
    empirical_rademacher_stats,
    gap_report,
    measure_xi,
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
    Sample,
    empirical_risk,
    eval_loss,
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
    grad_input,
    grad_params,
    init_model,
    load_model,
    optimizer_step,
    predict,
    save_model,
)
from .oracle import (
    DualEnumResult,
    EcrmResult,
    EnumerableProblem,
    MuGrid,
    dual_enumerate,
    ecrm_enumerate,
    example1_population_objective,
    example1_problem,
    example1_sample,
    example1_trial,
)
from .primaldual import (
    RandomizedSolution,
    TrainConfig,
    TrainTrace,
    dual_update,
    evaluate_randomized,
    load_trace,
    mixture_risks,
    randomized_solution,
    recommend_hyperparams,
    save_trace,
    train,
)
from .rate import (
    MarginReport,
    SurrogateConfig,
    build_surrogate_lagrangian,
    indicator_rate_loss,
    margin_check,
    sigmoid_surrogate,
    surrogate_gap_bound,
)
from .robust import AttackConfig, adversarial_constraint

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

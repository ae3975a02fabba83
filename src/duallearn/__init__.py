"""Constrained learning by projected dual ascent over an empirical Lagrangian.

Importing the package loads none of its modules. Each name in `__all__`
loads its home module on first access (PEP 562) and is then bound here, so
a program pays only for the modules it uses.
"""

import importlib

# home module -> the names the package re-exports from it
_EXPORTS = {
    "bounds": ("BoundsReport", "empirical_rademacher_stats", "gap_report",
               "multiplier_bound", "zeta_rademacher", "zeta_vc"),
    "core": ("ConstraintSpec", "Dataset", "LossSpec", "Problem", "ReferenceTerm",
             "empirical_risk"),
    "errors": ("ConfigurationError", "DualLearnError", "InputError", "NumericError",
               "SurrogateRequiredError"),
    "lagrangian": ("DualState", "InnerSolverConfig", "dual_function",
                   "empirical_lagrangian", "slacks"),
    "models": ("Evaluation", "LinearArch", "LogisticArch", "MlpArch", "ModelState",
               "OptimizerState", "grad_params", "init_model", "load_model",
               "optimizer_step", "save_model"),
    "oracle": ("DualEnumResult", "EcrmResult", "EnumerableProblem", "constrained_argmin",
               "dual_enumerate", "ecrm_enumerate", "example1_population_objective",
               "example1_problem", "example1_sample", "example1_trial", "example1_trials"),
    "primaldual": ("TrainConfig", "TrainTrace", "dual_update", "load_trace",
                   "mixture_risks", "randomized_solution", "recommend_hyperparams",
                   "save_trace", "train"),
    "rate": ("MarginReport", "margin_check", "surrogate_gap_bound"),
    "robust": ("AttackConfig",),
}
# name -> home module; each of the modules above, and `config`, names itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in (*_EXPORTS, "config"))

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)

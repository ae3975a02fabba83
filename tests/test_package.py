"""The package namespace: `import duallearn` loads none of its modules, and
each public name loads its home module on first access."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import duallearn

from helpers import SRC, loaded_modules

# the package's public names
PUBLIC_NAMES = [
    "AttackConfig", "BoundsReport", "ConfigurationError", "ConstraintSpec", "Dataset",
    "DualEnumResult", "DualLearnError", "DualState", "EcrmResult", "EnumerableProblem",
    "Evaluation", "InnerSolverConfig", "InputError", "LinearArch", "LogisticArch", "LossSpec",
    "MarginReport", "MlpArch", "ModelState", "NumericError", "OptimizerState", "Problem",
    "ReferenceTerm", "SurrogateRequiredError", "TrainConfig",
    "TrainTrace", "bounds", "config", "constrained_argmin", "core", "dual_enumerate",
    "dual_function", "dual_update", "ecrm_enumerate", "empirical_lagrangian",
    "empirical_rademacher_stats", "empirical_risk", "errors", "example1_population_objective",
    "example1_problem", "example1_sample", "example1_trial", "example1_trials", "gap_report",
    "grad_params", "init_model", "lagrangian", "load_model", "load_trace", "margin_check",
    "mixture_risks", "models", "multiplier_bound", "optimizer_step", "oracle", "primaldual",
    "randomized_solution", "rate", "recommend_hyperparams", "robust", "save_model",
    "save_trace", "slacks", "surrogate_gap_bound", "train", "zeta_rademacher", "zeta_vc",
]


def test_importing_the_package_loads_no_module_of_it():
    assert loaded_modules() == ["duallearn"]


def test_every_public_name_is_the_object_of_its_home_module():
    assert len(PUBLIC_NAMES) == 67
    assert duallearn.__all__ == PUBLIC_NAMES
    assert dir(duallearn) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(duallearn, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"duallearn.{name}"), name
        else:
            assert value.__module__.startswith("duallearn."), name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_a_module_resolves_after_a_bare_import():
    script = ("import sys, duallearn\n"
              "print(duallearn.oracle is sys.modules['duallearn.oracle'])")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'duallearn' has no attribute 'bogus'"):
        duallearn.bogus
    with pytest.raises(ImportError, match="bogus"):
        from duallearn import bogus  # noqa: F401

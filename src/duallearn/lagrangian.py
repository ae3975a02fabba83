"""Empirical Lagrangian, constraint slacks, and the dual function.

The dual function value at a multiplier vector is the (approximate) minimum
of the empirical Lagrangian over model parameters. Two inner minimizers are
provided: exact enumeration over a finite candidate list (ties break to the
lowest index) and seeded minibatch gradient descent that reports the best
Lagrangian value it ever visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSpec, Dataset, Problem, empirical_risk
from .errors import ConfigurationError, InputError
from .models import ModelState, OptimizerState, grad_params, optimizer_step


@dataclass(frozen=True)
class DualState:
    """Nonnegative multiplier vector, one entry per constraint."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InputError(f"mu must be a vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise InputError("mu entries must be finite")
        if np.any(mu < 0.0):
            raise InputError("mu entries must be nonnegative")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    @classmethod
    def zeros(cls, m: int) -> DualState:
        return cls(np.zeros(m))

    def __len__(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class InnerSolverConfig:
    """How to (approximately) minimize the Lagrangian over parameters.

    `gradient` runs `epochs` passes of minibatch descent and keeps the best
    fully-evaluated iterate (not certified optimal, since the landscape may
    be non-convex); with `warm_start` each dual iteration resumes from the
    previous minimizer, so `epochs=1` alternates one primal epoch with one
    dual step. `enumeration` scans an explicit candidate list exactly.
    """

    method: str
    epochs: int = 1
    batch_size: int | None = None
    optimizer: str = "adam"
    step_size: float = 1e-2
    candidates: tuple[ModelState, ...] | None = None
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.method not in ("gradient", "enumeration"):
            raise ConfigurationError(f"unknown inner solver method {self.method!r}")
        if self.method == "gradient":
            if self.epochs < 1:
                raise ConfigurationError("gradient inner solver needs epochs >= 1")
            if self.batch_size is not None and self.batch_size < 1:
                raise ConfigurationError("batch_size must be >= 1 when given")
            if self.optimizer not in ("sgd", "adam"):
                raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
            if self.step_size <= 0:
                raise ConfigurationError("step_size must be positive")
        else:
            if not self.candidates:
                raise ConfigurationError("enumeration inner solver needs a nonempty candidate list")
            object.__setattr__(self, "candidates", tuple(self.candidates))


def constraint_risk(model: ModelState, constraint: ConstraintSpec) -> float:
    """Empirical constraint risk, minus the reference risk when one is attached."""
    risk = empirical_risk(model, constraint.loss, constraint.dataset)
    if constraint.reference is not None:
        risk -= empirical_risk(model, constraint.reference.loss, constraint.reference.dataset)
    return risk


def slacks(model: ModelState, problem: Problem) -> np.ndarray:
    """Constraint slack vector s_i = constraint risk - threshold; may be negative."""
    return np.asarray(
        [constraint_risk(model, c) - c.threshold_c for c in problem.constraints]
    )


def empirical_lagrangian(model: ModelState, dual: DualState, problem: Problem) -> float:
    """Objective empirical risk plus multiplier-weighted slacks."""
    if len(dual) != problem.m:
        raise InputError(
            f"dual vector has {len(dual)} entries for a problem with {problem.m} constraints"
        )
    obj = empirical_risk(model, problem.objective_loss, problem.objective_dataset)
    if problem.m == 0:
        return obj
    return obj + float(dual.mu @ slacks(model, problem))


def enumeration_stats(problem: Problem, candidates: tuple[ModelState, ...]):
    """Per-candidate (objective risk, slack vector) pairs.

    The Lagrangian of candidate j at any mu is then R[j] + S[j] . mu, which
    makes repeated dual-function evaluations over a mu grid cheap. Model-
    dependent providers are realised against each candidate here; that
    realisation is deterministic (attack restarts are seeded per sample), so
    the tables stay valid for every mu and every iteration.
    """
    R = np.empty(len(candidates))
    S = np.empty((len(candidates), problem.m))
    for j, cand in enumerate(candidates):
        R[j] = empirical_risk(cand, problem.objective_loss, problem.objective_dataset)
        S[j] = slacks(cand, problem)
    return R, S


def _gradient_terms(model: ModelState, dual: DualState, problem: Problem,
                    obj_batch: Dataset, batch_size: int | None,
                    rng: np.random.Generator):
    terms = [(1.0, problem.objective_loss, obj_batch)]
    for i, c in enumerate(problem.constraints):
        w = float(dual.mu[i])
        if w == 0.0:
            continue
        n_i = len(c.dataset)
        if batch_size is None or n_i <= batch_size:
            idx = np.arange(n_i)
        else:
            idx = rng.choice(n_i, size=batch_size, replace=False)
        terms.append((w, c.loss, c.dataset.realize(model, idx)))
        if c.reference is not None:
            ref_ds = c.reference.dataset
            n_r = len(ref_ds)
            if batch_size is None or n_r <= batch_size:
                ridx = np.arange(n_r)
            else:
                ridx = rng.choice(n_r, size=batch_size, replace=False)
            terms.append((-w, c.reference.loss, ref_ds.realize(model, ridx)))
    return terms


def _gradient_minimize(dual: DualState, problem: Problem, solver: InnerSolverConfig,
                       init: ModelState, rng: np.random.Generator):
    n0 = len(problem.objective_dataset)
    bs = solver.batch_size
    opt = OptimizerState(method=solver.optimizer, step_size=solver.step_size)
    model = init
    best_val = empirical_lagrangian(init, dual, problem)
    best_model = init
    for _ in range(solver.epochs):
        order = rng.permutation(n0) if (bs is not None and bs < n0) else np.arange(n0)
        step = bs if bs is not None else n0
        for start in range(0, n0, step):
            idx = order[start : start + step]
            obj_batch = problem.objective_dataset.realize(model, idx)
            terms = _gradient_terms(model, dual, problem, obj_batch, bs, rng)
            g = grad_params(model, terms)
            opt, model = optimizer_step(opt, model, g)
        val = empirical_lagrangian(model, dual, problem)
        if val < best_val:
            best_val, best_model = val, model
    return best_val, best_model


def dual_function(dual: DualState, problem: Problem, solver: InnerSolverConfig,
                  init: ModelState, seed: int = 0,
                  rng: np.random.Generator | None = None):
    """Approximately minimize the Lagrangian at fixed multipliers.

    Returns (value, minimizer) with value = empirical_lagrangian(minimizer).
    Enumeration returns the exact argmin over candidates (lowest index on
    ties); the gradient solver returns the best iterate it evaluated.
    """
    if len(dual) != problem.m:
        raise InputError(
            f"dual vector has {len(dual)} entries for a problem with {problem.m} constraints"
        )
    if solver.method == "enumeration":
        R, S = enumeration_stats(problem, solver.candidates)
        values = R + S @ dual.mu if problem.m else R
        j = int(np.argmin(values))
        return float(values[j]), solver.candidates[j]
    if rng is None:
        rng = np.random.default_rng(seed)
    return _gradient_minimize(dual, problem, solver, init, rng)

"""Empirical Lagrangian, constraint slacks, and the dual function.

The dual function value at a multiplier vector is the approximate minimum
of the empirical Lagrangian over model parameters, found by the one inner
solver, seeded minibatch ADAM on the problem's `surrogate`, which returns
its best iterate by surrogate Lagrangian. Over a finite candidate list the
exact dual function is the minimum of affine functions of mu, one per row
of `enumeration_stats`, so its maximum over mu >= 0 is a linear program,
which `oracle.dual_enumerate` solves exactly.

The Lagrangian is a weighted sum of sample averages over views of a few
tables, one per `Problem.terms` entry (the objective, then each constraint
followed by its reference, weighted 1, mu_i and -mu_i by `Problem.weights`),
so every function here takes a model or its `Evaluation` (one forward pass
per table, see `duallearn.models`) and reads each term's risk and loss
gradient from it. Only a scored iterate is an evaluation (the gradient
solver's minibatch iterates between scored ones are parameter vectors), and
the solver returns the evaluation of its best one, so a caller that resumes
from it does not evaluate it again.

Each problem's per-term risks and slack vector, and each term's parameter
gradient, are memoised on the evaluation. Multipliers only weight them, so
an iterate kept across dual steps (a warm start whose step raised the
Lagrangian) is not backpropagated again, and a memo hit has the bits of
computing afresh: obj + mu . slacks from the same (obj, slacks), and the
same per-term gradients summed in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Problem, loss_pred_grads
from .errors import ConfigurationError, InputError
from .models import Evaluation, ModelState, OptimizerState, _forward, _risk_grad, optimizer_step


@dataclass(frozen=True)
class DualState:
    """Nonnegative multiplier vector, one entry per constraint."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InputError(f"mu must be a vector, got shape {mu.shape}")
        if not np.isfinite(mu).all():
            raise InputError("mu entries must be finite")
        if (mu < 0.0).any():
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
    """How to approximately minimize the Lagrangian over parameters.

    `epochs` passes of minibatch ADAM (`batch_size` rows a step, all of them
    when None, at `step_size`) keep the best scored iterate (the start or an
    epoch's last), which is not certified optimal since the landscape may be
    non-convex. In training each dual iteration resumes from the previous
    minimizer, so `epochs=1` alternates one primal epoch with one dual step.
    """

    epochs: int = 1
    batch_size: int | None = None
    step_size: float = 1e-2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("gradient inner solver needs epochs >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 when given")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigurationError(f"step_size must be positive and finite, got {self.step_size}")


def slacks(at: ModelState | Evaluation, problem: Problem) -> np.ndarray:
    """Constraint slack vector s_i = constraint risk - threshold; may be
    negative. Read-only: it is the evaluation's memoised vector."""
    return Evaluation.of(at).stats(problem)[1]


def empirical_lagrangian(at: ModelState | Evaluation, dual: DualState, problem: Problem) -> float:
    """Objective empirical risk plus multiplier-weighted slacks."""
    if len(dual) != problem.m:
        raise InputError(
            f"dual vector has {len(dual)} entries for a problem with {problem.m} constraints"
        )
    risks, s = Evaluation.of(at).stats(problem)
    return risks[0] + float(dual.mu @ s)


def enumeration_stats(problem: Problem, candidates):
    """Per-candidate (objective risk, slack vector) pairs.

    Candidates are models or their evaluations. The Lagrangian of candidate
    j at any mu is then R[j] + S[j] . mu, so the dual function at any mu is
    one matrix product away. Attacked sets are realised against each
    candidate here; that realisation is deterministic (attack
    restarts are seeded per sample), so the tables stay valid for every mu.
    """
    R = np.empty(len(candidates))
    S = np.empty((len(candidates), problem.m))
    for j, cand in enumerate(candidates):
        risks, S[j] = Evaluation.of(cand).stats(problem)
        R[j] = risks[0]
    return R, S


def _live_terms(problem: Problem, dual: DualState, batch_size: int | None):
    """(weight, loss, set, rows to draw from) per term whose weight at `dual`
    is nonzero, in term order: a zero multiplier skips its constraint and its
    reference. A set of more than `batch_size` rows (other than the
    objective's, whose rows the epoch's permutation cuts) draws `batch_size`
    of them per step; the row count is None for a set used whole."""
    live = []
    for k, (w, (loss, dataset)) in enumerate(zip(problem.weights(dual.mu), problem.terms)):
        if w != 0.0:
            n = len(dataset)
            live.append((w, loss, dataset,
                         None if k == 0 or batch_size is None or n <= batch_size else n))
    return live


def _step_rows(live, obj_rows: np.ndarray | None, batch_size: int | None,
               rng: np.random.Generator) -> list:
    """The rows each live term reads at a step: the objective's `obj_rows`,
    every other's drawn from `rng` in term order, None for a set used whole."""
    return [obj_rows if k == 0 else
            None if n is None else rng.choice(n, size=batch_size, replace=False)
            for k, (_, _, _, n) in enumerate(live)]


def _step_gradient(model: ModelState, live, rows, ev: Evaluation | None = None) -> np.ndarray:
    """A step's gradient at `model` over the live terms, summed in term order,
    each from its batch's (features, labels, predictions) arrays. `ev` is the
    scored evaluation of `model` at an epoch's first step, whose realised
    sets and predictions the batches are cut from (a set used whole reads
    its memoised gradient); at a later step each batch's rows are forwarded,
    or attacked, at `model`."""
    total = np.zeros(model.arch.n_params)
    for (w, loss, d, _), r in zip(live, rows):
        if ev is not None and r is None:
            total += w * ev.param_grad(loss, d)
            continue
        if ev is not None:
            ds, P = ev.realize(d), ev.predictions(d).take(r, axis=0)
            X, y = ds.features.take(r, axis=0), ds.labels.take(r)
        elif isinstance(d, Dataset):
            X, y = (d.features, d.labels) if r is None else (d.features.take(r, axis=0),
                                                             d.labels.take(r))
            P = _forward(model, X)
        else:
            X, y, P = d.attacked_rows(model, r)
        total += w * _risk_grad(model, X, loss_pred_grads(loss, P, y), P)
    return total


def gradient_minimize(dual: DualState, problem: Problem, solver: InnerSolverConfig,
                      start: Evaluation, rng: np.random.Generator | None):
    """The gradient inner solver from the evaluated start point `start`.

    Minibatches are drawn from `rng`, which only a solver with a
    `batch_size` reads (it may be None for a full-batch one).

    Returns the evaluation of the iterate of `problem.surrogate` with the
    lowest empirical_lagrangian(evaluation, dual, problem.surrogate) among
    those scored: the start and each epoch's last iterate. Only these are
    evaluated; the iterates between are parameter vectors.

    The multipliers are fixed for the call, so the term weights, the terms
    they keep and the row count each kept term draws from are laid out once
    (`_live_terms`). A step draws only its rows (the objective's cut from
    the epoch's permutation, then every other kept set's from `rng` in term
    order) and takes one `optimizer_step` on the gradient its batches' arrays
    give (`_step_gradient`). An epoch's first step is taken at the scored
    iterate, so a set used whole reads that evaluation's memoised gradient:
    a full-batch step is the scored iterate's per-term gradients summed.
    """
    problem = problem.surrogate
    n0 = len(problem.objective_dataset)
    bs = solver.batch_size
    whole = bs is None or bs >= n0
    live = _live_terms(problem, dual, bs)
    opt = OptimizerState(step_size=solver.step_size)
    at = best = start
    best_val = empirical_lagrangian(start, dual, problem)
    for _ in range(solver.epochs):
        order = None if whole else rng.permutation(n0)
        model = at.model
        for lo in range(0, n0, n0 if whole else bs):
            rows = _step_rows(live, None if whole else order[lo : lo + bs], bs, rng)
            g = _step_gradient(model, live, rows, None if lo else at)
            opt, model = optimizer_step(opt, model, g)
        at = Evaluation(model)
        val = empirical_lagrangian(at, dual, problem)
        if val < best_val:
            best_val, best = val, at
    return best


def dual_function(dual: DualState, problem: Problem, solver: InnerSolverConfig,
                  init: ModelState, rng: np.random.Generator | None = None):
    """Approximately minimize the Lagrangian at fixed multipliers.

    Returns (value, minimizer): the best iterate of `problem.surrogate` that
    the gradient solver finds from `init`, drawing from `rng`
    (default_rng(0) when None), and value = empirical_lagrangian(minimizer,
    dual, problem).
    """
    if len(dual) != problem.m:
        raise InputError(
            f"dual vector has {len(dual)} entries for a problem with {problem.m} constraints"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    ev = gradient_minimize(dual, problem, solver, Evaluation(init), rng)
    return empirical_lagrangian(ev, dual, problem), ev.model

"""Brute-force ground truth for small instances.

Two facilities: exact enumeration solvers (constrained argmin over a finite
candidate list, and a mu-grid maximization of the exact dual function) used
to verify weak duality and measure duality gaps, and the canonical
pathological instance -- a two-point parameter set with linear expectation
constraints whose sample-average version almost surely excludes the
population optimum, selecting a parameter with twice the population
objective. Its closed forms make it a sharp oracle for the rest of the
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSpec, Dataset, LossSpec, Problem
from .errors import ConfigurationError, InputError
from .lagrangian import enumeration_stats
from .models import LinearArch, ModelState


def example1_sample(N: int, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """N coupled draws of the pathological instance, as three datasets.

    A fresh tau ~ U[-1/2, 1/2] and alpha ~ U[0, 1/4] are drawn per sample
    index, and the same tau appears in all three datasets at that index: the
    nominal sample is ([tau, -tau], -1) or ([0, alpha], +1) with equal
    probability, and the two constraint samples are ([-1, tau], +1) and
    ([-tau, 1], +1).
    """
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    rng = np.random.default_rng(seed)
    tau = rng.uniform(-0.5, 0.5, size=N)
    alpha = rng.uniform(0.0, 0.25, size=N)
    heads = rng.integers(0, 2, size=N).astype(bool)

    X0 = np.where(heads[:, None],
                  np.stack([np.zeros(N), alpha], axis=1),
                  np.stack([tau, -tau], axis=1))
    y0 = np.where(heads, 1, -1)
    X1 = np.stack([-np.ones(N), tau], axis=1)
    X2 = np.stack([-tau, np.ones(N)], axis=1)
    ones = np.ones(N, dtype=np.int64)
    return (
        Dataset(features=X0, labels=y0, name="example1-nominal"),
        Dataset(features=X1, labels=ones, name="example1-constraint-lo"),
        Dataset(features=X2, labels=ones, name="example1-constraint-hi"),
    )


def example1_population_objective(theta) -> float:
    """Closed-form population objective |t1 - t2| / 8 + |t2| / 16.

    Exactly 1/16 at [1, 1] and 1/8 at [1, 0]: the two-point instance where
    sample-average constraint selection almost surely doubles the objective.
    """
    t = np.asarray(theta, dtype=float)
    if t.shape != (2,):
        raise InputError(f"theta must be a pair, got shape {t.shape}")
    return abs(t[0] - t[1]) / 8.0 + abs(t[1]) / 16.0


_EX1_ARCH = LinearArch(in_dim=2, out_dim=1, bias=False)
_EX1_BOUND = 4.0  # comfortably above any achievable |score| for unit-box candidates


def example1_problem(N: int, seed: int,
                     candidates=((1.0, 1.0), (1.0, 0.0))) -> "EnumerableProblem":
    """The pathological instance over a drawn sample set, ready to enumerate."""
    d0, d1, d2 = example1_sample(N, seed)
    abs_loss = LossSpec(kind="absolute", bound_B=_EX1_BOUND)
    score = LossSpec(kind="signed-score", bound_B=_EX1_BOUND)
    problem = Problem(
        objective_loss=abs_loss,
        objective_dataset=d0,
        constraints=(
            ConstraintSpec(loss=score, threshold_c=-1.0, dataset=d1, name="score-lo"),
            ConstraintSpec(loss=score, threshold_c=1.0, dataset=d2, name="score-hi"),
        ),
        name=f"example1-N{N}-seed{seed}",
    )
    models = tuple(ModelState(np.asarray(c, dtype=float), _EX1_ARCH) for c in candidates)
    return EnumerableProblem(problem=problem, candidates=models)


@dataclass(frozen=True)
class EnumerableProblem:
    """A problem restricted to an explicit finite candidate list, with an
    optional uniform relaxation of every constraint threshold."""

    problem: Problem
    candidates: tuple[ModelState, ...]
    xi_relax: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(self.candidates) == 0:
            raise ConfigurationError("candidate list must be nonempty")
        if self.xi_relax < 0:
            raise ConfigurationError("xi_relax must be >= 0")


@dataclass(frozen=True)
class EcrmResult:
    """Constrained empirical argmin over the candidates, or the infeasible marker."""

    feasible: bool
    value: float
    index: int | None = None
    theta: ModelState | None = None


def ecrm_enumerate(ep: EnumerableProblem) -> EcrmResult:
    """Among candidates with every empirical constraint risk <= c_i + xi_relax,
    return the one with minimal empirical objective (lowest index on ties).
    Infeasibility is a value, not an error: value becomes +inf."""
    R, S = enumeration_stats(ep.problem, ep.candidates)
    feasible = np.all(S <= ep.xi_relax, axis=1) if ep.problem.m else np.ones(len(R), bool)
    if not feasible.any():
        return EcrmResult(feasible=False, value=math.inf)
    masked = np.where(feasible, R, math.inf)
    j = int(np.argmin(masked))
    return EcrmResult(feasible=True, value=float(R[j]), index=j, theta=ep.candidates[j])


@dataclass(frozen=True)
class MuGrid:
    """Axis-aligned multiplier grid [0, mu_max]^m with `points` per axis."""

    mu_max: float
    points: int = 200

    def __post_init__(self) -> None:
        if self.mu_max <= 0:
            raise ConfigurationError("mu_max must be positive")
        if self.points < 2:
            raise ConfigurationError("grid needs at least 2 points per axis")

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, self.mu_max, self.points)


def default_mu_grid(B: float, xi: float | None = None) -> MuGrid:
    """[0, 2 B / xi] when the feasibility margin is known (the optimum is
    capped at B / xi), else the generic [0, 50]."""
    if xi is not None:
        return MuGrid(mu_max=2.0 * B / xi)
    return MuGrid(mu_max=50.0)


@dataclass(frozen=True)
class DualEnumResult:
    """Grid maximizer of the exact enumeration dual function.

    boundary_hit flags a maximum attained on the outer grid face, i.e. the
    grid was too coarse or too small to bracket the optimum.
    """

    d_hat: float
    mu_star: np.ndarray
    theta_index: int
    theta: ModelState
    boundary_hit: bool


def dual_enumerate(ep: EnumerableProblem, mu_grid: MuGrid) -> DualEnumResult:
    """Maximize the exact dual function over the multiplier grid.

    The dual value at mu is min_j (R_j + mu . S_j) over candidates, so the
    whole grid is evaluated with one matrix product per chunk.
    """
    if ep.problem.m == 0:
        R, _ = enumeration_stats(ep.problem, ep.candidates)
        j = int(np.argmin(R))
        return DualEnumResult(d_hat=float(R[j]), mu_star=np.zeros(0),
                              theta_index=j, theta=ep.candidates[j], boundary_hit=False)
    R, S = enumeration_stats(ep.problem, ep.candidates)
    axis = mu_grid.axis()
    m = ep.problem.m
    total = mu_grid.points ** m
    best_val = -math.inf
    best_mu: np.ndarray | None = None
    best_j = 0
    chunk_rows = 200_000
    for start in range(0, total, chunk_rows):
        flat = np.arange(start, min(start + chunk_rows, total))
        coords = np.unravel_index(flat, (mu_grid.points,) * m)
        G = axis[np.stack(coords, axis=1)]
        vals = R[None, :] + G @ S.T
        mins = vals.min(axis=1)
        i = int(np.argmax(mins))
        if mins[i] > best_val:
            best_val = float(mins[i])
            best_mu = G[i].copy()
            best_j = int(np.argmin(vals[i]))
    boundary = bool(np.any(np.isclose(best_mu, mu_grid.mu_max)))
    return DualEnumResult(d_hat=best_val, mu_star=best_mu, theta_index=best_j,
                          theta=ep.candidates[best_j], boundary_hit=boundary)


def example1_trial(N: int, seed: int) -> dict:
    """One pathology trial: draw, enumerate, and score the selected parameter.

    The emitted record carries the empirical mean of tau, the selected
    parameter pair, and its population objective.
    """
    ep = example1_problem(N, seed)
    result = ecrm_enumerate(ep)
    tau_bar = float(ep.problem.constraints[0].dataset.features[:, 1].sum()) / N
    theta = None if result.theta is None else [float(v) for v in result.theta.params]
    return {
        "seed": seed,
        "N": N,
        "tau_bar": tau_bar,
        "feasible": result.feasible,
        "theta_hat": theta,
        "population_J": (None if theta is None
                         else example1_population_objective(theta)),
    }

"""Brute-force ground truth for small instances.

Two facilities: exact enumeration solvers (constrained argmin over a finite
candidate list, and the exact dual function maximised as a linear program
over mixtures of the candidates) used to verify weak duality and measure
duality gaps, and the canonical pathological instance -- a two-point
parameter set with linear expectation constraints whose sample-average
version almost surely excludes the population optimum, selecting a
parameter with twice the population objective. Its closed forms make it a
sharp oracle for the rest of the library.

Monte-Carlo trials of that instance run in blocks of about 8,192 rows per
table. Trial `seed` of N samples is row block `seed` of 3N doubles in one
PCG64 stream per N, so a run of consecutive trials is one jump ahead and
one draw, and different N draw from independent streams. Each trial fills
its own row block of three shared tables, and each candidate is forwarded
once per table. A trial's risk is then the sum of its N loss values, read
as one row of a C-ordered (T, N) array, divided by N. Every prediction and
loss value depends on its own row alone, and numpy reduces each such row as
it reduces a length-N vector, so a trial's risks, slacks and record have
the bits of enumerating it on its own.

The blocks of one N share one workspace, sized to one block: the draw
buffer, the three feature tables, the label vectors and three (T, N)
helpers. It is allocated with the N's first block, refilled in place by
each block, and freed when the N's last block is done. Allocating and
freeing about 1 MB per block instead made every block fault its pages in
again, as glibc returns a freed heap top larger than 128 KiB to the
kernel. The records hold Python values only, never a view of it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSpec, Dataset, LossSpec, Problem, loss_values
from .errors import ConfigurationError, InputError, NumericError
from .models import LinearArch, ModelState, predict_batch


def _example1_draws(N: int, seed: int, out: np.ndarray) -> None:
    """Fill `out`, a C-ordered (T, 3, N) float array, with the draws u of
    trials seed, ..., seed + T - 1.

    Trial s is row block s of 3N doubles u in the stream of
    SeedSequence(0, spawn_key=(N,)): tau = u[0] - 1/2, alpha = u[1] / 4 and
    heads = u[2] < 1/2, so one jump ahead reaches the first trial of a run.
    """
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    bits = np.random.PCG64(np.random.SeedSequence(0, spawn_key=(N,)))
    bits.advance(3 * N * seed)
    np.random.Generator(bits).random(out=out)


class _Example1Workspace:
    """The buffers of blocks of up to T trials of N samples, allocated once
    and refilled by each block: the draws u (T, 3, N), alpha (T, N), heads
    (T, N), a scratch column (T, N), the three feature tables (T N, 2) and
    the nominal and constant label vectors (T N,). A block of t trials
    fills their first t trials, in C order, and wraps views of them in
    checked datasets (see the module docstring for why they are reused).
    """

    def __init__(self, N: int, T: int):
        if N < 1:
            raise InputError(f"N must be >= 1, got {N}")
        self.N = N
        self.u = np.empty((T, 3, N))
        self.alpha, self.col = np.empty((2, T, N))
        self.heads = np.empty((T, N), dtype=bool)
        self.X0, self.X1, self.X2 = (np.empty((T * N, 2)) for _ in range(3))
        self.X1[:, 0], self.X2[:, 1] = -1.0, 1.0
        self.y0 = np.empty(T * N, dtype=np.int64)
        self.ones = np.ones(T * N, dtype=np.int64)

    def fill(self, seeds: list[int]) -> tuple[tuple[Dataset, Dataset, Dataset], np.ndarray]:
        """The three datasets of trials `seeds`, one row per draw in C order,
        and each trial's mean of tau. Each maximal run of consecutive seeds is
        drawn with one call."""
        T, N = len(seeds), self.N
        u, alpha, heads, col = self.u[:T], self.alpha[:T], self.heads[:T], self.col[:T]
        cuts = [t for t in range(1, T) if seeds[t] != seeds[t - 1] + 1]
        for a, b in zip([0, *cuts], [*cuts, T]):
            _example1_draws(N, seeds[a], u[a:b])
        np.multiply(u[:, 1], 0.25, out=alpha)
        np.less(u[:, 2], 0.5, out=heads)
        # (T, N) views of the tables' columns
        X0, X1, X2 = (X[:T * N].reshape(T, N, 2) for X in (self.X0, self.X1, self.X2))
        tau = np.subtract(u[:, 0], 0.5, out=col)
        tau_bar = tau.sum(axis=1) / N
        np.copyto(X1[..., 1], tau)
        np.negative(tau, out=X2[..., 0])
        # the nominal columns where(heads, 0, tau) and where(heads, alpha, -tau),
        # selected in the contiguous `col`: numpy masks a strided column slowly
        np.putmask(col, heads, 0.0)
        np.copyto(X0[..., 0], col)
        np.copyto(col, X2[..., 0])
        np.putmask(col, heads, alpha)
        np.copyto(X0[..., 1], col)
        y0 = self.y0[:T * N]
        np.multiply(heads.reshape(-1), 2, out=y0)  # where(heads, 1, -1)
        np.subtract(y0, 1, out=y0)
        tables = (
            Dataset(features=self.X0[:T * N], labels=y0, name="example1-nominal"),
            Dataset(features=self.X1[:T * N], labels=self.ones[:T * N],
                    name="example1-constraint-lo"),
            Dataset(features=self.X2[:T * N], labels=self.ones[:T * N],
                    name="example1-constraint-hi"),
        )
        return tables, tau_bar


def example1_sample(N: int, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """N coupled draws of the pathological instance, as three datasets.

    A fresh tau ~ U[-1/2, 1/2] and alpha ~ U[0, 1/4] are drawn per sample
    index, and the same tau appears in all three datasets at that index: the
    nominal sample is ([tau, -tau], -1) or ([0, alpha], +1) with equal
    probability, and the two constraint samples are ([-1, tau], +1) and
    ([-tau, 1], +1). `seed` is the trial's id in the draw stream of its N
    (see `_example1_draws`), so every N draws independently.
    """
    return _Example1Workspace(N, 1).fill([seed])[0]


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
_EX1_ABS = LossSpec(kind="absolute", bound_B=_EX1_BOUND)
_EX1_SCORE = LossSpec(kind="signed-score", bound_B=_EX1_BOUND)
_EX1_CANDIDATES = tuple(ModelState(np.asarray(c, dtype=float), _EX1_ARCH)
                        for c in ((1.0, 1.0), (1.0, 0.0)))


def _example1_instance(tables, name: str) -> Problem:
    d0, d1, d2 = tables
    return Problem(
        objective_loss=_EX1_ABS,
        objective_dataset=d0,
        constraints=(
            ConstraintSpec(loss=_EX1_SCORE, threshold_c=-1.0, dataset=d1, name="score-lo"),
            ConstraintSpec(loss=_EX1_SCORE, threshold_c=1.0, dataset=d2, name="score-hi"),
        ),
        name=name,
    )


def example1_problem(N: int, seed: int, candidates=_EX1_CANDIDATES) -> "EnumerableProblem":
    """The pathological instance over a drawn sample set, ready to enumerate."""
    problem = _example1_instance(example1_sample(N, seed), f"example1-N{N}-seed{seed}")
    return EnumerableProblem(problem=problem, candidates=candidates)


@dataclass(frozen=True)
class EnumerableProblem:
    """A problem restricted to an explicit finite candidate list."""

    problem: Problem
    candidates: tuple[ModelState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(self.candidates) == 0:
            raise ConfigurationError("candidate list must be nonempty")


@dataclass(frozen=True)
class EcrmResult:
    """Constrained empirical argmin over the candidates, or the infeasible marker."""

    feasible: bool
    value: float
    index: int | None = None
    theta: ModelState | None = None


def constrained_argmin(R: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule of `ecrm_enumerate`, over trailing axes.

    R (..., J) holds the objective risks of J candidates and S (..., J, m)
    their slack vectors. A candidate is feasible when every slack is <= 0.
    Returns (index, value): the argmin of R over the feasible candidates
    (lowest index on ties) and its R, or index 0 and value +inf where no
    candidate is feasible.
    """
    feasible = np.all(S <= 0.0, axis=-1)
    masked = np.where(feasible, R, math.inf)
    j = np.argmin(masked, axis=-1)
    return j, np.take_along_axis(masked, j[..., None], axis=-1)[..., 0]


def ecrm_enumerate(ep: EnumerableProblem) -> EcrmResult:
    """Among candidates with every empirical constraint risk <= c_i,
    return the one with minimal empirical objective (lowest index on ties).
    Infeasibility is a value, not an error: value becomes +inf."""
    from .lagrangian import enumeration_stats

    j, value = constrained_argmin(*enumeration_stats(ep.problem, ep.candidates))
    if value == math.inf:
        return EcrmResult(feasible=False, value=math.inf)
    return EcrmResult(feasible=True, value=float(value), index=int(j),
                      theta=ep.candidates[int(j)])


# HiGHS's primal feasibility tolerance for the dual LP: the weights of
# `dual_enumerate` satisfy every constraint to within it.
LP_FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class DualEnumResult:
    """The exact dual of an enumerable problem, or the infeasible marker.

    `d_hat` is the dual function at `mu_star`, and `weights` (one per
    candidate) is the best randomized solution. Where no mixture of the
    candidates satisfies the constraints, the dual is unbounded: d_hat is
    +inf and mu_star and weights are None.
    """

    d_hat: float
    mu_star: np.ndarray | None = None
    weights: np.ndarray | None = None


def dual_enumerate(ep: EnumerableProblem) -> DualEnumResult:
    """Solve the empirical dual of the candidates exactly, as the LP

        min p . R  subject to  S^T p <= 0,  p >= 0,  sum(p) = 1

    over mixtures p, with R (J,) the candidates' objective risks and S
    (J, m) their slack vectors. By LP duality its value is the maximum over
    mu >= 0 of min_j (R_j + mu . S_j).
    mu_star is the LP's multiplier of S^T p <= 0, and d_hat that minimum at
    mu_star, so d_hat never exceeds the ECRM value. The weights are the LP's
    vertex minimiser, which mixes at most m + 1 candidates. scipy is
    imported here only: it takes longer to import than a training run
    takes to set up.
    """
    from scipy.optimize import linprog

    from .lagrangian import enumeration_stats

    R, S = enumeration_stats(ep.problem, ep.candidates)
    res = linprog(R, A_ub=S.T, b_ub=np.zeros(ep.problem.m), A_eq=np.ones((1, len(R))),
                  b_eq=[1.0], bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": LP_FEASIBILITY_TOL})
    if res.status == 2:
        return DualEnumResult(d_hat=math.inf)
    if res.status != 0:
        raise NumericError(f"dual LP of {ep.problem.name!r} not solved: {res.message}")
    mu = np.maximum(-res.ineqlin.marginals, 0.0)
    return DualEnumResult(d_hat=float(np.min(R + S @ mu)), mu_star=mu,
                          weights=np.maximum(res.x, 0.0))


_BLOCK_ROWS = 8192  # rows per table in one block of example1 trials
# Each candidate's parameters and population objective, as a record holds them.
_EX1_SCORED = tuple((tuple(float(v) for v in c.params), example1_population_objective(c.params))
                    for c in _EX1_CANDIDATES)


def example1_block_trials(N: int) -> int:
    """How many example1 trials of N samples `example1_trials` runs as one block."""
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    return max(1, _BLOCK_ROWS // N)


def example1_blocks(N: int, seeds) -> Iterator[list[dict]]:
    """The records of one pathology trial per seed, in order, one list per
    block of `example1_block_trials(N)` seeds: draw, enumerate, and score
    the selected parameter. Each record carries the empirical mean of tau,
    the selected parameter pair (None when no candidate is feasible) and its
    population objective, and has the bits of the per-trial path
    `ecrm_enumerate(example1_problem(N, seed))` (see the module docstring).

    Seeds are read one block at a time, and every block is drawn into one
    workspace (see `_Example1Workspace`) sized to the first block, allocated
    before it and freed when the generator ends; the records hold no array
    of it.
    """
    size = example1_block_trials(N)
    seeds = iter(seeds)
    block = [int(s) for s in itertools.islice(seeds, size)]
    if block:
        work = _Example1Workspace(N, len(block))
    while block:
        yield _example1_block_records(work, block)
        block = [int(s) for s in itertools.islice(seeds, size)]


def example1_trials(N: int, seeds) -> list[dict]:
    """One pathology trial per seed, in order: the records of
    `example1_blocks(N, seeds)`, flattened. Their blocks share one
    workspace of at most one block (the draws, the three tables and the
    labels; see the module docstring), freed before this returns."""
    return [r for block in example1_blocks(N, seeds) for r in block]


def _example1_block_records(work: _Example1Workspace, seeds: list[int]) -> list[dict]:
    """The records of one block of trials, filled into `work`."""
    R, S, tau_bar = _example1_block_stats(work, seeds)
    index, value = constrained_argmin(R, S)
    # the block's risks and slacks are not held beside its records
    del R, S
    records = []
    for seed, mean, j, feasible in zip(seeds, tau_bar.tolist(), index.tolist(),
                                       (value != math.inf).tolist()):
        theta, J = _EX1_SCORED[j] if feasible else (None, None)
        records.append({"seed": seed, "N": work.N, "tau_bar": mean, "feasible": feasible,
                        "theta_hat": None if theta is None else list(theta),
                        "population_J": J})
    return records


def _example1_block_stats(work: _Example1Workspace, seeds: list[int]):
    """(R, S, tau_bar) of one block of trials, filled into `work`: R (T, J)
    holds each trial's objective risks at the J candidates, S (T, J, m) its
    slack vectors."""
    T, N = len(seeds), work.N
    tables, tau_bar = work.fill(seeds)
    problem = _example1_instance(tables, "example1-block")
    risks = np.empty((len(problem.terms), T, len(_EX1_CANDIDATES)))
    for j, model in enumerate(_EX1_CANDIDATES):
        for i, (loss, ds) in enumerate(problem.terms):
            values = loss_values(loss, predict_batch(model, ds.features), ds.labels)
            risks[i, :, j] = values.reshape(T, N).sum(axis=1) / N
    return risks[0], np.moveaxis(problem.slacks_of(risks), 0, -1), tau_bar


def example1_trial(N: int, seed: int) -> dict:
    """One pathology trial (see `example1_trials`)."""
    return example1_trials(N, [seed])[0]

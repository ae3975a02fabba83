"""Brute-force ground truth for small instances.

Two facilities: exact enumeration solvers (constrained argmin over a finite
candidate list, and the exact dual function maximised as a linear program
over mixtures of the candidates) used to verify weak duality and measure
duality gaps, and the canonical pathological instance -- a two-point
parameter set with linear expectation constraints whose sample-average
version almost surely excludes the population optimum, selecting a
parameter with twice the population objective. Its closed forms make it a
sharp oracle for the rest of the library.

Monte-Carlo trials of that instance run in blocks of `_EX1_BLOCK_TRIALS`
(512) trials at every sample size N. A block is the unit that pays the
fixed costs: one draw stream per run of consecutive seeds, one selection,
one rendering of its lines, one write, and one `--parallel-trials` job.
Its draws go through slabs of at most `_BLOCK_ROWS` (8,192) samples,
`max(1, 8192 // N)` trials, which bound its memory. Trial `seed` of N
samples is row block `seed` of 3N doubles in one PCG64 stream per N, so a
run of consecutive trials is one jump ahead, however many slabs it spans,
and different N draw from independent streams.

Every loss value of a trial is known exactly from its draws, so a block
reads its risks in closed form (see `_example1_block_stats`), without
feature tables or forward passes: each risk is the sum of one row of a
C-ordered (k, N) array of loss values in a slab, divided by N. numpy
reduces each such row as it reduces a length-N vector, and the division
is elementwise, so a trial's risks, slacks and record have the bits of
enumerating it on its own through `example1_problem` and
`ecrm_enumerate`, the library's evaluation path, which the tests compare
the blocks against, whatever the block and slab sizes.

A block is computed once, as two columns: each trial's tau_bar and its
outcome (candidate [1, 1], candidate [1, 0] or none feasible). It is
rendered two ways from them: as records (`example1_blocks`,
`example1_trials`) for the library and the tests, and as ``trials.jsonl``
lines (`example1_lines`, `example1_block_lines`) for the `example1`
command, which builds no record and runs no JSON encoder per trial. In
one process on a 2-vCPU virtual machine, the trials of
``example1 --n 10,100,1000 --trials 4000`` run as 24 blocks and split
into draws 30 ms, closed-form stats 42 ms, selection under 5 ms, line
rendering 9-12 ms and the write 2 ms, 87-90 ms in all.

A block allocates its slab (at most 8,192 samples of three uniforms, tau,
a scratch column and heads, about 330 KB) and its columns (about 45 KB)
on entry, reuses the slab for every slab of trials, and frees both before
its records or lines are built, so a run holds one or the other, never
both; the records and lines hold Python values only, at most 512 trials'
worth. Buffers kept across the blocks of an N would sit beside every
block's lines, and saved at most about 20 of that run's 5,300 minor page
faults.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSpec, Dataset, LossSpec, Problem
from .errors import ConfigurationError, InputError, NumericError
from .models import LinearArch, ModelState


def _example1_slabs(N: int, seeds: list[int], size: int) -> Iterator[tuple[int, np.ndarray]]:
    """The uniforms of trials `seeds`, drawn `size` trials at a time into one
    C-ordered (min(size, T), 3, N) buffer, which every slab reuses: yields
    (t, u), u[i] the (3, N) uniforms of trial seeds[t + i], each u valid
    until the next is drawn. Trial s is row block s of 3N doubles in the
    stream of SeedSequence(0, spawn_key=(N,)); each maximal run of
    consecutive seeds is one stream, jumped ahead once, whichever slabs it
    spans.
    """
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    T = len(seeds)
    runs = {t for t in range(T) if t == 0 or seeds[t] != seeds[t - 1] + 1}
    u = np.empty((min(size, T), 3, N))
    cuts = sorted(runs.union(range(0, T, size)))
    for a, b in zip(cuts, [*cuts[1:], T]):
        if a in runs:
            if seeds[a] < 0:
                raise InputError(f"seed must be >= 0, got {seeds[a]}")
            bits = np.random.PCG64(np.random.SeedSequence(0, spawn_key=(N,)))
            bits.advance(3 * N * seeds[a])
            draw = np.random.Generator(bits).random
        start = a - a % size
        draw(out=u[a - start:b - start])
        if b == T or b % size == 0:
            yield start, u[:b - start]


def _example1_draws(N: int, seeds: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, alpha, heads) of trials `seeds`, each a (T, N) array with row t
    for trial seeds[t]: tau = u[0] - 1/2, alpha = u[1] / 4 and
    heads = u[2] < 1/2 of the trial's uniforms (see `_example1_slabs`).
    """
    ((_, u),) = _example1_slabs(N, seeds, len(seeds))
    return u[:, 0] - 0.5, u[:, 1] * 0.25, u[:, 2] < 0.5


def example1_sample(N: int, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """N coupled draws of the pathological instance, as three datasets.

    A fresh tau ~ U[-1/2, 1/2] and alpha ~ U[0, 1/4] are drawn per sample
    index, and the same tau appears in all three datasets at that index: the
    nominal sample is ([tau, -tau], -1) or ([0, alpha], +1) with equal
    probability, and the two constraint samples are ([-1, tau], +1) and
    ([-tau, 1], +1). `seed` is the trial's id in the draw stream of its N
    (see `_example1_draws`), so every N draws independently.
    """
    tau, alpha, heads = (a[0] for a in _example1_draws(N, [seed]))
    ones = np.ones(N, dtype=np.int64)
    return (
        Dataset(features=np.column_stack([np.where(heads, 0.0, tau), np.where(heads, alpha, -tau)]),
                labels=np.where(heads, 1, -1), name="example1-nominal"),
        Dataset(features=np.column_stack([np.full(N, -1.0), tau]), labels=ones,
                name="example1-constraint-lo"),
        Dataset(features=np.column_stack([-tau, np.ones(N)]), labels=ones,
                name="example1-constraint-hi"),
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


_EX1_ARCH = LinearArch(in_dim=2, bias=False)
# Above the largest |score| of the candidates on the instance's rows, 1.5, so
# no loss is capped; `_example1_block_stats` reads the losses uncapped.
_EX1_BOUND = 4.0
_EX1_ABS = LossSpec(kind="absolute", bound_B=_EX1_BOUND)
_EX1_SCORE = LossSpec(kind="signed-score", bound_B=_EX1_BOUND)
_EX1_THRESHOLDS = (-1.0, 1.0)  # c of score-lo and score-hi
# `_example1_block_stats` computes the risks of exactly these two candidates.
_EX1_CANDIDATES = tuple(ModelState(np.asarray(c, dtype=float), _EX1_ARCH)
                        for c in ((1.0, 1.0), (1.0, 0.0)))


def example1_problem(N: int, seed: int, candidates=_EX1_CANDIDATES) -> "EnumerableProblem":
    """The pathological instance over a drawn sample set, ready to enumerate.

    With `ecrm_enumerate`, this is the library's evaluation path of one
    trial: the reference that the tests compare the closed-form block
    risks of `example1_blocks` against, bit for bit.
    """
    d0, d1, d2 = example1_sample(N, seed)
    lo, hi = _EX1_THRESHOLDS
    problem = Problem(
        objective_loss=_EX1_ABS,
        objective_dataset=d0,
        constraints=(
            ConstraintSpec(loss=_EX1_SCORE, threshold_c=lo, dataset=d1, name="score-lo"),
            ConstraintSpec(loss=_EX1_SCORE, threshold_c=hi, dataset=d2, name="score-hi"),
        ),
        name=f"example1-N{N}-seed{seed}",
    )
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


# example1 trials in one block, at every N; a run holds at most this many
# trials' lines. Blocks of 819 or 1,024 trials were no faster in one process,
# and more lines per block raise the peak memory.
_EX1_BLOCK_TRIALS = 512
_BLOCK_ROWS = 8192  # samples (trials times N) in one slab of a block's draws
# Each outcome of a trial as a record holds it: (feasible, theta_hat,
# population_J) of each candidate, then of no feasible candidate.
_EX1_OUTCOMES = (*((True, [float(v) for v in c.params],
                    float(example1_population_objective(c.params))) for c in _EX1_CANDIDATES),
                 (False, None, None))
_EX1_INFEASIBLE = len(_EX1_CANDIDATES)
_EX1_DOUBLED = 1  # candidate [1, 0]: population objective 1/8, twice that of [1, 1]
# Each outcome's feasible, population_J and theta_hat as JSON text; json
# writes a float as its repr.
_EX1_OUTCOME_JSON = tuple(
    ("true" if feasible else "false", "null" if J is None else repr(J),
     "null" if theta is None else f"[{', '.join(map(repr, theta))}]")
    for feasible, theta, J in _EX1_OUTCOMES)


def example1_block_trials(N: int) -> int:
    """How many example1 trials of N samples `example1_trials` runs as one
    block: `_EX1_BLOCK_TRIALS` at every N. A block is one selection, one
    rendering of its records or lines and one `--parallel-trials` job; its
    draws go through slabs of `_example1_slab_trials(N)` trials, at most
    `_BLOCK_ROWS` samples, one reused buffer for the whole block."""
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    return _EX1_BLOCK_TRIALS


def _example1_slab_trials(N: int) -> int:
    """How many example1 trials of N samples one slab of a block draws at
    most: as many as fit in `_BLOCK_ROWS` samples, and at least one."""
    return max(1, _BLOCK_ROWS // N)


def _example1_seed_blocks(N: int, seeds) -> Iterator[list[int]]:
    """`seeds` as ints, read one block of `example1_block_trials(N)` at a time."""
    size = example1_block_trials(N)
    seeds = iter(seeds)
    block = [int(s) for s in itertools.islice(seeds, size)]
    while block:
        yield block
        block = [int(s) for s in itertools.islice(seeds, size)]


def example1_blocks(N: int, seeds) -> Iterator[list[dict]]:
    """The records of one pathology trial per seed, in order, one list per
    block of `example1_block_trials(N)` seeds: draw, read the risks in closed
    form, select, and score the selected parameter. Each record carries the
    empirical mean of tau, the selected parameter pair (None when no
    candidate is feasible) and its population objective, and has the bits of
    the library's evaluation path `ecrm_enumerate(example1_problem(N, seed))`,
    the reference the tests compare it against (see the module docstring).

    Seeds are read one block at a time. A block's slab and columns are
    freed before its records are built, and the records hold no array.
    """
    for block in _example1_seed_blocks(N, seeds):
        yield _example1_block_records(N, block)


def example1_trials(N: int, seeds) -> list[dict]:
    """One pathology trial per seed, in order: the records of
    `example1_blocks(N, seeds)`, flattened, with the bits of the library's
    evaluation path `ecrm_enumerate(example1_problem(N, seed))`."""
    return [r for block in example1_blocks(N, seeds) for r in block]


def example1_lines(N: int, seeds) -> Iterator[tuple[int, list[str], int, int]]:
    """The trials of `example1_blocks(N, seeds)` as ``trials.jsonl`` lines:
    `example1_block_lines` of each block, in order."""
    for block in _example1_seed_blocks(N, seeds):
        yield example1_block_lines(N, block)


def example1_block_lines(N: int, seeds) -> tuple[int, list[str], int, int]:
    """One block of trials as (N, lines, doubled, infeasible): each trial's
    record as its ``trials.jsonl`` line, the bytes of
    ``json.dumps(record, sort_keys=True) + "\\n"``, then how many trials
    selected the parameter at twice the population optimum and how many
    had no feasible candidate.

    A trial has one of three outcomes, so its line is its outcome's head
    (N, feasible and population_J, in the keys' sorted order), its seed,
    the repr of its tau_bar, which is how json writes a float, and its
    outcome's theta_hat.
    """
    tau_bar, outcomes = _example1_block_outcomes(N, seeds)
    formats = [f'{{"N": {N}, "feasible": {feasible}, "population_J": {J}, '
               f'"seed": %d, "tau_bar": %r, "theta_hat": {theta}}}\n'
               for feasible, J, theta in _EX1_OUTCOME_JSON]
    lines = [formats[k] % (s, t) for s, t, k in zip(seeds, tau_bar, outcomes)]
    return N, lines, outcomes.count(_EX1_DOUBLED), outcomes.count(_EX1_INFEASIBLE)


def _example1_block_records(N: int, seeds: list[int]) -> list[dict]:
    """The records of one block of trials."""
    tau_bar, outcomes = _example1_block_outcomes(N, seeds)
    records = []
    for seed, mean, k in zip(seeds, tau_bar, outcomes):
        feasible, theta, J = _EX1_OUTCOMES[k]
        records.append({"seed": seed, "N": N, "tau_bar": mean, "feasible": feasible,
                        "theta_hat": None if theta is None else list(theta),
                        "population_J": J})
    return records


def _example1_block_outcomes(N: int, seeds: list[int]) -> tuple[list[float], list[int]]:
    """(tau_bar, outcome) of one block of trials, as Python lists: each
    trial's empirical mean of tau, and the index of its selected candidate,
    or `_EX1_INFEASIBLE` where no candidate is feasible. The block's draws,
    risks and slacks are freed on return."""
    R, S, tau_bar = _example1_block_stats(N, seeds)
    index, value = constrained_argmin(R, S)
    return tau_bar.tolist(), np.where(value == math.inf, _EX1_INFEASIBLE, index).tolist()


def _example1_block_stats(N: int, seeds: list[int]):
    """(R, S, tau_bar) of one block of trials: R (T, J) holds each trial's
    objective risks at the J candidates, S (T, J, m) its slack vectors,
    risk - c as `Problem.slacks_of` computes them.

    The risks are read in closed form from the draws. Every entry of the
    candidates [1, 1] and [1, 0] is 0 or 1, so each score is one rounding
    of a sum of exact products, whatever the order of the matrix product,
    and no |score| reaches `_EX1_BOUND`. On the rows ([tau, -tau], -1) or
    ([0, alpha], +1), ([-1, tau], +1) and ([-tau, 1], +1), candidate [1, 1]
    has the loss values where(heads, alpha, 0), tau - 1 and 1 - tau, and
    candidate [1, 0] where(heads, 0, |tau|), exactly -1 and -tau; the mean
    of -tau is -tau_bar, up to the sign of a zero, which the slack's - 1
    removes. Two means are exact transforms of others: alpha is u[1] / 4,
    and scaling by a power of two commutes with every rounding of the sum,
    and the sum of 1 - tau is exactly minus that of tau - 1, as rounding to
    nearest is symmetric and that sum is never 0.

    The trials are drawn through slabs of `_example1_slab_trials(N)` (see
    `_example1_slabs`). Each sum is of one row of a C-ordered (k, N) array
    in one of the slab's scratch arrays, as the per-trial path reduces it,
    and lands in a column of the block's (4, T) sums; the means are those
    columns scaled elementwise, which does not depend on the slabs.
    """
    T = len(seeds)
    sums = np.empty((4, T))  # tau, u[1] * heads, where(heads, 0, |tau|), tau - 1
    size = _example1_slab_trials(N)
    tau_s, col_s = np.empty((2, min(size, T), N))
    heads_s = np.empty((min(size, T), N), dtype=bool)
    for t, u in _example1_slabs(N, seeds, size):
        k = len(u)
        tau, col, heads = tau_s[:k], col_s[:k], heads_s[:k]
        np.subtract(u[:, 0], 0.5, out=tau)
        np.less(u[:, 2], 0.5, out=heads)
        tau.sum(axis=1, out=sums[0, t:t + k])
        np.multiply(u[:, 1], heads, out=col).sum(axis=1, out=sums[1, t:t + k])
        np.abs(tau, out=col)
        np.putmask(col, heads, 0.0)
        col.sum(axis=1, out=sums[2, t:t + k])
        np.subtract(tau, 1.0, out=col).sum(axis=1, out=sums[3, t:t + k])
    tau_bar = sums[0] / N
    R = np.empty((T, 2))
    R[:, 0] = sums[1] * 0.25 / N
    R[:, 1] = sums[2] / N
    S = np.empty((T, 2, 2))  # the constraint risks, then their slacks
    S[:, 0, 0] = sums[3] / N
    np.negative(S[:, 0, 0], out=S[:, 0, 1])
    S[:, 1, 0] = -1.0
    np.negative(tau_bar, out=S[:, 1, 1])
    np.subtract(S, _EX1_THRESHOLDS, out=S)
    return R, S, tau_bar


def example1_trial(N: int, seed: int) -> dict:
    """One pathology trial (see `example1_trials`)."""
    return example1_trials(N, [seed])[0]

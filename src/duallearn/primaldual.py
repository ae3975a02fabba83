"""Projected dual ascent over the empirical Lagrangian.

`train` runs the loop: per iteration it (approximately) minimizes the
Lagrangian at the current multipliers, evaluates constraint slacks at the
minimizer, and takes a projected ascent step on the multipliers, which start
at zero and stay nonnegative throughout. The inner solver's `epochs` and
`warm_start` choose between full inner solves and the alternating scheme of
one warm-started epoch per dual update. Each iterate is evaluated once (see
`duallearn.lagrangian`): the slacks and objective of the trace are read from
the evaluation the inner solver scored the iterate with, and a warm start
resumes from that evaluation. Traces record every iterate so that the
uniform mixture over them (the randomized solution) can be evaluated
afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Problem
from .errors import ConfigurationError, DualLearnError, InputError
from .lagrangian import DualState, InnerSolverConfig, enumeration_stats, gradient_minimize, slacks
from .models import (
    Arch,
    Evaluation,
    ModelState,
    OptimizerState,
    arch_from_dict,
    arch_to_dict,
    descent_step,
)

# Full per-iteration snapshots above this parameter count require an explicit
# snapshot_stride; strided traces cannot back a randomized solution.
SNAPSHOT_PARAM_LIMIT = 100_000


@dataclass(frozen=True)
class TrainConfig:
    """Iteration budget, dual step rule, and inner solver for one run.

    `dual_step_eta` is the step size of either dual method: the eta of
    projected ascent, or the ADAM step size of projected-adam.
    """

    iterations_T: int
    dual_step_eta: float
    inner: InnerSolverConfig
    dual_method: str = "projected-ascent"
    seed: int = 0
    snapshot_stride: int = 1

    def __post_init__(self) -> None:
        if self.iterations_T < 1:
            raise ConfigurationError("iterations_T must be >= 1")
        if not (math.isfinite(self.dual_step_eta) and self.dual_step_eta > 0):
            raise ConfigurationError("dual_step_eta must be positive")
        if self.dual_method not in ("projected-ascent", "projected-adam"):
            raise ConfigurationError(f"unknown dual method {self.dual_method!r}")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """State observed at one iteration, with mu taken before its update."""

    t: int
    theta: np.ndarray | None
    objective: float
    slacks: np.ndarray
    mu: np.ndarray
    lagrangian: float


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration records of a completed run plus the model architecture.

    Records at the iterations t with t % snapshot_stride == 0 carry their
    theta snapshot (all of them, or none for a run that kept none); every
    other record has theta None.
    """

    records: tuple[TraceRecord, ...]
    arch: Arch
    snapshot_stride: int = 1

    def __len__(self) -> int:
        return len(self.records)

    def mu_matrix(self) -> np.ndarray:
        return np.stack([r.mu for r in self.records])

    def slack_matrix(self) -> np.ndarray:
        return np.stack([r.slacks for r in self.records])

    def lagrangians(self) -> np.ndarray:
        return np.asarray([r.lagrangian for r in self.records])


@dataclass(frozen=True)
class RandomizedSolution:
    """Uniform mixture over the primal iterates of a trace."""

    models: tuple[ModelState, ...]

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise InputError("randomized solution needs a nonempty support")


def dual_update(dual: DualState, slack: np.ndarray, eta: float) -> DualState:
    """Projected ascent step mu_i <- max(0, mu_i + eta * s_i)."""
    s = np.asarray(slack, dtype=float)
    if s.shape != dual.mu.shape:
        raise InputError(f"slack shape {s.shape} does not match mu shape {dual.mu.shape}")
    if eta <= 0:
        raise InputError("eta must be positive")
    return DualState(np.maximum(0.0, dual.mu + eta * s))


def train(problem: Problem, config: TrainConfig, init: ModelState,
          primal_problem: Problem | None = None):
    """Run projected dual ascent and return (trace, final model, final multipliers).

    `primal_problem`, when given, is what the inner solver minimizes (e.g. a
    sigmoid-surrogate substitution of `problem`); slack evaluation and the
    recorded Lagrangian always use the original `problem`, so dual updates
    see the true constraint values. Deterministic for a fixed config seed.

    A model is evaluated once: the true slacks and the objective are read
    from the evaluation the gradient solver returns with its minimizer (the
    same predictions under the original losses), and under `warm_start` that
    evaluation is handed back as the next iteration's start point, so the
    start point is not evaluated again. Enumeration reads every iterate from
    per-candidate tables computed once (see `enumeration_stats`), with one
    evaluation per candidate for both problems. Under projected-adam the
    multipliers take an ADAM descent step on the negated slacks, projected
    onto mu >= 0.
    """
    if primal_problem is None:
        primal_problem = problem
    if primal_problem.m != problem.m:
        raise InputError("primal problem must have the same constraint count")
    n_params = init.arch.n_params
    if n_params > SNAPSHOT_PARAM_LIMIT and config.snapshot_stride == 1:
        raise ConfigurationError(
            f"models above {SNAPSHOT_PARAM_LIMIT} parameters need an explicit snapshot_stride"
        )

    inner = config.inner
    if inner.method == "enumeration":
        if primal_problem is problem:
            R_p, S_p = R_o, S_o = enumeration_stats(problem, inner.candidates)
        else:
            evals = [Evaluation(c) for c in inner.candidates]
            R_p, S_p = enumeration_stats(primal_problem, evals)
            R_o, S_o = enumeration_stats(problem, evals)

    seeds = np.random.SeedSequence(config.seed % (2 ** 63)).spawn(config.iterations_T)
    mu = DualState.zeros(problem.m)
    dual_opt = (OptimizerState(method="adam", step_size=config.dual_step_eta)
                if config.dual_method == "projected-adam" else None)
    model = init
    init_eval = ev = Evaluation(init)
    records: list[TraceRecord] = []

    for t in range(config.iterations_T):
        try:
            if inner.method == "enumeration":
                vals = R_p + S_p @ mu.mu if problem.m else R_p
                j = int(np.argmin(vals))
                model_t = inner.candidates[j]
                s = S_o[j].copy()
                obj = float(R_o[j])
            else:
                start = ev if inner.warm_start else init_eval
                _, ev = gradient_minimize(mu, primal_problem, inner, start,
                                          rng=np.random.default_rng(seeds[t]))
                model_t = ev.model
                s = slacks(ev, problem)
                obj = ev.risk(problem.objective_loss, problem.objective_dataset)
        except DualLearnError as err:
            raise type(err)(f"iteration {t}: {err}") from err
        lag = obj + float(mu.mu @ s) if problem.m else obj
        theta = model_t.params.copy() if t % config.snapshot_stride == 0 else None
        records.append(TraceRecord(t=t, theta=theta, objective=obj,
                                   slacks=np.asarray(s, dtype=float), mu=mu.mu.copy(),
                                   lagrangian=lag))
        if problem.m:
            if dual_opt is None:
                mu = dual_update(mu, s, config.dual_step_eta)
            else:
                dual_opt, ascended = descent_step(dual_opt, mu.mu, -s)
                mu = DualState(np.maximum(0.0, ascended))
        model = model_t

    trace = TrainTrace(records=tuple(records), arch=init.arch,
                       snapshot_stride=config.snapshot_stride)
    return trace, model, mu


def randomized_solution(trace: TrainTrace) -> RandomizedSolution:
    """Uniform mixture over all recorded iterates; refuses traces without
    every snapshot."""
    if len(trace) == 0:
        raise InputError("cannot build a randomized solution from an empty trace")
    if all(r.theta is None for r in trace.records):
        raise InputError(
            "trace has no theta snapshots (the run had output.save_theta: false); "
            "a randomized solution needs every iterate"
        )
    models = []
    for r in trace.records:
        if r.theta is None:
            raise InputError(
                "trace has strided snapshots; a randomized solution needs every iterate"
            )
        models.append(ModelState(params=r.theta, arch=trace.arch))
    return RandomizedSolution(models=tuple(models))


def mixture_risks(sol: RandomizedSolution, terms) -> list[float]:
    """Risk of the uniform mixture on each (loss, dataset) term: the average
    of the per-iterate risks.

    Each distinct model (same architecture and parameter bytes) is evaluated
    once for all terms; an iterate that repeats one copies its risks, so the
    per-iterate risks and their sums are those of evaluating every iterate.
    """
    datasets = [dataset for _, dataset in terms]
    risks = np.empty((len(terms), len(sol.models)))
    distinct: dict[tuple, list[float]] = {}
    for j, model in enumerate(sol.models):
        key = (model.arch, model.params.tobytes())
        column = distinct.get(key)
        if column is None:
            ev = Evaluation.of(model, datasets)
            column = distinct[key] = [ev.risk(loss, dataset) for loss, dataset in terms]
        risks[:, j] = column
    return [float(row.sum()) / row.shape[0] for row in risks]


def ergodic_complementary_slackness(trace: TrainTrace) -> float:
    """(1/T) sum_t mu(t) . s(t) over a completed trace.

    For projected-ascent runs this is bounded below by -eta * m * B^2 / 2
    with eta = dual_step_eta. Under projected-adam, dual_step_eta is the ADAM
    step size and the per-coordinate steps are not eta * s, so the bound does
    not apply and the quantity is a diagnostic only.
    """
    if len(trace) == 0:
        raise InputError("empty trace")
    total = sum(float(r.mu @ r.slacks) for r in trace.records)
    return total / len(trace)


def ergodic_slacks(trace: TrainTrace) -> np.ndarray:
    """Per-constraint mean slack over the trace (the randomized-solution slack)."""
    if len(trace) == 0:
        raise InputError("empty trace")
    return trace.slack_matrix().mean(axis=0)


def recommend_hyperparams(B: float, m: int, zeta_bar: float, U0: float,
                          M: float, nu: float) -> tuple[float, int]:
    """Dual step size and iteration budget from the ascent analysis.

    eta = 2 * zeta_bar / (m * B^2) targets a dual solve accurate to the
    statistical error; T = ceil(U0 / (2 * eta * M * nu)) + 1 iterations reach
    it, where U0 bounds the squared distance from zero to the optimal
    multiplier set (B/xi gives a conservative surrogate for its norm when it
    is not observable).
    """
    if m == 0:
        raise ConfigurationError("hyperparameter prescription is undefined for m = 0")
    for name, val in (("B", B), ("zeta_bar", zeta_bar), ("U0", U0), ("M", M), ("nu", nu)):
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"{name} must be positive and finite, got {val}")
    eta = 2.0 * zeta_bar / (m * B * B)
    T = math.ceil(U0 / (2.0 * eta * M * nu)) + 1
    return eta, T


# --- trace serialization -----------------------------------------------------

_TRACE_KIND = "duallearn-trace"
_TRACE_VERSION = 2


def save_trace(trace: TrainTrace, records_path: str | Path,
               thetas_path: str | Path | None = None) -> None:
    """Write the trace: a JSON header line, then one JSON object per iteration.

    With `thetas_path` the snapshots are written there as one (K, P) float64
    `.npy` array, row k holding the theta of iteration k * snapshot_stride,
    and the header records the file (relative to the trace's directory when
    it lies inside it) and the stride. A run directory written by
    `duallearn train` therefore holds `trace.jsonl` and, with
    `output.save_theta`, `thetas.npy` next to it. With thetas_path=None the
    snapshots are dropped (records only), which is enough for slack/multiplier
    diagnostics but not for randomized solutions.
    """
    records_path = Path(records_path)
    snapshots = None
    if thetas_path is not None:
        stride = trace.snapshot_stride
        if any((r.theta is not None) != (r.t % stride == 0) for r in trace.records):
            raise InputError(f"trace snapshots do not follow its snapshot_stride {stride}")
        thetas_path = Path(thetas_path)
        thetas = np.array([r.theta for r in trace.records if r.theta is not None],
                          dtype=np.float64).reshape(-1, trace.arch.n_params)
        with open(thetas_path, "wb") as f:  # a path np.save would give a .npy suffix
            np.save(f, thetas, allow_pickle=False)
        if thetas_path.is_relative_to(records_path.parent):
            thetas_path = thetas_path.relative_to(records_path.parent)
        snapshots = {"file": str(thetas_path), "stride": stride}
    lines = [json.dumps({"kind": _TRACE_KIND, "version": _TRACE_VERSION,
                         "arch": arch_to_dict(trace.arch), "snapshots": snapshots},
                        sort_keys=True)]
    for r in trace.records:
        lines.append(json.dumps({
            "t": r.t,
            "objective": r.objective,
            "slacks": [float(v) for v in r.slacks],
            "mu": [float(v) for v in r.mu],
            "lagrangian": r.lagrangian,
        }, sort_keys=True))
    records_path.write_text("\n".join(lines) + "\n")


def load_trace(records_path: str | Path) -> TrainTrace:
    """Read a trace written by `save_trace`, with its snapshot array if any.

    The snapshot array is read once, without pickles, and must be float64
    of shape (number of snapshot records, the architecture's n_params). Any
    fault of the trace or its snapshot file is an InputError naming the
    trace.
    """
    records_path = Path(records_path)
    try:
        lines = records_path.read_text().splitlines()
        if not lines:
            raise InputError("empty trace file")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("kind") != _TRACE_KIND:
            raise InputError("not a duallearn trace file")
        if header.get("version") != _TRACE_VERSION:
            raise InputError(
                f"trace version {header.get('version')} is not supported "
                f"(this duallearn reads version {_TRACE_VERSION}); re-run train to write it"
            )
        arch = arch_from_dict(header["arch"])
        objs = [json.loads(line) for line in lines[1:]]
        thetas = [None] * len(objs)
        stride = 1
        snapshots = header["snapshots"]
        if snapshots is not None:
            stride = int(snapshots["stride"])
            path = records_path.parent / snapshots["file"]
            try:
                array = np.load(path, allow_pickle=False)
            except (OSError, ValueError) as err:
                raise InputError(f"{path}: cannot read the theta snapshots: {err}") from err
            held = [k for k, obj in enumerate(objs) if int(obj["t"]) % stride == 0]
            shape = (len(held), arch.n_params)
            if array.dtype != np.float64 or array.shape != shape:
                raise InputError(
                    f"{path}: theta snapshots are {array.dtype} {array.shape}, expected "
                    f"float64 {shape} (snapshot records x architecture parameters)"
                )
            array.setflags(write=False)
            for k, row in zip(held, array):
                thetas[k] = row
        records = tuple(
            TraceRecord(t=int(obj["t"]), theta=theta, objective=float(obj["objective"]),
                        slacks=np.asarray(obj["slacks"], dtype=float),
                        mu=np.asarray(obj["mu"], dtype=float),
                        lagrangian=float(obj["lagrangian"]))
            for obj, theta in zip(objs, thetas)
        )
        return TrainTrace(records=records, arch=arch, snapshot_stride=stride)
    except KeyError as err:
        raise InputError(f"{records_path}: missing key {err}") from None
    except (OSError, TypeError, ValueError) as err:
        raise InputError(f"{records_path}: {err}") from None

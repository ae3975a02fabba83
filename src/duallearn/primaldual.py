"""Projected dual ascent over the empirical Lagrangian.

`train` runs the loop: per iteration it (approximately) minimizes the
Lagrangian at the current multipliers, evaluates constraint slacks at the
minimizer, and takes a projected ascent step on the multipliers, which start
at zero and stay nonnegative throughout. The gradient inner solver resumes
each iteration from the previous minimizer, and its `epochs` choose how many
passes it makes per dual update (one gives the alternating scheme). Each
iterate is evaluated once (see `duallearn.lagrangian`): the slacks and
objective of the trace are read from the evaluation the inner solver scored
the iterate with, and the next iteration resumes from that evaluation. A
trace holds one array per recorded quantity, row t for iteration t, and
keeps every iterate's parameters so that the uniform mixture over them (the
randomized solution) can be evaluated afterwards. A mixture is its read-only
(T, P) parameter block, row t the parameters of iterate t (a single model is
a one-row block), and `mixture_risks` evaluates each distinct row once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Problem, _readonly, _unchecked
from .errors import ConfigurationError, DualLearnError, InputError
from .lagrangian import DualState, InnerSolverConfig, enumeration_stats, gradient_minimize
from .models import (
    Arch,
    Evaluation,
    ModelState,
    OptimizerState,
    arch_from_dict,
    arch_to_dict,
    descent_step,
)

# Runs that keep every iterate's parameters are refused above this count.
SNAPSHOT_PARAM_LIMIT = 100_000


@dataclass(frozen=True)
class TrainConfig:
    """Iteration budget, dual step rule, and inner solver for one run.

    `dual_step_eta` is the step size of either dual method: the eta of
    projected ascent, or the ADAM step size of projected-adam. `save_theta`
    keeps every iterate's parameters in the trace.
    """

    iterations_T: int
    dual_step_eta: float
    inner: InnerSolverConfig
    dual_method: str = "projected-ascent"
    seed: int = 0
    save_theta: bool = True

    def __post_init__(self) -> None:
        if self.iterations_T < 1:
            raise ConfigurationError("iterations_T must be >= 1")
        if not (math.isfinite(self.dual_step_eta) and self.dual_step_eta > 0):
            raise ConfigurationError("dual_step_eta must be positive")
        if self.dual_method not in ("projected-ascent", "projected-adam"):
            raise ConfigurationError(f"unknown dual method {self.dual_method!r}")


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """A completed run, one array per quantity, plus the model architecture.

    Row t of each array is iteration t: `objective` (T,), `slacks` (T, m),
    `mu` (T, m), taken before that iteration's update, and `lagrangian`
    (T,). `thetas` (T, P) holds every iterate's parameters, or is None for
    a run that kept none.
    """

    objective: np.ndarray
    slacks: np.ndarray
    mu: np.ndarray
    lagrangian: np.ndarray
    arch: Arch
    thetas: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.objective)


def dual_update(dual: DualState, slack: np.ndarray, eta: float) -> DualState:
    """Projected ascent step mu_i <- max(0, mu_i + eta * s_i)."""
    s = np.asarray(slack, dtype=float)
    if s.shape != dual.mu.shape:
        raise InputError(f"slack shape {s.shape} does not match mu shape {dual.mu.shape}")
    if not (math.isfinite(eta) and eta > 0):
        raise InputError(f"eta must be positive and finite, got {eta}")
    return DualState(np.maximum(0.0, dual.mu + eta * s))


def train(problem: Problem, config: TrainConfig, init: ModelState):
    """Run projected dual ascent and return (trace, final model, final multipliers).

    The gradient inner solver minimizes `problem.surrogate`; enumeration
    minimizes the true Lagrangian. Slacks, the objective and the recorded
    Lagrangian always read `problem`, so dual updates see the true
    constraint values. Deterministic for a fixed config seed. Randomness is
    built only for a solver that draws: a gradient solver with a
    `batch_size` gets, at iteration t, a generator seeded by
    SeedSequence(seed, spawn_key=(t,)), the t-th child of
    SeedSequence(seed).spawn(T); full-batch and enumeration runs build none.
    Each iteration is written into row t of the trace's preallocated arrays;
    `config.save_theta` decides whether its parameters are kept.

    A model is evaluated once. Each solver picks the evaluation of its
    minimizer (enumeration holds one per candidate, tabulated once by
    `enumeration_stats`); the slacks, objective and parameters are read from
    it, and the gradient solver resumes from it. Under projected-adam the
    multipliers take an ADAM descent step on the negated slacks, projected
    onto mu >= 0.
    """
    n_params = init.arch.n_params
    if config.save_theta and n_params > SNAPSHOT_PARAM_LIMIT:
        raise ConfigurationError(
            f"models above {SNAPSHOT_PARAM_LIMIT} parameters cannot keep every iterate; "
            "set output.save_theta to false"
        )

    inner = config.inner
    if inner.candidates is not None:
        evals = [Evaluation(c) for c in inner.candidates]
        R, S = enumeration_stats(problem, evals)

    T, m = config.iterations_T, problem.m
    entropy = config.seed % (2 ** 63)
    mu = DualState.zeros(m)
    dual_opt = (OptimizerState(step_size=config.dual_step_eta)
                if config.dual_method == "projected-adam" else None)
    ev = Evaluation(init)
    trace = TrainTrace(objective=np.empty(T), slacks=np.empty((T, m)), mu=np.empty((T, m)),
                       lagrangian=np.empty(T), arch=init.arch,
                       thetas=np.empty((T, n_params)) if config.save_theta else None)

    for t in range(T):
        try:
            if inner.candidates is not None:
                ev = evals[int(np.argmin(R + S @ mu.mu))]
            else:
                rng = (None if inner.batch_size is None else
                       np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(t,))))
                ev = gradient_minimize(mu, problem, inner, ev, rng)
            risks, s = ev.stats(problem)
        except DualLearnError as err:
            raise type(err)(f"iteration {t}: {err}") from err
        trace.objective[t] = risks[0]
        trace.slacks[t] = s
        trace.mu[t] = mu.mu
        trace.lagrangian[t] = risks[0] + float(mu.mu @ s)
        if trace.thetas is not None:
            trace.thetas[t] = ev.model.params
        if dual_opt is None:
            mu = dual_update(mu, s, config.dual_step_eta)
        else:
            dual_opt, ascended = descent_step(dual_opt, mu.mu, -s)
            mu = _unchecked(DualState, mu=_readonly(np.maximum(0.0, ascended, out=ascended)))

    return trace, ev.model, mu


def randomized_solution(trace: TrainTrace) -> np.ndarray:
    """The uniform mixture over all recorded iterates as its read-only (T, P)
    parameter block of `trace.arch`, checked and copied once; refuses a
    trace that kept no parameters."""
    if trace.thetas is None:
        raise InputError(
            "trace has no theta snapshots (the run had output.save_theta: false); "
            "a randomized solution needs every iterate"
        )
    thetas = _readonly(np.array(trace.thetas, dtype=float))
    if thetas.ndim != 2 or thetas.shape[0] == 0 or thetas.shape[1] != trace.arch.n_params:
        raise InputError(f"theta snapshots must be (T, {trace.arch.n_params}) with T >= 1, "
                         f"got shape {thetas.shape}")
    _check_finite(thetas)
    return thetas


def _check_finite(thetas: np.ndarray, where: str = "") -> None:
    """Refuse a parameter block with a non-finite entry, naming its first row."""
    finite = np.isfinite(thetas).all(axis=1)
    if not finite.all():
        raise InputError(f"{where}iteration {int(np.argmin(finite))}: "
                         "model parameters must be finite")


def mixture_risks(arch: Arch, thetas: np.ndarray, problem: Problem) -> list[float]:
    """Risk of the uniform mixture over the rows of `thetas` on each
    `problem.terms` entry: the mean of the per-iterate risks.

    `thetas` is a read-only (T, P) block of `arch` with finite rows, such as
    `randomized_solution` returns. Each distinct row (by its bytes, first
    seen first) is evaluated once through `Evaluation.stats`; a row that
    repeats one copies its risks, so the T per-iterate risks of a term, summed
    in iterate order, are those of evaluating every iterate. Any other shape
    is refused.
    """
    if thetas.ndim != 2 or thetas.shape[0] == 0 or thetas.shape[1] != arch.n_params:
        raise InputError(f"a mixture needs a (T, {arch.n_params}) parameter block with T >= 1 "
                         f"for its architecture, got shape {thetas.shape}")
    risks = np.empty((len(problem.terms), thetas.shape[0]))
    distinct: dict[bytes, tuple[float, ...]] = {}
    for t, theta in enumerate(thetas):
        key = theta.tobytes()
        column = distinct.get(key)
        if column is None:
            model = ModelState._of_fresh(theta, arch)
            column = distinct[key] = Evaluation(model).stats(problem)[0]
        risks[:, t] = column
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
    return float(np.sum(trace.mu * trace.slacks)) / len(trace)


def ergodic_slacks(trace: TrainTrace) -> np.ndarray:
    """Per-constraint mean slack over the trace (the randomized-solution slack)."""
    if len(trace) == 0:
        raise InputError("empty trace")
    return trace.slacks.mean(axis=0)


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
# One encoder for every record: the bytes of json.dumps(obj, sort_keys=True).
_JSON = json.JSONEncoder(sort_keys=True)


def save_trace(trace: TrainTrace, records_path: str | Path,
               thetas_path: str | Path | None = None) -> None:
    """Write the trace: a JSON header line, then one JSON object per iteration.

    With `thetas_path`, a trace that kept its `thetas` writes them there as
    one (T, P) float64 `.npy` array, row t holding the theta of iteration t,
    and the header names the file (relative to the trace's directory when it
    lies inside it). A run directory written by `duallearn train` therefore
    holds `trace.jsonl` and, with `output.save_theta`, `thetas.npy` next to
    it. Otherwise the parameters are dropped (records only), which is enough
    for slack/multiplier diagnostics but not for randomized solutions.
    """
    records_path = Path(records_path)
    snapshots = None
    if thetas_path is not None and trace.thetas is not None:
        thetas_path = Path(thetas_path)
        with open(thetas_path, "wb") as f:  # a path np.save would give a .npy suffix
            np.save(f, trace.thetas, allow_pickle=False)
        if thetas_path.is_relative_to(records_path.parent):
            thetas_path = thetas_path.relative_to(records_path.parent)
        snapshots = {"file": str(thetas_path)}
    lines = [_JSON.encode({"kind": _TRACE_KIND, "version": _TRACE_VERSION,
                           "arch": arch_to_dict(trace.arch), "snapshots": snapshots})]
    rows = zip(trace.objective.tolist(), trace.slacks.tolist(), trace.mu.tolist(),
               trace.lagrangian.tolist())
    for t, (objective, slack, mu, lagrangian) in enumerate(rows):
        lines.append(_JSON.encode({"t": t, "objective": objective, "slacks": slack, "mu": mu,
                                   "lagrangian": lagrangian}))
    records_path.write_text("\n".join(lines) + "\n")


def load_trace(records_path: str | Path) -> TrainTrace:
    """Read a trace written by `save_trace`, with its snapshot array if any.

    The records must be the iterations t = 0..T-1 in order. The snapshot
    array is read once, without pickles, and must be float64 of shape
    (T, the architecture's n_params) with finite rows. Any fault of the
    trace or its snapshot file is an InputError naming the trace, and the
    snapshot file too for a fault of its own.
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
        T = len(objs)
        if T == 0 or [obj["t"] for obj in objs] != list(range(T)):
            raise InputError("the records must be the iterations t = 0..T-1 in order, T >= 1")
        thetas = None
        snapshots = header["snapshots"]
        if snapshots is not None:
            path = records_path.parent / snapshots["file"]
            try:
                thetas = np.load(path, allow_pickle=False)
            except (OSError, ValueError) as err:
                raise InputError(f"{path}: cannot read the theta snapshots: {err}") from err
            shape = (T, arch.n_params)
            if thetas.dtype != np.float64 or thetas.shape != shape:
                raise InputError(
                    f"{path}: theta snapshots are {thetas.dtype} {thetas.shape}, expected "
                    f"float64 {shape} (records x architecture parameters)"
                )
            _check_finite(thetas, f"{path}: ")
            thetas.setflags(write=False)

        def column(key: str) -> np.ndarray:
            return np.array([obj[key] for obj in objs], dtype=float)

        return TrainTrace(objective=column("objective").reshape(T),
                          slacks=column("slacks").reshape(T, -1),
                          mu=column("mu").reshape(T, -1),
                          lagrangian=column("lagrangian").reshape(T), arch=arch,
                          thetas=thetas)
    except KeyError as err:
        raise InputError(f"{records_path}: missing key {err}") from None
    except (OSError, TypeError, ValueError) as err:
        raise InputError(f"{records_path}: {err}") from None

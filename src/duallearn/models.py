"""Differentiable predictors with exact handwritten gradients.

Three architectures: linear maps, logistic regression, and small MLPs with
tanh (default) or relu hidden units and an optional sigmoid output. No
autodiff framework is used anywhere -- the parameter and input gradients
below are written out per architecture and validated against central finite
differences in the test suite. An `Evaluation` is the one path from a model
to risks and loss gradients: it forwards each table once and every term of
a Lagrangian reads from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import from_config
from .core import (ConstraintSpec, Dataset, DatasetLike, LossSpec, Problem, loss_pred_grads,
                   loss_values, stable_sigmoid)
from .errors import ConfigurationError, InputError, NumericError


@dataclass(frozen=True)
class LinearArch:
    """y = W x (+ b), mapping in_dim -> out_dim."""

    in_dim: int
    out_dim: int = 1
    bias: bool = True

    kind = "linear"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigurationError("linear dimensions must be >= 1")

    @property
    def n_params(self) -> int:
        return self.out_dim * self.in_dim + (self.out_dim if self.bias else 0)


@dataclass(frozen=True)
class LogisticArch:
    """p = sigmoid(w . x + b), a scalar probability in (0, 1)."""

    in_dim: int

    kind = "logistic"

    def __post_init__(self) -> None:
        if self.in_dim < 1:
            raise ConfigurationError("logistic in_dim must be >= 1")

    @property
    def n_params(self) -> int:
        return self.in_dim + 1


@dataclass(frozen=True)
class MlpArch:
    """Fully connected layers `widths[0] -> ... -> widths[-1]`.

    Hidden activations are tanh by default (relu available); the output is
    linear unless `output="sigmoid"`, which squashes to (0, 1) for
    probability-valued models.
    """

    widths: tuple[int, ...]
    activation: str = "tanh"
    output: str = "linear"

    kind = "mlp"

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigurationError(f"mlp widths must be >= 2 positive layers, got {self.widths}")
        if self.activation not in ("tanh", "relu"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.output not in ("linear", "sigmoid"):
            raise ConfigurationError(f"unknown output mode {self.output!r}")

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.widths[:-1], self.widths[1:]))


Arch = LinearArch | LogisticArch | MlpArch


@dataclass(frozen=True)
class ModelState:
    """A flat parameter vector tied to its architecture descriptor."""

    params: np.ndarray
    arch: Arch

    def __post_init__(self) -> None:
        p = np.asarray(self.params, dtype=float)
        if p.ndim != 1:
            raise InputError(f"params must be a flat vector, got shape {p.shape}")
        if p.shape[0] != self.arch.n_params:
            raise InputError(
                f"architecture expects {self.arch.n_params} parameters, got {p.shape[0]}"
            )
        if not np.isfinite(p).all():
            raise InputError("model parameters must be finite")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "params", p)

    @property
    def in_dim(self) -> int:
        if isinstance(self.arch, MlpArch):
            return self.arch.widths[0]
        return self.arch.in_dim

    def with_params(self, params: np.ndarray) -> ModelState:
        return ModelState(params=params, arch=self.arch)


def init_model(arch: Arch, seed: int = 0) -> ModelState:
    """Deterministic initial state: zeros for linear/logistic, seeded
    Glorot-uniform weights (zero biases) for MLPs."""
    if not isinstance(arch, MlpArch):
        return ModelState(np.zeros(arch.n_params), arch)
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    for fan_in, fan_out in zip(arch.widths[:-1], arch.widths[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_out * fan_in))
        chunks.append(np.zeros(fan_out))
    return ModelState(np.concatenate(chunks), arch)


def _unpack_linear(model: ModelState) -> tuple[np.ndarray, np.ndarray]:
    arch = model.arch
    w_end = arch.out_dim * arch.in_dim
    W = model.params[:w_end].reshape(arch.out_dim, arch.in_dim)
    b = model.params[w_end:] if arch.bias else np.zeros(arch.out_dim)
    return W, b


def _unpack_mlp(model: ModelState) -> list[tuple[np.ndarray, np.ndarray]]:
    arch = model.arch
    layers = []
    pos = 0
    for fan_in, fan_out in zip(arch.widths[:-1], arch.widths[1:]):
        W = model.params[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = model.params[pos : pos + fan_out]
        pos += fan_out
        layers.append((W, b))
    return layers


def _mlp_forward(model: ModelState, X: np.ndarray):
    """Forward pass caching layer inputs and pre-activations for backprop."""
    arch = model.arch
    layers = _unpack_mlp(model)
    acts = [X]
    pres = []
    h = X
    for li, (W, b) in enumerate(layers):
        z = h @ W.T + b
        pres.append(z)
        if li < len(layers) - 1:
            h = np.tanh(z) if arch.activation == "tanh" else np.maximum(z, 0.0)
        else:
            h = stable_sigmoid(z) if arch.output == "sigmoid" else z
        acts.append(h)
    return layers, acts, pres


def predict_batch(model: ModelState, X: np.ndarray) -> np.ndarray:
    """Model outputs for an (N, d) feature matrix, as an (N, k) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise InputError(
            f"features must be (N, {model.in_dim}), got shape {X.shape}"
        )
    arch = model.arch
    if isinstance(arch, LinearArch):
        W, b = _unpack_linear(model)
        return X @ W.T + b
    if isinstance(arch, LogisticArch):
        w = model.params[:-1]
        b = model.params[-1]
        return stable_sigmoid(X @ w + b)[:, None]
    _, acts, _ = _mlp_forward(model, X)
    return acts[-1]


def _mlp_hidden_grad(arch: MlpArch, z: np.ndarray) -> np.ndarray:
    if arch.activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return (z > 0.0).astype(float)


def _backprop(model: ModelState, X: np.ndarray, G: np.ndarray, P: np.ndarray,
              want_params: bool, want_inputs: bool):
    """Chain an upstream d(total)/d(output) matrix G back through the model.

    Returns (param_grad or None, input_grads or None). G rows are per-sample
    gradients w.r.t. the model output (after any output squashing), and P
    is `predict_batch(model, X)`, which the logistic model reads instead of
    recomputing its sigmoid.
    """
    arch = model.arch
    dparams = None
    dX = None
    if isinstance(arch, LinearArch):
        W, _ = _unpack_linear(model)
        if want_params:
            dW = G.T @ X
            parts = [dW.ravel()]
            if arch.bias:
                parts.append(G.sum(axis=0))
            dparams = np.concatenate(parts)
        if want_inputs:
            dX = G @ W
    elif isinstance(arch, LogisticArch):
        w = model.params[:-1]
        p = P[:, 0]
        ds = G[:, 0] * p * (1.0 - p)
        if want_params:
            dparams = np.concatenate([ds @ X, [ds.sum()]])
        if want_inputs:
            dX = ds[:, None] * w[None, :]
    else:
        layers, acts, pres = _mlp_forward(model, X)
        if arch.output == "sigmoid":
            p = acts[-1]
            delta = G * p * (1.0 - p)
        else:
            delta = G
        chunks: list[np.ndarray] = []
        for li in range(len(layers) - 1, -1, -1):
            W, _ = layers[li]
            if want_params:
                chunks.append(delta.sum(axis=0))
                chunks.append((delta.T @ acts[li]).ravel())
            delta = delta @ W
            if li > 0:
                delta = delta * _mlp_hidden_grad(arch, pres[li - 1])
        if want_params:
            dparams = np.concatenate(chunks[::-1])
        if want_inputs:
            dX = delta
    return dparams, dX


class Evaluation:
    """One model evaluated once; every risk and loss gradient reads from it.

    The evaluation realises each model-dependent set once (one attack per
    `robust.AdversarialDataset`) and runs one `predict_batch` per table: a root
    table when the evaluation also realises the root itself (some term
    averages over all of it), otherwise a view on its own rows. An attacked
    set is not forwarded at all: the attack returns the model's predictions
    on the rows it picks, and the evaluation keeps them. A whole set is
    attacked from this evaluation's predictions on its clean base table, so
    the base is forwarded at most once, whichever term reads it first.
    Loss values and loss gradients are computed once per (table, loss), and
    risks once per (set, loss). A view's risk is the mean of its rows
    gathered from its table: the same elements in the same order as
    evaluating the view on its own, so the reduction and its bits are
    unchanged.

    Sets may be realised at any time; realising every set up front (see
    `of`) lets views find the root they share before anything is forwarded.

    Each (set, loss) term's parameter gradient (`param_grad`) and each
    problem's objective risk and slack vector (`stats`) depend on the model
    alone, so they are memoised too and returned read-only. An iterate kept
    across dual steps comes back with new multipliers, which only weight
    these results, in the same order: a memo hit has the bits of computing
    afresh. Every memo is a dict keyed by the objects themselves: sets and
    problems by identity, losses by value, so equal `LossSpec`s that are
    distinct objects are computed once.
    """

    def __init__(self, model: ModelState) -> None:
        self.model = model
        # set -> realised set; a realised table is also its own entry, which
        # marks it as used whole
        self._realized: dict[DatasetLike, Dataset] = {}
        self._preds: dict[Dataset, np.ndarray] = {}
        self._rowwise: dict[tuple, np.ndarray] = {}
        self._risks: dict[tuple[DatasetLike, LossSpec], float] = {}
        self._grads: dict[tuple[DatasetLike, LossSpec], np.ndarray] = {}
        self._stats: dict[Problem, tuple[float, np.ndarray]] = {}

    @classmethod
    def of(cls, at, datasets: Sequence[DatasetLike] = ()) -> Evaluation:
        """`at` itself when it is an evaluation, else a new one of the model
        `at`; either way with every set in `datasets` realised."""
        ev = at if isinstance(at, Evaluation) else cls(at)
        for d in datasets:
            ev.realize(d)
        return ev

    def realize(self, dataset: DatasetLike) -> Dataset:
        """`dataset` realised against the model, once per evaluation."""
        ds = self._realized.get(dataset)
        if ds is None:
            ds = self._realized[dataset] = (
                dataset if isinstance(dataset, Dataset)
                else self._attack(dataset, None, self._table_predictions(dataset.base)))
            if ds.root is None:
                self._realized[ds] = ds
        return ds

    def batch(self, dataset: DatasetLike, indices: np.ndarray | None) -> DatasetLike:
        """`dataset` itself, or its `indices` rows realised against the model:
        cut from this evaluation's realisation of it when there is one."""
        if indices is None:
            return dataset
        ds = self._realized.get(dataset, dataset)
        return ds.subset(indices) if isinstance(ds, Dataset) else self._attack(dataset, indices)

    def _attack(self, dataset, indices, clean_predictions=None) -> Dataset:
        """The model-dependent `dataset`, or its `indices` rows, attacked
        against the model; the attack's predictions are kept as the set's."""
        ds, preds = dataset.attack(self.model, indices, clean_predictions)
        self._preds[ds] = preds
        return ds

    def _locate(self, ds: Dataset) -> tuple[Dataset, np.ndarray | None]:
        """(table, rows there) that `ds` is read from; rows None for all."""
        if ds.root is not None and ds.root in self._realized:
            return ds.root, ds.rows
        return ds, None

    def _table_predictions(self, table: Dataset) -> np.ndarray:
        preds = self._preds.get(table)
        if preds is None:
            preds = self._preds[table] = predict_batch(self.model, table.features)
        return preds

    def _per_row(self, fn, loss: LossSpec, table: Dataset) -> np.ndarray:
        key = (fn, table, loss)
        values = self._rowwise.get(key)
        if values is None:
            values = self._rowwise[key] = fn(loss, self._table_predictions(table), table.labels)
        return values

    def predictions(self, dataset: DatasetLike) -> np.ndarray:
        """Model outputs on the realised `dataset`, as an (N, k) matrix."""
        table, rows = self._locate(self.realize(dataset))
        preds = self._table_predictions(table)
        return preds if rows is None else preds[rows]

    def risk(self, loss: LossSpec, dataset: DatasetLike) -> float:
        """Sample-average `loss` over the realised `dataset`."""
        risk = self._risks.get((dataset, loss))
        if risk is None:
            table, rows = self._locate(self.realize(dataset))
            vals = self._per_row(loss_values, loss, table)
            if rows is not None:
                vals = vals[rows]
            risk = self._risks[dataset, loss] = float(vals.sum()) / vals.shape[0]
        return risk

    def param_grad(self, loss: LossSpec, dataset: DatasetLike) -> np.ndarray:
        """d(risk)/d(parameters) of `loss` on the realised `dataset`,
        backpropagated once per (set, loss); read-only."""
        dparams = self._grads.get((dataset, loss))
        if dparams is None:
            ds = self.realize(dataset)
            table, rows = self._locate(ds)
            preds = self._table_predictions(table)
            grads = self._per_row(loss_pred_grads, loss, table)
            if rows is not None:
                preds, grads = preds[rows], grads[rows]
            dparams, _ = _backprop(self.model, ds.features, grads / len(ds), preds,
                                   want_params=True, want_inputs=False)
            dparams.setflags(write=False)
            self._grads[dataset, loss] = dparams
        return dparams

    def constraint_risk(self, constraint: ConstraintSpec) -> float:
        """Empirical constraint risk, minus the reference risk when one is attached."""
        risk = self.risk(constraint.loss, constraint.dataset)
        if constraint.reference is not None:
            risk -= self.risk(constraint.reference.loss, constraint.reference.dataset)
        return risk

    def stats(self, problem: Problem) -> tuple[float, np.ndarray]:
        """(objective risk, slack vector) of `problem`, computed once per
        problem; the slack vector, constraint risk minus threshold per
        constraint, is read-only."""
        hit = self._stats.get(problem)
        if hit is None:
            for d in problem.datasets:
                self.realize(d)
            obj = self.risk(problem.objective_loss, problem.objective_dataset)
            slacks = np.asarray([self.constraint_risk(c) - c.threshold_c
                                 for c in problem.constraints], dtype=float)
            slacks.setflags(write=False)
            hit = self._stats[problem] = (obj, slacks)
        return hit


WeightedLoss = tuple[float, LossSpec, DatasetLike]


def grad_params(at: ModelState | Evaluation,
                weighted_losses: Sequence[WeightedLoss]) -> np.ndarray:
    """Exact gradient of sum_j weight_j * empirical_risk(model, loss_j, batch_j).

    `at` is the model or its `Evaluation`, from which every term reads its
    parameter gradient: backpropagated on its own, once per evaluation (see
    `Evaluation.param_grad`). Zero-weight terms are skipped outright, so they
    neither trigger surrogate-required errors nor realise model-dependent
    datasets.
    """
    live = []
    for weight, loss, dataset in weighted_losses:
        if not math.isfinite(weight):
            raise InputError(f"loss weight must be finite, got {weight}")
        if weight != 0.0:
            live.append((weight, loss, dataset))
    ev = Evaluation.of(at, [dataset for _, _, dataset in live])
    total = np.zeros(ev.model.arch.n_params)
    for weight, loss, dataset in live:
        total += weight * ev.param_grad(loss, dataset)
    return total


def grad_input_batch(model: ModelState, loss: LossSpec, X: np.ndarray,
                     labels: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """Per-sample gradients of the loss w.r.t. the inputs, as an (N, d) matrix.

    `P`, when given, is `predict_batch(model, X)` already computed by the
    caller, so X is not forwarded again.
    """
    X = np.asarray(X, dtype=float)
    if P is None:
        P = predict_batch(model, X)
    G = loss_pred_grads(loss, P, np.asarray(labels))
    _, dX = _backprop(model, X, G, P, want_params=False, want_inputs=True)
    return dX


# ADAM's moment decay rates and the epsilon added to the root of the second moment.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerState:
    """ADAM state; `descent_step` returns fresh states, nothing is mutated.

    The step uses ADAM_BETA1, ADAM_BETA2 and ADAM_EPS (the standard 0.9,
    0.999 and 1e-8), bias-corrected moments and the epsilon added outside
    the square root.
    """

    step_size: float
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigurationError(f"step_size must be positive, got {self.step_size}")
        if self.t < 0:
            raise ConfigurationError("step counter must be >= 0")


def optimizer_step(opt: OptimizerState, model: ModelState,
                   gradient: np.ndarray) -> tuple[OptimizerState, ModelState]:
    """One descent step; raises NumericError on non-finite gradients,
    leaving both states untouched."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != model.params.shape:
        raise InputError(
            f"gradient length {g.shape} does not match {model.params.shape} parameters"
        )
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient contains non-finite entries; step refused")
    opt, params = descent_step(opt, model.params, g)
    return opt, model.with_params(params)


def descent_step(opt: OptimizerState, x: np.ndarray,
                 g: np.ndarray) -> tuple[OptimizerState, np.ndarray]:
    """One ADAM descent step on the array x along gradient g.

    Returns the advanced state and x minus the step. Projected ascent on a
    multiplier vector is this step on the negated gradient, then projection.
    """
    m = opt.m if opt.m is not None else np.zeros_like(g)
    v = opt.v if opt.v is not None else np.zeros_like(g)
    if m.shape != g.shape or v.shape != g.shape:
        raise InputError("optimizer moment vectors do not match the gradient length")
    t = opt.t + 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    step = opt.step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return replace(opt, m=m, v=v, t=t), x - step


# --- serialization -----------------------------------------------------------

_MODEL_HEADER = "duallearn-model 1"


_ARCHS = {arch.kind: arch for arch in (LinearArch, LogisticArch, MlpArch)}


def arch_to_dict(arch: Arch, selector: str = "kind") -> dict:
    """The architecture as a config object: its kind under `selector`, then its fields."""
    return {selector: arch.kind, **{f.name: getattr(arch, f.name) for f in fields(arch)}}


def arch_from_dict(spec: dict, path: str = "", selector: str = "kind") -> Arch:
    """The architecture a config object (at key path `path`) or a file header
    describes: the class its `selector` key names, built from its other keys
    by `duallearn.config.from_config`."""
    if not isinstance(spec, dict) or selector not in spec:
        raise ConfigurationError(f"missing config key {path}{selector}")
    kind = spec[selector]
    if not isinstance(kind, str) or kind not in _ARCHS:
        raise ConfigurationError(f"{path}{selector}: unknown architecture {kind!r}")
    return from_config(_ARCHS[kind], {k: v for k, v in spec.items() if k != selector}, path)[0]


def save_model(model: ModelState, path: str | Path) -> None:
    """Versioned text format: header, arch descriptor, one parameter per line."""
    lines = [_MODEL_HEADER, json.dumps(arch_to_dict(model.arch), sort_keys=True)]
    lines.extend(repr(float(p)) for p in model.params)
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path: str | Path) -> ModelState:
    """Read a model written by `save_model`; any fault of the file is an
    InputError naming it."""
    try:
        lines = Path(path).read_text().splitlines()
        if len(lines) < 2 or lines[0] != _MODEL_HEADER:
            raise InputError("not a duallearn model file (a header, then an architecture line)")
        arch = arch_from_dict(json.loads(lines[1]))
        params = np.asarray([float(s) for s in lines[2:] if s.strip()], dtype=float)
        return ModelState(params=params, arch=arch)
    except (OSError, ValueError) as err:
        raise InputError(f"{path}: {err}") from None

"""Differentiable predictors with exact handwritten gradients.

Three architectures: linear maps, logistic regression, and small MLPs with
tanh (default) or relu hidden units and an optional sigmoid output. Each is
described as a stack of dense layers (`widths`, `bias`, `output`): a linear
or logistic model is a network with one layer. No autodiff framework is used
anywhere -- one forward pass and one backward pass serve every architecture,
and their gradients are validated against central finite differences in the
test suite. An `Evaluation` is the one path from a model to risks and loss
gradients: it forwards each table once and every term of a Lagrangian reads
from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import from_config
from .core import (Dataset, DatasetLike, LossSpec, Problem, _readonly, _unchecked,
                   loss_pred_grads, loss_values, stable_sigmoid)
from .errors import ConfigurationError, InputError, NumericError


@dataclass(frozen=True)
class LinearArch:
    """y = W x (+ b), mapping in_dim -> out_dim."""

    in_dim: int
    out_dim: int = 1
    bias: bool = True

    kind = "linear"
    output = "linear"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigurationError("linear dimensions must be >= 1")

    @property
    def widths(self) -> tuple[int, int]:
        return (self.in_dim, self.out_dim)

    @property
    def n_params(self) -> int:
        return self.out_dim * self.in_dim + (self.out_dim if self.bias else 0)


@dataclass(frozen=True)
class LogisticArch:
    """p = sigmoid(w . x + b), a scalar probability in (0, 1)."""

    in_dim: int

    kind = "logistic"
    bias = True
    output = "sigmoid"

    def __post_init__(self) -> None:
        if self.in_dim < 1:
            raise ConfigurationError("logistic in_dim must be >= 1")

    @property
    def widths(self) -> tuple[int, int]:
        return (self.in_dim, 1)

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
    bias = True

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
    """A flat parameter vector tied to its architecture descriptor.

    `layers` holds one (W, b) pair per dense layer, read-only views of the
    parameters with W of shape (fan_out, fan_in); a layer without a bias
    gets zeros as b.
    """

    params: np.ndarray
    arch: Arch
    layers: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False,
                                                             compare=False)

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
        p = _readonly(p.copy())
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "layers", _cut_layers(p, self.arch))

    @classmethod
    def _of_fresh(cls, params: np.ndarray, arch: Arch) -> ModelState:
        """The state of `params`, a finite float vector of the architecture's
        length that nothing writes (a new one, or a row of a read-only
        block), taken as it is and held read-only."""
        return _unchecked(cls, params=_readonly(params), arch=arch,
                          layers=_cut_layers(params, arch))

    @property
    def in_dim(self) -> int:
        return self.arch.widths[0]


def _cut_layers(p: np.ndarray, arch: Arch) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (W, b) views of each dense layer of `arch` in the parameter vector `p`."""
    widths, bias = arch.widths, arch.bias
    layers = []
    pos = 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        end = pos + fan_out * fan_in
        b = p[end : end + fan_out] if bias else np.zeros(fan_out)
        layers.append((p[pos:end].reshape(fan_out, fan_in), b))
        pos = end + fan_out if bias else end
    return tuple(layers)


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


def predict_batch(model: ModelState, X: np.ndarray) -> np.ndarray:
    """Model outputs for an (N, d) feature matrix, as an (N, k) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise InputError(
            f"features must be (N, {model.in_dim}), got shape {X.shape}"
        )
    return _forward(model, X)


def _hidden(arch: Arch, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if arch.activation == "tanh" else np.maximum(z, 0.0)


def _forward(model: ModelState, X: np.ndarray) -> np.ndarray:
    """`predict_batch` of a float array of shape (..., N, d): (..., N, k).

    numpy multiplies a stack of matrices slice by slice, so each (N, d)
    slice of X gets the bits `predict_batch` gives it on its own.
    """
    h = X
    for W, b in model.layers[:-1]:
        h = _hidden(model.arch, h @ W.T + b)
    W, b = model.layers[-1]
    z = h @ W.T + b
    return stable_sigmoid(z) if model.arch.output == "sigmoid" else z


def _backprop(model: ModelState, X: np.ndarray, G: np.ndarray, P: np.ndarray,
              want_params: bool, want_inputs: bool):
    """Chain an upstream d(total)/d(output) matrix G back through the model.

    Returns (param_grad or None, input_grads or None). G rows are per-sample
    gradients w.r.t. the model output (after any output squashing), and P
    is `predict_batch(model, X)`: a sigmoid output's derivative P (1 - P) is
    read from it, so only the hidden layers are forwarded again. A hidden
    unit's derivative is read from its activation h: 1 - h^2 for tanh, and
    h > 0 for relu.
    """
    arch = model.arch
    acts = [X]
    for W, b in model.layers[:-1]:
        acts.append(_hidden(arch, acts[-1] @ W.T + b))
    delta = G * P * (1.0 - P) if arch.output == "sigmoid" else G
    chunks: list[np.ndarray] = []
    for li in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[li]
        if want_params:
            if arch.bias:
                chunks.append(np.add.reduce(delta, axis=0))  # what delta.sum calls
            chunks.append((delta.T @ acts[li]).ravel())
        if li > 0 or want_inputs:
            delta = delta @ W
        if li > 0:
            h = acts[li]
            delta = delta * (1.0 - h * h if arch.activation == "tanh" else h > 0.0)
    dparams = np.concatenate(chunks[::-1]) if want_params else None
    return dparams, delta if want_inputs else None


def _risk_grad(model: ModelState, X: np.ndarray, G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """d(mean loss)/d(parameters) over the rows X, from the loss gradients G
    with respect to the model's predictions P there."""
    return _backprop(model, X, G / G.shape[0], P, want_params=True, want_inputs=False)[0]


class Evaluation:
    """One model evaluated once; every risk and loss gradient reads from it.

    Only a scored iterate gets one: between two scored iterates, minibatch
    steps move a bare parameter vector and take their gradients from arrays
    (`_risk_grad`, the kernel `param_grad` uses too).

    The evaluation realises each model-dependent set once (one attack per
    `robust.AdversarialDataset`) and runs one `predict_batch` per table: a root
    table when the evaluation also realises the root itself (some term
    averages over all of it), otherwise a view on its own rows. An attacked
    set is not forwarded at all: the attack returns the model's predictions
    on the rows it picks, and the evaluation keeps them. A whole set is
    attacked from this evaluation's predictions on its clean base table, so
    the base is forwarded at most once, whichever term reads it first.
    Loss values and loss gradients are computed once per (table, loss). A
    view's risk is the mean over its rows, in their order, of the values
    read from whichever forward covers them: the root's or the view's own.
    The two forwards can give a row different last bits (a matrix product's
    blocking depends on its row count), so a view's risk or gradient can
    differ in its last bits with whether the evaluation also realises the
    root. Outputs stay deterministic, because the order in which sets are
    realised is fixed.

    A problem is read through its layout (`Problem.table_terms`, built once
    per problem): its terms grouped by the table they are cut from and by
    loss. `stats` makes one `loss_values` pass per group and reads every
    member's risk from it by the reduction `risk` uses, so each risk has
    the bits of reading it on its own. A group whose root this evaluation
    does not realise is read view by view, each from its own forward, as
    `risk` reads it.

    Sets may be realised at any time; realising every set up front (see
    `of`) lets views find the root they share before anything is forwarded.

    Each (set, loss) term's parameter gradient (`param_grad`) and each
    problem's per-term risks and slack vector (`stats`) depend on the model
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
        self._grads: dict[tuple[DatasetLike, LossSpec], np.ndarray] = {}
        self._stats: dict[Problem, tuple[tuple[float, ...], np.ndarray]] = {}

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
            if isinstance(dataset, Dataset):
                ds = dataset
            else:  # attacked from the clean base's predictions; the attack's are kept
                ds, preds = dataset.attack(
                    self.model, clean_predictions=self._table_predictions(dataset.base))
                self._preds[ds] = preds
            self._realized[dataset] = ds
            if ds.root is None:
                self._realized[ds] = ds
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
        table, rows = self._locate(self.realize(dataset))
        return _mean(self._per_row(loss_values, loss, table), rows)

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
                preds, grads = preds.take(rows, axis=0), grads.take(rows, axis=0)
            dparams = self._grads[dataset, loss] = _readonly(
                _risk_grad(self.model, ds.features, grads, preds))
        return dparams

    def stats(self, problem: Problem) -> tuple[tuple[float, ...], np.ndarray]:
        """(risks, read-only slack vector) of `problem`, computed once per
        problem: one risk per `problem.terms` entry, in that order, so
        `risks[0]` is the objective's.

        The sets are realised first, then each group of `problem.table_terms`
        reads one `loss_values` pass over its source's realisation (see the
        class docstring).
        """
        hit = self._stats.get(problem)
        if hit is None:
            sets, groups = problem.table_terms
            for d in sets:
                self.realize(d)
            risks = [0.0] * len(problem.terms)
            for source, loss, members in groups:
                table = self._realized.get(source)
                values = None if table is None else self._per_row(loss_values, loss, table)
                for ks, d, rows in members:
                    risk = self.risk(loss, d) if values is None else _mean(values, rows)
                    for k in ks:
                        risks[k] = risk
            hit = self._stats[problem] = (tuple(risks), problem.slacks_of(risks))
        return hit


def _mean(values: np.ndarray, rows: np.ndarray | None) -> float:
    """The mean of `values`, or of its `rows` in their order: the one
    reduction of every risk."""
    if rows is None:
        return float(np.add.reduce(values)) / values.shape[0]
    return float(np.add.reduce(values[rows])) / rows.shape[0]


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
        if (self.m is None) != (self.v is None):
            raise ConfigurationError("the moment vectors m and v are given together or not at all")


def optimizer_step(opt: OptimizerState, model: ModelState,
                   gradient: np.ndarray) -> tuple[OptimizerState, ModelState]:
    """One descent step; raises NumericError on non-finite gradients or
    parameters, leaving both states untouched."""
    g = np.asarray(gradient, dtype=float)
    if g.shape != model.params.shape:
        raise InputError(
            f"gradient length {g.shape} does not match {model.params.shape} parameters"
        )
    if not np.isfinite(g).all():
        raise NumericError("gradient contains non-finite entries; step refused")
    opt, params = descent_step(opt, model.params, g)
    if not np.isfinite(params).all():
        raise NumericError("the step takes the parameters out of the finite range; "
                           "step refused")
    return opt, ModelState._of_fresh(params, model.arch)


def descent_step(opt: OptimizerState, x: np.ndarray,
                 g: np.ndarray) -> tuple[OptimizerState, np.ndarray]:
    """One ADAM descent step on the array x along gradient g.

    Returns the advanced state and x minus the step, a new array. Projected
    ascent on a multiplier vector is this step on the negated gradient, then
    projection. From an empty state the moments are (1 - beta) times the
    gradient (and its square): the decayed zero moments would add zeros.
    """
    if opt.m is None:
        m = (1.0 - ADAM_BETA1) * g
        v = (1.0 - ADAM_BETA2) * g * g
    else:
        if opt.m.shape != g.shape or opt.v.shape != g.shape:
            raise InputError("optimizer moment vectors do not match the gradient length")
        m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * g * g
    t = opt.t + 1
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    step = opt.step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return _unchecked(OptimizerState, step_size=opt.step_size, m=m, v=v, t=t), x - step


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

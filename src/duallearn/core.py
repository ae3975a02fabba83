"""Domain types and bounded-loss evaluation.

Everything downstream (Lagrangians, attacks, rate surrogates, oracles) is
built on three types -- Dataset, LossSpec, ConstraintSpec -- plus the
Problem container and two batch operations: per-row loss values (and their
gradients) for a prediction matrix, and empirical (sample-average) risk.
All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .errors import ConfigurationError, InputError, SurrogateRequiredError

if TYPE_CHECKING:  # pragma: no cover
    from .robust import AdversarialDataset


LOSS_KINDS = (
    "zero-one",
    "clamped-cross-entropy",
    "squared",
    "absolute",
    "signed-score",
    "rate-indicator",
    "rate-sigmoid",
)

# Kinds with a usable gradient w.r.t. the prediction. zero-one and
# rate-indicator are piecewise constant and require a surrogate.
DIFFERENTIABLE_KINDS = (
    "clamped-cross-entropy",
    "squared",
    "absolute",
    "signed-score",
    "rate-sigmoid",
)


def stable_sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function, exact at large |x|.

    Branch-free: with e = exp(-|x|), 1 / (1 + e) for x >= 0 and e / (1 + e)
    (that is, exp(x) / (1 + exp(x))) for x < 0, so exp never overflows. One
    division serves both branches: the numerator is picked before it. The
    temporaries are computed in place, each by the operation it replaced.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(stable_sigmoid(x[None])[0])
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unchecked(cls, **values):
    """An instance of the frozen dataclass `cls` holding `values` as they
    are, without its constructor's checks: for a state derived from checked
    ones inside a loop."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered, nonempty collection of samples with a fixed feature dimension.

    Stored columnwise (an (N, d) feature matrix and an (N,) label vector) so
    that million-sample Monte-Carlo sets stay cheap. Labels are class
    indices or real scalars.

    A set cut from another by `subset` is a view: it records the table it
    was cut from (`root`, never itself a view) and its `rows` there, so that
    a `models.Evaluation` can read a view's predictions from one forward
    pass over the root. A table of its own has `root` and `rows` None.
    A dataset compares and hashes by identity, so an evaluation keys its
    memos by the set itself; it holds no model's predictions.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    # Provenance; `subset` sets both on the views it makes.
    root = None
    rows = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iuf":
            raise InputError(f"labels must be numeric, got dtype {labels.dtype}")
        labels = labels.astype(float if labels.dtype.kind == "f" else np.int64, copy=False)
        if feats.ndim != 2:
            raise InputError(f"features must be an (N, d) matrix, got shape {feats.shape}")
        if feats.shape[0] == 0:
            raise InputError("dataset must be nonempty")
        if labels.shape != (feats.shape[0],):
            raise InputError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} samples"
            )
        if not np.isfinite(feats).all():
            raise InputError("dataset features must be finite")
        if labels.dtype.kind == "f" and not np.isfinite(labels).all():
            raise InputError("dataset labels must be finite")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labels))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray | Sequence[int], name: str | None = None) -> Dataset:
        """The view of the `indices` rows, in that order; a subset of a view
        is a view of the same root. Its rows are this set's, already
        checked, so only the indices are."""
        idx = np.array(indices, dtype=int)
        if idx.ndim != 1 or idx.shape[0] == 0:
            raise InputError(f"subset indices must be a nonempty vector, got shape {idx.shape}")
        root, rows = (self, idx) if self.root is None else (self.root, self.rows[idx])
        # `take` copies the rows that indexing by `idx` would, with less overhead
        return _unchecked(Dataset, features=_readonly(self.features.take(idx, axis=0)),
                          labels=_readonly(self.labels[idx]),
                          name=self.name if name is None else name, root=root,
                          rows=_readonly(rows))


@dataclass(frozen=True)
class LossSpec:
    """A bounded loss function applied to (prediction, label) pairs.

    Kinds and their values on a model's one output z with label y:

    - ``zero-one``: 1 if the predicted class differs from y, with z read as
      P(class 1) and thresholded at 0.5.
    - ``clamped-cross-entropy``: -log of the probability assigned to the
      true class, with z read as P(class 1) and the probabilities clamped to
      [p_min, 1 - p_min] so the loss stays in [0, -log p_min]; labels are
      0 or 1.
    - ``squared``: (z - y)^2, capped at bound_B.
    - ``absolute``: |y z|, capped at bound_B.
    - ``signed-score``: y z clipped to [-bound_B, bound_B]. The one signed
      kind; it encodes linear expectation constraints such as E[y z] <= c.
    - ``rate-indicator``: 1 if z - rate_shift >= 0 else 0 (the boundary
      counts as the event). Its rate_slope and rate_shift define its
      `surrogate`, the rate-sigmoid with the same fields that gradient steps
      minimize in its place (see `Problem.surrogate`).
    - ``rate-sigmoid``: logistic(rate_slope * (z - rate_shift)), the smooth
      stand-in for rate-indicator used inside primal gradient steps. Per
      sample, |1(z >= s) - sigma(a (z - s))| = 1 - sigma(a |z - s|) with
      a = rate_slope and s = rate_shift, so when every sample has margin
      |z - s| >= tau_min the rate-sigmoid risk is within
      1 - sigma(a tau_min) of the rate-indicator risk.

    Where a cap is active the gradient is zero (the loss is flat there).
    """

    kind: str
    bound_B: float
    clamp_p_min: float = 1e-6
    rate_shift: float = 0.5
    rate_slope: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.kind!r}")
        # A spec keys the memos of `models.Evaluation`, so its value hash is
        # computed once. The kind enters by its index: a str hash is salted
        # per process, and a spec may be unpickled in another one.
        object.__setattr__(self, "_hash", hash((LOSS_KINDS.index(self.kind), self.bound_B,
                                                self.clamp_p_min, self.rate_shift,
                                                self.rate_slope)))
        # before bound_B, which a cross-entropy loss derives from clamp_p_min
        if self.kind == "clamped-cross-entropy" and not (0.0 < self.clamp_p_min < 0.5):
            raise ConfigurationError("clamp_p_min must lie in (0, 1/2)")
        if not (math.isfinite(self.bound_B) and self.bound_B > 0):
            raise ConfigurationError(f"bound_B must be positive, got {self.bound_B}")
        if self.kind == "clamped-cross-entropy":
            expected = -math.log(self.clamp_p_min)
            if not math.isclose(self.bound_B, expected, rel_tol=1e-9):
                raise ConfigurationError(
                    f"clamped-cross-entropy requires bound_B == -log(clamp_p_min) "
                    f"= {expected!r}, got {self.bound_B!r}"
                )
        if self.kind in ("rate-indicator", "rate-sigmoid"):
            for name in ("rate_shift", "rate_slope"):
                if not math.isfinite(getattr(self, name)):
                    raise ConfigurationError(
                        f"{self.kind} {name} must be finite, got {getattr(self, name)}")
            if self.rate_slope < 1.0:
                raise ConfigurationError(f"{self.kind} slope must be >= 1, got {self.rate_slope}")
        if self.kind in ("zero-one", "rate-indicator", "rate-sigmoid") and self.bound_B < 1.0:
            raise ConfigurationError(
                f"{self.kind} takes values up to 1, so bound_B must be >= 1, got {self.bound_B}"
            )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def cross_entropy(cls, clamp_p_min: float = 1e-6) -> LossSpec:
        return cls(
            kind="clamped-cross-entropy",
            bound_B=-math.log(clamp_p_min),
            clamp_p_min=clamp_p_min,
        )

    @property
    def differentiable(self) -> bool:
        return self.kind in DIFFERENTIABLE_KINDS

    @property
    def surrogate(self) -> LossSpec:
        """What gradient steps minimize in this loss's place: the rate-sigmoid
        with a rate-indicator's fields, the loss itself for every other kind."""
        return replace(self, kind="rate-sigmoid") if self.kind == "rate-indicator" else self


# A set a risk averages over: a table, or an attacked set realised against
# each model (`robust.AdversarialDataset`).
DatasetLike = Union[Dataset, "AdversarialDataset"]


@dataclass(frozen=True)
class ReferenceTerm:
    """Optional subtracted risk for paired-expectation constraints.

    With a reference, a constraint reads
    risk(loss, dataset) - risk(reference.loss, reference.dataset) <= c,
    which is how group-rate-versus-overall-rate requirements are expressed.
    """

    loss: LossSpec
    dataset: DatasetLike


@dataclass(frozen=True)
class ConstraintSpec:
    """One expectation constraint: loss, threshold, and the dataset it averages over."""

    loss: LossSpec
    threshold_c: float
    dataset: DatasetLike
    reference: ReferenceTerm | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold_c):
            raise InputError(f"constraint threshold must be finite, got {self.threshold_c}")


@dataclass(frozen=True, eq=False)
class Problem:
    """Objective loss plus m >= 0 expectation constraints; compares and
    hashes by identity, like its datasets.

    Its Lagrangian r_0 + sum_i mu_i (r_i - r_ref,i - c_i) is laid out here
    alone: one risk per (loss, set) pair of `terms` (the objective's, then
    each constraint's followed by its reference's), read by `slacks_of` and
    `weights`; `datasets` holds the sets of `terms`, and `constraint_terms`
    names the constraint and part of each term after the objective.
    """

    objective_loss: LossSpec
    objective_dataset: DatasetLike
    constraints: tuple[ConstraintSpec, ...] = field(default_factory=tuple)
    name: str = "problem"
    terms: tuple[tuple[LossSpec, DatasetLike], ...] = field(init=False, repr=False, compare=False)
    datasets: tuple[DatasetLike, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        terms = [(self.objective_loss, self.objective_dataset)]
        layout = []  # per constraint: (index of its term, whether a reference follows, c)
        for c in self.constraints:
            layout.append((len(terms), c.reference is not None, c.threshold_c))
            terms.append((c.loss, c.dataset))
            if c.reference is not None:
                terms.append((c.reference.loss, c.reference.dataset))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "datasets", tuple(d for _, d in terms))
        object.__setattr__(self, "_layout", tuple(layout))
        dims = {d.n_features for d in self.datasets}
        if len(dims) != 1:
            raise InputError(
                f"all problem datasets must share a feature dimension, got {sorted(dims)}")

    def slacks_of(self, risks) -> np.ndarray:
        """Slacks (r_i - r_ref,i) - c_i, or r_i - c_i without a reference, from one
        risk per term, read-only; risks that are arrays stack along a new first axis,
        which keeps their shape when there are no constraints."""
        return _readonly(np.asarray([(risks[k] - risks[k + 1]) - c if ref else risks[k] - c
                                     for k, ref, c in self._layout], dtype=float
                                    ).reshape(len(self._layout), *np.asarray(risks[0]).shape))

    @property
    def constraint_terms(self) -> tuple[tuple[int, str, LossSpec, DatasetLike], ...]:
        """Every term after the objective, in `terms` order, as (constraint
        index, "dataset" or "reference", loss, set): the layout that
        `slacks_of` and `weights` read."""
        parts = []
        for i, (k, ref, _) in enumerate(self._layout):
            parts.append((i, "dataset", *self.terms[k]))
            if ref:
                parts.append((i, "reference", *self.terms[k + 1]))
        return tuple(parts)

    def weights(self, mu) -> list[float]:
        """One weight per term at multipliers `mu`: 1 for the objective, mu_i
        for constraint i and -mu_i for its reference."""
        weights = [1.0]
        for (_, ref, _), w in zip(self._layout, np.asarray(mu, float).tolist(), strict=True):
            weights += (w, -w) if ref else (w,)
        return weights

    @cached_property
    def table_terms(self) -> tuple[tuple[DatasetLike, ...], tuple[tuple, ...]]:
        """`terms` laid out once for one loss pass per (table, loss): (the
        distinct sets of `terms`, groups), both in first-seen order. A group
        is (source, loss, members): the terms whose loss equals `loss` and
        whose set is `source` or a view of it, one member (term indices, set,
        its rows in `source` or None for all of it) per distinct set. A
        view's source is its root; any other set (a table or an attacked
        set) is its own."""
        groups: dict[tuple, dict] = {}
        for k, (loss, d) in enumerate(self.terms):
            view = isinstance(d, Dataset) and d.root is not None
            groups.setdefault((d.root if view else d, loss), {}).setdefault(d, []).append(k)
        return (tuple(dict.fromkeys(self.datasets)),
                tuple((source, loss, tuple((tuple(ks), d, getattr(d, "rows", None))
                                           for d, ks in sets.items()))
                      for (source, loss), sets in groups.items()))

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def n_features(self) -> int:
        return self.objective_dataset.n_features

    @cached_property
    def surrogate(self) -> Problem:
        """What the gradient solver minimizes: this problem with each constraint
        and reference loss swapped for its `LossSpec.surrogate` (the objective
        is kept), or the problem itself when none changes. Built once, so the
        `Evaluation` memos, which key problems by identity, keep hitting."""
        constraints = tuple(
            replace(c, loss=c.loss.surrogate,
                    reference=c.reference if c.reference is None
                    else replace(c.reference, loss=c.reference.loss.surrogate))
            for c in self.constraints)
        if constraints == self.constraints:
            return self
        return replace(self, constraints=constraints)


def _check_predictions(loss: LossSpec, predictions: np.ndarray) -> np.ndarray:
    p = np.asarray(predictions, dtype=float)
    if p.ndim != 2:
        raise InputError(f"predictions must be an (N, 1) matrix, got shape {p.shape}")
    if p.shape[1] != 1:
        raise InputError(
            f"loss kind {loss.kind!r} expects 1-dimensional predictions, got {p.shape[1]}"
        )
    return p


def loss_values(loss: LossSpec, predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss values for an (N, 1) prediction matrix.

    Every kind except signed-score maps into [0, bound_B]; signed-score maps
    into [-bound_B, bound_B].
    """
    p = _check_predictions(loss, predictions)
    y = np.asarray(labels)
    n = p.shape[0]
    if y.shape != (n,):
        raise InputError(f"labels shape {y.shape} does not match {n} predictions")
    B = loss.bound_B
    kind = loss.kind
    z = p[:, 0]

    if kind == "zero-one":
        return ((z >= 0.5).astype(float) != y.astype(float)).astype(float)
    if kind == "clamped-cross-entropy":
        pos = y == 1
        if not (pos | (y == 0)).all():
            raise InputError("scalar cross-entropy predictions need {0, 1} labels")
        p_true = np.where(pos, z, 1.0 - z)
        return -np.log(np.minimum(np.maximum(p_true, loss.clamp_p_min), 1.0 - loss.clamp_p_min))
    if kind == "squared":
        return np.minimum((z - y.astype(float)) ** 2, B)
    if kind == "absolute":
        return np.minimum(np.abs(y.astype(float) * z), B)
    if kind == "signed-score":
        return np.minimum(np.maximum(y.astype(float) * z, -B), B)
    if kind == "rate-indicator":
        return (z - loss.rate_shift >= 0.0).astype(float)
    if kind == "rate-sigmoid":
        return stable_sigmoid(loss.rate_slope * (z - loss.rate_shift))
    raise ConfigurationError(f"unknown loss kind {kind!r}")  # pragma: no cover


def loss_pred_grads(loss: LossSpec, predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(loss)/d(prediction) per sample, zero wherever a cap or clamp is active."""
    if not loss.differentiable:
        raise SurrogateRequiredError(
            f"loss kind {loss.kind!r} has no gradient; gradient steps need a differentiable "
            "loss (a problem's surrogate swaps only rate-indicator constraints)"
        )
    p = _check_predictions(loss, predictions)
    y = np.asarray(labels)
    B = loss.bound_B
    kind = loss.kind
    z = p[:, 0]

    if kind == "clamped-cross-entropy":
        pos = y == 1
        p_true = np.where(pos, z, 1.0 - z)
        inside = (p_true >= loss.clamp_p_min) & (p_true <= 1.0 - loss.clamp_p_min)
        g = np.divide(np.where(pos, -1.0, 1.0), p_true, out=np.zeros(p.shape[0]), where=inside)
        return g[:, None]

    grads = np.zeros_like(p)
    yf = y.astype(float)
    if kind == "squared":
        r = z - yf
        grads[:, 0] = np.where(r * r < B, 2.0 * r, 0.0)
    elif kind == "absolute":
        s = yf * z
        grads[:, 0] = np.where(np.abs(s) < B, yf * np.sign(s), 0.0)
    elif kind == "signed-score":
        grads[:, 0] = np.where(np.abs(yf * z) < B, yf, 0.0)
    elif kind == "rate-sigmoid":
        s = stable_sigmoid(loss.rate_slope * (z - loss.rate_shift))
        grads[:, 0] = loss.rate_slope * s * (1.0 - s)
    return grads


def empirical_risk(at, loss: LossSpec, dataset: DatasetLike) -> float:
    """Sample-average loss of a model (or `Evaluation`) `at` on `dataset`.

    Model-dependent datasets (attacked sets) are realised against
    the model first, so the average is over the distribution the model
    itself induces.
    """
    from .models import Evaluation

    return Evaluation.of(at).risk(loss, dataset)

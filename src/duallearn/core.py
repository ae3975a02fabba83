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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .errors import ConfigurationError, InputError, SurrogateRequiredError

if TYPE_CHECKING:  # pragma: no cover
    from .robust import AdversarialDataset


LOSS_KINDS = (
    "zero-one",
    "clamped-cross-entropy",
    "squared",
    "hinge",
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
    "hinge",
    "absolute",
    "signed-score",
    "rate-sigmoid",
)


def stable_sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function, exact at large |x|.

    Branch-free: with e = exp(-|x|), 1 / (1 + e) for x >= 0 and e / (1 + e)
    (that is, exp(x) / (1 + exp(x))) for x < 0, so exp never overflows.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        if labels.dtype.kind == "f":
            labels = labels.astype(float)
        else:
            labels = labels.astype(np.int64)
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
        is a view of the same root."""
        idx = np.array(indices, dtype=int)
        view = Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            name=name if name is not None else self.name,
        )
        root, rows = (self, idx) if self.root is None else (self.root, self.rows[idx])
        object.__setattr__(view, "root", root)
        object.__setattr__(view, "rows", _readonly(rows))
        return view


@dataclass(frozen=True)
class LossSpec:
    """A bounded loss function applied to (prediction, label) pairs.

    Kinds and their values on a prediction vector z with label y:

    - ``zero-one``: 1 if the predicted class differs from y. Vector
      predictions classify by argmax; scalar predictions are read as
      P(class 1) and thresholded at 0.5.
    - ``clamped-cross-entropy``: -log of the probability assigned to the
      true class, with probabilities clamped to [p_min, 1 - p_min] so the
      loss stays in [0, -log p_min]. Scalar predictions are P(class 1).
    - ``squared``: (z - y)^2, capped at bound_B.
    - ``hinge``: max(0, 1 - y z), capped at bound_B, with label 0 read as
      -1 and every other label as itself, row by row: {0, 1} labels become
      {-1, +1}, {-1, +1} labels are unchanged, and a row's value never
      depends on the other rows of its set.
    - ``absolute``: |y z|, capped at bound_B.
    - ``signed-score``: y z clipped to [-bound_B, bound_B]. The one signed
      kind; it encodes linear expectation constraints such as E[y z] <= c.
    - ``rate-indicator``: 1 if z - rate_shift >= 0 else 0 (the boundary
      counts as the event). Its rate_slope and rate_shift define its
      surrogate, the rate-sigmoid with the same fields that primal steps
      minimize in its place (see `rate.build_surrogate_lagrangian`).
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
    def prediction_dim(self) -> int | None:
        """Required prediction dimension, or None when any dimension works."""
        if self.kind in ("zero-one", "clamped-cross-entropy"):
            return None
        return 1


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
    hashes by identity, like its datasets."""

    objective_loss: LossSpec
    objective_dataset: DatasetLike
    constraints: tuple[ConstraintSpec, ...] = field(default_factory=tuple)
    name: str = "problem"
    # Every set the Lagrangian averages over: the objective's, then each
    # constraint's and its reference's.
    datasets: tuple[DatasetLike, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        sets = [self.objective_dataset]
        for c in self.constraints:
            sets.append(c.dataset)
            if c.reference is not None:
                sets.append(c.reference.dataset)
        object.__setattr__(self, "datasets", tuple(sets))
        dims = {d.n_features for d in sets}
        if len(dims) != 1:
            raise InputError(f"all problem datasets must share a feature dimension, got {sorted(dims)}")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def n_features(self) -> int:
        return self.objective_dataset.n_features


def _pm_labels(labels: np.ndarray) -> np.ndarray:
    """Row-wise hinge labels: 0 becomes -1, every other label is kept."""
    y = labels.astype(float)
    return np.where(y == 0.0, -1.0, y)


def _check_predictions(loss: LossSpec, predictions: np.ndarray) -> np.ndarray:
    p = np.asarray(predictions, dtype=float)
    if p.ndim != 2:
        raise InputError(f"predictions must be an (N, k) matrix, got shape {p.shape}")
    want = loss.prediction_dim
    if want is not None and p.shape[1] != want:
        raise InputError(
            f"loss kind {loss.kind!r} expects {want}-dimensional predictions, got {p.shape[1]}"
        )
    return p


def loss_values(loss: LossSpec, predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss values for an (N, k) prediction matrix.

    Every kind except signed-score maps into [0, bound_B]; signed-score maps
    into [-bound_B, bound_B].
    """
    p = _check_predictions(loss, predictions)
    y = np.asarray(labels)
    n, k = p.shape
    if y.shape != (n,):
        raise InputError(f"labels shape {y.shape} does not match {n} predictions")
    B = loss.bound_B
    kind = loss.kind

    if kind == "zero-one":
        if k == 1:
            pred_class = (p[:, 0] >= 0.5).astype(float)
        else:
            pred_class = np.argmax(p, axis=1).astype(float)
        return (pred_class != y.astype(float)).astype(float)

    if kind == "clamped-cross-entropy":
        lo, hi = loss.clamp_p_min, 1.0 - loss.clamp_p_min
        if k == 1:
            yi = y.astype(float)
            if not ((yi == 0.0) | (yi == 1.0)).all():
                raise InputError("scalar cross-entropy predictions need {0, 1} labels")
            p_true = np.where(yi == 1.0, p[:, 0], 1.0 - p[:, 0])
        else:
            yi = y.astype(int)
            if np.any(yi < 0) or np.any(yi >= k):
                raise InputError(f"class labels must lie in [0, {k}) for {k}-way predictions")
            p_true = p[np.arange(n), yi]
        return -np.log(np.minimum(np.maximum(p_true, lo), hi))

    z = p[:, 0]
    if kind == "squared":
        return np.minimum((z - y.astype(float)) ** 2, B)
    if kind == "hinge":
        ypm = _pm_labels(y)
        return np.minimum(np.maximum(0.0, 1.0 - ypm * z), B)
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
            f"loss kind {loss.kind!r} has no gradient; substitute a surrogate first"
        )
    p = _check_predictions(loss, predictions)
    y = np.asarray(labels)
    n, k = p.shape
    B = loss.bound_B
    kind = loss.kind
    grads = np.zeros_like(p)

    if kind == "clamped-cross-entropy":
        lo, hi = loss.clamp_p_min, 1.0 - loss.clamp_p_min
        if k == 1:
            yi = y.astype(float)
            p_true = np.where(yi == 1.0, p[:, 0], 1.0 - p[:, 0])
            inside = (p_true >= lo) & (p_true <= hi)
            sign = np.where(yi == 1.0, 1.0, -1.0)
            grads[:, 0] = np.where(inside, -sign / np.where(inside, p_true, 1.0), 0.0)
        else:
            yi = y.astype(int)
            p_true = p[np.arange(n), yi]
            inside = (p_true >= lo) & (p_true <= hi)
            grads[np.arange(n), yi] = np.where(inside, -1.0 / np.where(inside, p_true, 1.0), 0.0)
        return grads

    z = p[:, 0]
    yf = y.astype(float)
    if kind == "squared":
        r = z - yf
        grads[:, 0] = np.where(r * r < B, 2.0 * r, 0.0)
    elif kind == "hinge":
        ypm = _pm_labels(y)
        h = 1.0 - ypm * z
        grads[:, 0] = np.where((h > 0.0) & (h < B), -ypm, 0.0)
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

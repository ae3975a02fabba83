"""Adversarial-distribution constraints: worst-case input perturbations.

An attack maximizes a loss over the l-infinity ball around each sample,
intersected with the feature box when one is declared. For a model whose
output is monotone in an affine score z = w . x + b (logistic or linear)
the maximum is exact: every loss kind is quasiconvex in that output, and
over the ball-and-box z ranges between the two corners
x -/+ epsilon * sign(w), clipped to the box, so the larger of the two
corner losses is the worst case. An MLP is attacked by iterated
signed-gradient ascent (FGSM/PGD) with projection back onto the ball and
then into the box.
Either way the clean sample competes as a candidate, so an attack never
reports a loss below the unperturbed one, and the model's predictions on
the rows it picks come back with them. An `AdversarialDataset` is the
constraint's dataset: it attacks its base set, or some rows of it, against
whatever model a slack or gradient is read at. A scored iterate's
`models.Evaluation` keeps the whole attacked set with its predictions; a
minibatch step at a bare parameter vector uses its rows' arrays once
(`attacked_rows`). Nothing is cached across model states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, LossSpec, _readonly, _unchecked, loss_values
from .errors import ConfigurationError, InputError
from .models import (LinearArch, LogisticArch, ModelState, _forward, grad_input_batch,
                     predict_batch)


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation budget, and the schedule of the gradient attack.

    `epsilon` and `clamp_box` bound every attack. Models whose output is
    monotone in an affine score (logistic, linear with one output) get the
    exact two-corner attack, which has no schedule: `steps`, `step_size`,
    `restarts` and `seed` (which keys the restart draws) apply only to
    models attacked by PGD. FGSM is the single-step special case (steps=1,
    step_size=epsilon). The stock PGD schedules follow the usual split
    between a cheap training attack (5 steps of epsilon/3, no extra
    restarts) and a strong evaluation attack (50 steps of epsilon/30, worst
    case over 10 restarts).
    """

    epsilon: float
    steps: int = 1
    step_size: float = 0.0
    restarts: int = 1
    clamp_box: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigurationError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if not (math.isfinite(self.step_size) and self.step_size >= 0):
            raise ConfigurationError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.seed < 0:  # a restart generator is seeded by seed XOR a sample index
            raise ConfigurationError(f"attack.seed must be >= 0, got {self.seed}")
        if self.clamp_box is not None:
            lo, hi = self.clamp_box
            if not lo < hi:  # also true of a NaN bound; an infinite one leaves its side open
                raise ConfigurationError(f"clamp_box needs lo < hi and no NaN, got ({lo}, {hi})")

    @classmethod
    def fgsm(cls, epsilon: float, clamp_box=None, seed: int = 0) -> AttackConfig:
        return cls(epsilon=epsilon, steps=1, step_size=epsilon, clamp_box=clamp_box, seed=seed)

    @classmethod
    def pgd_training(cls, epsilon: float, clamp_box=None, seed: int = 0) -> AttackConfig:
        return cls(epsilon=epsilon, steps=5, step_size=epsilon / 3.0,
                   restarts=1, clamp_box=clamp_box, seed=seed)

    @classmethod
    def pgd_evaluation(cls, epsilon: float, clamp_box=None, seed: int = 0) -> AttackConfig:
        return cls(epsilon=epsilon, steps=50, step_size=epsilon / 30.0,
                   restarts=10, clamp_box=clamp_box, seed=seed)


def _project(X_adv: np.ndarray, X0: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    # Ball first, then box; order recorded in run metadata by the CLI.
    out = np.clip(X_adv, X0 - cfg.epsilon, X0 + cfg.epsilon)
    if cfg.clamp_box is not None:
        out = np.clip(out, cfg.clamp_box[0], cfg.clamp_box[1])
    return out


def _restart_starts(X0: np.ndarray, cfg: AttackConfig, sample_indices: np.ndarray):
    """Start point of each restart in turn: the clean rows, then uniform draws in the ball.

    Each sample draws its restarts once, from one generator seeded by
    cfg.seed XOR its sample index, as a (restarts - 1, d) block; restart
    r >= 1 starts at row r - 1 of that block. So each restart is fresh yet
    reproducible per (seed, sample index).
    """
    yield X0.copy()
    if cfg.restarts == 1:
        return
    draws = np.empty((X0.shape[0], cfg.restarts - 1, X0.shape[1]))
    for n, i in enumerate(sample_indices):
        draws[n] = np.random.default_rng(cfg.seed ^ int(i)).uniform(
            -cfg.epsilon, cfg.epsilon, size=draws.shape[1:])
    for r in range(cfg.restarts - 1):
        yield _project(X0 + draws[:, r], X0, cfg)


def _corner_signs(model: ModelState) -> np.ndarray | None:
    """sign(w) when the model's one output is monotone in the score
    w . x + b, else None."""
    arch = model.arch
    if isinstance(arch, LogisticArch):
        return np.sign(model.params[:-1])
    if isinstance(arch, LinearArch):
        return np.sign(model.params[: arch.in_dim])
    return None


def _corner_stack(X0: np.ndarray, signs: np.ndarray, cfg: AttackConfig) -> np.ndarray:
    """(3, N, d): the rows X0, then the corners of each row's ball-and-box
    where w . x is largest and smallest for sign(w) = `signs`; a coordinate
    with w_j = 0 stays put. Each coordinate of x +/- epsilon * sign(w) is
    already one of the ball's bounds (or x itself), so `_project` would only
    clip it to the box."""
    step = cfg.epsilon * signs
    stack = np.empty((3, *X0.shape))
    stack[0] = X0
    np.add(X0, step, out=stack[1])
    np.subtract(X0, step, out=stack[2])
    if cfg.clamp_box is not None:
        np.clip(stack[1:], cfg.clamp_box[0], cfg.clamp_box[1], out=stack[1:])
    return stack


def _pgd(model: ModelState, loss: LossSpec, X0: np.ndarray, y: np.ndarray,
         cfg: AttackConfig, sample_indices: np.ndarray | None, P0: np.ndarray):
    """Each restart's last PGD iterate, with the model's predictions there."""
    if sample_indices is None:
        sample_indices = np.arange(X0.shape[0])
    P = P0
    for X_adv in _restart_starts(X0, cfg, sample_indices):
        for _ in range(cfg.steps):
            # restart 0 starts at the clean rows, whose predictions P0 holds
            g = grad_input_batch(model, loss, X_adv, y, P)
            P = None
            X_adv = _project(X_adv + cfg.step_size * np.sign(g), X0, cfg)
        yield X_adv, predict_batch(model, X_adv)


def perturb_batch(model: ModelState, loss: LossSpec, X: np.ndarray,
                  labels: np.ndarray, cfg: AttackConfig,
                  sample_indices: np.ndarray | None = None,
                  clean_predictions: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Attack every row of X at once.

    Returns (perturbed features, the model's predictions on them).
    `clean_predictions`, when given, is `predict_batch(model, X)` already
    computed by the caller, so the clean rows are not forwarded again. The
    candidates are the two corners of an affine-score model, or else each
    PGD restart's last iterate; starting from the clean row, a row moves to
    a candidate only where its loss is strictly above the best so far. The
    corners are forwarded in one stack, with the clean rows unless their
    predictions are given, scored in one `loss_values` call and picked by
    one `argmax`, whose first maximum is that rule. Restart randomness is
    keyed by cfg.seed XOR the sample index, so attacks are reproducible and
    independent of how samples are batched.
    Every clean row must lie inside cfg.clamp_box, when one is declared;
    then projecting onto the ball and then the box keeps each row inside
    both.
    """
    X0 = np.asarray(X, dtype=float)
    y = np.asarray(labels)
    if cfg.clamp_box is not None:
        lo, hi = cfg.clamp_box
        outside = np.nonzero(np.any((X0 < lo) | (X0 > hi), axis=1))[0]
        if outside.size:
            raise InputError(
                f"{outside.size} clean rows lie outside the attack clamp_box [{lo}, {hi}] "
                f"(first: row {int(outside[0])})"
            )
    signs = _corner_signs(model)
    if signs is not None and signs.any() and cfg.epsilon > 0.0:
        stack = _corner_stack(X0, signs, cfg)
        if clean_predictions is None:
            preds = _forward(model, stack)
        else:
            preds = np.concatenate([clean_predictions[None], _forward(model, stack[1:])])
        k, n, d = stack.shape
        preds = preds.reshape(k * n, -1)
        losses = loss_values(loss, preds, np.concatenate([y] * k)).reshape(k, n)
        # each row's pick, as a row of the (k n)-row tables
        picks = losses.argmax(axis=0) * n + np.arange(n)
        return stack.reshape(k * n, d).take(picks, axis=0), preds.take(picks, axis=0)
    best_X = X0.copy()
    best_P = predict_batch(model, X0) if clean_predictions is None else clean_predictions
    if cfg.epsilon == 0.0 or signs is not None:
        # no ball, or w = 0: every candidate is the clean row itself
        return best_X, best_P
    best_loss = loss_values(loss, best_P, y)
    for X_adv, P in _pgd(model, loss, X0, y, cfg, sample_indices, best_P):
        cand_loss = loss_values(loss, P, y)
        better = (cand_loss > best_loss)[:, None]
        best_X = np.where(better, X_adv, best_X)
        best_P = np.where(better, P, best_P)
        best_loss = np.maximum(best_loss, cand_loss)
    return best_X, best_P


class AdversarialDataset:
    """Model-dependent dataset: the base set attacked against a model.

    `attack` regenerates the set (or its `indices` rows) on every call and
    returns it as a plain `Dataset`, with the model's predictions there. Its
    length is that of `base`, so batches can be drawn before attacking.
    """

    def __init__(self, base: Dataset, loss: LossSpec, cfg: AttackConfig) -> None:
        self.base = base
        self.loss = loss
        self.cfg = cfg

    @property
    def name(self) -> str:
        return f"{self.base.name}@adversarial"

    @property
    def n_features(self) -> int:
        return self.base.n_features

    def __len__(self) -> int:
        return len(self.base)

    def attack(self, model: ModelState, indices: np.ndarray | None = None,
               clean_predictions: np.ndarray | None = None) -> tuple[Dataset, np.ndarray]:
        """(the base set, or its `indices` rows, attacked against `model`;
        the model's predictions there). `clean_predictions`, when given, are
        the model's predictions on the clean rows attacked, which are then
        not forwarded again (see `perturb_batch`)."""
        X, y, P = self.attacked_rows(model, indices, clean_predictions)
        return _unchecked(Dataset, features=_readonly(X), labels=_readonly(y),
                          name=self.name), P

    def attacked_rows(self, model: ModelState, indices: np.ndarray | None = None,
                      clean_predictions: np.ndarray | None = None):
        """`attack` as arrays: (features, labels, predictions), with no
        `Dataset` built around them."""
        X, y = self.base.features, self.base.labels
        if indices is not None:
            indices = np.asarray(indices, dtype=int)
            if indices.ndim != 1 or indices.shape[0] == 0:
                raise InputError(f"attack indices must be a nonempty vector, got shape "
                                 f"{indices.shape}")
            X, y = X.take(indices, axis=0), y[indices]
        X, P = perturb_batch(model, self.loss, X, y, self.cfg, sample_indices=indices,
                             clean_predictions=clean_predictions)
        # the labels are the base's, already checked; a huge ball can still
        # push a feature past the largest float
        if not np.isfinite(X).all():
            raise InputError("dataset features must be finite")
        return X, y, P

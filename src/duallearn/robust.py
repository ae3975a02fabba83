"""Adversarial-distribution constraints: worst-case input perturbations.

An attack maximizes a loss over the l-infinity ball around each sample,
intersected with the feature box when one is declared. For a model whose
output is monotone in an affine score z = w . x + b (logistic, or linear
with one output) the maximum is exact: every scalar loss kind is
quasiconvex in that output, and over the ball-and-box z ranges between the
two corners x -/+ epsilon * sign(w), clipped to the box, so the larger of
the two corner losses is the worst case. Every other model (MLPs, linear
maps with several outputs) is attacked by iterated signed-gradient ascent
(FGSM/PGD) with projection back onto the ball and then into the box.
Either way the clean sample competes as a candidate, so an attack never
reports a loss below the unperturbed one, and the model's predictions on
the rows it picks come back with them. An `AdversarialDataset` is the
constraint's dataset: it attacks its base set against whatever model a
slack or gradient evaluation is made at and returns a plain `Dataset` with
that model's predictions on it. A `models.Evaluation` keeps both for its one
model, so nothing is cached across model states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, LossSpec, loss_values
from .errors import ConfigurationError, InputError
from .models import LinearArch, LogisticArch, ModelState, grad_input_batch, predict_batch


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
            raise ConfigurationError("epsilon must be >= 0")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if self.step_size < 0:
            raise ConfigurationError("step_size must be >= 0")
        if self.clamp_box is not None:
            lo, hi = self.clamp_box
            if not lo < hi:
                raise ConfigurationError(f"clamp_box must satisfy lo < hi, got {self.clamp_box}")

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


def _affine_weights(model: ModelState) -> np.ndarray | None:
    """w when the model's one output is monotone in the score w . x + b, else None."""
    arch = model.arch
    if isinstance(arch, LogisticArch):
        return model.params[:-1]
    if isinstance(arch, LinearArch) and arch.out_dim == 1:
        return model.params[: arch.in_dim]
    return None


def _corners(model: ModelState, w: np.ndarray, X0: np.ndarray, cfg: AttackConfig):
    """The corners of each row's ball-and-box where w . x is largest and
    smallest, with the model's predictions there; a coordinate with w_j = 0
    stays put. With w all zero both corners are the clean rows, and a
    candidate equal to the clean row never replaces it, so none is yielded."""
    step = cfg.epsilon * np.sign(w)
    if not step.any():
        return
    for X_adv in (_project(X0 + step, X0, cfg), _project(X0 - step, X0, cfg)):
        yield X_adv, predict_batch(model, X_adv)


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
    a candidate only where its loss is strictly above the best so far.
    Restart randomness is keyed by cfg.seed XOR the sample index, so attacks
    are reproducible and independent of how samples are batched. Every clean
    row must lie inside cfg.clamp_box, when one is declared; then projecting
    onto the ball and then the box keeps each row inside both.
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
    best_X = X0.copy()
    best_P = predict_batch(model, X0) if clean_predictions is None else clean_predictions
    if cfg.epsilon == 0.0:
        return best_X, best_P
    w = _affine_weights(model)
    candidates = (_corners(model, w, X0, cfg) if w is not None
                  else _pgd(model, loss, X0, y, cfg, sample_indices, best_P))
    best_loss = loss_values(loss, best_P, y)
    for X_adv, P in candidates:
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
        X, y = self.base.features, self.base.labels
        if indices is not None:
            indices = np.asarray(indices, dtype=int)
            X, y = X[indices], y[indices]
        X, P = perturb_batch(model, self.loss, X, y, self.cfg, sample_indices=indices,
                             clean_predictions=clean_predictions)
        return Dataset(features=X, labels=y, name=self.name), P

"""Rate (probability) constraints and their smooth sigmoid surrogates.

A rate constraint bounds the frequency of a thresholded event of the model
output. The indicator making up that frequency has no usable gradient, so
primal steps minimize a Lagrangian in which the indicator is swapped for a
steep sigmoid; dual updates keep using the true indicator slacks, so
feasibility is always measured against the actual rate. The sigmoid is the
indicator's own twin: a rate-sigmoid with the indicator's `rate_shift`,
`rate_slope` and `bound_B`, so each indicator configures its surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LossSpec, Problem, stable_sigmoid
from .errors import ConfigurationError, InputError
from .lagrangian import DualState
from .models import Evaluation, ModelState


@dataclass(frozen=True)
class MarginReport:
    """Smallest |prediction - shift| seen across rate-constraint samples,
    plus the samples falling under the requested margin."""

    min_abs_margin_tau: float
    violating_sample_indices: tuple[tuple[int, str, int], ...]

    def __post_init__(self) -> None:
        if self.min_abs_margin_tau < 0:
            raise InputError("margin must be nonnegative")


def _is_rate(loss: LossSpec) -> bool:
    return loss.kind in ("rate-indicator", "rate-sigmoid")


def build_surrogate_lagrangian(problem: Problem) -> Problem:
    """Problem with every rate-indicator loss swapped for its surrogate.

    The surrogate of a rate-indicator is the rate-sigmoid with the same
    `rate_shift`, `rate_slope` and `bound_B`; it replaces the indicator on a
    constraint and on its reference alike. Thresholds, datasets, and
    reference structure are untouched; the result is meant for the primal
    step only, while slack evaluation stays on the original problem.
    Problems without rate indicators pass through unchanged. Equal
    surrogates need not be one object: an evaluation keys losses by value.
    """

    def surrogate(loss: LossSpec) -> LossSpec:
        return replace(loss, kind="rate-sigmoid") if loss.kind == "rate-indicator" else loss

    new_constraints = []
    for c in problem.constraints:
        reference = c.reference
        if reference is not None:
            reference = replace(reference, loss=surrogate(reference.loss))
        new_constraints.append(replace(c, loss=surrogate(c.loss), reference=reference))
    if tuple(new_constraints) == problem.constraints:
        return problem
    return replace(problem, constraints=tuple(new_constraints))


def surrogate_gap_bound(mu: DualState, tau: float, a: float) -> float:
    """2 ||mu||_1 (1 - sigmoid(a tau)): how far the surrogate minimizer can sit
    above the true indicator-Lagrangian minimum when every sample clears the
    margin tau. `a` is the indicators' `rate_slope`, the slope of their
    surrogates.

    Each rate risk moves by at most 1 - sigmoid(a tau) under the swap; see the
    ``rate-sigmoid`` entry of the `LossSpec` docstring in `duallearn.core`.
    """
    if tau < 0:
        raise InputError(f"tau must be >= 0, got {tau}")
    if a < 1.0:
        raise ConfigurationError(f"sigmoid slope must be >= 1, got {a}")
    l1 = float(np.abs(mu.mu).sum())
    return 2.0 * l1 * (1.0 - stable_sigmoid(a * float(tau)))


def margin_check(model: ModelState, problem: Problem, tau_min: float = 0.0) -> MarginReport:
    """Scan rate-constraint samples for |prediction - shift| margins.

    Reference datasets attached to rate constraints are scanned too, since
    their indicators enter the same Lagrangian. Violations are reported as
    (constraint index, "dataset" | "reference", sample index).
    """
    if tau_min < 0:
        raise InputError("tau_min must be >= 0")
    parts = []
    for i, c in enumerate(problem.constraints):
        if _is_rate(c.loss):
            parts.append((i, "dataset", c.loss, c.dataset))
        if c.reference is not None and _is_rate(c.reference.loss):
            parts.append((i, "reference", c.reference.loss, c.reference.dataset))
    if not parts:
        raise InputError("problem has no rate constraints to margin-check")
    ev = Evaluation.of(model, [ds_like for *_, ds_like in parts])
    min_margin = math.inf
    violations: list[tuple[int, str, int]] = []
    for i, part, loss, ds_like in parts:
        margins = np.abs(ev.predictions(ds_like)[:, 0] - loss.rate_shift)
        min_margin = min(min_margin, float(margins.min()))
        for n in np.nonzero(margins < tau_min)[0]:
            violations.append((i, part, int(n)))
    return MarginReport(min_abs_margin_tau=min_margin,
                        violating_sample_indices=tuple(violations))

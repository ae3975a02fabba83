"""Generalization-bound calculators and the duality-gap report.

Pure formula evaluation: uniform-convergence radii from VC dimension or
Rademacher complexity, a Monte-Carlo estimator (with its standard error) of
empirical Rademacher complexity over finite achievable-loss-vector sets, the
strict-feasibility multiplier cap, and the assembled optimality/feasibility
gap report. The parametrization-richness input nu and the feasibility
margin xi are user-declared values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Refuse a `value` that is not finite, is negative, or is zero when `positive`."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise InputError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")


def _check_common(N: int, delta: float, B: float) -> None:
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    _check_delta(delta)
    _check_finite("B", B, positive=True)


def zeta_vc(N: int, d_vc: float, delta: float, B: float) -> float:
    """Uniform-convergence radius from a VC-dimension cap.

    B * sqrt((1/N) * (1 + log(4 (2N)^d_vc / delta))), evaluated in log space
    so large d_vc or N cannot overflow.
    """
    _check_common(N, delta, B)
    _check_finite("d_vc", d_vc)
    log_term = math.log(4.0) + d_vc * math.log(2.0 * N) - math.log(delta)
    return B * math.sqrt((1.0 + log_term) / N)


def zeta_rademacher(N: int, R_N: float, delta: float, B: float) -> float:
    """Uniform-convergence radius from a Rademacher-complexity cap:
    2 B R_N + B sqrt(log(1/delta) / (2 N))."""
    _check_common(N, delta, B)
    _check_finite("R_N", R_N)
    return 2.0 * B * R_N + B * math.sqrt(math.log(1.0 / delta) / (2.0 * N))


def empirical_rademacher_stats(loss_matrix: np.ndarray, draws: int,
                               seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of sup-correlation with random signs, with its
    standard error.

    Rows of loss_matrix are the achievable loss vectors of a finite
    hypothesis set on N samples; each draw scores sup_rows (1/N) sigma . row.
    """
    A = np.asarray(loss_matrix, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"loss_matrix must be a nonempty (H, N) matrix, got shape {A.shape}")
    if draws < 1:
        raise InputError(f"draws must be >= 1, got {draws}")
    H, N = A.shape
    rng = np.random.default_rng(seed)
    sups = np.empty(draws)
    chunk = 20_000
    for start in range(0, draws, chunk):
        size = min(chunk, draws - start)
        sigma = rng.integers(0, 2, size=(size, N)) * 2.0 - 1.0
        sups[start : start + size] = (sigma @ A.T).max(axis=1) / N
    est = float(sups.sum()) / draws
    stderr = float(sups.std(ddof=1) / math.sqrt(draws)) if draws > 1 else math.inf
    return est, stderr


def multiplier_bound(B: float, xi: float) -> float:
    """B / xi, an upper bound on every relevant optimal multiplier l1-norm."""
    _check_finite("B", B, positive=True)
    _check_finite("xi (the strictly feasible margin)", xi, positive=True)
    return B / xi


@dataclass(frozen=True)
class BoundsReport:
    """Assembled gap estimate with every ingredient it was built from.

    Fields not supplied to gap_report stay None; Delta_cap is B/xi when both
    are known. nu is whatever the user declared (there is no constructive
    estimate for it), and callers should label it as assumed.
    """

    zeta_per_constraint: tuple[float, ...]
    zeta_bar: float
    Delta: float
    M: float
    nu: float
    gap_estimate: float
    B: float | None = None
    xi: float | None = None
    delta: float | None = None
    Delta_cap: float | None = None
    feasibility_margins: tuple[float, ...] | None = None


def gap_report(zeta_per_constraint, Delta: float, M: float, nu: float,
               B: float | None = None, xi: float | None = None,
               delta: float | None = None,
               thresholds_c=None) -> BoundsReport:
    """Optimality gap estimate (1 + Delta) * (M nu + max_i zeta_i).

    When constraint thresholds are passed, the per-constraint feasibility
    margins c_i + zeta_i are included as well.
    """
    zetas = tuple(float(z) for z in zeta_per_constraint)
    if len(zetas) == 0:
        raise InputError("zeta_per_constraint must be nonempty")
    for name, val in (("Delta", Delta), ("M", M), ("nu", nu)):
        _check_finite(name, val)
    for i, z in enumerate(zetas):
        _check_finite(f"zeta_per_constraint[{i}]", z)
    for name, val in (("B", B), ("xi (the strictly feasible margin)", xi)):
        if val is not None:
            _check_finite(name, val, positive=True)
    if delta is not None:
        _check_delta(delta)
    zeta_bar = max(zetas)
    gap = (1.0 + Delta) * (M * nu + zeta_bar)
    cap = None if B is None or xi is None else multiplier_bound(B, xi)
    margins = None
    if thresholds_c is not None:
        cs = tuple(float(c) for c in thresholds_c)
        if len(cs) != len(zetas):
            raise InputError("thresholds_c length must match zeta_per_constraint")
        for i, c in enumerate(cs):
            if not math.isfinite(c):
                raise InputError(f"thresholds_c[{i}] must be finite, got {c}")
        margins = tuple(c + z for c, z in zip(cs, zetas))
    return BoundsReport(zeta_per_constraint=zetas, zeta_bar=zeta_bar, Delta=Delta,
                        M=M, nu=nu, gap_estimate=gap, B=B, xi=xi, delta=delta,
                        Delta_cap=cap, feasibility_margins=margins)

"""The bound calculators against the independent formulas in
fixtures/bounds_reference.py."""

import re

import numpy as np
import pytest

from duallearn.bounds import (
    empirical_rademacher_stats,
    gap_report,
    multiplier_bound,
    zeta_rademacher,
    zeta_vc,
)
from duallearn.errors import InputError

from fixtures.bounds_reference import (
    ref_empirical_rademacher_exact,
    ref_gap_estimate,
    ref_multiplier_bound,
    ref_zeta_rademacher,
    ref_zeta_vc,
)


@pytest.mark.parametrize("H, N, seed", [(1, 4, 0), (2, 1, 1), (3, 6, 2), (5, 8, 3),
                                        (4, 10, 4), (8, 10, 5)])
def test_empirical_rademacher_matches_exact_enumeration(H, N, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(H, N))
    exact = ref_empirical_rademacher_exact(A.tolist())
    est, stderr = empirical_rademacher_stats(A, draws=20_000, seed=seed)
    assert 0.0 < stderr < 0.01
    assert abs(est - exact) <= 4.0 * stderr


def test_empirical_rademacher_of_a_single_sign_pattern_set_is_exact():
    # {row, -row} with |row_n| = 1: sup_rows sigma . row / N = |sigma . row| / N,
    # so every draw lands on the enumerated distribution of |sum of N signs| / N
    A = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    exact = ref_empirical_rademacher_exact(A.tolist())
    assert exact == pytest.approx(0.5, abs=1e-15)  # E|s1 + s2 + s3| / 3 = 1.5 / 3
    est, stderr = empirical_rademacher_stats(A, draws=40_000, seed=7)
    assert abs(est - exact) <= 4.0 * stderr


def test_closed_form_radii_and_gap_match_the_reference_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        N = int(rng.integers(1, 100_000))
        delta = float(rng.uniform(1e-6, 0.999))
        B = float(rng.uniform(0.01, 10.0))
        d_vc = float(rng.uniform(0.0, 50.0))
        R_N = float(rng.uniform(0.0, 2.0))
        assert zeta_vc(N, d_vc, delta, B) == pytest.approx(ref_zeta_vc(N, d_vc, delta, B),
                                                           rel=1e-12)
        assert zeta_rademacher(N, R_N, delta, B) == pytest.approx(
            ref_zeta_rademacher(N, R_N, delta, B), rel=1e-12)
        xi = float(rng.uniform(1e-3, 1.0))
        assert multiplier_bound(B, xi) == pytest.approx(ref_multiplier_bound(B, xi),
                                                        rel=1e-12)
        zetas = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6))).tolist()
        Delta, M, nu = (float(v) for v in rng.uniform(0.0, 3.0, size=3))
        report = gap_report(zetas, Delta, M, nu)
        assert report.gap_estimate == pytest.approx(ref_gap_estimate(zetas, Delta, M, nu),
                                                    rel=1e-12)


GAP_REPORT_INPUTS = {
    "Delta": lambda v: gap_report([0.1], v, 1.0, 1.0),
    "M": lambda v: gap_report([0.1], 1.0, v, 1.0),
    "nu": lambda v: gap_report([0.1], 1.0, 1.0, v),
    "B": lambda v: gap_report([0.1], 1.0, 1.0, 1.0, B=v),
    "xi": lambda v: gap_report([0.1], 1.0, 1.0, 1.0, xi=v),
    "delta": lambda v: gap_report([0.1], 1.0, 1.0, 1.0, delta=v),
    "thresholds_c[1]": lambda v: gap_report([0.1, 0.2], 1.0, 1.0, 1.0, thresholds_c=[0.0, v]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, call", [
    ("B", lambda v: zeta_vc(100, 2.0, 0.05, v)),
    ("d_vc", lambda v: zeta_vc(100, v, 0.05, 1.0)),
    ("B", lambda v: zeta_rademacher(100, 0.1, 0.05, v)),
    ("R_N", lambda v: zeta_rademacher(100, v, 0.05, 1.0)),
    ("B", lambda v: multiplier_bound(v, 0.1)),
    ("xi", lambda v: multiplier_bound(1.0, v)),
    ("zeta_per_constraint[1]", lambda v: gap_report([0.1, v], 1.0, 1.0, 1.0)),
    *GAP_REPORT_INPUTS.items(),
], ids=["zeta_vc-B", "zeta_vc-d_vc", "zeta_rademacher-B", "zeta_rademacher-R_N",
        "multiplier_bound-B", "multiplier_bound-xi", "gap_report-zeta",
        *(f"gap_report-{name}" for name in GAP_REPORT_INPUTS)])
def test_non_finite_inputs_are_refused_by_name(name, call, value):
    with pytest.raises(InputError, match=f"^{re.escape(name)} "):
        call(value)


@pytest.mark.parametrize("name", GAP_REPORT_INPUTS)
def test_gap_report_refuses_a_negative_input_by_name_except_a_threshold(name):
    """Each input of gap_report is checked on its own, whether or not the
    others are given; only a threshold c_i may be negative."""
    if name.startswith("thresholds_c"):
        assert GAP_REPORT_INPUTS[name](-1.0).feasibility_margins == (0.1, -0.8)
        return
    with pytest.raises(InputError, match=f"^{re.escape(name)} "):
        GAP_REPORT_INPUTS[name](-1.0)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
def test_gap_report_refuses_a_delta_outside_the_open_unit_interval(delta):
    with pytest.raises(InputError, match=re.escape(f"delta must lie in (0, 1), got {delta}")):
        gap_report([0.1], 1.0, 1.0, 1.0, delta=delta)


def test_gap_report_with_every_optional_input_bad_names_the_first():
    with pytest.raises(InputError, match="^B must be finite and > 0, got nan"):
        gap_report([0.1], 1, 1, 1, B=np.nan, delta=np.nan, thresholds_c=[np.inf])

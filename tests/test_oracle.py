"""The dual grid of `oracle.dual_enumerate` on enumerable instances."""

import numpy as np
import pytest

from duallearn.lagrangian import enumeration_stats
from duallearn.oracle import (
    EnumerableProblem,
    MuGrid,
    dual_enumerate,
    ecrm_enumerate,
    example1_population_objective,
    example1_trial,
)

from helpers import convex_toy, random_enumerable, toy_analytic, toy_candidates


def test_weak_duality_against_the_constrained_argmin():
    rng = np.random.default_rng(21)
    feasible = 0
    for _ in range(40):
        ep = random_enumerable(rng, m=int(rng.integers(1, 3)))
        d = dual_enumerate(ep, MuGrid(mu_max=10.0, points=101))
        p = ecrm_enumerate(ep)
        feasible += p.feasible
        assert d.d_hat <= p.value
        # the reported maximizer is the dual value at mu_star
        R, S = enumeration_stats(ep.problem, ep.candidates)
        assert d.d_hat == pytest.approx(float(np.min(R + S @ d.mu_star)), abs=1e-12)
        assert np.all(d.mu_star >= 0.0)
    assert feasible >= 10  # the bound was checked against finite primal values


def test_boundary_hit_on_a_grid_too_small_to_bracket_mu_star():
    theta_star, mu_star, p_star = toy_analytic()  # mu* = 1
    ep = EnumerableProblem(problem=convex_toy(), candidates=toy_candidates())
    small = dual_enumerate(ep, MuGrid(mu_max=0.5, points=51))
    assert small.boundary_hit
    assert small.mu_star[0] == pytest.approx(0.5)
    wide = dual_enumerate(ep, MuGrid(mu_max=4.0, points=401))
    assert not wide.boundary_hit
    assert wide.mu_star[0] == pytest.approx(mu_star, abs=0.02)
    assert small.d_hat < wide.d_hat <= ecrm_enumerate(ep).value
    assert wide.d_hat == pytest.approx(p_star, abs=1e-3)
    assert wide.theta.params[0] == pytest.approx(theta_star, abs=0.01)


@pytest.mark.parametrize("N", [10, 100, 1000])
def test_example1_selects_twice_the_population_optimum(N):
    # the population optimum is theta = [1, 1] with objective 1/16; the
    # sample-average constraints exclude it, and the feasible argmin has 1/8
    optimum = example1_population_objective([1.0, 1.0])
    assert optimum == 0.0625
    for seed in range(50):
        trial = example1_trial(N, seed)
        assert trial["feasible"], (N, seed)
        assert trial["population_J"] == 2 * optimum == 0.125, (N, seed)

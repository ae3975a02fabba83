"""The exact dual LP of `oracle.dual_enumerate` on enumerable instances, the
example1 trial lines and their closed-form risks against the per-trial
enumeration, and the draw stream each trial reads."""

import json
import math

import numpy as np
import pytest

from duallearn import oracle
from duallearn.errors import InputError
from duallearn.lagrangian import enumeration_stats
from duallearn.models import LinearArch, predict_batch
from duallearn.oracle import (
    EX1_BLOCK_TRIALS,
    LP_FEASIBILITY_TOL,
    EnumerableProblem,
    _example1_block_stats,
    constrained_argmin,
    dual_enumerate,
    ecrm_enumerate,
    example1_block_lines,
    example1_population_objective,
    example1_problem,
    example1_sample,
    example1_trial,
)

from helpers import convex_toy, random_enumerable, toy_analytic, toy_candidates


def test_weak_duality_against_the_constrained_argmin():
    rng = np.random.default_rng(21)
    feasible = infeasible = 0
    for _ in range(60):
        ep = random_enumerable(rng, m=int(rng.integers(1, 4)))
        m = ep.problem.m
        d = dual_enumerate(ep)
        p = ecrm_enumerate(ep)
        assert d.d_hat <= p.value  # exactly: d_hat is the dual function at mu_star >= 0
        if d.d_hat == math.inf:
            # no mixture is feasible, so no single candidate is either
            assert not p.feasible and d.mu_star is None and d.weights is None
            infeasible += 1
            continue
        feasible += 1
        R, S = enumeration_stats(ep.problem, ep.candidates)
        assert np.all(d.mu_star >= 0.0) and d.mu_star.shape == (m,)
        assert d.d_hat == float(np.min(R + S @ d.mu_star))
        # the weights are the best randomized solution: a feasible
        # distribution over at most m + 1 candidates, whose value is d_hat
        w = d.weights
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(S.T @ w <= LP_FEASIBILITY_TOL)
        assert np.count_nonzero(w) <= m + 1
        assert d.d_hat == pytest.approx(float(w @ R), abs=1e-9)  # LP duality
        # mu_star maximises the dual function, up to the solver's tolerance
        for mu in rng.choice(np.linspace(0.0, 10.0, 101), size=(20, m)):
            assert d.d_hat >= float(np.min(R + S @ mu)) - 1e-9
    assert feasible >= 10 and infeasible >= 10  # both outcomes were checked


def test_the_convex_toy_dual_is_its_analytic_optimum():
    theta_star, mu_star, p_star = toy_analytic()  # mu* = 1
    ep = EnumerableProblem(problem=convex_toy(), candidates=toy_candidates())
    d = dual_enumerate(ep)
    assert d.d_hat == pytest.approx(p_star, abs=1e-6)
    assert d.d_hat <= ecrm_enumerate(ep).value
    assert d.mu_star[0] == pytest.approx(mu_star, abs=0.02)
    theta = ep.candidates[int(np.argmax(d.weights))]
    assert theta.params[0] == pytest.approx(theta_star, abs=0.01)


def test_an_unconstrained_dual_is_the_erm():
    ep = random_enumerable(np.random.default_rng(4), n_candidates=5, m=0)
    R, _ = enumeration_stats(ep.problem, ep.candidates)
    d = dual_enumerate(ep)
    assert d.d_hat == float(R.min()) == ecrm_enumerate(ep).value
    assert d.mu_star.shape == (0,)
    assert d.weights[int(np.argmin(R))] == 1.0


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


def per_trial_record(N, seed):
    """The record of one trial read off the per-trial library path."""
    tau = example1_sample(N, seed)[1].features[:, 1]
    result = ecrm_enumerate(example1_problem(N, seed))
    theta = None if result.theta is None else [float(v) for v in result.theta.params]
    return {"seed": seed, "N": N, "tau_bar": float(tau.sum()) / N,
            "feasible": result.feasible, "theta_hat": theta,
            "population_J": None if theta is None else example1_population_objective(theta)}


def assert_lines_are_the_per_trial_records(N, seeds, lines):
    """Each line is the JSON of its trial's per-trial record, tau_bar with
    its bits."""
    assert len(lines) == len(seeds)
    for seed, line in zip(seeds, lines):
        expected = per_trial_record(N, seed)
        assert line == json.dumps(expected, sort_keys=True) + "\n", (N, seed)
        assert json.loads(line)["tau_bar"].hex() == expected["tau_bar"].hex(), (N, seed)


def block_lines(N, seeds, size):
    """The lines of the trials `seeds`, computed in blocks of `size`."""
    return [line for i in range(0, len(seeds), size)
            for line in example1_block_lines(N, seeds[i:i + size])[1]]


@pytest.mark.parametrize("N", [1, 2, 7, 10, 100, 1000, 9000])
def test_blocked_trials_equal_the_per_trial_path(N):
    seeds = range(31, 31 + EX1_BLOCK_TRIALS + 1)  # one full block, then a block of one trial
    full, short = (example1_block_lines(N, part)
                   for part in (seeds[:EX1_BLOCK_TRIALS], seeds[EX1_BLOCK_TRIALS:]))
    lines = full[1] + short[1]
    assert_lines_are_the_per_trial_records(N, seeds, lines)
    records = [per_trial_record(N, s) for s in seeds]
    assert (full[0], short[0]) == (N, N)
    assert full[2] + short[2] == sum(r["population_J"] == 0.125 for r in records)
    assert full[3] + short[3] == sum(not r["feasible"] for r in records)
    assert example1_trial(N, seeds[-1]) == records[-1]
    assert EX1_BLOCK_TRIALS == 512  # at every N
    if N == 9000:
        assert oracle._example1_slab_trials(N) == 1  # a slab of 9000 rows is larger than 8192


@pytest.mark.parametrize("start", [5, 4001])
@pytest.mark.parametrize("N", [1, 7, 10, 100, 1000, 9000])
def test_block_risks_and_slacks_have_the_bits_of_the_per_trial_evaluation(N, start):
    """The closed-form risks of a block against `enumeration_stats` of each
    trial's own problem; every trial of a block at N = 10, three elsewhere."""
    seeds = range(start, start + EX1_BLOCK_TRIALS)
    R, S, tau_bar = _example1_block_stats(N, seeds)
    rows = range(len(seeds)) if N == 10 else sorted({0, len(seeds) // 2, len(seeds) - 1})
    for t in rows:
        ep = example1_problem(N, seeds[t])
        R_t, S_t = enumeration_stats(ep.problem, ep.candidates)
        assert R[t].tobytes() == R_t.tobytes()
        assert S[t].tobytes() == S_t.tobytes()
        tau = ep.problem.constraints[0].dataset.features[:, 1]
        assert tau_bar[t].hex() == (float(tau.sum()) / N).hex()


def test_the_closed_form_block_risks_hold_for_the_instances_candidates():
    """`_example1_block_stats` reads the losses of two fixed candidates on
    the instance's rows without forwarding them, and uncapped."""
    why = "the closed form of oracle._example1_block_stats assumes "
    candidates = oracle._EX1_CANDIDATES
    assert [c.params.tolist() for c in candidates] == [[1.0, 1.0], [1.0, 0.0]], (
        why + "the candidates [1, 1] and [1, 0]")
    assert all(c.arch == LinearArch(in_dim=2, bias=False) for c in candidates), (
        why + "a bias-free LinearArch(2)")
    assert example1_problem(10, 0).candidates is candidates
    # the rows' extremes: tau in [-1/2, 1/2], alpha in [0, 1/4]
    rows = np.array([[t, -t] for t in (-0.5, 0.5)] + [[0.0, 0.25]]
                    + [[-1.0, t] for t in (-0.5, 0.5)] + [[-t, 1.0] for t in (-0.5, 0.5)])
    largest = max(float(np.abs(predict_batch(c, rows)).max()) for c in candidates)
    assert largest == 1.5
    assert largest < oracle._EX1_BOUND, why + "that no |score| reaches the loss cap"
    assert oracle._EX1_ABS.bound_B == oracle._EX1_SCORE.bound_B == oracle._EX1_BOUND, (
        why + "that both losses are capped at _EX1_BOUND")


@pytest.mark.parametrize("N", [1, 3, 10])
def test_records_do_not_depend_on_the_block_layout(monkeypatch, N):
    seeds = range(4, 64)
    lines = example1_block_lines(N, seeds)[1]
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 7)
    assert oracle._example1_slab_trials(N) == max(1, 7 // N)
    assert block_lines(N, seeds, 5) == lines


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_records_do_not_depend_on_the_first_seed_of_the_run(N):
    assert example1_block_lines(N, range(37, 200))[1] == \
        example1_block_lines(N, range(0, 200))[1][37:]


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_block_draws_are_a_plain_prefix_of_the_stream_of_their_N(N):
    """Trial s reads row block s of 3N doubles u of its N's stream, drawn here
    without a jump ahead: tau = u[0] - 1/2, alpha = u[1] / 4, heads = u[2] < 1/2."""
    seeds = range(3, 3 + EX1_BLOCK_TRIALS + 2)  # crosses a block boundary
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((seeds[-1] + 1, 3, N))
    lines = block_lines(N, seeds, EX1_BLOCK_TRIALS)
    for seed, line in zip(seeds, lines):
        block = u[seed]
        tau, alpha, heads = block[0] - 0.5, 0.25 * block[1], block[2] < 0.5
        d0, d1, d2 = example1_sample(N, seed)
        nominal = np.where(heads[:, None], np.column_stack([np.zeros(N), alpha]),
                           np.column_stack([tau, -tau]))
        assert d0.features.tobytes() == nominal.tobytes()
        assert d0.labels.tolist() == np.where(heads, 1, -1).tolist()
        assert d1.features.tobytes() == np.column_stack([-np.ones(N), tau]).tobytes()
        assert d2.features.tobytes() == np.column_stack([-tau, np.ones(N)]).tobytes()
        assert json.loads(line)["tau_bar"].hex() == (float(tau.sum()) / N).hex()
    assert_lines_are_the_per_trial_records(N, seeds, lines)


def test_interleaved_sample_sizes_each_keep_their_own_records():
    """Blocks of N = 10, 1000, 10 taken in turn: no block's draws leak into
    another's, and a block's lines outlive the next block."""
    size = EX1_BLOCK_TRIALS
    seeds = range(2, 2 + 2 * size + 3)
    jobs = [(10, seeds), (1000, seeds[:size + 6]), (10, seeds)]
    got = [[] for _ in jobs]
    for i in range(0, len(seeds), size):  # one block of each in turn
        for k, (n, run) in enumerate(jobs):
            if i < len(run):
                got[k].append(example1_block_lines(n, run[i:i + size])[1])
    assert [len(blocks) for blocks in got] == [3, 2, 3]
    assert [len(b) for b in got[1]] == [size, 6]
    assert_lines_are_the_per_trial_records(10, seeds, [x for b in got[0] for x in b])
    assert_lines_are_the_per_trial_records(1000, seeds[:size + 6], [x for b in got[1] for x in b])
    assert got[2] == got[0]


@pytest.mark.parametrize("N", [7, 100, 1000])
def test_a_short_last_block_after_a_full_one_has_the_per_trial_bits(N):
    seeds = range(7, 7 + EX1_BLOCK_TRIALS + 2)
    blocks = [example1_block_lines(N, seeds[i:i + EX1_BLOCK_TRIALS])[1]
              for i in range(0, len(seeds), EX1_BLOCK_TRIALS)]
    assert [len(b) for b in blocks] == [EX1_BLOCK_TRIALS, 2]
    assert_lines_are_the_per_trial_records(N, seeds, [x for b in blocks for x in b])


@pytest.mark.parametrize("N", [1, 7, 1000])
def test_each_blocks_draws_and_risks_are_its_own_trials(N):
    """A full block, a short one, then a block of one: each block's draws
    are the rows of its trials in the stream of its N, and its risks are
    each trial's own."""
    blocks = (range(3, 3 + EX1_BLOCK_TRIALS), range(50, 52), range(2, 3))
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((max(b[-1] for b in blocks) + 1, 3, N))
    for seeds in blocks:
        ((_, drawn),) = oracle._example1_slabs(N, seeds, len(seeds))
        assert drawn.flags.c_contiguous and drawn.shape == (len(seeds), 3, N)
        R, S, _ = _example1_block_stats(N, seeds)
        for t in sorted({0, len(seeds) // 2, len(seeds) - 1}):
            assert drawn[t].tobytes() == u[seeds[t]].tobytes()
            ep = example1_problem(N, seeds[t])
            R_t, S_t = enumeration_stats(ep.problem, ep.candidates)
            assert R[t].tobytes() == R_t.tobytes()
            assert S[t].tobytes() == S_t.tobytes()


@pytest.mark.parametrize("N", [1, 3, 10])
def test_a_small_block_layout_keeps_the_per_trial_bits(monkeypatch, N):
    seeds = range(0, 26)
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 25)
    assert oracle._example1_slab_trials(N) == 25 // N
    assert_lines_are_the_per_trial_records(N, seeds, block_lines(N, seeds, 6))


def assert_block_has_the_per_trial_bits(N, seeds):
    """One block's closed-form risks, slacks and lines against each of its
    trials enumerated on its own."""
    R, S, _ = _example1_block_stats(N, seeds)
    for t, seed in enumerate(seeds):
        ep = example1_problem(N, seed)
        R_t, S_t = enumeration_stats(ep.problem, ep.candidates)
        assert R[t].tobytes() == R_t.tobytes(), (N, seed)
        assert S[t].tobytes() == S_t.tobytes(), (N, seed)
    assert_lines_are_the_per_trial_records(N, seeds, example1_block_lines(N, seeds)[1])


@pytest.mark.parametrize("N, size", [(3, 4), (1000, 8), (10, 1), (2, 50)])
def test_slabs_are_the_stream_rows_of_their_trials(N, size):
    """Every slab but the last holds `size` trials, and the slabs in turn
    are the rows of their seeds in the stream of their N."""
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((19, 3, N))
    for seeds in (range(7, 19), range(0, 1)):
        got = []
        for t, slab in oracle._example1_slabs(N, seeds, size):
            assert t == len(got) and len(slab) == min(size, len(seeds) - t)
            assert slab.flags.c_contiguous
            got.extend(slab.copy())
        assert np.array(got).tobytes() == u[seeds].tobytes()


@pytest.mark.parametrize("N, rows", [(9000, None), (4097, None), (10, 10), (10, 19)])
def test_slabs_of_one_trial_have_the_per_trial_bits(monkeypatch, N, rows):
    """N above half of `_BLOCK_ROWS`, or a smaller `_BLOCK_ROWS`, draws one
    trial per slab."""
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
    assert oracle._example1_slab_trials(N) == 1
    assert_block_has_the_per_trial_bits(N, range(3, 8))


@pytest.mark.parametrize("N, rows", [(100, None), (7, 35)])
def test_a_block_that_ends_mid_slab_has_the_per_trial_bits(monkeypatch, N, rows):
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
    size, slab = EX1_BLOCK_TRIALS, oracle._example1_slab_trials(N)
    assert 1 < slab < size and size % slab != 0  # 6 * 81 + 26 and 102 * 5 + 2 trials
    assert_block_has_the_per_trial_bits(N, range(11, 11 + size))


def test_a_short_last_block_across_slabs_has_the_per_trial_bits(monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 20)  # slabs of 2 trials at N = 10
    seeds = range(30, 44)
    assert_lines_are_the_per_trial_records(10, seeds, block_lines(10, seeds, 9))
    assert_block_has_the_per_trial_bits(10, seeds[9:])  # slabs of 2, 2 and 1


@pytest.mark.parametrize("N, rows", [(1000, None), (10, 40)])
def test_a_block_is_one_stream_whichever_slabs_it_spans(monkeypatch, N, rows):
    """Slabs of 8 trials (N = 1000) and of 4 (N = 10, with a smaller
    `_BLOCK_ROWS`): a block of two and a half slabs builds one generator,
    jumped ahead once."""
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
    slab = oracle._example1_slab_trials(N)
    seeds = range(20, 20 + 2 * slab + slab // 2)
    built = []
    make = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append(a) or make(*a))
    _example1_block_stats(N, seeds)
    assert len(built) == 1
    assert_block_has_the_per_trial_bits(N, seeds)


# tau_bar values whose JSON text is easy to get wrong: both zeros, the
# smallest subnormals, and values that take 17 significant digits
AWKWARD_TAU_BARS = (-0.0, 0.0, 5e-324, -5e-324, 0.10950873311612586, -0.01869241397467971,
                    0.30000000000000004, -0.49999999999999994, 1.2345678901234567e-300)


@pytest.mark.parametrize("N", [1, 10, 9000])
def test_trial_lines_are_the_json_of_their_records(monkeypatch, N):
    """Each of the three outcomes, the infeasible one included, which the
    shipped instance never produces, rendered from forced block columns:
    every line is json.dumps of its record, sorted, with a newline."""
    shapes = [(True, [1.0, 1.0], 0.0625), (True, [1.0, 0.0], 0.125), (False, None, None)]
    outcomes = [k for k in range(len(shapes)) for _ in AWKWARD_TAU_BARS]
    tau_bar = list(AWKWARD_TAU_BARS) * len(shapes)
    seeds = range(2**40, 2**40 + len(outcomes))
    monkeypatch.setattr(oracle, "_example1_block_outcomes",
                        lambda n, s: (list(tau_bar), list(outcomes)))
    records = [{"seed": s, "N": N, "tau_bar": t, "feasible": shapes[k][0],
                "theta_hat": shapes[k][1], "population_J": shapes[k][2]}
               for s, t, k in zip(seeds, tau_bar, outcomes)]
    n, lines, doubled, infeasible = example1_block_lines(N, seeds)
    assert lines == [json.dumps(r, sort_keys=True) + "\n" for r in records]
    assert [json.loads(line)["tau_bar"].hex() for line in lines] == [t.hex() for t in tau_bar]
    assert (n, doubled, infeasible) == (N, len(AWKWARD_TAU_BARS), len(AWKWARD_TAU_BARS))


def test_sample_sizes_draw_from_independent_streams():
    # per-trial seeding made a seed's N = 10 draws the first 10 of its N = 100 draws
    for seed in range(5):
        tau10 = example1_sample(10, seed)[1].features[:, 1]
        tau100 = example1_sample(100, seed)[1].features[:, 1]
        assert not np.isin(tau10, tau100).any(), seed


def test_an_example1_seed_below_zero_is_an_input_error():
    with pytest.raises(InputError, match="seed must be >= 0, got -1"):
        example1_sample(10, -1)
    with pytest.raises(InputError, match="seed must be >= 0, got -3"):
        example1_block_lines(10, range(-3, 4))
    with pytest.raises(InputError, match="N must be >= 1, got 0"):
        example1_block_lines(0, range(1, 2))
    assert example1_block_lines(10, range(4, 4)) == (10, [], 0, 0)


@pytest.mark.parametrize("seeds", [range(0, 10, 2), range(5, 0, -1), range(3, 4, 3)])
def test_a_seed_range_of_other_than_consecutive_trials_is_an_input_error(seeds):
    with pytest.raises(InputError, match="seeds must be a range of consecutive trials"):
        example1_block_lines(10, seeds)


def old_selection(R, S, xi, m):
    """`ecrm_enumerate`'s rule as it was written before it moved into
    `constrained_argmin`: (feasible, value, index)."""
    feasible = np.all(S <= xi, axis=1) if m else np.ones(len(R), bool)
    if not feasible.any():
        return False, math.inf, None
    j = int(np.argmin(np.where(feasible, R, math.inf)))
    return True, float(R[j]), j


def test_the_selection_helper_agrees_with_the_per_problem_rule():
    rng = np.random.default_rng(8)
    outcomes = {True: 0, False: 0}
    for trial in range(120):
        xi = [0.0, 0.05, 0.4][trial % 3]
        ep = random_enumerable(rng, n_candidates=4, m=int(rng.integers(0, 4)))
        R, S = enumeration_stats(ep.problem, ep.candidates)
        expected = old_selection(R, S, xi, ep.problem.m)
        outcomes[expected[0]] += 1
        # thresholds relaxed by xi: for floats, S - xi <= 0 exactly when S <= xi
        j, value = constrained_argmin(R, S - xi)
        assert (value != math.inf, float(value)) == expected[:2]
        if expected[0]:
            assert int(j) == expected[2]
        if xi == 0.0:
            result = ecrm_enumerate(ep)
            assert (result.feasible, result.value, result.index) == expected
            if expected[0]:
                assert result.theta is ep.candidates[j]
        # the same rule over a leading axis of stacked problems
        R2 = np.stack([R, R[::-1]])
        S2 = np.stack([S, S[::-1]])
        j2, value2 = constrained_argmin(R2, S2 - xi)
        assert (int(j2[0]), float(value2[0])) == (int(j), float(value))
        flipped = old_selection(R[::-1], S[::-1], xi, ep.problem.m)
        assert float(value2[1]) == flipped[1]
        if flipped[0]:
            assert int(j2[1]) == flipped[2]
    assert min(outcomes.values()) >= 10  # feasible and infeasible instances both checked


def test_ties_go_to_the_lowest_feasible_index():
    R = np.array([[0.5, 0.2, 0.2, 0.2]])
    S = np.array([[[0.0], [0.1], [0.0], [-1.0]]])
    j, value = constrained_argmin(R, S)
    assert (int(j[0]), float(value[0])) == (2, 0.2)
    j, value = constrained_argmin(R, S + 2.0)
    assert float(value[0]) == math.inf

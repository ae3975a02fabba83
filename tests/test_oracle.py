"""The exact dual LP of `oracle.dual_enumerate` on enumerable instances, the
blocked example1 trials and their closed-form risks against the per-trial
enumeration, and the draw stream each trial reads."""

import itertools
import json
import math

import numpy as np
import pytest

from duallearn import oracle
from duallearn.errors import InputError
from duallearn.lagrangian import enumeration_stats
from duallearn.models import LinearArch, predict_batch
from duallearn.oracle import (
    LP_FEASIBILITY_TOL,
    EnumerableProblem,
    _example1_block_stats,
    _example1_draws,
    constrained_argmin,
    dual_enumerate,
    ecrm_enumerate,
    example1_block_trials,
    example1_blocks,
    example1_population_objective,
    example1_problem,
    example1_sample,
    example1_trial,
    example1_trials,
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


@pytest.mark.parametrize("N", [1, 2, 7, 10, 100, 1000, 9000])
def test_blocked_trials_equal_the_per_trial_path(N):
    block = example1_block_trials(N)
    seeds = range(31, 31 + block + 1)  # one full block, then a block of one trial
    records = example1_trials(N, seeds)
    assert [r["seed"] for r in records] == list(seeds)
    for r in records:
        expected = per_trial_record(N, r["seed"])
        assert r == expected
        assert r["tau_bar"].hex() == expected["tau_bar"].hex()
    assert example1_trials(N, seeds[:block]) == records[:block]
    assert example1_trial(N, seeds[-1]) == records[-1]
    assert block == 512  # at every N
    if N == 9000:
        assert oracle._example1_slab_trials(N) == 1  # a slab of 9000 rows is larger than 8192


@pytest.mark.parametrize("start", [5, 4001])
@pytest.mark.parametrize("N", [1, 7, 10, 100, 1000, 9000])
def test_block_risks_and_slacks_have_the_bits_of_the_per_trial_evaluation(N, start):
    """The closed-form risks of a block against `enumeration_stats` of each
    trial's own problem; every trial of a block at N = 10, three elsewhere."""
    seeds = list(range(start, start + example1_block_trials(N)))
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
    assert all(c.arch == LinearArch(in_dim=2, out_dim=1, bias=False) for c in candidates), (
        why + "a bias-free LinearArch(2, 1)")
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
    records = example1_trials(N, seeds)
    monkeypatch.setattr(oracle, "_EX1_BLOCK_TRIALS", 5)
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 7)
    assert example1_block_trials(N) == 5
    assert oracle._example1_slab_trials(N) == max(1, 7 // N)
    relaid = example1_trials(N, seeds)
    assert relaid == records
    assert [r["tau_bar"].hex() for r in relaid] == [r["tau_bar"].hex() for r in records]


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_records_do_not_depend_on_the_first_seed_of_the_run(N):
    assert example1_trials(N, range(37, 200)) == example1_trials(N, range(0, 200))[37:]


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_block_draws_are_a_plain_prefix_of_the_stream_of_their_N(N):
    """Trial s reads row block s of 3N doubles u of its N's stream, drawn here
    without a jump ahead: tau = u[0] - 1/2, alpha = u[1] / 4, heads = u[2] < 1/2."""
    seeds = range(3, 3 + example1_block_trials(N) + 2)  # crosses a block boundary
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((seeds[-1] + 1, 3, N))
    records = example1_trials(N, seeds)
    for r in records:
        block = u[r["seed"]]
        tau, alpha, heads = block[0] - 0.5, 0.25 * block[1], block[2] < 0.5
        d0, d1, d2 = example1_sample(N, r["seed"])
        nominal = np.where(heads[:, None], np.column_stack([np.zeros(N), alpha]),
                           np.column_stack([tau, -tau]))
        assert d0.features.tobytes() == nominal.tobytes()
        assert d0.labels.tolist() == np.where(heads, 1, -1).tolist()
        assert d1.features.tobytes() == np.column_stack([-np.ones(N), tau]).tobytes()
        assert d2.features.tobytes() == np.column_stack([-tau, np.ones(N)]).tobytes()
        assert r["tau_bar"].hex() == (float(tau.sum()) / N).hex()
        assert r == per_trial_record(N, r["seed"])


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_non_consecutive_seeds_equal_the_per_trial_path(N):
    seeds = [5, 3, 4, 9, 10, 11, 11, 0, 40, 2]
    assert example1_trials(N, seeds) == [per_trial_record(N, s) for s in seeds]


def test_interleaved_sample_sizes_each_keep_their_own_records():
    """Blocks of N = 10, 1000, 10 taken in turn: no generator's draws leak
    into another's, and a block's records outlive the next block."""
    size = example1_block_trials(10)
    seeds = range(2, 2 + 2 * size + 3)
    gens = [example1_blocks(10, seeds), example1_blocks(1000, seeds[:size + 6]),
            example1_blocks(10, seeds)]
    got = [[] for _ in gens]
    for blocks in itertools.zip_longest(*gens):  # one block of each in turn
        for k, block in enumerate(blocks):
            if block is not None:
                got[k].append(block)
    assert [len(blocks) for blocks in got] == [3, 2, 3]
    assert [len(b) for b in got[1]] == [size, 6]
    assert [r for b in got[0] for r in b] == [per_trial_record(10, s) for s in seeds]
    assert [r for b in got[1] for r in b] == \
        [per_trial_record(1000, s) for s in seeds[:size + 6]]
    assert got[2] == got[0]


@pytest.mark.parametrize("N", [7, 100, 1000])
def test_a_short_last_block_after_a_full_one_has_the_per_trial_bits(N):
    size = example1_block_trials(N)
    seeds = list(range(7, 7 + size + 2))
    blocks = list(example1_blocks(N, seeds))
    assert [len(b) for b in blocks] == [size, 2]
    records = [r for b in blocks for r in b]
    expected = [per_trial_record(N, s) for s in seeds]
    assert records == expected
    assert [r["tau_bar"].hex() for r in records] == [r["tau_bar"].hex() for r in expected]


@pytest.mark.parametrize("N", [1, 7, 1000])
def test_each_blocks_draws_and_risks_are_its_own_trials(N):
    """A full block, a short one with a gap, then a block of one: each
    block's draws are the rows of its trials in the stream of its N, and
    its risks are each trial's own."""
    size = example1_block_trials(N)
    blocks = (list(range(3, 3 + size)), [50, 51, 9][:size], [2])
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((max(map(max, blocks)) + 1, 3, N))
    for seeds in blocks:
        tau, alpha, heads = _example1_draws(N, seeds)
        assert tau.flags.c_contiguous and tau.shape == alpha.shape == heads.shape == (len(seeds), N)
        R, S, _ = _example1_block_stats(N, seeds)
        for t in sorted({0, len(seeds) // 2, len(seeds) - 1}):
            block = u[seeds[t]]
            assert tau[t].tobytes() == (block[0] - 0.5).tobytes()
            assert alpha[t].tobytes() == (0.25 * block[1]).tobytes()
            assert heads[t].tolist() == (block[2] < 0.5).tolist()
            ep = example1_problem(N, seeds[t])
            R_t, S_t = enumeration_stats(ep.problem, ep.candidates)
            assert R[t].tobytes() == R_t.tobytes()
            assert S[t].tobytes() == S_t.tobytes()


@pytest.mark.parametrize("N", [7, 100, 1000])
def test_seed_lists_with_gaps_are_drawn_run_by_run(N):
    size = example1_block_trials(N)
    seeds = [0, 1, 2, 9, 10, 30, *range(100, 100 + size), 4, 3, 3]
    records = example1_trials(N, seeds)
    assert records == [per_trial_record(N, s) for s in seeds]


@pytest.mark.parametrize("N", [1, 3, 10])
def test_a_small_block_layout_keeps_the_per_trial_bits(monkeypatch, N):
    seeds = [*range(0, 23), 40, 41, 60]
    expected = [per_trial_record(N, s) for s in seeds]
    monkeypatch.setattr(oracle, "_EX1_BLOCK_TRIALS", 6)
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 25)
    assert example1_block_trials(N) == 6
    assert oracle._example1_slab_trials(N) == 25 // N
    blocks = list(example1_blocks(N, seeds))
    assert len(blocks) == math.ceil(len(seeds) / 6)
    records = [r for b in blocks for r in b]
    assert records == expected
    assert [r["tau_bar"].hex() for r in records] == [r["tau_bar"].hex() for r in expected]


def assert_block_has_the_per_trial_bits(N, seeds):
    """One block's closed-form risks, slacks, tau_bar and records against
    each of its trials enumerated on its own."""
    R, S, tau_bar = _example1_block_stats(N, seeds)
    records = oracle._example1_block_records(N, seeds)
    for t, seed in enumerate(seeds):
        ep = example1_problem(N, seed)
        R_t, S_t = enumeration_stats(ep.problem, ep.candidates)
        assert R[t].tobytes() == R_t.tobytes(), (N, seed)
        assert S[t].tobytes() == S_t.tobytes(), (N, seed)
        expected = per_trial_record(N, seed)
        assert records[t] == expected
        assert tau_bar[t].hex() == records[t]["tau_bar"].hex() == expected["tau_bar"].hex()


@pytest.mark.parametrize("N, size", [(3, 4), (1000, 8), (10, 1), (2, 50)])
def test_slabs_are_the_stream_rows_of_their_trials(N, size):
    """Every slab but the last holds `size` trials, and the slabs in turn
    are the rows of their seeds in the stream of their N, runs that cross a
    slab boundary and gaps inside a slab included."""
    seeds = [7, 8, 9, 2, 3, 11, 12, 13, 14, 15, 0, 0]
    stream = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(N,)))
    u = stream.random((max(seeds) + 1, 3, N))
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
    assert_block_has_the_per_trial_bits(N, [3, 4, 5, 9, 0])


@pytest.mark.parametrize("N, rows", [(100, None), (7, 35)])
def test_a_block_that_ends_mid_slab_has_the_per_trial_bits(monkeypatch, N, rows):
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
    size, slab = example1_block_trials(N), oracle._example1_slab_trials(N)
    assert 1 < slab < size and size % slab != 0  # 6 * 81 + 26 and 102 * 5 + 2 trials
    assert_block_has_the_per_trial_bits(N, list(range(11, 11 + size)))


def test_a_short_last_block_across_slabs_has_the_per_trial_bits(monkeypatch):
    monkeypatch.setattr(oracle, "_EX1_BLOCK_TRIALS", 9)
    monkeypatch.setattr(oracle, "_BLOCK_ROWS", 20)  # slabs of 2 trials at N = 10
    seeds = range(30, 44)
    blocks = list(example1_blocks(10, seeds))
    assert [len(b) for b in blocks] == [9, 5]  # the short block is slabs of 2, 2 and 1
    assert [r for b in blocks for r in b] == [per_trial_record(10, s) for s in seeds]
    assert_block_has_the_per_trial_bits(10, list(seeds[9:]))


@pytest.mark.parametrize("N, rows", [(1000, None), (10, 40)])
def test_a_gap_inside_a_slab_starts_a_stream_there(monkeypatch, N, rows):
    """Slabs of 8 trials (N = 1000) and of 4 (N = 10, with a smaller
    `_BLOCK_ROWS`): the seeds jump ahead and back inside the first slab,
    repeat one, then run on across slab boundaries. Each run of consecutive
    seeds is one stream, whichever slabs it spans."""
    if rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
    slab = oracle._example1_slab_trials(N)
    seeds = [0, 1, 5, 6, 3, 3, 40, *range(20, 20 + 2 * slab + 1)]
    runs = 6  # [0, 1], [5, 6], [3], [3], [40] and [20, ...]
    built = []
    make = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append(a) or make(*a))
    _example1_block_stats(N, seeds)
    assert len(built) == runs
    assert_block_has_the_per_trial_bits(N, seeds)


@pytest.mark.parametrize("N", [1, 10, 1000])
def test_block_records_hold_plain_python_values(N):
    seeds = list(range(3, 3 + example1_block_trials(N)))
    for record in oracle._example1_block_records(N, seeds):
        # no numpy scalar or view of a block's arrays
        assert all(isinstance(v, (int, float, list, type(None))) for v in record.values())
        assert all(type(v) is float for v in record["theta_hat"] or [])


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
    seeds = [0, 7, 2**40, *range(100, 100 + len(outcomes) - 3)]
    monkeypatch.setattr(oracle, "_example1_block_outcomes",
                        lambda n, s: (list(tau_bar), list(outcomes)))
    records = oracle._example1_block_records(N, seeds)
    n, lines, doubled, infeasible = oracle.example1_block_lines(N, seeds)
    assert [(r["feasible"], r["theta_hat"], r["population_J"]) for r in records] == \
        [shapes[k] for k in outcomes]
    assert [r["tau_bar"].hex() for r in records] == [t.hex() for t in tau_bar]
    assert [(r["seed"], r["N"]) for r in records] == [(s, N) for s in seeds]
    assert lines == [json.dumps(r, sort_keys=True) + "\n" for r in records]
    assert (n, doubled, infeasible) == (N, len(AWKWARD_TAU_BARS), len(AWKWARD_TAU_BARS))


@pytest.mark.parametrize("N", [1, 10, 1000, 9000])
def test_block_lines_are_the_json_of_the_block_records(N):
    seeds = range(5, 5 + example1_block_trials(N) + 1)  # a full block and one more trial
    records = example1_trials(N, seeds)
    blocks = list(oracle.example1_lines(N, seeds))
    assert [n for n, *_ in blocks] == [N, N]
    assert [line for _, lines, _, _ in blocks for line in lines] == \
        [json.dumps(r, sort_keys=True) + "\n" for r in records]
    assert sum(b[2] for b in blocks) == sum(r["population_J"] == 0.125 for r in records)
    assert sum(b[3] for b in blocks) == sum(not r["feasible"] for r in records)
    # a range of seeds, as a pooled job passes it, is one block of the same lines
    assert oracle.example1_block_lines(N, seeds[:3])[1] == \
        [json.dumps(r, sort_keys=True) + "\n" for r in records[:3]]


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
        example1_trials(10, [4, -3])
    with pytest.raises(InputError, match="N must be >= 1, got 0"):
        example1_trials(0, [1])
    assert example1_trials(10, []) == []


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

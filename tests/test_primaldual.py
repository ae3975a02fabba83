import json
import re
from dataclasses import replace

import numpy as np
import pytest

from duallearn import models
from duallearn.core import ConstraintSpec, Dataset, LossSpec, Problem, empirical_risk
from duallearn.errors import ConfigurationError, InputError, NumericError
from duallearn.lagrangian import DualState, InnerSolverConfig, dual_function
from duallearn.models import (
    Evaluation,
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    init_model,
)
from duallearn.oracle import EnumerableProblem, dual_enumerate
from duallearn.primaldual import (
    TrainConfig,
    dual_update,
    ergodic_complementary_slackness,
    ergodic_slacks,
    load_trace,
    mixture_risks,
    randomized_solution,
    recommend_hyperparams,
    save_trace,
    train,
)

from helpers import (
    TOY_ARCH,
    TOY_BOUND,
    SeedingCounter,
    convex_toy,
    cross_entropy,
    enumeration_ascent,
    toy_analytic,
    toy_candidates,
)


class TestDualUpdate:
    def test_zero_fixed_point(self):
        out = dual_update(DualState(np.array([0.0])), np.array([0.0]), 1.0)
        assert np.array_equal(out.mu, [0.0])

    def test_projection_active(self):
        out = dual_update(DualState(np.array([0.5])), np.array([-1.0]), 1.0)
        assert np.array_equal(out.mu, [0.0])

    def test_substitution(self):
        out = dual_update(DualState(np.array([1.0, 2.0])), np.array([0.3, -0.1]), 0.5)
        assert np.allclose(out.mu, [1.15, 1.95], rtol=1e-15)

    def test_length_checked(self):
        with pytest.raises(InputError):
            dual_update(DualState(np.array([1.0])), np.array([0.1, 0.2]), 0.5)


def small_gradient_problem(seed=0):
    rng = np.random.default_rng(seed)
    ds = Dataset(features=rng.uniform(-1, 1, (24, 2)), labels=rng.choice([0, 1], 24),
                 name="grad-ds")
    ce = cross_entropy()
    rate = LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_shift=0.5)
    prob = Problem(objective_loss=ce, objective_dataset=ds,
                   constraints=(ConstraintSpec(loss=rate, threshold_c=0.6, dataset=ds),))
    return prob


def toy_train(T, eta=0.5, dual_method="projected-ascent"):
    """`train` with a full-batch gradient solver on the convex toy, from
    theta = 1: the unconstrained minimizer, which violates the constraint,
    so mu leaves zero at once."""
    cfg = TrainConfig(iterations_T=T, dual_step_eta=eta, dual_method=dual_method, seed=0,
                      inner=InnerSolverConfig(epochs=1, step_size=0.05))
    return train(convex_toy(), cfg, ModelState(np.array([1.0]), TOY_ARCH))


class TestTrain:
    def test_unconstrained_reduces_to_erm(self):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.uniform(-1, 1, (20, 2)), labels=rng.choice([0, 1], 20))
        ce = cross_entropy()
        prob = Problem(objective_loss=ce, objective_dataset=ds)
        inner = InnerSolverConfig(epochs=3, batch_size=8, step_size=0.1)
        init = init_model(LogisticArch(2))
        cfg = TrainConfig(iterations_T=1, dual_step_eta=1.0, inner=inner, seed=42)
        trace, final_model, final_mu = train(prob, cfg, init)
        # one iteration of train with m=0 is exactly one inner solve on the same seed
        seeds = np.random.SeedSequence(42).spawn(1)
        _, direct = dual_function(DualState.zeros(0), prob, inner, init,
                                  rng=np.random.default_rng(seeds[0]))
        assert np.array_equal(final_model.params, direct.params)
        assert trace.slacks.shape == (1, 0)
        assert len(final_mu) == 0

    def test_vacuous_constraint_keeps_mu_at_zero(self):
        # c = B: slack = risk - B <= 0 always, so the projection pins mu at 0
        prob0 = small_gradient_problem()
        vac = ConstraintSpec(loss=prob0.constraints[0].loss, threshold_c=1.0,
                             dataset=prob0.constraints[0].dataset)
        prob = Problem(objective_loss=prob0.objective_loss,
                       objective_dataset=prob0.objective_dataset, constraints=(vac,))
        inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
        cfg = TrainConfig(iterations_T=8, dual_step_eta=2.0, inner=inner, seed=0)
        trace, _, final_mu = train(prob, cfg, init_model(LogisticArch(2)))
        assert np.array_equal(trace.mu, np.zeros((8, 1)))
        assert np.array_equal(final_mu.mu, [0.0])

    def test_convex_toy_reaches_grid_dual_optimum(self):
        prob = convex_toy()
        cands = toy_candidates()
        trace, final_mu = enumeration_ascent(prob, cands, 200, 0.5)
        ref = dual_enumerate(EnumerableProblem(problem=prob, candidates=cands))
        theta_star, mu_star, p_star = toy_analytic()
        assert abs(trace.lagrangian[-1] - ref.d_hat) <= 1e-2
        assert trace.slacks[-1, 0] <= 1e-2
        assert trace.thetas[-1, 0] == pytest.approx(theta_star, abs=0.01)
        assert final_mu.mu[0] == pytest.approx(mu_star, abs=0.05)
        assert ref.d_hat == pytest.approx(p_star, abs=1e-6)

    def test_projected_adam_zero_slacks_keep_mu_zero(self):
        # constraint risk == c exactly: indicator rate 0.5 on a balanced set
        preds = np.array([[0.9], [0.8], [0.2], [0.1]])
        ds = Dataset(features=preds, labels=np.array([1, 1, 0, 0]))
        ind = LossSpec(kind="rate-indicator", bound_B=1.0, rate_shift=0.5)
        sq = LossSpec(kind="squared", bound_B=4.0)
        prob = Problem(objective_loss=sq, objective_dataset=ds,
                       constraints=(ConstraintSpec(loss=ind, threshold_c=0.5, dataset=ds),))
        # the weight moves, but every score stays on its side of the shift
        inner = InnerSolverConfig(epochs=1, step_size=0.05)
        cfg = TrainConfig(iterations_T=5, dual_step_eta=0.1, dual_method="projected-adam",
                          inner=inner, seed=0)
        trace, _, final_mu = train(prob, cfg, ModelState(np.array([1.0]), TOY_ARCH))
        assert len(set(trace.thetas[:, 0].tolist())) > 1
        assert np.array_equal(trace.slacks, np.zeros((5, 1)))
        assert np.array_equal(final_mu.mu, [0.0])

    def test_projected_adam_matches_reference_ascent(self):
        # ADAM ascent on mu written out directly, fed the recorded slacks
        eta = 0.05
        trace, _, final_mu = toy_train(40, eta, "projected-adam")
        mu, m1, m2 = np.zeros(1), np.zeros(1), np.zeros(1)
        expected = []
        for t, s in enumerate(trace.slacks, start=1):
            expected.append(mu)
            m1 = 0.9 * m1 + (1.0 - 0.9) * s
            m2 = 0.999 * m2 + (1.0 - 0.999) * s * s
            m_hat = m1 / (1.0 - 0.9 ** t)
            v_hat = m2 / (1.0 - 0.999 ** t)
            mu = np.maximum(0.0, mu + eta * m_hat / (np.sqrt(v_hat) + 1e-8))
        assert np.any(trace.mu > 0.0)
        assert np.array_equal(trace.mu, np.stack(expected))
        assert np.array_equal(final_mu.mu, mu)

    def test_mu_nonnegative_throughout(self):
        prob = small_gradient_problem()
        inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.1)
        cfg = TrainConfig(iterations_T=15, dual_step_eta=5.0, inner=inner, seed=5)
        trace, _, _ = train(prob, cfg, init_model(LogisticArch(2)))
        assert np.all(trace.mu >= 0.0)

    def test_seed_determinism_bit_identical(self):
        prob = small_gradient_problem()
        inner = InnerSolverConfig(epochs=2, batch_size=8, step_size=0.05)
        cfg = TrainConfig(iterations_T=5, dual_step_eta=1.0, inner=inner, seed=9)
        t1, m1, _ = train(prob, cfg, init_model(LogisticArch(2)))
        t2, m2, _ = train(prob, cfg, init_model(LogisticArch(2)))
        assert np.array_equal(m1.params, m2.params)
        assert np.array_equal(t1.thetas, t2.thetas)
        assert np.array_equal(t1.mu, t2.mu)

    def test_inner_errors_carry_iteration_index(self):
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        ds = Dataset(features=np.array([[0.2], [0.8]]), labels=np.array([0, 1]))
        prob = Problem(objective_loss=zo, objective_dataset=ds)
        inner = InnerSolverConfig(epochs=1, step_size=0.1)
        cfg = TrainConfig(iterations_T=3, dual_step_eta=1.0, inner=inner, seed=0)
        with pytest.raises(Exception, match="iteration 0"):
            train(prob, cfg, ModelState(np.array([1.0]), TOY_ARCH))

    def test_a_step_that_overflows_the_parameters_is_refused_naming_the_iteration(self):
        """The first step moves the weight from 1 to about -1e308, the second
        past the float range: the new parameters are checked, not trusted."""
        ds = Dataset(features=np.ones((2, 1)), labels=np.ones(2))
        prob = Problem(objective_loss=LossSpec(kind="signed-score", bound_B=1.7e308),
                       objective_dataset=ds)
        cfg = TrainConfig(iterations_T=4, dual_step_eta=1.0,
                          inner=InnerSolverConfig(step_size=1e308), seed=0)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^iteration 1: the step takes the parameters out of"):
            train(prob, cfg, ModelState(np.ones(1), LinearArch(1, bias=False)))

    @pytest.mark.parametrize("eta", [0.05, 5.0, 1e6])
    def test_projected_adam_mu_stays_nonnegative_and_finite(self, eta):
        base = small_gradient_problem(seed=3)
        rate = base.constraints[0]
        prob = replace(base, constraints=(replace(rate, threshold_c=0.3),
                                          replace(rate, threshold_c=0.9)))
        inner = InnerSolverConfig(epochs=1, batch_size=8, step_size=0.1)
        cfg = TrainConfig(iterations_T=30, dual_step_eta=eta, dual_method="projected-adam",
                          inner=inner, seed=2)
        trace, _, final_mu = train(prob, cfg, init_model(LogisticArch(2)))
        assert np.any(trace.mu > 0.0) and np.any(trace.mu == 0.0)
        for mu in (*trace.mu, final_mu.mu):
            assert np.all(np.isfinite(mu)) and not np.any(np.signbit(mu))
        assert not final_mu.mu.flags.writeable

    def test_param_limit_refuses_only_runs_that_keep_theta(self):
        arch = MlpArch((2, 50_000, 1), output="sigmoid")
        assert arch.n_params > 100_000
        prob = small_gradient_problem()
        inner = InnerSolverConfig(epochs=1, step_size=0.1)
        cfg = TrainConfig(iterations_T=1, dual_step_eta=1.0, inner=inner, seed=0)
        with pytest.raises(ConfigurationError, match="output.save_theta"):
            train(prob, cfg, init_model(arch))
        trace, _, _ = train(prob, replace(cfg, save_theta=False), init_model(arch))
        assert trace.thetas is None and len(trace) == 1


class TestRandomnessOnlyWhereDrawn:
    """`train` builds a generator only for a gradient solver with a
    `batch_size`, one per iteration, and spawns no seed sequence."""

    def test_a_full_batch_run_builds_no_generator(self, monkeypatch):
        prob, init = small_gradient_problem(), init_model(LogisticArch(2))
        full = TrainConfig(iterations_T=20, dual_step_eta=1.0, seed=3,
                           inner=InnerSolverConfig(epochs=2, step_size=0.1))
        counter = SeedingCounter(monkeypatch)
        train(prob, full, init)
        assert counter.counts() == {"generators": 0, "seed_sequences": 0, "spawned": 0}

    def test_a_minibatch_run_builds_one_generator_per_iteration(self, monkeypatch):
        prob, init = small_gradient_problem(), init_model(LogisticArch(2))
        cfg = TrainConfig(iterations_T=7, dual_step_eta=1.0, seed=2 ** 64 + 5,
                          inner=InnerSolverConfig(epochs=2, batch_size=8, step_size=0.05))
        counter = SeedingCounter(monkeypatch)
        train(prob, cfg, init)
        assert counter.counts() == {"generators": 7, "seed_sequences": 7, "spawned": 0}
        # iteration t's sequence is the t-th child of the run seed's sequence
        built = list(counter.sequences)
        children = np.random.SeedSequence((2 ** 64 + 5) % 2 ** 63).spawn(7)
        for seq, child in zip(built, children, strict=True):
            assert seq.entropy == child.entropy and seq.spawn_key == child.spawn_key
            assert np.array_equal(seq.generate_state(8), child.generate_state(8))


class TestErgodicInvariants:
    @pytest.mark.parametrize("solver", ["exact", "gradient"])
    def test_complementary_slackness_bound_on_toy(self, solver):
        """(1/T) sum_t mu(t) . s(t) >= -eta m B^2 / 2 for projected ascent at
        step eta, whatever minimizes the Lagrangian. It is the loose end of
        (|mu(T)|^2 - eta^2 sum_t |s(t)|^2) / (2 eta T), the telescoped sum of
        |mu(t+1)|^2 <= |mu(t) + eta s(t)|^2, which a step other than eta
        breaks."""
        prob, eta, T = convex_toy(), 0.5, 300
        if solver == "exact":
            trace, final_mu = enumeration_ascent(prob, toy_candidates(), T, eta)
        else:
            trace, _, final_mu = toy_train(T, eta)
        cs = ergodic_complementary_slackness(trace)
        assert cs >= -eta * prob.m * TOY_BOUND ** 2 / 2.0 - 1e-9
        mu_T, s = final_mu.mu, trace.slacks
        assert cs >= (mu_T @ mu_T - eta ** 2 * np.sum(s * s)) / (2 * eta * T) - 1e-9
        # premise of the bound: every slack is within the loss bound
        assert np.all(np.abs(trace.slacks) <= TOY_BOUND)

    def test_per_iteration_lagrangian_below_grid_dual(self):
        prob = convex_toy()
        cands = toy_candidates()
        ref = dual_enumerate(EnumerableProblem(problem=prob, candidates=cands))
        trace, _ = enumeration_ascent(prob, cands, 300, 0.5)
        assert np.all(trace.lagrangian <= ref.d_hat + 1e-9)

    def test_ergodic_slack_mean(self):
        trace, _, _ = toy_train(50)
        assert ergodic_slacks(trace) == pytest.approx(trace.slacks.mean(axis=0))


class TestRandomizedSolution:
    def _toy_trace(self, T=5):
        return convex_toy(), toy_train(T)[0]

    def test_degenerate_single_iterate(self):
        prob, trace = self._toy_trace(T=1)
        sol = randomized_solution(trace)
        assert len(sol) == 1
        assert np.array_equal(sol[0], trace.thetas[0])

    def test_mixture_risk_is_mean_of_iterate_risks(self):
        prob, trace = self._toy_trace(T=7)
        sol = randomized_solution(trace)
        loss = prob.objective_loss
        ds = prob.objective_dataset
        per_iter = [empirical_risk(ModelState(p, trace.arch), loss, ds) for p in sol]
        direct = float(np.asarray(per_iter).sum()) / len(per_iter)
        objective_only = Problem(objective_loss=loss, objective_dataset=ds)
        assert (mixture_risks(trace.arch, sol, objective_only)
                == [pytest.approx(direct, abs=1e-12)])

    def test_repeated_iterates_are_evaluated_once(self, monkeypatch):
        prob = small_gradient_problem()
        arch = LogisticArch(in_dim=2)
        a, b, c = (ModelState(params, arch)
                   for params in np.random.default_rng(4).normal(size=(3, arch.n_params)))
        # equal parameters in distinct objects count as one model
        twin = ModelState(a.params.copy(), arch)
        sol_models = (a, twin, b, a, c, b, twin)
        terms = [(prob.objective_loss, prob.objective_dataset),
                 (prob.constraints[0].loss, prob.constraints[0].dataset)]
        assert list(prob.terms) == terms
        per_model = np.array([[Evaluation(m).risk(loss, ds) for m in sol_models]
                              for loss, ds in terms])
        expected = [float(row.sum()) / row.shape[0] for row in per_model]
        block = np.array([m.params for m in sol_models])
        block.setflags(write=False)

        calls = []
        forward = models.predict_batch

        def counted(model, X):
            calls.append(model.params.tobytes())
            return forward(model, X)

        monkeypatch.setattr(models, "predict_batch", counted)
        got = mixture_risks(arch, block, prob)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert sorted(calls) == sorted(m.params.tobytes() for m in (a, b, c))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 2), (2, 4), (3,)])
    def test_a_block_that_is_empty_or_of_another_width_is_refused(self, shape):
        arch = LogisticArch(in_dim=2)
        assert arch.n_params == 3
        block = np.zeros(shape)
        block.setflags(write=False)
        with pytest.raises(InputError, match=re.escape(
                f"a mixture needs a (T, 3) parameter block with T >= 1 for its "
                f"architecture, got shape {shape}")):
            mixture_risks(arch, block, small_gradient_problem())

    def test_the_params_are_read_only_copies_of_the_trace_rows(self):
        prob, trace = self._toy_trace(T=6)
        rows = trace.thetas.copy()
        sol = randomized_solution(trace)
        assert [p.tobytes() for p in sol] == [row.tobytes() for row in rows]
        assert not sol.flags.writeable
        trace.thetas[:] = 7.0  # a later write to the trace
        assert [p.tobytes() for p in sol] == [row.tobytes() for row in rows]
        loss, ds = prob.objective_loss, prob.objective_dataset
        assert ([Evaluation(ModelState(p, trace.arch)).risk(loss, ds) for p in sol]
                == [Evaluation(ModelState(row, trace.arch)).risk(loss, ds) for row in rows])

    def test_a_non_finite_snapshot_names_its_iteration(self):
        _, trace = self._toy_trace(T=5)
        thetas = trace.thetas.copy()
        thetas[3, 0], thetas[4, 0] = np.nan, np.inf
        with pytest.raises(InputError, match="iteration 3: model parameters must be finite"):
            randomized_solution(replace(trace, thetas=thetas))

    def test_trace_without_snapshots_names_save_theta(self, tmp_path):
        _, trace = self._toy_trace(T=3)
        save_trace(trace, tmp_path / "trace.jsonl")  # records only, no theta files
        loaded = load_trace(tmp_path / "trace.jsonl")
        assert loaded.thetas is None
        with pytest.raises(InputError, match="no theta snapshots.*output.save_theta"):
            randomized_solution(loaded)


class TestRecommendHyperparams:
    def test_eta_substitution(self):
        eta, _ = recommend_hyperparams(B=1.0, m=2, zeta_bar=0.1, U0=1.0, M=1.0, nu=0.5)
        assert eta == pytest.approx(0.1, rel=1e-15)

    def test_iteration_count_substitution(self):
        # with eta forced to 0.1 via zeta_bar: T = ceil(1 / (2*0.1*1*0.5)) + 1 = 11
        eta, T = recommend_hyperparams(B=1.0, m=2, zeta_bar=0.1, U0=1.0, M=1.0, nu=0.5)
        assert (eta, T) == (pytest.approx(0.1), 11)

    def test_doubling_zeta_doubles_eta(self):
        eta1, _ = recommend_hyperparams(B=2.0, m=3, zeta_bar=0.2, U0=1.0, M=1.0, nu=0.1)
        eta2, _ = recommend_hyperparams(B=2.0, m=3, zeta_bar=0.4, U0=1.0, M=1.0, nu=0.1)
        assert eta2 == 2.0 * eta1

    def test_unconstrained_is_an_error(self):
        with pytest.raises(ConfigurationError):
            recommend_hyperparams(B=1.0, m=0, zeta_bar=0.1, U0=1.0, M=1.0, nu=0.5)


class TestTraceSerialization:
    def test_round_trip_with_snapshots(self, tmp_path):
        trace, _, _ = toy_train(4)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path, thetas_path=tmp_path / "thetas.npy")
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for key in ("lagrangian", "slacks", "mu", "thetas"):
            assert np.array_equal(getattr(loaded, key), getattr(trace, key)), key

    @pytest.mark.parametrize("save_theta", [True, False])
    def test_round_trip_is_bit_exact(self, tmp_path, save_theta):
        prob = small_gradient_problem()
        inner = InnerSolverConfig(epochs=1, step_size=0.1)
        cfg = TrainConfig(iterations_T=7, dual_step_eta=0.5, inner=inner, seed=3,
                          save_theta=save_theta)
        trace, _, _ = train(prob, cfg, init_model(LogisticArch(in_dim=2), seed=1))
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path, thetas_path=tmp_path / "thetas.npy")
        loaded = load_trace(path)
        assert loaded.arch == trace.arch and len(loaded) == 7
        # premise: the rows differ, so a row read into the wrong iteration shows
        assert len(set(trace.objective.tolist())) > 2
        for key in ("objective", "slacks", "mu", "lagrangian"):
            got, want = getattr(loaded, key), getattr(trace, key)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
        if save_theta:
            assert len({row.tobytes() for row in trace.thetas}) > 2
            assert loaded.thetas.tobytes() == trace.thetas.tobytes()
            assert loaded.thetas.shape == (7, trace.arch.n_params)
        else:
            assert trace.thetas is None and loaded.thetas is None
            assert not (tmp_path / "thetas.npy").exists()

    def _saved_toy(self, tmp_path):
        trace, _, _ = toy_train(3)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path, thetas_path=tmp_path / "thetas.npy")
        return path

    @pytest.mark.parametrize("array", [np.zeros((2, 1)), np.zeros((3, 2)), np.zeros(3),
                                       np.zeros((3, 1), dtype=np.float32)])
    def test_wrong_snapshot_array_is_refused(self, tmp_path, array):
        path = self._saved_toy(tmp_path)
        np.save(tmp_path / "thetas.npy", array, allow_pickle=False)
        with pytest.raises(InputError, match=r"thetas\.npy: theta snapshots are .*expected "
                                             r"float64 \(3, 1\)"):
            load_trace(path)

    def test_version_1_trace_is_refused(self, tmp_path):
        path = self._saved_toy(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        del header["snapshots"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="trace version 1 is not supported.*re-run train"):
            load_trace(path)

    def test_reserialization_is_byte_identical(self, tmp_path):
        trace, _, _ = toy_train(3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(trace, p1)
        save_trace(trace, p2)
        assert p1.read_bytes() == p2.read_bytes()

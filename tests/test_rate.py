import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duallearn.core import (
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    ReferenceTerm,
    empirical_risk,
    loss_values,
)
from duallearn.errors import ConfigurationError, InputError
from duallearn.lagrangian import (
    DualState,
    InnerSolverConfig,
    dual_function,
    empirical_lagrangian,
    gradient_minimize,
    slacks,
)
from duallearn.models import (
    Evaluation,
    LinearArch,
    LogisticArch,
    ModelState,
    grad_params,
    init_model,
    predict_batch,
)
from duallearn.primaldual import TrainConfig, train
from duallearn.rate import margin_check, surrogate_gap_bound

from helpers import cross_entropy, row_loss

IND = LossSpec(kind="rate-indicator", bound_B=1.0, rate_shift=0.5)
CE = cross_entropy()


def prob_with_rate_constraint(threshold=0.4):
    rng = np.random.default_rng(0)
    ds = Dataset(features=rng.uniform(-1, 1, (20, 2)), labels=rng.choice([0, 1], 20),
                 name="rate-ds")
    return Problem(
        objective_loss=CE, objective_dataset=ds,
        constraints=(ConstraintSpec(loss=IND, threshold_c=threshold, dataset=ds, name="rate"),),
    )


def indicator(x: float) -> float:
    """The rate-indicator loss of score x at shift 0: 1 when x >= 0."""
    return row_loss(LossSpec(kind="rate-indicator", bound_B=1.0, rate_shift=0.0), [x], 0)


def sigmoid(x: float, a: float) -> float:
    """The rate-sigmoid loss of score x at shift 0 and slope a: sigma(a x)."""
    loss = LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_shift=0.0, rate_slope=a)
    return row_loss(loss, [x], 0)


class TestIndicator:
    def test_boundary_counts_as_event(self):
        assert indicator(0.0) == 1.0

    def test_negative(self):
        assert indicator(-0.3) == 0.0

    def test_positive(self):
        assert indicator(5.0) == 1.0


class TestSigmoidSurrogate:
    def test_symmetry_point(self):
        for a in (1.0, 8.0, 100.0):
            assert sigmoid(0.0, a) == 0.5

    def test_analytic_value(self):
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert sigmoid(0.25, 8.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.880797, abs=1e-6)

    def test_complement_identity(self):
        for x in (-3.0, -0.1, 0.7, 11.0):
            assert sigmoid(x, 8.0) + sigmoid(-x, 8.0) == pytest.approx(1.0, abs=1e-12)

    def test_slope_floor(self):
        with pytest.raises(ConfigurationError):
            LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_slope=0.9)
        with pytest.raises(ConfigurationError):
            surrogate_gap_bound(DualState(np.array([1.0])), 0.1, 0.9)

    @given(x=st.floats(-30, 30, allow_nan=False), a=st.floats(1, 64, allow_nan=False))
    @example(x=0.0, a=8.0)
    @settings(max_examples=300, deadline=None)
    def test_pointwise_surrogate_ordering(self, x, a):
        # |1(x >= 0) - sigma(a x)| <= 1 - sigma(a |x|), with equality 0.5 <= 0.5 at x = 0
        lhs = abs(indicator(x) - sigmoid(x, a))
        rhs = 1.0 - sigmoid(abs(x), a)
        assert lhs <= rhs + 1e-15


class TestBuildSurrogateLagrangian:
    """The surrogate problem the gradient solver minimizes (`Problem.surrogate`)."""

    def test_no_rate_constraints_pass_through(self):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.uniform(-1, 1, (5, 2)), labels=rng.choice([0, 1], 5))
        prob = Problem(objective_loss=CE, objective_dataset=ds,
                       constraints=(ConstraintSpec(loss=CE, threshold_c=0.5, dataset=ds),))
        assert prob.surrogate is prob
        assert CE.surrogate is CE

    def test_fairness_substitution_at_threshold(self):
        # at f = 0.5 the indicator fires (1) but the surrogate reads 0.5
        prob = prob_with_rate_constraint()
        sur = prob.surrogate
        assert prob.surrogate is sur  # built once, so evaluation memos keep hitting
        assert sur.surrogate is sur
        assert sur.objective_loss is prob.objective_loss
        new_loss = sur.constraints[0].loss
        assert new_loss.kind == "rate-sigmoid"
        assert new_loss.rate_slope == 8.0
        assert row_loss(IND, [0.5], 0) == 1.0
        assert row_loss(new_loss, [0.5], 0) == pytest.approx(0.5, abs=1e-12)
        # thresholds and datasets untouched
        assert sur.constraints[0].threshold_c == prob.constraints[0].threshold_c
        assert sur.constraints[0].dataset is prob.constraints[0].dataset

    def test_slope_sharpening_converges_to_indicator(self):
        tau = 0.05
        rng = np.random.default_rng(2)
        model = ModelState(rng.uniform(-1, 1, 3), LogisticArch(2))
        full = Dataset(features=rng.uniform(-2, 2, (40, 2)), labels=rng.choice([0, 1], 40))
        # keep predictions at least tau away from the 0.5 threshold
        margins = np.abs(predict_batch(model, full.features)[:, 0] - 0.5)
        ds = full.subset(np.nonzero(margins >= tau)[0])
        preds = predict_batch(model, ds.features)
        events = loss_values(IND, preds, ds.labels)
        assert 0.0 < events.sum() < len(ds)  # both sides of the threshold remain
        ind_risk = empirical_risk(model, IND, ds)
        gaps, dists = [], []
        for a in (8.0, 64.0, 512.0):
            sig = LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_shift=0.5, rate_slope=a)
            gap = abs(empirical_risk(model, sig, ds) - ind_risk)
            # per sample |1(z >= s) - sigma(a(z - s))| = 1 - sigma(a |z - s|) <= 1 - sigma(a tau)
            assert gap <= 1.0 - sigmoid(tau, a)
            gaps.append(gap)
            dists.append(float(np.mean(np.abs(loss_values(sig, preds, ds.labels) - events))))
        assert dists[0] > dists[1] > dists[2]
        assert gaps[2] < 1e-3

    def test_the_surrogate_keeps_the_indicators_shift_slope_and_bound(self):
        rng = np.random.default_rng(5)
        ds = Dataset(features=rng.uniform(-1, 1, (10, 2)), labels=rng.choice([0, 1], 10))
        ind = LossSpec(kind="rate-indicator", bound_B=2.0, rate_shift=0.3, rate_slope=50.0)
        twin = LossSpec(kind="rate-indicator", bound_B=2.0, rate_shift=0.3, rate_slope=50.0)
        prob = Problem(
            objective_loss=CE, objective_dataset=ds,
            constraints=(ConstraintSpec(loss=ind, threshold_c=0.01, dataset=ds.subset([0, 1]),
                                        reference=ReferenceTerm(loss=twin, dataset=ds)),),
        )
        c = prob.surrogate.constraints[0]
        want = LossSpec(kind="rate-sigmoid", bound_B=2.0, rate_shift=0.3, rate_slope=50.0)
        assert c.loss == want
        assert c.reference.loss == c.loss

    def test_reference_term_substituted_too(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.uniform(-1, 1, (10, 2)), labels=rng.choice([0, 1], 10))
        sub = ds.subset(np.arange(4))
        prob = Problem(
            objective_loss=CE, objective_dataset=ds,
            constraints=(ConstraintSpec(loss=IND, threshold_c=0.01, dataset=sub,
                                        reference=ReferenceTerm(loss=IND, dataset=ds)),),
        )
        sur = prob.surrogate
        assert sur.constraints[0].loss.kind == "rate-sigmoid"
        assert sur.constraints[0].reference.loss.kind == "rate-sigmoid"

    def test_gradients_available_after_substitution(self):
        prob = prob_with_rate_constraint()
        model = init_model(LogisticArch(2))
        terms = [(1.0, c.loss, c.dataset) for c in prob.surrogate.constraints]
        g = grad_params(model, terms)
        assert np.all(np.isfinite(g))


class TestSurrogateGapBound:
    def test_zero_multipliers(self):
        assert surrogate_gap_bound(DualState(np.zeros(3)), tau=0.1, a=8.0) == 0.0

    def test_substitution(self):
        # ||mu||_1 = 2 and sigma(tau) = 0.9 gives 2 * 2 * 0.1 = 0.4
        mu = DualState(np.array([1.5, 0.5]))
        tau = math.log(9.0)
        assert surrogate_gap_bound(mu, tau=tau, a=1.0) == pytest.approx(0.4, abs=1e-12)

    def test_nonincreasing_in_tau(self):
        mu = DualState(np.array([2.0]))
        vals = [surrogate_gap_bound(mu, tau=t, a=8.0) for t in (0.0, 0.1, 0.5, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestMarginCheck:
    def _margin_problem(self, preds):
        # identity-feature logistic trick: use raw scalar dataset with a linear
        # model so the "prediction" is the stored value itself
        from duallearn.models import LinearArch
        ds = Dataset(features=np.asarray(preds, dtype=float)[:, None],
                     labels=np.zeros(len(preds), dtype=np.int64))
        prob = Problem(objective_loss=LossSpec(kind="squared", bound_B=4.0),
                       objective_dataset=ds,
                       constraints=(ConstraintSpec(loss=IND, threshold_c=0.5, dataset=ds),))
        model = ModelState(np.array([1.0]), LinearArch(1, bias=False))
        return prob, model

    def test_clear_margins(self):
        prob, model = self._margin_problem([0.1, 0.9, 0.75, 0.2])
        report = margin_check(model, prob, tau_min=0.1)
        assert report.violating_sample_indices == ()
        assert report.min_abs_margin_tau == pytest.approx(0.25, abs=1e-12)

    def test_boundary_sample_listed(self):
        prob, model = self._margin_problem([0.5, 0.9])
        report = margin_check(model, prob, tau_min=0.1)
        assert report.min_abs_margin_tau == 0.0
        assert (0, "dataset", 0) in report.violating_sample_indices

    def test_manual_scan_of_five_samples(self):
        preds = [0.45, 0.62, 0.5, 0.98, 0.35]
        # |pred - 0.5|: 0.05, 0.12, 0.0, 0.48, 0.15 -> below 0.1: indices 0 and 2
        prob, model = self._margin_problem(preds)
        report = margin_check(model, prob, tau_min=0.1)
        assert report.min_abs_margin_tau == 0.0
        listed = {i for (_, _, i) in report.violating_sample_indices}
        assert listed == {0, 2}

    def test_references_and_mixed_constraints_against_a_walk(self):
        # constraint 0: a rate constraint against a rate reference; 1: a rate
        # constraint without one; 2: a non-rate constraint with a non-rate
        # reference, which is not scanned
        rng = np.random.default_rng(11)

        def table(name, n):
            return Dataset(features=rng.uniform(-2, 2, (n, 2)), labels=rng.choice([0, 1], n),
                           name=name)

        sq = LossSpec(kind="squared", bound_B=4.0)
        ref_ind = LossSpec(kind="rate-indicator", bound_B=1.0, rate_shift=0.3)
        sig = LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_shift=0.6, rate_slope=8.0)
        prob = Problem(objective_loss=CE, objective_dataset=table("obj", 9), constraints=(
            ConstraintSpec(loss=IND, threshold_c=0.1, dataset=table("a", 30),
                           reference=ReferenceTerm(loss=ref_ind, dataset=table("r", 25))),
            ConstraintSpec(loss=sig, threshold_c=0.1, dataset=table("b", 40)),
            ConstraintSpec(loss=sq, threshold_c=0.5, dataset=table("c", 20),
                           reference=ReferenceTerm(loss=sq, dataset=table("s", 15)))))
        model = ModelState(np.array([0.9, -0.7, 0.2]), LogisticArch(2))

        c0, c1, _ = prob.constraints
        walk = [(0, "dataset", IND, c0.dataset), (0, "reference", ref_ind, c0.reference.dataset),
                (1, "dataset", sig, c1.dataset)]
        want_min, want = math.inf, []
        for i, part, loss, ds in walk:
            preds = predict_batch(model, ds.features)[:, 0]
            for n, p in enumerate(preds.tolist()):
                margin = abs(p - loss.rate_shift)
                want_min = min(want_min, margin)
                if margin < 0.05:
                    want.append((i, part, n))

        report = margin_check(model, prob, tau_min=0.05)
        assert report.violating_sample_indices == tuple(want)
        assert {part for i, part, _ in want} == {"dataset", "reference"}
        assert {i for i, *_ in want} == {0, 1}
        assert report.min_abs_margin_tau == want_min

    def test_requires_rate_constraints(self):
        rng = np.random.default_rng(4)
        ds = Dataset(features=rng.uniform(-1, 1, (5, 2)), labels=rng.choice([0, 1], 5))
        prob = Problem(objective_loss=CE, objective_dataset=ds)
        with pytest.raises(InputError):
            margin_check(init_model(LogisticArch(2)), prob)


class TestDualUsesIndicatorSlacks:
    def test_trace_slacks_are_indicator_based(self):
        # training steps on the surrogate but must still record true-rate slacks
        prob = prob_with_rate_constraint(threshold=0.3)
        inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.1)
        cfg = TrainConfig(iterations_T=6, dual_step_eta=1.0, inner=inner, seed=2)
        trace, _, _ = train(prob, cfg, init_model(LogisticArch(2)))
        for theta, slack in zip(trace.thetas, trace.slacks):
            model = ModelState(theta, trace.arch)
            assert np.array_equal(slack, slacks(model, prob))
            sur_slacks = slacks(model, prob.surrogate)
            assert not np.array_equal(slack, sur_slacks)

    def test_dual_function_returns_the_indicator_lagrangian_of_the_surrogate_minimizer(self):
        prob = prob_with_rate_constraint(threshold=0.3)
        mu = DualState(np.array([2.0]))
        solver = InnerSolverConfig(epochs=3, batch_size=8, step_size=0.1)
        init = init_model(LogisticArch(2))
        val, minimizer = dual_function(mu, prob, solver, init, rng=np.random.default_rng(4))
        want = gradient_minimize(mu, prob.surrogate, solver, Evaluation(init),
                                 np.random.default_rng(4))
        assert np.array_equal(minimizer.params, want.model.params)
        assert val == empirical_lagrangian(minimizer, mu, prob)
        assert val != empirical_lagrangian(minimizer, mu, prob.surrogate)

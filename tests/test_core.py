import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallearn.core import (
    Dataset,
    LossSpec,
    Problem,
    empirical_risk,
    loss_values,
    stable_sigmoid,
)
from duallearn.errors import ConfigurationError, InputError
from duallearn.models import LinearArch, ModelState
from duallearn.oracle import example1_population_objective, example1_sample

from helpers import dataset_risk, row_loss


def identity_1d():
    return ModelState(np.array([1.0]), LinearArch(1, 1, bias=False))


class TestEvalLoss:
    def test_zero_one_correct_classification(self):
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        assert row_loss(zo, [0.1, 0.9, 0.2], 1) == 0.0
        assert row_loss(zo, [0.1, 0.9, 0.2], 0) == 1.0
        # scalar predictions are P(class 1), thresholded at 0.5
        assert row_loss(zo, [0.7], 1) == 0.0
        assert row_loss(zo, [0.7], 0) == 1.0

    def test_cross_entropy_half(self):
        ce = LossSpec.cross_entropy()
        assert row_loss(ce, [0.5], 1) == pytest.approx(math.log(2), rel=1e-12)
        assert row_loss(ce, [0.5], 0) == pytest.approx(math.log(2), rel=1e-12)

    def test_cross_entropy_clamp_hits_bound(self):
        # independent evaluation of the clamp formula: p=0 -> -log(p_min) = B
        ce = LossSpec.cross_entropy(clamp_p_min=1e-6)
        expected = -math.log(1e-6)
        assert ce.bound_B == expected
        assert row_loss(ce, [0.0], 1) == expected
        assert expected == pytest.approx(13.8155, abs=1e-4)

    def test_rate_kinds(self):
        ind = LossSpec(kind="rate-indicator", bound_B=1.0, rate_shift=0.5)
        assert row_loss(ind, [0.5], 0) == 1.0  # boundary counts as the event
        assert row_loss(ind, [0.49], 0) == 0.0
        sig = LossSpec(kind="rate-sigmoid", bound_B=1.0, rate_shift=0.5, rate_slope=8.0)
        assert row_loss(sig, [0.5], 0) == pytest.approx(0.5, abs=1e-12)

    def test_signed_score_is_signed(self):
        sc = LossSpec(kind="signed-score", bound_B=4.0)
        assert row_loss(sc, [0.3], -1) == pytest.approx(-0.3)
        assert row_loss(sc, [9.0], 1) == 4.0  # clipped at the bound

    @pytest.mark.parametrize("label", [np.nan, 2.0, 0.5])
    def test_scalar_cross_entropy_refuses_labels_outside_0_1(self, label):
        y = np.array([1.0, label, 0.0])
        with pytest.raises(InputError, match=r"scalar cross-entropy predictions need \{0, 1\}"):
            loss_values(LossSpec.cross_entropy(), np.full((3, 1), 0.5), y)

    def test_dimension_mismatch(self):
        sq = LossSpec(kind="squared", bound_B=4.0)
        with pytest.raises(InputError):
            row_loss(sq, [0.1, 0.2], 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LossSpec(kind="logcosh", bound_B=1.0)

    def test_cross_entropy_bound_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            LossSpec(kind="clamped-cross-entropy", bound_B=5.0, clamp_p_min=1e-6)

    def test_sigmoid_slope_floor(self):
        # an indicator's slope is its surrogate's, so both kinds refuse it
        for kind in ("rate-sigmoid", "rate-indicator"):
            with pytest.raises(ConfigurationError, match=f"{kind} slope must be >= 1"):
                LossSpec(kind=kind, bound_B=1.0, rate_slope=0.5)
            # nan < 1 is false, and an infinite slope has the gradient inf * 0
            for name, value in (("rate_slope", math.nan), ("rate_slope", math.inf),
                                ("rate_shift", math.nan), ("rate_shift", -math.inf)):
                with pytest.raises(ConfigurationError, match=f"{kind} {name} must be finite"):
                    LossSpec(kind=kind, bound_B=1.0, **{name: value})


class TestEmpiricalRisk:
    def test_arithmetic_mean(self):
        # |y * theta x| with theta=1, y=1 makes the per-sample losses 0.2, 0.4
        loss = LossSpec(kind="absolute", bound_B=4.0)
        ds = Dataset(features=np.array([[0.2], [0.4]]), labels=np.array([1, 1]))
        assert empirical_risk(identity_1d(), loss, ds) == pytest.approx(0.3, rel=1e-12)

    def test_all_correct_zero_one(self):
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        ds = Dataset(features=np.array([[0.9], [0.1], [0.8]]), labels=np.array([1, 0, 1]))
        assert empirical_risk(identity_1d(), zo, ds) == 0.0

    def test_example1_monte_carlo_matches_closed_form(self):
        # 1e6 draws vs the closed-form population objective at [1, 1]
        d0, _, _ = example1_sample(1_000_000, seed=11)
        model = ModelState(np.array([1.0, 1.0]), LinearArch(2, 1, bias=False))
        loss = LossSpec(kind="absolute", bound_B=4.0)
        risk = empirical_risk(model, loss, d0)
        assert abs(risk - example1_population_objective([1.0, 1.0])) < 0.01

    def test_mean_decomposition(self):
        rng = np.random.default_rng(5)
        loss = LossSpec(kind="squared", bound_B=4.0)
        model = identity_1d()
        d1 = Dataset(features=rng.uniform(-1, 1, (7, 1)), labels=rng.uniform(-1, 1, 7))
        d2 = Dataset(features=rng.uniform(-1, 1, (13, 1)), labels=rng.uniform(-1, 1, 13))
        union = Dataset(features=np.concatenate([d1.features, d2.features]),
                        labels=np.concatenate([d1.labels, d2.labels]))
        r1 = empirical_risk(model, loss, d1)
        r2 = empirical_risk(model, loss, d2)
        expected = (7 * r1 + 13 * r2) / 20
        assert empirical_risk(model, loss, union) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        loss = LossSpec(kind="squared", bound_B=4.0)
        model = identity_1d()
        ds = Dataset(features=rng.uniform(-1, 1, (50, 1)), labels=rng.uniform(-1, 1, 50))
        perm = rng.permutation(50)
        shuffled = ds.subset(perm)
        assert abs(empirical_risk(model, loss, ds)
                   - empirical_risk(model, loss, shuffled)) < 1e-9

    def test_deterministic_reduction(self):
        rng = np.random.default_rng(3)
        loss = LossSpec(kind="absolute", bound_B=4.0)
        ds = Dataset(features=rng.uniform(-1, 1, (100, 1)),
                     labels=rng.choice([-1, 1], 100))
        a = empirical_risk(identity_1d(), loss, ds)
        b = empirical_risk(identity_1d(), loss, ds)
        assert a == b


_KINDS = st.sampled_from(["zero-one", "clamped-cross-entropy", "squared", "hinge",
                          "absolute", "rate-indicator", "rate-sigmoid"])


class TestBoundedness:
    @given(kind=_KINDS,
           z=st.floats(-50, 50, allow_nan=False),
           label=st.sampled_from([0, 1]),
           B=st.floats(0.5, 20, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_losses_stay_in_bounds(self, kind, z, label, B):
        if kind == "clamped-cross-entropy":
            loss = LossSpec.cross_entropy()
            z = min(max(z, -1.0), 2.0)  # probability-ish input, clamp handles the rest
        else:
            if kind in ("zero-one", "rate-indicator", "rate-sigmoid"):
                B = max(B, 1.0)
            loss = LossSpec(kind=kind, bound_B=B, rate_shift=0.0)
        v = row_loss(loss, [z], label)
        assert 0.0 <= v <= loss.bound_B

    @given(z=st.floats(-50, 50, allow_nan=False),
           label=st.sampled_from([-1, 1]),
           B=st.floats(0.5, 20, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_signed_score_symmetric_bound(self, z, label, B):
        loss = LossSpec(kind="signed-score", bound_B=B)
        v = row_loss(loss, [z], label)
        assert -B <= v <= B


class TestDatasetInvariants:
    def test_nonempty_required(self):
        with pytest.raises(InputError):
            Dataset(features=np.zeros((0, 2)), labels=np.zeros(0))

    def test_label_length_must_match(self):
        with pytest.raises(InputError):
            Dataset(features=np.zeros((3, 1)), labels=np.zeros(2))

    def test_arrays_are_read_only(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 2.0

    def test_empty_prediction_batch_rejected(self):
        loss = LossSpec(kind="squared", bound_B=1.0)
        with pytest.raises(InputError):
            loss_values(loss, np.zeros((2, 1)), np.zeros(3))

    def test_dataset_risk_matches_loop(self):
        rng = np.random.default_rng(0)
        loss = LossSpec(kind="hinge", bound_B=4.0)
        P = rng.uniform(-2, 2, (20, 1))
        y = rng.choice([0, 1], 20)
        by_hand = sum(row_loss(loss, P[i], y[i]) for i in range(20)) / 20
        assert dataset_risk(loss, P, y) == pytest.approx(by_hand, rel=1e-12)


def masked_sigmoid(x):
    """The masked-index logistic that `stable_sigmoid` replaced, as a reference."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


class TestStableSigmoid:
    def test_bit_identical_to_the_masked_form(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.0, 30.0, 100_000),
                            [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 745.0, -745.0]])
        got, want = stable_sigmoid(x), masked_sigmoid(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("x", [0.0, -0.0, 700.0, -700.0, 2.5, -2.5])
    def test_zero_d_input_returns_a_float(self, x):
        got = stable_sigmoid(np.float64(x))
        assert type(got) is float
        assert got == masked_sigmoid(x)
        assert stable_sigmoid(x) == got

    def test_matrix_shape_kept(self):
        x = np.array([[-1.0, 0.0], [1.0, 800.0]])
        assert np.array_equal(stable_sigmoid(x), masked_sigmoid(x))


class TestHingeIsRowWise:
    HINGE = LossSpec(kind="hinge", bound_B=4.0)

    def test_row_value_does_not_depend_on_its_set(self):
        z = np.full((3, 1), 0.3)
        y = np.array([0, 1, 2])
        in_full = loss_values(self.HINGE, z, y)
        in_view = loss_values(self.HINGE, z[:2], y[:2])
        # label 0 reads as -1 in both sets: 1 - (-1)(0.3)
        assert in_full[0] == in_view[0] == pytest.approx(1.3, abs=1e-15)
        assert in_full[1] == in_view[1]
        assert in_full[2] == pytest.approx(0.4, abs=1e-15)  # label 2 is kept: 1 - 2(0.3)
        assert row_loss(self.HINGE, [0.3], 0) == in_full[0]

    def test_minibatch_rows_match_the_full_set(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-2.0, 2.0, (30, 1))
        y = rng.choice([-1, 0, 1, 2], 30)
        full = loss_values(self.HINGE, z, y)
        for idx in (np.arange(5), np.nonzero(y <= 0)[0], np.nonzero(y == 0)[0]):
            assert np.array_equal(loss_values(self.HINGE, z[idx], y[idx]), full[idx])

    def test_binary_and_signed_labels_unchanged(self):
        z = np.array([[0.3], [-0.4], [1.5]])
        for y, ypm in ((np.array([0, 1, 1]), np.array([-1.0, 1.0, 1.0])),
                       (np.array([-1, 1, -1]), np.array([-1.0, 1.0, -1.0]))):
            want = np.minimum(np.maximum(0.0, 1.0 - ypm * z[:, 0]), 4.0)
            assert np.array_equal(loss_values(self.HINGE, z, y), want)


class TestDatasetViews:
    def test_subset_records_its_root_rows(self):
        root = Dataset(features=np.arange(12.0).reshape(6, 2), labels=np.arange(6), name="t")
        assert root.root is None and root.rows is None
        view = root.subset([4, 1, 3])
        assert view.root is root
        assert np.array_equal(view.rows, [4, 1, 3])
        assert np.array_equal(view.features, root.features[view.rows])

    def test_subset_of_a_view_composes_the_rows(self):
        root = Dataset(features=np.arange(12.0).reshape(6, 2), labels=np.arange(6), name="t")
        inner = root.subset([4, 1, 3]).subset([2, 0])
        assert inner.root is root
        assert np.array_equal(inner.rows, [3, 4])
        assert np.array_equal(inner.labels, root.labels[inner.rows])

    def test_sets_and_problems_compare_and_hash_by_identity(self):
        """Equal arrays make distinct sets: an evaluation keys its memos by
        the set itself, and by the problem itself."""
        X, y = np.zeros((3, 1)), np.arange(3)
        a, b = Dataset(features=X, labels=y), Dataset(features=X, labels=y)
        assert a == a and a != b and len({a, b, a}) == 2
        loss = LossSpec(kind="squared", bound_B=1.0)
        p, q = Problem(loss, a), Problem(loss, a)
        assert p != q and len({p, q, p}) == 2
        assert loss == LossSpec(kind="squared", bound_B=1.0)
        assert hash(loss) == hash(LossSpec(kind="squared", bound_B=1.0))

    def test_rows_are_a_private_read_only_copy(self):
        root = Dataset(features=np.zeros((4, 1)), labels=np.arange(4))
        idx = np.array([0, 2])
        view = root.subset(idx)
        idx[0] = 3
        assert np.array_equal(view.rows, [0, 2])
        with pytest.raises(ValueError):
            view.rows[0] = 1

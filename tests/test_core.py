import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallearn.core import (
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    ReferenceTerm,
    empirical_risk,
    loss_pred_grads,
    loss_values,
    stable_sigmoid,
)
from duallearn.errors import ConfigurationError, InputError
from duallearn.models import LinearArch, ModelState
from duallearn.oracle import example1_population_objective, example1_sample

from helpers import (
    bits,
    column_store_ce_grads,
    cross_entropy,
    dataset_risk,
    float_label_ce_values,
    random_layout_problem,
    random_mu,
    row_loss,
    two_division_sigmoid,
)


def identity_1d():
    return ModelState(np.array([1.0]), LinearArch(1, bias=False))


class TestEvalLoss:
    def test_zero_one_correct_classification(self):
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        # predictions are P(class 1), thresholded at 0.5
        assert row_loss(zo, [0.7], 1) == 0.0
        assert row_loss(zo, [0.7], 0) == 1.0
        assert row_loss(zo, [0.5], 1) == 0.0
        assert row_loss(zo, [0.2], 0) == 0.0

    def test_cross_entropy_half(self):
        ce = cross_entropy()
        assert row_loss(ce, [0.5], 1) == pytest.approx(math.log(2), rel=1e-12)
        assert row_loss(ce, [0.5], 0) == pytest.approx(math.log(2), rel=1e-12)

    def test_cross_entropy_clamp_hits_bound(self):
        # independent evaluation of the clamp formula: p=0 -> -log(p_min) = B
        ce = cross_entropy(clamp_p_min=1e-6)
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
            loss_values(cross_entropy(), np.full((3, 1), 0.5), y)

    def test_dimension_mismatch(self):
        # every kind takes one output, the classification kinds too
        for loss in (LossSpec(kind="squared", bound_B=4.0), LossSpec(kind="zero-one", bound_B=1.0),
                     cross_entropy()):
            with pytest.raises(InputError, match=f"loss kind '{loss.kind}' expects "
                                                 "1-dimensional predictions, got 3"):
                row_loss(loss, [0.1, 0.9, 0.2], 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown loss kind 'logcosh'"):
            LossSpec(kind="logcosh", bound_B=1.0)

    def test_the_deleted_hinge_kind_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown loss kind 'hinge'"):
            LossSpec(kind="hinge", bound_B=1.0)

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
        model = ModelState(np.array([1.0, 1.0]), LinearArch(2, bias=False))
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


_KINDS = st.sampled_from(["zero-one", "clamped-cross-entropy", "squared", "absolute",
                          "rate-indicator", "rate-sigmoid"])


class TestBoundedness:
    @given(kind=_KINDS,
           z=st.floats(-50, 50, allow_nan=False),
           label=st.sampled_from([0, 1]),
           B=st.floats(0.5, 20, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_losses_stay_in_bounds(self, kind, z, label, B):
        if kind == "clamped-cross-entropy":
            loss = cross_entropy()
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
        loss = LossSpec(kind="squared", bound_B=4.0)
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


# Signed zeros, infinities, NaN, the subnormal and the largest magnitudes, and
# every decade from 1e-300 to 1e300 with a random mantissa, of both signs.
_MAGNITUDES = np.random.default_rng(3).uniform(1.0, 10.0, 121) * 10.0 ** np.arange(-300, 305, 5)
EDGE_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-300, -1e-300,
     1e300, -1e300, np.finfo(float).max, -np.finfo(float).max, 36.7, -36.7, 709.8, -745.2],
    _MAGNITUDES, -_MAGNITUDES])


class TestOneDivisionSigmoid:
    """`stable_sigmoid` picks its numerator before one division; each branch
    is the same IEEE operation as the two-division form it replaced."""

    def test_bits_of_edge_values_and_every_decade(self):
        x = np.concatenate([EDGE_FLOATS, np.random.default_rng(0).normal(0.0, 30.0, 10_000)])
        got, want = stable_sigmoid(x), two_division_sigmoid(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_bits_of_scalars(self):
        for x in EDGE_FLOATS:
            got, want = stable_sigmoid(x), two_division_sigmoid(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x

    def test_bits_of_a_matrix(self):
        x = EDGE_FLOATS[:160].reshape(20, 8)
        assert stable_sigmoid(x).tobytes() == two_division_sigmoid(x).tobytes()


class TestScalarCrossEntropyGradient:
    """The scalar cross-entropy gradient reads one label mask and one
    division; its bits are those of the column-store form it replaced."""

    @staticmethod
    def predictions(loss):
        lo, hi = loss.clamp_p_min, 1.0 - loss.clamp_p_min
        edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), np.nextafter(hi, 0.0),
                 np.nextafter(hi, 1.0), 0.5, 1.0, 1.5, -0.5, np.nextafter(1.0, 0.0),
                 np.nextafter(1.0, 2.0), 1.0 - 1e-300, 1.0 + 5e-324]
        inside = np.random.default_rng(1).uniform(0.0, 1.0, 400)
        return np.concatenate([EDGE_FLOATS, edges, inside])[:, None]

    @pytest.mark.parametrize("clamp", [1e-6, 0.25])
    @pytest.mark.parametrize("labels", [
        lambda rng, n: rng.choice([0, 1], n),
        lambda rng, n: rng.choice([0, 1], n).astype(np.int32),
        lambda rng, n: rng.choice([0.0, 1.0], n),
        lambda rng, n: rng.choice([0, 1], n).astype(bool),
        lambda rng, n: rng.choice([0.0, 1.0, 2.0, -1.0, 0.5, 1.0 + 2e-16, np.nan, np.inf], n),
        lambda rng, n: rng.choice([0, 1, 2, -1, 7], n),
    ], ids=["int64", "int32", "float", "bool", "other-floats", "other-ints"])
    def test_bits_match_the_column_store_form(self, clamp, labels):
        loss = cross_entropy(clamp)
        P = self.predictions(loss)
        y = labels(np.random.default_rng(2), len(P))
        got, want = loss_pred_grads(loss, P, y), column_store_ce_grads(loss, P, y)
        assert got.shape == want.shape == P.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(got) > 0

    def test_each_label_takes_its_own_branch(self):
        loss = cross_entropy()
        P = self.predictions(loss)
        for label in (0, 1, 1.0, 0.0, 2, -1.0, True, False, np.nan):
            y = np.full(len(P), label)
            assert (loss_pred_grads(loss, P, y).tobytes()
                    == column_store_ce_grads(loss, P, y).tobytes()), label

    def test_bits_at_zero_subnormal_and_non_finite_predictions(self):
        # one masked division: p_true outside the clamp (0, the subnormals,
        # NaN, the infinities) is never divided by and reads +0.0
        loss = cross_entropy()
        p = np.array([0.0, -0.0, 1e-300, 5e-324, np.nan, np.inf, -np.inf, 1.0, 0.5])
        P = np.repeat(p, 4)[:, None]
        for y in (np.tile([0, 1, 2, -1], len(p)), np.tile([0.0, 1.0, 2.0, np.nan], len(p)),
                  np.tile([False, True, True, False], len(p))):
            got = loss_pred_grads(loss, P, y)
            assert got.tobytes() == column_store_ce_grads(loss, P, y).tobytes(), y.dtype
            assert bits(got[P[:, 0] != 0.5, 0]) == [0] * (len(P) - 4)


class TestScalarCrossEntropyValues:
    """The scalar cross-entropy values read one label mask; their bits and
    their label check are those of the float-cast form they replaced."""

    @pytest.mark.parametrize("clamp", [1e-6, 0.25])
    @pytest.mark.parametrize("labels", [
        lambda rng, n: rng.choice([0, 1], n),
        lambda rng, n: rng.choice([0, 1], n).astype(np.int32),
        lambda rng, n: rng.choice([0, 1], n).astype(np.uint8),
        lambda rng, n: rng.choice([0.0, 1.0], n),
        lambda rng, n: rng.choice([0.0, 1.0], n).astype(np.float32),
        lambda rng, n: rng.choice([0, 1], n).astype(bool),
    ], ids=["int64", "int32", "uint8", "float", "float32", "bool"])
    def test_bits_match_the_float_cast_form(self, clamp, labels):
        loss = cross_entropy(clamp)
        P = TestScalarCrossEntropyGradient.predictions(loss)
        y = labels(np.random.default_rng(4), len(P))
        got, want = loss_values(loss, P, y), float_label_ce_values(loss, P, y)
        assert got.shape == want.shape == (len(P),)
        assert got.tobytes() == want.tobytes()
        assert len(np.unique(got)) > 100

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan, 1.5, np.inf])
    @pytest.mark.parametrize("dtype", [float, np.float32, object])
    def test_labels_other_than_zero_or_one_are_refused_alike(self, bad, dtype):
        loss = cross_entropy()
        P = np.full((4, 1), 0.5)
        y = np.array([0, 1, bad, 1], dtype=dtype)
        message = "scalar cross-entropy predictions need {0, 1} labels"
        with pytest.raises(InputError, match=re.escape(message)):
            float_label_ce_values(loss, P, y)
        with pytest.raises(InputError, match=re.escape(message)):
            loss_values(loss, P, y)

    def test_integer_labels_other_than_zero_or_one_are_refused(self):
        loss = cross_entropy()
        for bad in (2, -1, 7):
            with pytest.raises(InputError, match="need {0, 1} labels"):
                loss_values(loss, np.full((3, 1), 0.5), np.array([0, bad, 1]))


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

    @pytest.mark.parametrize("labels", [np.arange(6, dtype=np.int32), np.linspace(0.0, 1.0, 6)],
                             ids=["int", "float"])
    def test_a_minibatch_view_keeps_its_labels_is_read_only_and_carries_its_rows(self, labels):
        root = Dataset(features=np.arange(12.0).reshape(6, 2), labels=labels)
        assert root.labels.dtype == (np.int64 if labels.dtype.kind == "i" else np.float64)
        group = root.subset([5, 1, 2, 4])
        batch = group.subset(np.array([3, 0, 3]))
        assert batch.root is root and batch.rows.tolist() == [4, 5, 4]
        assert batch.labels.dtype == root.labels.dtype
        assert batch.labels.tobytes() == root.labels[[4, 5, 4]].tobytes()
        assert batch.features.tobytes() == root.features[[4, 5, 4]].tobytes()
        for array in (batch.features, batch.labels, batch.rows):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_a_view_keeps_the_dtypes_of_its_table_and_is_read_only(self):
        for labels in (np.arange(5, dtype=np.int64), np.linspace(0.0, 1.0, 5)):
            root = Dataset(features=np.arange(10.0).reshape(5, 2), labels=labels)
            view = root.subset(np.array([3, 3, 0]), name="v")
            assert view.name == "v" and len(view) == 3 and view.n_features == 2
            assert view.features.dtype == root.features.dtype
            assert view.labels.dtype == root.labels.dtype
            assert view.features.tobytes() == root.features[[3, 3, 0]].tobytes()
            assert view.labels.tobytes() == root.labels[[3, 3, 0]].tobytes()
            for array in (view.features, view.labels):
                with pytest.raises(ValueError):
                    array[0] = 1


class TestLossSpecHash:
    def test_equal_specs_built_apart_hash_equal_and_share_one_memo_entry(self):
        from dataclasses import replace

        from duallearn.models import Evaluation

        a = LossSpec(kind="absolute", bound_B=2.0)
        b = LossSpec(kind="absolute", bound_B=2.0)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(replace(a, bound_B=3.0)) == hash(LossSpec(kind="absolute", bound_B=3.0))
        ds = Dataset(features=np.ones((3, 1)), labels=np.array([0, 1, 1]))
        ev = Evaluation(identity_1d())
        assert ev.risk(a, ds) == ev.risk(b, ds)
        assert list(ev._rowwise) == [(loss_values, ds, a)]

    def test_the_hash_does_not_depend_on_the_process(self):
        """A spec's hash is computed once, when it is built; an unpickled
        spec keeps it, so it must not be salted per process like a str."""
        import os
        import subprocess
        import sys

        code = ("from duallearn.core import LossSpec; "
                "print(hash(LossSpec(kind='rate-sigmoid', bound_B=1.0, rate_shift=0.25)))")
        hashes = set()
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=os.pathsep.join(sys.path))
            hashes.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
        assert len(hashes) == 1


class TestProblemLayout:
    """`Problem.terms`, `slacks_of` and `weights` against the walk over the
    constraints that each of them replaces."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("references", [False, True])
    @pytest.mark.parametrize("m", range(4))
    def test_terms_slacks_and_weights_follow_the_constraints(self, m, references, seed):
        rng = np.random.default_rng(seed)
        problem = random_layout_problem(rng, m, references)
        want_terms = [(problem.objective_loss, problem.objective_dataset)]
        for c in problem.constraints:
            want_terms.append((c.loss, c.dataset))
            if c.reference is not None:
                want_terms.append((c.reference.loss, c.reference.dataset))
        assert [(id(l), id(d)) for l, d in problem.terms] == \
            [(id(l), id(d)) for l, d in want_terms]
        assert [id(d) for d in problem.datasets] == [id(d) for _, d in want_terms]

        risks = rng.uniform(-1.0, 1.0, size=len(want_terms)).tolist()
        want_slacks, k = [], 1
        for c in problem.constraints:
            risk = risks[k]
            if c.reference is not None:
                k += 1
                risk = risk - risks[k]
            k += 1
            want_slacks.append(risk - c.threshold_c)
        got = problem.slacks_of(risks)
        assert got.dtype == np.float64 and got.shape == (m,) and not got.flags.writeable
        assert bits(got) == bits(want_slacks)
        # risks may be arrays: their slacks stack along a new first axis, and
        # keep the risks' shape when there are no constraints
        stacked = problem.slacks_of(np.array([risks, risks[::-1]]).T)
        assert stacked.shape == (m, 2)
        assert bits(stacked[:, 0]) == bits(want_slacks)
        assert problem.slacks_of(np.zeros((len(want_terms), 4, 2))).shape == (m, 4, 2)

        mu = random_mu(rng, m)
        want_weights = [1.0]
        for w, c in zip(mu.tolist(), problem.constraints):
            want_weights += [w, -w] if c.reference is not None else [w]
        assert bits(problem.weights(mu)) == bits(want_weights)

    def test_weights_refuse_a_multiplier_vector_of_another_length(self):
        ds = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]))
        loss = LossSpec(kind="absolute", bound_B=4.0)
        problem = Problem(objective_loss=loss, objective_dataset=ds, constraints=(
            ConstraintSpec(loss=loss, threshold_c=0.1, dataset=ds,
                           reference=ReferenceTerm(loss=loss, dataset=ds)),))
        assert problem.weights([0.5]) == [1.0, 0.5, -0.5]
        with pytest.raises(ValueError):
            problem.weights([0.5, 1.0])

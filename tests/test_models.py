import math

import numpy as np
import pytest

from duallearn.core import Dataset, LossSpec, loss_pred_grads
from duallearn.errors import ConfigurationError, InputError, NumericError, SurrogateRequiredError
from duallearn.models import (
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    OptimizerState,
    _backprop,
    _forward,
    grad_input_batch,
    grad_params,
    init_model,
    load_model,
    optimizer_step,
    predict_batch,
    save_model,
)

from helpers import (bits, closed_form_pass, cross_entropy, row_grad_input, row_loss,
                     row_predict)

CE = cross_entropy()
SQ = LossSpec(kind="squared", bound_B=100.0)
SCORE = LossSpec(kind="signed-score", bound_B=100.0)


def finite_diff_params(model, loss, ds, h=1e-5):
    from duallearn.core import empirical_risk

    p = model.params.copy()
    g = np.zeros_like(p)
    for i in range(len(p)):
        hi, lo = p.copy(), p.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (empirical_risk(ModelState(hi, model.arch), loss, ds)
                - empirical_risk(ModelState(lo, model.arch), loss, ds)) / (2 * h)
    return g


def finite_diff_input(model, loss, x, label, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        hi, lo = x.copy(), x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (row_loss(loss, row_predict(model, hi), label)
                - row_loss(loss, row_predict(model, lo), label)) / (2 * h)
    return g


class TestPredict:
    def test_linear_identity(self):
        model = ModelState(np.array([1.0, 0.0]), LinearArch(1))
        for x in (0.3, -1.2, 2.0):
            assert np.array_equal(row_predict(model, np.array([x])), [x])

    def test_linear_score_reads_the_weights_then_the_bias(self):
        model = ModelState(np.array([2.0, -1.0, 0.5, 0.25]), LinearArch(3))
        assert np.array_equal(row_predict(model, np.array([0.5, 1.0, 2.0])), [1.25])

    def test_every_architecture_has_one_output(self):
        with pytest.raises(ConfigurationError,
                           match=r"widths must end in 1 \(every model has one output\), "
                                 r"got \(4, 8, 2\)"):
            MlpArch((4, 8, 2))
        with pytest.raises(TypeError):
            LinearArch(3, 2)  # a bias only by keyword

    def test_logistic_zero_weights(self):
        model = init_model(LogisticArch(4))
        for x in (np.zeros(4), np.array([5.0, -3.0, 1.0, 0.2])):
            assert row_predict(model, x)[0] == 0.5

    def test_mlp_independent_forward_pass(self):
        # hand-set weights on a 2-3-1 tanh net, checked against a nested-loop
        # forward pass written separately from the library's matrix version
        arch = MlpArch((2, 3, 1), activation="tanh", output="linear")
        W1 = np.array([[0.1, -0.2], [0.3, 0.05], [-0.15, 0.25]])
        b1 = np.array([0.01, -0.02, 0.03])
        W2 = np.array([[0.5, -0.4, 0.2]])
        b2 = np.array([0.1])
        model = ModelState(np.concatenate([W1.ravel(), b1, W2.ravel(), b2]), arch)
        x = np.array([1.0, -1.0])

        hidden = []
        for j in range(3):
            s = b1[j]
            for i in range(2):
                s += W1[j, i] * x[i]
            hidden.append(math.tanh(s))
        expected = b2[0]
        for j in range(3):
            expected += W2[0, j] * hidden[j]

        assert row_predict(model, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        model = init_model(LogisticArch(3))
        with pytest.raises(InputError):
            row_predict(model, np.zeros(4))


class TestGradParams:
    def test_linear_squared_analytic(self):
        # single sample: d/dtheta (theta.x - y)^2 = 2 (theta.x - y) x
        arch = LinearArch(2, bias=False)
        theta = np.array([0.7, -0.3])
        model = ModelState(theta, arch)
        x = np.array([1.5, 2.0])
        y = 0.4
        ds = Dataset(features=x[None, :], labels=np.array([y]))
        g = grad_params(model, [(1.0, SQ, ds)])
        expected = 2.0 * (theta @ x - y) * x
        assert np.allclose(g, expected, rtol=1e-12)

    def test_zero_weights_give_zero_vector(self):
        model = init_model(MlpArch((2, 4, 1)), seed=1)
        ds = Dataset(features=np.array([[1.0, 2.0]]), labels=np.array([1]))
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        g = grad_params(model, [(0.0, zo, ds), (0.0, SQ, ds)])
        assert np.array_equal(g, np.zeros(model.arch.n_params))

    def test_non_differentiable_needs_surrogate(self):
        model = init_model(LogisticArch(2))
        ds = Dataset(features=np.array([[1.0, 2.0]]), labels=np.array([1]))
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        with pytest.raises(SurrogateRequiredError):
            grad_params(model, [(1.0, zo, ds)])

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        arch = MlpArch((3, 5, 1), activation="tanh", output="sigmoid")
        model = init_model(arch, seed=7)
        ds = Dataset(features=rng.uniform(-1, 1, (6, 3)),
                     labels=rng.choice([0, 1], 6))
        g = grad_params(model, [(1.0, CE, ds)])
        fd = finite_diff_params(model, CE, ds)
        assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(g)))

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(9)
        arch = MlpArch((2, 4, 1))
        model = init_model(arch, seed=2)
        d1 = Dataset(features=rng.uniform(-1, 1, (5, 2)), labels=rng.uniform(-1, 1, 5))
        d2 = Dataset(features=rng.uniform(-1, 1, (4, 2)), labels=rng.uniform(-1, 1, 4))
        g_joint = grad_params(model, [(0.7, SQ, d1), (-1.3, SQ, d2)])
        g_split = (0.7 * grad_params(model, [(1.0, SQ, d1)])
                   - 1.3 * grad_params(model, [(1.0, SQ, d2)]))
        assert np.allclose(g_joint, g_split, atol=1e-10)


class TestGradInput:
    def test_linear_score_analytic(self):
        # with the signed-score loss, l = y theta.x, so grad_x = y theta;
        # feeding label -1 realizes l = -theta.x with gradient -theta
        arch = LinearArch(3, bias=False)
        theta = np.array([0.5, -1.0, 2.0])
        model = ModelState(theta, arch)
        g = row_grad_input(model, SCORE, np.array([0.2, 0.3, -0.1]), -1)
        assert np.allclose(g, -theta, rtol=1e-12)

    def test_clamped_region_kills_gradient(self):
        # saturated logistic: p beyond 1 - p_min, so the clamp zeroes the gradient
        model = ModelState(np.array([20.0, 0.0]), LogisticArch(1))
        g = row_grad_input(model, CE, np.array([1.0]), 1)
        assert np.array_equal(g, np.zeros(1))

    def test_mlp_matches_finite_differences(self):
        arch = MlpArch((4, 6, 1), activation="tanh", output="sigmoid")
        model = init_model(arch, seed=12)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 4)
        g = row_grad_input(model, CE, x, 1)
        fd = finite_diff_input(model, CE, x, 1)
        assert np.all(np.abs(g - fd) <= 1e-5 * np.maximum(1.0, np.abs(g)))


class TestOptimizer:
    def test_adam_first_step_hand_computed(self):
        # t=1 bias correction collapses to g / (|g| + eps)
        model = ModelState(np.zeros(1), LinearArch(1, bias=False))
        opt = OptimizerState(step_size=1e-3)
        _, model2 = optimizer_step(opt, model, np.array([1.0]))
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        assert model2.params[0] == expected
        assert model2.params[0] == pytest.approx(-1e-3, abs=1e-10)

    def test_nan_gradient_rejected_state_unchanged(self):
        model = ModelState(np.array([1.0, 2.0]), LinearArch(2, bias=False))
        opt = OptimizerState(step_size=1e-3)
        with pytest.raises(NumericError):
            optimizer_step(opt, model, np.array([np.nan, 0.0]))
        assert np.array_equal(model.params, [1.0, 2.0])
        assert opt.t == 0 and opt.m is None

    def test_adam_moment_shapes_checked(self):
        model = ModelState(np.zeros(2), LinearArch(2, bias=False))
        opt = OptimizerState(step_size=1e-3, m=np.zeros(3), v=np.zeros(3))
        with pytest.raises(InputError):
            optimizer_step(opt, model, np.zeros(2))


class TestDeterminismAndInit:
    def test_seeded_init_is_reproducible(self):
        a = init_model(MlpArch((3, 16, 1)), seed=5)
        b = init_model(MlpArch((3, 16, 1)), seed=5)
        c = init_model(MlpArch((3, 16, 1)), seed=6)
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)

    def test_glorot_scale_and_zero_biases(self):
        arch = MlpArch((4, 8, 1))
        model = init_model(arch, seed=0)
        limit1 = math.sqrt(6.0 / 12.0)
        W1 = model.params[:32]
        b1 = model.params[32:40]
        assert np.all(np.abs(W1) <= limit1)
        assert np.array_equal(b1, np.zeros(8))

    def test_linear_and_logistic_start_at_zero(self):
        assert np.array_equal(init_model(LinearArch(3)).params, np.zeros(4))
        assert np.array_equal(init_model(LogisticArch(3)).params, np.zeros(4))

    def test_training_loop_bit_identical(self):
        def run():
            rng = np.random.default_rng(4)
            ds = Dataset(features=rng.uniform(-1, 1, (12, 2)),
                         labels=rng.choice([0, 1], 12))
            model = init_model(MlpArch((2, 4, 1), output="sigmoid"), seed=4)
            opt = OptimizerState(step_size=0.05)
            snaps = []
            for _ in range(10):
                g = grad_params(model, [(1.0, CE, ds)])
                opt, model = optimizer_step(opt, model, g)
                snaps.append(model.params.copy())
            return np.stack(snaps)

        assert np.array_equal(run(), run())


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(MlpArch((2, 3, 1), activation="relu", output="sigmoid"), seed=9)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.params, model.params)
        assert loaded.arch == model.arch

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("something else\n")
        with pytest.raises(InputError):
            load_model(path)

    def test_param_count_validated(self):
        with pytest.raises(InputError):
            ModelState(np.zeros(3), LinearArch(2, bias=False))


class TestPredictBatch:
    def test_matches_single_predictions(self):
        model = init_model(MlpArch((2, 5, 1)), seed=3)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (9, 2))
        batch = predict_batch(model, X)
        for i in range(9):
            assert np.allclose(batch[i], row_predict(model, X[i]), rtol=1e-15)

    @pytest.mark.parametrize("arch", ["logistic", "linear"])
    def test_a_stack_is_forwarded_with_the_bits_of_each_slice_alone(self, arch):
        """The attack forwards its candidates as one (k, n, d) stack: each
        slice must get exactly the bits that `predict_batch` gives it."""
        rng = np.random.default_rng(12)
        for d in range(1, 10):
            model_arch = LogisticArch(d) if arch == "logistic" else LinearArch(d)
            model = ModelState(rng.normal(0.0, 2.0, model_arch.n_params), model_arch)
            for n in (*range(1, 40), 64, 127, 128, 129, 2000):
                stack = rng.uniform(-3.0, 3.0, (3, n, d))
                got = _forward(model, stack)
                assert got.shape == (3, n, 1)
                for k in range(3):
                    want = predict_batch(model, np.array(stack[k]))
                    assert got[k].tobytes() == want.tobytes(), (d, n, k)


class TestOneLayerNetworksKeepTheClosedFormBits:
    """Linear and logistic models run through the one layer loop of every
    architecture; each result must keep the bits of the closed forms in
    `helpers.closed_form_pass`. The one exception: a logistic input gradient
    may read +0.0 where the elementwise product gives -0.0."""

    @pytest.mark.parametrize("arch", [
        lambda d: LinearArch(d, bias=True), lambda d: LinearArch(d, bias=False),
        LogisticArch], ids=["linear-1", "linear-1-nobias", "logistic"])
    def test_forward_backward_and_input_gradients(self, arch):
        rng = np.random.default_rng(21)
        for d in range(1, 10):
            model_arch = arch(d)
            logistic = isinstance(model_arch, LogisticArch)
            # x + 0.0 turns -0.0 into +0.0 and keeps every other bit
            signless = (lambda x: x + 0.0) if logistic else (lambda x: x)
            model = ModelState(rng.normal(0.0, 2.0, model_arch.n_params), model_arch)
            for n in (1, 2, 127, 128, 129, 1200, 2000):
                X = rng.uniform(-3.0, 3.0, (n, d))
                stack = rng.uniform(-3.0, 3.0, (3, n, d))
                P = predict_batch(model, X)
                G = rng.normal(size=P.shape)
                want_P, want_dparams, want_dX = closed_form_pass(model, X, G)
                assert bits(P) == bits(want_P), (d, n)
                assert bits(_forward(model, stack)) == bits(closed_form_pass(model, stack, G)[0])
                dparams, dX = _backprop(model, X, G, P, want_params=True, want_inputs=True)
                assert bits(dparams) == bits(want_dparams), (d, n)
                assert bits(signless(dX)) == bits(signless(want_dX)), (d, n)
                loss, labels = (CE, rng.integers(0, 2, n)) if logistic else (SQ, X[:, 0])
                want = closed_form_pass(model, X, loss_pred_grads(loss, P, labels))[2]
                got = grad_input_batch(model, loss, X, labels)
                assert bits(signless(got)) == bits(signless(want)), (d, n)

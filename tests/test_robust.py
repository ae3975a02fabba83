import re
from dataclasses import replace

import numpy as np
import pytest

from duallearn.core import (
    DIFFERENTIABLE_KINDS,
    LOSS_KINDS,
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    loss_values,
)
from duallearn.errors import ConfigurationError, InputError
from duallearn.lagrangian import DualState, InnerSolverConfig, dual_function, slacks
from duallearn.models import (
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    grad_input_batch,
    predict_batch,
)
from duallearn.primaldual import TrainConfig, train
from duallearn.robust import (
    AdversarialDataset,
    AttackConfig,
    _corner_stack,
    _project,
    _restart_starts,
    perturb_batch,
)

from helpers import cross_entropy, record_forwards

CE = cross_entropy()
BOX = (-1.0, 1.0)
ATTACKS = [
    AttackConfig.fgsm(0.3, clamp_box=BOX, seed=1),
    AttackConfig.pgd_training(0.3, clamp_box=BOX, seed=2),
    AttackConfig(epsilon=0.3, steps=4, step_size=0.1, restarts=3, clamp_box=BOX, seed=3),
]
ATTACK_IDS = ["fgsm-1x1", "pgd-5x1", "pgd-4x3"]


def logistic_case(seed, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    y = rng.choice([0, 1], n)
    model = ModelState(rng.normal(0.0, 2.0, 4), LogisticArch(3))
    return model, X, y


@pytest.mark.parametrize("cfg", ATTACKS, ids=ATTACK_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestAttackInvariants:
    def test_stays_in_ball_and_box(self, cfg, seed):
        model, X, y = logistic_case(seed)
        X_adv, _ = perturb_batch(model, CE, X, y, cfg)
        assert np.all(np.abs(X_adv - X) <= cfg.epsilon + 1e-12)
        assert np.all((X_adv >= BOX[0]) & (X_adv <= BOX[1]))

    def test_never_lowers_the_loss(self, cfg, seed):
        model, X, y = logistic_case(seed)
        X_adv, _ = perturb_batch(model, CE, X, y, cfg)
        clean = loss_values(CE, predict_batch(model, X), y)
        attacked = loss_values(CE, predict_batch(model, X_adv), y)
        assert np.all(attacked >= clean)
        assert np.any(attacked > clean)


@pytest.mark.parametrize("cfg", ATTACKS, ids=ATTACK_IDS)
def test_pgd_on_an_mlp_stays_in_ball_and_box_and_never_lowers_the_loss(cfg):
    _, X, y = logistic_case(3)
    arch = MlpArch((3, 5, 1), output="sigmoid")
    model = ModelState(np.random.default_rng(3).normal(0.0, 2.0, arch.n_params), arch)
    X_adv, P = perturb_batch(model, CE, X, y, cfg)
    assert np.all(np.abs(X_adv - X) <= cfg.epsilon + 1e-12)
    assert np.all((X_adv >= BOX[0]) & (X_adv <= BOX[1]))
    clean = loss_values(CE, predict_batch(model, X), y)
    assert np.all(loss_values(CE, P, y) >= clean)
    assert np.any(loss_values(CE, P, y) > clean)


def pgd_reference(model, loss, X, y, cfg):
    """The PGD loop written out plainly: every step forwards its own point."""
    best_X = X.copy()
    best = loss_values(loss, predict_batch(model, X), y)
    for X_adv in _restart_starts(X, cfg, np.arange(len(X))):
        for _ in range(cfg.steps):
            g = grad_input_batch(model, loss, X_adv, y)
            X_adv = _project(X_adv + cfg.step_size * np.sign(g), X, cfg)
        cand = loss_values(loss, predict_batch(model, X_adv), y)
        best_X[cand > best] = X_adv[cand > best]
        best = np.maximum(best, cand)
    return best_X


@pytest.mark.parametrize("cfg", ATTACKS, ids=ATTACK_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_attack_equals_the_reference_loop(cfg, seed):
    # clamped squared loss on an MLP with a linear output, which PGD attacks:
    # a row's input gradient vanishes once its own prediction reaches the
    # clamp, so stale predictions show
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (40, 3))
    y = rng.uniform(-0.5, 0.5, 40)
    arch = MlpArch((3, 4, 1))
    model = ModelState(rng.normal(0.0, 1.0, arch.n_params), arch)
    loss = LossSpec(kind="squared", bound_B=1.0)
    want = pgd_reference(model, loss, X, y, cfg)
    assert np.any(loss_values(loss, predict_batch(model, want), y) == 1.0)
    assert perturb_batch(model, loss, X, y, cfg)[0].tobytes() == want.tobytes()


def scalar_loss(kind):
    return CE if kind == "clamped-cross-entropy" else LossSpec(kind=kind, bound_B=1.0)


def affine_case(kind, arch, seed, n=30, d=3):
    """An affine-score model, rows in BOX and labels that suit the loss kind."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    if kind in ("signed-score", "absolute"):
        y = rng.choice([-1, 1], n)
    elif kind == "squared":
        y = rng.uniform(0.0, 1.0, n)
    else:
        y = rng.choice([0, 1], n)
    model_arch = LogisticArch(d) if arch == "logistic" else LinearArch(d)
    model = ModelState(rng.normal(0.0, 1.5, model_arch.n_params), model_arch)
    return model, X, y


def box_of(cfg, boxed):
    return cfg if boxed else replace(cfg, clamp_box=None)


@pytest.mark.parametrize("boxed", [True, False], ids=["box", "no-box"])
@pytest.mark.parametrize("arch", ["linear", "logistic"])
@pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
def test_exact_attack_is_at_least_pgd_row_by_row(kind, arch, boxed):
    for seed, cfg in enumerate(ATTACKS):
        cfg = box_of(cfg, boxed)
        model, X, y = affine_case(kind, arch, seed)
        loss = scalar_loss(kind)
        _, P = perturb_batch(model, loss, X, y, cfg)
        pgd = loss_values(loss, predict_batch(model, pgd_reference(model, loss, X, y, cfg)), y)
        assert np.all(loss_values(loss, P, y) >= pgd)


def vertex_maximum(model, loss, X, y, cfg):
    """Largest loss over the clean rows and every vertex of each row's
    ball-and-box, by enumerating all 2^d vertices."""
    lo, hi = X - cfg.epsilon, X + cfg.epsilon
    if cfg.clamp_box is not None:
        lo, hi = np.maximum(lo, cfg.clamp_box[0]), np.minimum(hi, cfg.clamp_box[1])
    d = X.shape[1]
    best = loss_values(loss, predict_batch(model, X), y)
    for v in range(2 ** d):
        upper = ((v >> np.arange(d)) & 1).astype(bool)
        vertex = np.where(upper, hi, lo)
        best = np.maximum(best, loss_values(loss, predict_batch(model, vertex), y))
    return best


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("boxed", [True, False], ids=["box", "no-box"])
@pytest.mark.parametrize("arch", ["linear", "logistic"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_exact_attack_equals_the_vertex_maximum(kind, arch, boxed, d):
    cfg = box_of(ATTACKS[1], boxed)
    model, X, y = affine_case(kind, arch, seed=d, n=40, d=d)
    loss = scalar_loss(kind)
    X_adv, P = perturb_batch(model, loss, X, y, cfg)
    assert np.array_equal(loss_values(loss, P, y), vertex_maximum(model, loss, X, y, cfg))
    assert np.all(np.abs(X_adv - X) <= cfg.epsilon + 1e-12)


def corner_reference(model, loss, X, y, cfg):
    """The two-corner attack written out plainly: the clean rows, then each
    corner forwarded and scored on its own; a row moves only where a
    corner's loss is strictly above the best so far. Returns (rows,
    predictions, losses)."""
    w = model.params[:-1] if isinstance(model.arch, LogisticArch) else model.params[:X.shape[1]]
    step = cfg.epsilon * np.sign(w)
    best_X, best_P = X.copy(), predict_batch(model, X)
    best = loss_values(loss, best_P, y)
    for corner in (_project(X + step, X, cfg), _project(X - step, X, cfg)):
        P = predict_batch(model, corner)
        cand = loss_values(loss, P, y)
        better = cand > best
        best_X[better], best_P[better] = corner[better], P[better]
        best = np.maximum(best, cand)
    return best_X, best_P, best


@pytest.mark.parametrize("boxed", [True, False], ids=["box", "no-box"])
@pytest.mark.parametrize("arch", ["linear", "logistic"])
@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_exact_attack_equals_the_per_corner_reference(d, arch, boxed):
    """Every loss kind, on the whole set and on minibatches (n = 1 among
    them), with and without the clean predictions: the same bits as the
    per-corner loop, and the vertex maximum's losses."""
    cfg = box_of(ATTACKS[1], boxed)
    for seed, kind in enumerate(LOSS_KINDS):
        model, X, y = affine_case(kind, arch, seed=10 * d + seed, n=33, d=d)
        loss = scalar_loss(kind)
        adv = AdversarialDataset(Dataset(features=X, labels=y), loss, cfg)
        for idx in (None, np.array([5]), np.array([7, 0, 32, 7, 19])):
            X0, y0 = (X, y) if idx is None else (X[idx], y[idx])
            want_X, want_P, want_loss = corner_reference(model, loss, X0, y0, cfg)
            assert want_loss.tobytes() == vertex_maximum(model, loss, X0, y0, cfg).tobytes()
            P0 = predict_batch(model, X0)
            for clean in (None, P0):
                for got_X, got_P in (perturb_batch(model, loss, X0, y0, cfg,
                                                   clean_predictions=clean),
                                     adv.attack(model, idx, clean)):
                    got_X = getattr(got_X, "features", got_X)
                    assert got_X.tobytes() == want_X.tobytes(), (kind, idx)
                    assert got_P.tobytes() == want_P.tobytes(), (kind, idx)
                    assert loss_values(loss, got_P, y0).tobytes() == want_loss.tobytes()


@pytest.mark.parametrize("box", [None, (-1e200, 1e200), (-0.5, 0.5)], ids=["no-box", "wide", "tight"])
@pytest.mark.parametrize("epsilon", [1e-300, 0.1, 3.0, 1e250])
def test_the_corners_are_the_projected_steps(epsilon, box):
    """x +/- epsilon * sign(w) lies on the ball's bounds as `_project`
    computes them, so clipping to the box alone gives the same bits, at
    magnitudes where the steps round away and for signed zeros."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (60, 4)) * 10.0 ** rng.integers(-300, 300, (60, 4))
    X[:6] = [0.0, -0.0, 0.5, -0.5]
    if box is not None:
        X = np.clip(X, *box)
    signs = np.array([1.0, -1.0, 0.0, 1.0])
    cfg = AttackConfig(epsilon=epsilon, clamp_box=box)
    step = epsilon * signs
    want = [X, _project(X + step, X, cfg), _project(X - step, X, cfg)]
    got = _corner_stack(X, signs, cfg)
    for k in range(3):
        assert got[k].tobytes() == want[k].tobytes(), k


def test_a_tie_keeps_the_clean_row():
    """Row 0's clean probability of its true class is already below the
    clamp, so its corner's cross-entropy equals its clean one: it stays.
    Row 1 is inside the clamp, so its corner raises its loss: it moves."""
    model = ModelState(np.array([40.0, 0.0]), LogisticArch(1))
    X = np.array([[-0.9], [0.05]])
    y = np.array([1, 1])
    cfg = AttackConfig(epsilon=0.1, clamp_box=BOX)
    clean = loss_values(CE, predict_batch(model, X), y)
    adv = AdversarialDataset(Dataset(features=X, labels=y), CE, cfg)
    for X_adv, P in (perturb_batch(model, CE, X, y, cfg), adv.attack(model)):
        X_adv = getattr(X_adv, "features", X_adv)
        attacked = loss_values(CE, P, y)
        assert attacked[0] == clean[0] == CE.bound_B
        assert loss_values(CE, predict_batch(model, X_adv[:1] - 0.1), y[:1])[0] == clean[0]
        assert X_adv[0].tobytes() == X[0].tobytes()
        assert attacked[1] > clean[1] and X_adv[1, 0] == X[1, 0] - 0.1


def test_an_attacked_set_that_is_not_finite_is_refused():
    # the ball reaches past the largest float, and no box cuts it back
    X = np.array([[1e308, 0.5], [-0.5, 0.5]])
    y = np.array([0, 1])
    adv = AdversarialDataset(Dataset(features=X, labels=y), CE, AttackConfig(epsilon=1e308))
    model = ModelState(np.array([1e-308, 1.0, 0.0]), LogisticArch(2))
    for indices in (None, np.array([1, 0])):  # the whole set, and a minibatch of it
        with np.errstate(over="ignore"), pytest.raises(InputError,
                                                       match="features must be finite"):
            adv.attack(model, indices)


@pytest.mark.parametrize("indices", [np.array([], dtype=int), np.array([[0, 1]])],
                         ids=["empty", "matrix"])
def test_attack_indices_must_be_a_nonempty_vector(indices):
    _, X, y = logistic_case(5)
    adv = AdversarialDataset(Dataset(features=X, labels=y), CE, ATTACKS[1])
    model = ModelState(np.array([1.5, 0.0, -2.0, 0.3]), LogisticArch(3))
    with pytest.raises(InputError, match="attack indices must be a nonempty vector"):
        adv.attack(model, indices)


def test_exact_attack_leaves_zero_weight_coordinates_alone():
    _, X, y = logistic_case(5)
    model = ModelState(np.array([1.5, 0.0, -2.0, 0.3]), LogisticArch(3))
    adv = AdversarialDataset(Dataset(features=X, labels=y), CE, ATTACKS[1])
    idx = np.array([4, 0, 4, 39])
    for X_adv, X0 in ((perturb_batch(model, CE, X, y, ATTACKS[1])[0], X),
                      (adv.attack(model)[0].features, X),
                      (adv.attack(model, idx)[0].features, X[idx])):
        assert np.array_equal(X_adv[:, 1], X0[:, 1])
        assert not np.array_equal(X_adv[:, [0, 2]], X0[:, [0, 2]])


@pytest.mark.parametrize("arch", [LogisticArch(3), LinearArch(3)], ids=["logistic", "linear"])
def test_an_all_zero_weight_model_is_attacked_without_forwarding_its_corners(arch, monkeypatch):
    import duallearn.robust as robust_mod

    _, X, y = logistic_case(7)
    params = np.zeros(arch.n_params)
    params[-1] = 0.4  # both archs keep their bias last
    model = ModelState(params, arch)
    loss = CE if isinstance(arch, LogisticArch) else LossSpec(kind="absolute", bound_B=4.0)
    labels = y if isinstance(arch, LogisticArch) else 2 * y - 1
    calls = []  # the shape of every array the attack forwards, 2-D or stacked
    record_forwards(monkeypatch, robust_mod, lambda X: calls.append(X.shape))
    X_adv, P = perturb_batch(model, loss, X, labels, ATTACKS[1])
    assert calls == [X.shape]  # the clean rows only
    assert X_adv.tobytes() == X.tobytes()
    assert P.tobytes() == predict_batch(model, X).tobytes()
    perturb_batch(model, loss, X, labels, ATTACKS[1], clean_predictions=P)
    assert calls == [X.shape]
    adv = AdversarialDataset(Dataset(features=X, labels=labels), loss, ATTACKS[1])
    attacked, P_set = adv.attack(model, clean_predictions=P)
    batch, _ = adv.attack(model, np.array([2, 0, 2]))
    assert calls == [X.shape, (3, 3)]  # the minibatch's clean rows only
    assert attacked.features.tobytes() == X.tobytes() and P_set.tobytes() == P.tobytes()
    assert batch.features.tobytes() == X[[2, 0, 2]].tobytes()


HANDOVER_MODELS = {
    "logistic": (LogisticArch(3), ATTACKS[1]),
    "linear-1": (LinearArch(3), ATTACKS[1]),
    "mlp-linear": (MlpArch((3, 4, 1)), ATTACKS[2]),
    "mlp": (MlpArch((3, 4, 1), output="sigmoid"), ATTACKS[2]),
}


@pytest.mark.parametrize("name", list(HANDOVER_MODELS))
def test_returned_predictions_are_those_of_the_returned_rows(name):
    arch, cfg = HANDOVER_MODELS[name]
    rng = np.random.default_rng(6)
    X = rng.uniform(-1.0, 1.0, (50, 3))
    y = rng.choice([0, 1], 50)
    model = ModelState(rng.normal(0.0, 2.0, arch.n_params), arch)
    X_adv, P = perturb_batch(model, CE, X, y, cfg)
    assert P.tobytes() == predict_batch(model, X_adv).tobytes()
    ds = AdversarialDataset(Dataset(features=X, labels=y), CE, cfg)
    idx = np.array([3, 0, 41, 3])
    for part, P in (ds.attack(model), ds.attack(model, idx)):
        assert P.tobytes() == predict_batch(model, part.features).tobytes()


def test_zero_epsilon_is_the_identity():
    model, X, y = logistic_case(0)
    cfg = AttackConfig(epsilon=0.0, steps=5, step_size=0.1, restarts=3)
    X_adv, P = perturb_batch(model, CE, X, y, cfg)
    assert np.array_equal(X_adv, X)
    assert np.array_equal(P, predict_batch(model, X))
    base = Dataset(features=X, labels=y)
    constraint = ConstraintSpec(loss=CE, threshold_c=0.5,
                                dataset=AdversarialDataset(base, CE, cfg))
    realized, _ = constraint.dataset.attack(model)
    assert np.array_equal(realized.features, base.features)
    assert np.array_equal(realized.labels, base.labels)
    problem = Problem(objective_loss=CE, objective_dataset=base, constraints=(constraint,))
    clean = replace(constraint, dataset=base)
    assert np.array_equal(slacks(model, problem),
                          slacks(model, replace(problem, constraints=(clean,))))


def test_clean_rows_outside_the_box_are_refused():
    model, X, y = logistic_case(0)
    X = X.copy()
    X[5, 1] = 1.5
    with pytest.raises(InputError, match=r"outside the attack clamp_box \[-1.0, 1.0\].*row 5"):
        perturb_batch(model, CE, X, y, ATTACKS[1])


def test_realize_subset_equals_rows_of_full_realisation():
    model, X, y = logistic_case(4)
    ds = AdversarialDataset(Dataset(features=X, labels=y, name="base"), CE, ATTACKS[2])
    full, _ = ds.attack(model)
    idx = np.array([7, 0, 31, 12, 12, 39])
    part, _ = ds.attack(model, idx)
    assert (len(ds), ds.n_features) == X.shape
    assert np.array_equal(part.features, full.features[idx])
    assert np.array_equal(part.labels, full.labels[idx])
    assert part.name == full.name == "base@adversarial"


def test_train_with_adversarial_constraint_records_true_slacks():
    # objective prefers theta = 1; the attacked score theta * (x + eps),
    # 0.75 theta, is capped at 0.3, so the constraint binds and mu leaves zero
    arch = LinearArch(in_dim=1, bias=False)
    obj = Dataset(features=np.ones((6, 1)), labels=np.linspace(0.8, 1.2, 6), name="obj")
    con = Dataset(features=np.full((5, 1), 0.5), labels=np.ones(5, dtype=np.int64),
                  name="con")
    attack = AttackConfig(epsilon=0.25, steps=2, step_size=0.2, restarts=2, seed=5)
    score = LossSpec(kind="signed-score", bound_B=4.0)
    constraint = ConstraintSpec(loss=score, threshold_c=0.3,
                                dataset=AdversarialDataset(con, score, attack))
    problem = Problem(objective_loss=LossSpec(kind="squared", bound_B=4.0),
                      objective_dataset=obj, constraints=(constraint,))
    assert isinstance(problem.constraints[0].dataset, AdversarialDataset)
    inner = InnerSolverConfig(epochs=1, step_size=0.1)
    cfg = TrainConfig(iterations_T=12, dual_step_eta=0.5, inner=inner, seed=0)
    start = ModelState(np.array([1.0]), arch)
    trace, _, _ = train(problem, cfg, start)
    assert np.any(trace.mu > 0.0)
    # each iteration resumes the full-batch solver from the previous minimizer
    prev = start
    for theta, slack, mu in zip(trace.thetas, trace.slacks, trace.mu):
        assert np.array_equal(slack, slacks(ModelState(theta, arch), problem))
        _, prev = dual_function(DualState(mu), problem, inner, prev)
        assert np.array_equal(prev.params, theta)


def per_restart_start(X0, cfg, restart, sample_indices):
    """The per-restart formula `_restart_starts` replaced, as a reference: a
    fresh generator per sample and restart, redrawing every earlier restart's
    rows and keeping the last."""
    if restart == 0:
        return X0.copy()
    deltas = np.empty_like(X0)
    for n, i in enumerate(sample_indices):
        rng = np.random.default_rng(cfg.seed ^ int(i))
        deltas[n] = rng.uniform(-cfg.epsilon, cfg.epsilon, size=(restart, X0.shape[1]))[-1]
    return _project(X0 + deltas, X0, cfg)


@pytest.mark.parametrize("restarts", range(1, 10))
def test_restart_starts_match_the_per_restart_formula(restarts):
    _, X, _ = logistic_case(restarts, n=25)
    cfg = AttackConfig(epsilon=0.3, steps=2, step_size=0.1, restarts=restarts,
                       clamp_box=BOX, seed=11)
    sample_indices = np.arange(100, 125)[::-1]
    starts = list(_restart_starts(X, cfg, sample_indices))
    assert len(starts) == restarts
    for r, start in enumerate(starts):
        want = per_restart_start(X, cfg, r, sample_indices)
        assert np.array_equal(start.view(np.uint64), want.view(np.uint64))


NAN_BOX = "clamp_box (clamp_lo, clamp_hi) = {} needs clamp_lo < clamp_hi and no NaN"


@pytest.mark.parametrize("kwargs, message", [
    ({"epsilon": np.nan}, "epsilon must be finite and >= 0, got nan"),
    ({"epsilon": np.inf}, "epsilon must be finite and >= 0, got inf"),
    ({"epsilon": -np.inf}, "epsilon must be finite and >= 0, got -inf"),
    ({"epsilon": -0.5}, "epsilon must be finite and >= 0, got -0.5"),
    ({"clamp_box": (-np.inf, np.nan)}, NAN_BOX.format("(-inf, nan)")),
    ({"clamp_box": (np.nan, 1.0)}, NAN_BOX.format("(nan, 1.0)")),
    ({"clamp_box": (np.nan, np.nan)}, NAN_BOX.format("(nan, nan)")),
    ({"clamp_box": (1.0, -np.inf)}, NAN_BOX.format("(1.0, -inf)")),
    ({"clamp_box": (np.inf, np.inf)}, NAN_BOX.format("(inf, inf)")),
])
def test_attack_config_names_a_value_that_is_not_finite(kwargs, message):
    with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
        AttackConfig(**{"epsilon": 0.1, **kwargs})


@pytest.mark.parametrize("box", [(-np.inf, np.inf), (-np.inf, 1.0), (0.0, np.inf)])
def test_an_infinite_clamp_bound_leaves_that_side_open(box):
    assert AttackConfig(epsilon=0.1, clamp_box=box).clamp_box == box

import numpy as np
import pytest

from duallearn.core import ConstraintSpec, Dataset, LossSpec, Problem, loss_values
from duallearn.errors import InputError
from duallearn.lagrangian import DualState, InnerSolverConfig, dual_function, slacks
from duallearn.models import (
    LinearArch,
    LogisticArch,
    ModelState,
    grad_input_batch,
    predict_batch,
)
from duallearn.primaldual import TrainConfig, train
from duallearn.robust import (
    AdversarialDataset,
    AttackConfig,
    _project,
    _restart_starts,
    adversarial_constraint,
    perturb_batch,
)

CE = LossSpec.cross_entropy()
BOX = (-1.0, 1.0)
ATTACKS = [
    AttackConfig.fgsm(0.3, clamp_box=BOX, seed=1),
    AttackConfig.pgd_training(0.3, clamp_box=BOX, seed=2),
    AttackConfig(kind="pgd", epsilon=0.3, steps=4, step_size=0.1, restarts=3,
                 clamp_box=BOX, seed=3),
]


def logistic_case(seed, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    y = rng.choice([0, 1], n)
    model = ModelState(rng.normal(0.0, 2.0, 4), LogisticArch(3))
    return model, X, y


@pytest.mark.parametrize("cfg", ATTACKS, ids=lambda c: f"{c.kind}-{c.steps}x{c.restarts}")
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestAttackInvariants:
    def test_stays_in_ball_and_box(self, cfg, seed):
        model, X, y = logistic_case(seed)
        X_adv = perturb_batch(model, CE, X, y, cfg)
        assert np.all(np.abs(X_adv - X) <= cfg.epsilon + 1e-12)
        assert np.all((X_adv >= BOX[0]) & (X_adv <= BOX[1]))

    def test_never_lowers_the_loss(self, cfg, seed):
        model, X, y = logistic_case(seed)
        X_adv = perturb_batch(model, CE, X, y, cfg)
        clean = loss_values(CE, predict_batch(model, X), y)
        attacked = loss_values(CE, predict_batch(model, X_adv), y)
        assert np.all(attacked >= clean)
        assert np.any(attacked > clean)


@pytest.mark.parametrize("cfg", ATTACKS, ids=lambda c: f"{c.kind}-{c.steps}x{c.restarts}")
@pytest.mark.parametrize("seed", [0, 1])
def test_attack_equals_the_reference_loop(cfg, seed):
    # clamped squared loss on a linear score: a row's input gradient vanishes
    # once its own prediction reaches the clamp, so stale predictions show
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (40, 3))
    y = rng.uniform(-0.5, 0.5, 40)
    model = ModelState(rng.normal(0.0, 1.0, 4), LinearArch(3, 1))
    loss = LossSpec(kind="squared", bound_B=1.0)
    best_X = X.copy()
    best = loss_values(loss, predict_batch(model, X), y)
    for X_adv in _restart_starts(X, cfg, np.arange(len(X))):
        for _ in range(cfg.steps):
            g = grad_input_batch(model, loss, X_adv, y)
            X_adv = _project(X_adv + cfg.step_size * np.sign(g), X, cfg)
        cand = loss_values(loss, predict_batch(model, X_adv), y)
        best_X[cand > best] = X_adv[cand > best]
        best = np.maximum(best, cand)
    assert perturb_batch(model, loss, X, y, cfg).tobytes() == best_X.tobytes()


def test_zero_epsilon_is_the_identity():
    model, X, y = logistic_case(0)
    cfg = AttackConfig(kind="pgd", epsilon=0.0, steps=5, step_size=0.1, restarts=3)
    assert np.array_equal(perturb_batch(model, CE, X, y, cfg), X)
    base = Dataset(features=X, labels=y)
    assert adversarial_constraint(base, CE, 0.5, cfg).dataset is base


def test_clean_rows_outside_the_box_are_refused():
    model, X, y = logistic_case(0)
    X = X.copy()
    X[5, 1] = 1.5
    with pytest.raises(InputError, match=r"outside the attack clamp_box \[-1.0, 1.0\].*row 5"):
        perturb_batch(model, CE, X, y, ATTACKS[1])


def test_realize_subset_equals_rows_of_full_realisation():
    model, X, y = logistic_case(4)
    ds = AdversarialDataset(Dataset(features=X, labels=y, name="base"), CE, ATTACKS[2])
    full = ds.realize(model)
    idx = np.array([7, 0, 31, 12, 12, 39])
    part = ds.realize(model, idx)
    assert len(ds) == len(X)
    assert np.array_equal(part.features, full.features[idx])
    assert np.array_equal(part.labels, full.labels[idx])
    assert part.name == full.name == "base@adversarial"


def test_enumeration_train_with_adversarial_constraint_records_true_slacks():
    # objective prefers theta = 1; the attacked score theta * (x + eps) is
    # capped at 0.5, so the constraint binds and mu leaves zero
    arch = LinearArch(in_dim=1, out_dim=1, bias=False)
    obj = Dataset(features=np.ones((6, 1)), labels=np.linspace(0.8, 1.2, 6), name="obj")
    con = Dataset(features=np.full((5, 1), 0.5), labels=np.ones(5, dtype=np.int64),
                  name="con")
    attack = AttackConfig(kind="pgd", epsilon=0.25, steps=2, step_size=0.2, restarts=2, seed=5)
    score = LossSpec(kind="signed-score", bound_B=4.0)
    problem = Problem(objective_loss=LossSpec(kind="squared", bound_B=4.0),
                      objective_dataset=obj,
                      constraints=(adversarial_constraint(con, score, 0.3, attack),))
    assert isinstance(problem.constraints[0].dataset, AdversarialDataset)
    cands = tuple(ModelState(np.array([t]), arch) for t in np.linspace(-1.0, 2.0, 31))
    inner = InnerSolverConfig(method="enumeration", candidates=cands)
    cfg = TrainConfig(iterations_T=12, dual_step_eta=0.5, inner=inner, seed=0)
    trace, _, _ = train(problem, cfg, cands[0])
    assert np.any(trace.mu_matrix() > 0.0)
    for rec in trace.records:
        cand = ModelState(rec.theta, arch)
        assert np.array_equal(rec.slacks, slacks(cand, problem))
        _, argmin = dual_function(DualState(rec.mu), problem, inner, cands[0])
        assert np.array_equal(argmin.params, rec.theta)


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
    cfg = AttackConfig(kind="pgd", epsilon=0.3, steps=2, step_size=0.1, restarts=restarts,
                       clamp_box=BOX, seed=11)
    sample_indices = np.arange(100, 125)[::-1]
    starts = list(_restart_starts(X, cfg, sample_indices))
    assert len(starts) == restarts
    for r, start in enumerate(starts):
        want = per_restart_start(X, cfg, r, sample_indices)
        assert np.array_equal(start.view(np.uint64), want.view(np.uint64))

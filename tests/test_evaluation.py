"""The shared evaluation: every risk, slack, Lagrangian and gradient read from
one `Evaluation` equals evaluating each set on its own, bit for bit, and a
training run forwards each table once per iterate."""

import numpy as np
import pytest

from duallearn.core import (
    DIFFERENTIABLE_KINDS,
    LOSS_KINDS,
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    ReferenceTerm,
    empirical_risk,
    loss_pred_grads,
)
from duallearn.data import group_split
from duallearn.lagrangian import (
    DualState,
    InnerSolverConfig,
    empirical_lagrangian,
    enumeration_stats,
    slacks,
)
from duallearn.models import (
    Evaluation,
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    _backprop,
    grad_params,
    init_model,
    predict_batch,
)
from duallearn.primaldual import RandomizedSolution, TrainConfig, mixture_risks, train
from duallearn.rate import build_surrogate_lagrangian
from duallearn.robust import AdversarialDataset, AttackConfig, perturb_batch

from helpers import dataset_risk

CE = LossSpec.cross_entropy()
GROUPS = ("A", "B", "C", "D")


def loss_of(kind):
    if kind == "clamped-cross-entropy":
        return CE
    return LossSpec(kind=kind, bound_B=1.0 if kind in ("zero-one", "rate-indicator",
                                                       "rate-sigmoid") else 4.0)


def table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    y = rng.choice([0, 1], n)
    groups = tuple(GROUPS[i] for i in rng.integers(0, 4, n))
    return Dataset(features=X, labels=y, name="table"), groups


def models(seed=1):
    rng = np.random.default_rng(seed)
    return [
        ModelState(rng.normal(0.0, 1.0, 4), LogisticArch(3)),
        ModelState(rng.normal(0.0, 1.0, 4), LinearArch(3)),
        init_model(MlpArch((3, 5, 1), output="sigmoid"), seed=seed),
    ]


def fairness_shaped(kind, seed=0):
    """Objective on a table; one constraint per group view, each against a
    reference on the whole table, all with one shared loss object."""
    ds, groups = table(seed=seed)
    loss = loss_of(kind)
    parts = group_split(ds, groups)
    cons = tuple(ConstraintSpec(loss=loss, threshold_c=0.1 * i, dataset=parts[g],
                                reference=ReferenceTerm(loss=loss, dataset=ds), name=g)
                 for i, g in enumerate(GROUPS))
    return Problem(objective_loss=CE, objective_dataset=ds, constraints=cons)


def own_risk(model, loss, view):
    """Risk of `view` evaluated on its own: its own forward pass and reduction."""
    return dataset_risk(loss, predict_batch(model, view.features), view.labels)


def own_gradient(model, terms):
    """Sum of per-view backprops, each from the view's own forward pass."""
    total = np.zeros(model.arch.n_params)
    for w, loss, view in terms:
        P = predict_batch(model, view.features)
        G = loss_pred_grads(loss, P, view.labels) / len(view)
        dparams, _ = _backprop(model, view.features, G, P, want_params=True, want_inputs=False)
        total += w * dparams
    return total


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("model", models(), ids=lambda m: m.arch.kind)
def test_group_views_with_references_read_exactly_their_own_risks(kind, model):
    problem = fairness_shaped(kind)
    table_ds = problem.objective_dataset
    want = [own_risk(model, c.loss, c.dataset) - own_risk(model, c.loss, table_ds)
            for c in problem.constraints]
    ev = Evaluation.of(model, problem.datasets)
    assert bits([ev.constraint_risk(c) for c in problem.constraints]) == bits(want)
    want_slacks = [w - c.threshold_c for w, c in zip(want, problem.constraints)]
    assert bits(slacks(model, problem)) == bits(want_slacks)
    assert bits(slacks(ev, problem)) == bits(want_slacks)
    mu = DualState(np.array([0.5, 0.0, 1.25, 2.0]))
    want_lag = own_risk(model, CE, table_ds) + float(mu.mu @ np.asarray(want_slacks))
    assert bits(empirical_lagrangian(model, mu, problem)) == bits(want_lag)
    assert bits(empirical_lagrangian(ev, mu, problem)) == bits(want_lag)
    for c in problem.constraints:
        assert bits(ev.predictions(c.dataset)) == bits(predict_batch(model, c.dataset.features))
        assert bits(empirical_risk(model, c.loss, c.dataset)) == bits(own_risk(model, c.loss,
                                                                                c.dataset))


@pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
@pytest.mark.parametrize("model", models(), ids=lambda m: m.arch.kind)
def test_gradient_terms_read_exactly_their_own_backprops(kind, model):
    problem = fairness_shaped(kind)
    terms = [(1.0, CE, problem.objective_dataset)]
    for w, c in zip((0.5, 0.0, 1.25, 2.0), problem.constraints):
        terms += [(w, c.loss, c.dataset), (-w, c.reference.loss, c.reference.dataset)]
    want = own_gradient(model, [t for t in terms if t[0] != 0.0])
    assert bits(grad_params(model, terms)) == bits(want)
    ev = Evaluation.of(model, problem.datasets)
    empirical_lagrangian(ev, DualState.zeros(4), problem)  # fill it, then read gradients
    assert bits(grad_params(ev, terms)) == bits(want)
    batch = ev.batch(problem.constraints[0].dataset, np.array([3, 0, 5, 5]))
    assert batch.root is problem.objective_dataset
    assert bits(grad_params(ev, [(1.0, loss_of(kind), batch)])) == bits(
        own_gradient(model, [(1.0, loss_of(kind), batch)]))


@pytest.mark.parametrize("kind", ["clamped-cross-entropy", "squared", "signed-score"])
def test_adversarial_set_is_attacked_once_and_read_exactly(kind, monkeypatch):
    import duallearn.models as models_mod
    import duallearn.robust as robust

    ds, _ = table(n=30, seed=2)
    model = models(seed=3)[0]
    loss = loss_of(kind)
    attack = AttackConfig(epsilon=0.2, steps=3, step_size=0.1, restarts=2,
                          clamp_box=(-1.0, 1.0), seed=4)
    adv = AdversarialDataset(ds, loss, attack)
    problem = Problem(objective_loss=CE, objective_dataset=ds,
                      constraints=(ConstraintSpec(loss=loss, threshold_c=0.2, dataset=adv),))
    attacked, _ = adv.attack(model)

    attacks = []
    original = robust.perturb_batch
    monkeypatch.setattr(robust, "perturb_batch",
                        lambda *a, **k: attacks.append(len(a[2])) or original(*a, **k))
    forwarded = {models_mod: [], robust: []}
    for mod in forwarded:
        forward = mod.predict_batch
        monkeypatch.setattr(mod, "predict_batch", lambda m, X, mod=mod, forward=forward:
                            forwarded[mod].append(X is ds.features) or forward(m, X))
    ev = Evaluation(model)
    mu = DualState(np.array([0.7]))
    lag = empirical_lagrangian(ev, mu, problem)
    s = slacks(ev, problem)
    risk = empirical_risk(ev, loss, adv)
    idx = np.array([4, 1, 29, 4])
    batch = ev.batch(adv, idx)
    g = grad_params(ev, [(1.0, CE, ds), (0.7, loss, adv), (0.7, loss, batch)])
    assert attacks == [len(ds)]
    # the clean table once, for the objective and the attack alike; the
    # attacked set and its rows are read from the attack
    assert forwarded[models_mod] == [True]
    assert True not in forwarded[robust]
    monkeypatch.undo()

    assert bits(risk) == bits(own_risk(model, loss, attacked))
    assert bits(s) == bits([own_risk(model, loss, attacked) - 0.2])
    assert bits(lag) == bits(own_risk(model, CE, ds) + float(mu.mu @ s))
    own_batch, _ = adv.attack(model, idx)
    assert bits(batch.features) == bits(own_batch.features)
    assert bits(g) == bits(own_gradient(model, [(1.0, CE, ds), (0.7, loss, attacked),
                                                (0.7, loss, own_batch)]))


def test_a_minibatch_attack_is_read_from_the_attack_not_forwarded_again(monkeypatch):
    import duallearn.models as models_mod

    ds, _ = table(n=30, seed=5)
    model = models(seed=6)[2]
    attack = AttackConfig.pgd_training(0.2, clamp_box=(-1.0, 1.0), seed=2)
    adv = AdversarialDataset(ds, CE, attack)
    idx = np.array([3, 0, 17, 3])
    ev = Evaluation(model)
    batch = ev.batch(adv, idx)
    forwarded = []
    original = models_mod.predict_batch
    monkeypatch.setattr(models_mod, "predict_batch",
                        lambda m, X: forwarded.append(len(X)) or original(m, X))
    risk = ev.risk(CE, batch)
    grad = ev.param_grad(CE, batch)
    monkeypatch.undo()
    assert forwarded == []
    own, _ = adv.attack(model, idx)
    assert bits(batch.features) == bits(own.features)
    assert bits(risk) == bits(own_risk(model, CE, own))
    assert bits(grad) == bits(own_gradient(model, [(1.0, CE, own)]))


def test_the_base_table_is_forwarded_once_whichever_term_reads_it_first(monkeypatch):
    """The objective risk on a table, read before an attacked set over the
    same table is realised: the attack starts from the objective's
    predictions instead of forwarding the table again."""
    import duallearn.models as models_mod
    import duallearn.robust as robust

    ds, _ = table(n=40, seed=17)
    model = models(seed=18)[0]
    adv = AdversarialDataset(ds, CE, AttackConfig(epsilon=0.2, clamp_box=(-1.0, 1.0)))
    X_adv, _ = perturb_batch(model, CE, ds.features, ds.labels, adv.cfg)
    want = (own_risk(model, CE, ds), dataset_risk(CE, predict_batch(model, X_adv), ds.labels))
    clean = []
    for mod in (models_mod, robust):
        forward = mod.predict_batch
        monkeypatch.setattr(mod, "predict_batch", lambda m, X, forward=forward:
                            clean.append(X is ds.features) or forward(m, X))
    ev = Evaluation(model)
    got = (ev.risk(CE, ds), ev.risk(CE, adv))
    monkeypatch.undo()
    assert bits(got) == bits(want)
    assert clean.count(True) == 1


def test_equal_losses_that_are_distinct_objects_are_computed_once(monkeypatch):
    import duallearn.models as models_mod

    problem = fairness_shaped("rate-indicator")
    twin = LossSpec(kind="rate-indicator", bound_B=1.0)
    assert twin == problem.constraints[0].loss and twin is not problem.constraints[0].loss
    model = models(seed=19)[1]
    want = [own_risk(model, c.loss, c.dataset) for c in problem.constraints]
    computed = []
    original = models_mod.loss_values
    monkeypatch.setattr(models_mod, "loss_values",
                        lambda loss, P, y: computed.append(len(y)) or original(loss, P, y))
    ev = Evaluation.of(model, problem.datasets)
    got = [ev.risk(c.loss, c.dataset) for c in problem.constraints]
    got_twin = [ev.risk(twin, c.dataset) for c in problem.constraints]
    ev.risk(twin, problem.objective_dataset)
    monkeypatch.undo()
    assert computed == [len(problem.objective_dataset)]  # once for the one table
    assert bits(got) == bits(want) and bits(got_twin) == bits(want)


def test_no_constraints():
    ds, _ = table(seed=4)
    problem = Problem(objective_loss=CE, objective_dataset=ds)
    for model in models(seed=5):
        ev = Evaluation.of(model, problem.datasets)
        assert slacks(ev, problem).shape == (0,)
        assert bits(empirical_lagrangian(ev, DualState.zeros(0), problem)) == bits(
            own_risk(model, CE, ds))
        assert bits(grad_params(ev, [(1.0, CE, ds)])) == bits(
            own_gradient(model, [(1.0, CE, ds)]))
        R, S = enumeration_stats(problem, [model, ev])
        assert bits(R) == bits([own_risk(model, CE, ds)] * 2) and S.shape == (2, 0)


def test_mixture_risks_average_the_per_model_risks():
    problem = fairness_shaped("rate-indicator")
    sol = RandomizedSolution(models=tuple(models(seed=6)[:2]) + (models(seed=7)[0],))
    terms = [(problem.objective_loss, problem.objective_dataset)]
    terms += [(c.loss, c.dataset) for c in problem.constraints]
    for (loss, ds), got in zip(terms, mixture_risks(sol, terms)):
        per_model = np.asarray([own_risk(m, loss, ds) for m in sol.models])
        assert bits(got) == bits(float(per_model.sum()) / len(per_model))


def fairness_train_problem():
    ds, groups = table(n=200, seed=8)
    ind = LossSpec(kind="rate-indicator", bound_B=1.0)
    parts = group_split(ds, groups)
    cons = tuple(ConstraintSpec(loss=ind, threshold_c=0.01, dataset=parts[g],
                                reference=ReferenceTerm(loss=ind, dataset=ds), name=g)
                 for g in GROUPS)
    return Problem(objective_loss=CE, objective_dataset=ds, constraints=cons)


def test_fairness_train_forwards_the_table_at_most_twice_per_iteration(monkeypatch):
    import duallearn.models as models_mod

    problem = fairness_train_problem()
    primal = build_surrogate_lagrangian(problem)
    inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
    T = 25
    cfg = TrainConfig(iterations_T=T, dual_step_eta=0.05, inner=inner, seed=3)
    forwarded = []
    original = models_mod.predict_batch
    monkeypatch.setattr(models_mod, "predict_batch",
                        lambda model, X: forwarded.append(len(X)) or original(model, X))
    trace, _, _ = train(problem, cfg, init_model(LogisticArch(3)), primal_problem=primal)
    monkeypatch.undo()

    assert len(forwarded) <= 2 * T
    assert set(forwarded) == {len(problem.objective_dataset)}
    assert np.any(trace.mu > 0.0)
    # what the carried evaluations recorded is what a fresh evaluation reads
    for theta, slack, objective in zip(trace.thetas, trace.slacks, trace.objective):
        model = ModelState(theta, trace.arch)
        assert bits(slack) == bits(slacks(model, problem))
        assert bits(objective) == bits(empirical_risk(model, CE, problem.objective_dataset))


def test_robust_train_attacks_the_whole_set_once_per_iteration(monkeypatch):
    import duallearn.robust as robust

    ds, _ = table(n=64, seed=9)
    attack = AttackConfig.pgd_training(0.3, clamp_box=(-1.0, 1.0), seed=1)
    problem = Problem(objective_loss=CE, objective_dataset=ds, constraints=(
        ConstraintSpec(loss=CE, threshold_c=0.5, dataset=AdversarialDataset(ds, CE, attack)),))
    inner = InnerSolverConfig(epochs=1, batch_size=16, step_size=0.05)
    T = 8
    cfg = TrainConfig(iterations_T=T, dual_step_eta=2.0, inner=inner, seed=0)
    attacked = []
    original = robust.perturb_batch
    monkeypatch.setattr(robust, "perturb_batch",
                        lambda *a, **k: attacked.append(len(a[2])) or original(*a, **k))
    trace, _, _ = train(problem, cfg, init_model(LogisticArch(3)))
    monkeypatch.undo()

    assert attacked.count(len(ds)) == T + 1  # the start point once, then one per iterate
    assert np.any(trace.mu > 0.0)
    for theta, slack in zip(trace.thetas, trace.slacks):
        assert bits(slack) == bits(slacks(ModelState(theta, trace.arch), problem))


def memo_problem():
    """A fairness-shaped problem (group views with references on one table)
    plus an adversarial constraint on the table, for differentiable losses."""
    problem = fairness_shaped("rate-sigmoid")
    ds = problem.objective_dataset
    attack = AttackConfig(epsilon=0.2, steps=2, step_size=0.1,
                          clamp_box=(-1.0, 1.0), seed=0)
    adv = ConstraintSpec(loss=loss_of("hinge"), threshold_c=0.3,
                         dataset=AdversarialDataset(ds, loss_of("hinge"), attack), name="adv")
    return Problem(objective_loss=CE, objective_dataset=ds,
                   constraints=problem.constraints + (adv,))


def lagrangian_terms(problem, mu):
    terms = [(1.0, problem.objective_loss, problem.objective_dataset)]
    for w, c in zip(mu, problem.constraints):
        terms.append((w, c.loss, c.dataset))
        if c.reference is not None:
            terms.append((-w, c.reference.loss, c.reference.dataset))
    return terms


def distinct_terms(problem):
    """How many (set, loss) pairs the Lagrangian of `problem` backpropagates."""
    return len({(ds, loss) for _, loss, ds in lagrangian_terms(problem, np.ones(problem.m))})


def random_mus(m, count=20, seed=0):
    rng = np.random.default_rng(seed)
    mus = [np.zeros(m)]
    for _ in range(count - 1):
        mu = rng.exponential(1.0, m)
        mus.append(np.where(rng.random(m) < 0.3, 0.0, mu))
    return mus


@pytest.mark.parametrize("model", models(seed=11), ids=lambda m: m.arch.kind)
def test_a_reused_evaluation_reads_the_gradient_and_lagrangian_of_a_fresh_one(model):
    problem = memo_problem()
    ev = Evaluation(model)
    batch = ev.batch(problem.constraints[1].dataset, np.array([2, 0, 2]))
    for mu in random_mus(problem.m):
        terms = lagrangian_terms(problem, mu) + [(0.5, CE, batch)]
        dual = DualState(mu)
        assert bits(grad_params(ev, terms)) == bits(grad_params(Evaluation(model), terms))
        assert bits(empirical_lagrangian(ev, dual, problem)) == bits(
            empirical_lagrangian(Evaluation(model), dual, problem))
        assert bits(slacks(ev, problem)) == bits(slacks(model, problem))


def test_a_kept_evaluation_backpropagates_each_term_once(monkeypatch):
    import duallearn.models as models_mod

    problem = memo_problem()
    model = models(seed=12)[2]
    calls = []
    original = models_mod._backprop
    monkeypatch.setattr(models_mod, "_backprop",
                        lambda *a, **k: calls.append(k["want_params"]) or original(*a, **k))
    ev = Evaluation(model)
    for mu in random_mus(problem.m):
        grad_params(ev, lagrangian_terms(problem, mu))
    assert calls.count(True) == distinct_terms(problem)  # the attack backprops the inputs
    s = slacks(ev, problem)
    assert not s.flags.writeable
    assert not ev.param_grad(CE, problem.objective_dataset).flags.writeable


def test_memo_keys_are_held_so_their_ids_are_not_reused():
    """Problems and batches made and dropped one after another on one
    evaluation: each reads its own values, not those of a freed
    predecessor whose id it may have taken."""
    ds, groups = table(seed=13)
    model = models(seed=14)[0]
    loss = loss_of("squared")
    parts = group_split(ds, groups)
    ev = Evaluation(model)
    rng = np.random.default_rng(15)

    def problem(k):
        return Problem(objective_loss=loss, objective_dataset=ds, constraints=(
            ConstraintSpec(loss=loss, threshold_c=0.01 * k, dataset=parts[GROUPS[k % 4]]),))

    for k in range(40):
        assert bits(slacks(ev, problem(k))) == bits(slacks(model, problem(k)))
        rows = rng.choice(len(ds), 5, replace=False)
        terms = [(1.0, loss, ev.batch(ds, rows))]
        assert bits(grad_params(ev, terms)) == bits(
            own_gradient(model, [(1.0, loss, ds.subset(rows))]))


def test_a_full_attack_hands_its_clean_predictions_to_the_evaluation(monkeypatch):
    import duallearn.models as models_mod
    import duallearn.robust as robust

    problem = memo_problem()
    ds = problem.objective_dataset
    model = models(seed=16)[0]
    want = empirical_lagrangian(model, DualState(np.full(problem.m, 0.5)), problem)
    clean = []
    for mod in (models_mod, robust):
        original = mod.predict_batch
        monkeypatch.setattr(mod, "predict_batch", lambda m, X, original=original:
                            clean.append(X is ds.features) or original(m, X))
    got = empirical_lagrangian(model, DualState(np.full(problem.m, 0.5)), problem)
    assert bits(got) == bits(want)
    assert clean.count(True) == 1  # the attack's clean candidate, read by the objective


def test_fairness_train_backpropagates_each_term_once_per_accepted_iterate(monkeypatch):
    import duallearn.models as models_mod

    problem = fairness_train_problem()
    primal = build_surrogate_lagrangian(problem)
    inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
    T = 60
    cfg = TrainConfig(iterations_T=T, dual_step_eta=0.05, inner=inner, seed=3)
    init = init_model(LogisticArch(3))
    calls = []
    original = models_mod._backprop
    monkeypatch.setattr(models_mod, "_backprop",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    trace, _, _ = train(problem, cfg, init, primal_problem=primal)
    monkeypatch.undo()

    thetas = [init.params, *trace.thetas]
    accepted = sum(not np.array_equal(a, b) for a, b in zip(thetas, thetas[1:]))
    terms = distinct_terms(primal)
    assert accepted < T // 2  # the memo has kept iterates to pay on
    assert len(calls) <= (accepted + 1) * terms

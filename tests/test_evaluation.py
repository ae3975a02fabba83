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
from duallearn.primaldual import TrainConfig, mixture_risks, train
from duallearn.robust import AdversarialDataset, AttackConfig, perturb_batch

from helpers import bits, dataset_risk, record_forwards

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
        init_model(MlpArch((3, 4, 1), activation="relu"), seed=seed),
    ]


def model_id(model):
    """The architecture's kind; an MLP with a linear output names its
    activation too, to tell it from the sigmoid one."""
    arch = model.arch
    if arch.kind == "mlp" and arch.output == "linear":
        return f"mlp-{arch.activation}-linear"
    return arch.kind


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


def views_only(kind, seed=0):
    """Objective and constraints on group views alone, one against a
    reference on another view: the table is no term, so each view is read
    from its own forward pass."""
    ds, groups = table(seed=seed)
    loss = loss_of(kind)
    parts = group_split(ds, groups)
    cons = (ConstraintSpec(loss=loss, threshold_c=0.1, dataset=parts["B"],
                           reference=ReferenceTerm(loss=loss, dataset=parts["C"]), name="B"),
            ConstraintSpec(loss=loss, threshold_c=0.2, dataset=parts["D"], name="D"))
    return Problem(objective_loss=CE, objective_dataset=parts["A"], constraints=cons)


def shared_terms(kind, seed=0):
    """Terms that share (table, loss): two constraints on one view with
    equal losses built apart, and references that read the objective's term."""
    ds, groups = table(seed=seed)
    loss = loss_of(kind)
    twin = LossSpec(**{f: getattr(loss, f) for f in ("kind", "bound_B", "clamp_p_min")})
    parts = group_split(ds, groups)
    cons = (ConstraintSpec(loss=loss, threshold_c=0.1, dataset=parts["A"],
                           reference=ReferenceTerm(loss=CE, dataset=ds), name="A"),
            ConstraintSpec(loss=twin, threshold_c=0.3, dataset=parts["A"],
                           reference=ReferenceTerm(loss=twin, dataset=ds), name="A again"))
    return Problem(objective_loss=CE, objective_dataset=ds, constraints=cons)


SHAPES = {"fairness": fairness_shaped, "views-only": views_only, "shared-terms": shared_terms}


def constraint_values(risk, problem):
    """Each constraint's risk less its reference's, from `risk(loss, set)`."""
    return [risk(c.loss, c.dataset) if c.reference is None
            else risk(c.loss, c.dataset) - risk(c.reference.loss, c.reference.dataset)
            for c in problem.constraints]


@pytest.mark.parametrize("kind, shape", [pytest.param(kind, "fairness", id=kind)
                                         for kind in LOSS_KINDS] + [
    pytest.param(kind, shape, id=f"{shape}-{kind}")
    for shape in ("views-only", "shared-terms") for kind in LOSS_KINDS])
@pytest.mark.parametrize("model", models(), ids=model_id)
def test_group_views_with_references_read_exactly_their_own_risks(kind, shape, model,
                                                                  monkeypatch):
    import duallearn.models as models_mod

    problem = SHAPES[shape](kind)
    want = constraint_values(lambda loss, ds: own_risk(model, loss, ds), problem)
    want_slacks = [w - c.threshold_c for w, c in zip(want, problem.constraints)]
    forwarded = []
    record_forwards(monkeypatch, models_mod, lambda X: forwarded.append(len(X)))
    ev = Evaluation.of(model, problem.datasets)
    got_slacks = slacks(ev, problem)  # the layout path, before any risk is read
    monkeypatch.undo()
    # one forward per table read: the root where it is a term, else each view itself
    tables = {id(t): t for t in (d.root if any(d.root is e for e in problem.datasets) else d
                                 for d in problem.datasets)}
    assert sorted(forwarded) == sorted(len(t) for t in tables.values())
    assert bits(got_slacks) == bits(want_slacks)
    assert bits(constraint_values(ev.risk, problem)) == bits(want)
    assert bits(slacks(model, problem)) == bits(want_slacks)
    mu = DualState(np.array([0.5, 0.0, 1.25, 2.0] if problem.m == 4 else [0.5, 1.25]))
    want_lag = (own_risk(model, CE, problem.objective_dataset)
                + float(mu.mu @ np.asarray(want_slacks)))
    assert bits(empirical_lagrangian(model, mu, problem)) == bits(want_lag)
    assert bits(empirical_lagrangian(ev, mu, problem)) == bits(want_lag)
    for c in problem.constraints:
        assert bits(ev.predictions(c.dataset)) == bits(predict_batch(model, c.dataset.features))
        assert bits(empirical_risk(model, c.loss, c.dataset)) == bits(own_risk(model, c.loss,
                                                                                c.dataset))


@pytest.mark.parametrize("kind", DIFFERENTIABLE_KINDS)
@pytest.mark.parametrize("model", models(), ids=model_id)
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
    batch = ev.realize(problem.constraints[0].dataset).subset(np.array([3, 0, 5, 5]))
    assert batch.root is problem.objective_dataset
    assert bits(grad_params(ev, [(1.0, loss_of(kind), batch)])) == bits(
        own_gradient(model, [(1.0, loss_of(kind), batch)]))


def holds_rows(X, rows):
    """Whether the feature array or stack X holds exactly `rows` in one slice."""
    if X.shape[-2:] != rows.shape:
        return False
    return any(s.tobytes() == rows.tobytes() for s in X.reshape(-1, *rows.shape))


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
        record_forwards(monkeypatch, mod, lambda X, mod=mod: forwarded[mod].append(
            holds_rows(X, ds.features) or holds_rows(X, attacked.features)))
    ev = Evaluation(model)
    mu = DualState(np.array([0.7]))
    lag = empirical_lagrangian(ev, mu, problem)
    s = slacks(ev, problem)
    risk = empirical_risk(ev, loss, adv)
    idx = np.array([4, 1, 29, 4])
    batch = ev.realize(adv).subset(idx)
    g = grad_params(ev, [(1.0, CE, ds), (0.7, loss, adv), (0.7, loss, batch)])
    assert attacks == [len(ds)]
    # the clean table once, for the objective and the attack alike; the
    # attacked set and its rows are read from the attack
    assert forwarded[models_mod] == [True]
    assert forwarded[robust] and True not in forwarded[robust]
    monkeypatch.undo()

    assert bits(risk) == bits(own_risk(model, loss, attacked))
    assert bits(s) == bits([own_risk(model, loss, attacked) - 0.2])
    assert bits(lag) == bits(own_risk(model, CE, ds) + float(mu.mu @ s))
    own_batch, _ = adv.attack(model, idx)
    assert bits(batch.features) == bits(own_batch.features)
    assert bits(g) == bits(own_gradient(model, [(1.0, CE, ds), (0.7, loss, attacked),
                                                (0.7, loss, own_batch)]))


def test_a_minibatch_attack_is_read_from_the_attack_not_forwarded_again(monkeypatch):
    """A step between scored iterates attacks its drawn rows at the bare
    parameters and backpropagates from the attack's own predictions."""
    import duallearn.lagrangian as lagrangian

    ds, _ = table(n=30, seed=5)
    model = models(seed=6)[2]
    attack = AttackConfig.pgd_training(0.2, clamp_box=(-1.0, 1.0), seed=2)
    adv = AdversarialDataset(ds, CE, attack)
    idx = np.array([3, 0, 17, 3])
    forwarded = []
    original = lagrangian._forward
    monkeypatch.setattr(lagrangian, "_forward",
                        lambda m, X: forwarded.append(len(X)) or original(m, X))
    grad = lagrangian._step_gradient(model, [(1.0, CE, adv, len(adv))], [idx])
    monkeypatch.undo()
    assert forwarded == []
    own, own_P = adv.attack(model, idx)
    X, y, P = adv.attacked_rows(model, idx)
    assert bits(X) == bits(own.features)
    assert bits(y) == bits(own.labels)
    assert bits(P) == bits(own_P)
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
        record_forwards(monkeypatch, mod, lambda X: clean.append(holds_rows(X, ds.features)))
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
    # a mixture is a block of one architecture's parameter rows
    sol = [models(seed=seed)[0] for seed in (6, 7, 8)]
    block = np.array([m.params for m in sol])
    block.setflags(write=False)
    risks = mixture_risks(sol[0].arch, block, problem)
    assert len(risks) == len(problem.terms)
    for (loss, ds), got in zip(problem.terms, risks):
        per_model = np.asarray([own_risk(m, loss, ds) for m in sol])
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
    inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
    T = 25
    cfg = TrainConfig(iterations_T=T, dual_step_eta=0.05, inner=inner, seed=3)
    forwarded = []
    original = models_mod.predict_batch
    monkeypatch.setattr(models_mod, "predict_batch",
                        lambda model, X: forwarded.append(len(X)) or original(model, X))
    trace, _, _ = train(problem, cfg, init_model(LogisticArch(3)))
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
    attacked, stacked = [], []
    original = robust.perturb_batch
    monkeypatch.setattr(robust, "perturb_batch",
                        lambda *a, **k: attacked.append(len(a[2])) or original(*a, **k))
    # every stacked forward, with the number of attacks begun before it
    record_forwards(monkeypatch, robust, lambda X: X.ndim == 3 and stacked.append(
        (X.shape, len(attacked))))
    trace, _, _ = train(problem, cfg, init_model(LogisticArch(3)))
    monkeypatch.undo()

    assert attacked.count(len(ds)) == T + 1  # the start point once, then one per iterate
    # A whole-set attack starts from the evaluation's clean predictions, so
    # it forwards the two corners of each row and never the clean table;
    # the all-zero start point forwards none. A minibatch attack forwards
    # its clean rows and their corners, once.
    assert [shape for shape, _ in stacked].count((2, len(ds), 3)) == T
    assert all(shape in ((2, len(ds), 3), (3, 16, 3)) for shape, _ in stacked)
    assert len({at for _, at in stacked}) == len(stacked)  # one forward per attack
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
    adv = ConstraintSpec(loss=loss_of("squared"), threshold_c=0.3,
                         dataset=AdversarialDataset(ds, loss_of("squared"), attack), name="adv")
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


@pytest.mark.parametrize("model", models(seed=11), ids=model_id)
def test_a_reused_evaluation_reads_the_gradient_and_lagrangian_of_a_fresh_one(model):
    problem = memo_problem()
    ev = Evaluation(model)
    batch = problem.constraints[1].dataset.subset(np.array([2, 0, 2]))
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
        terms = [(1.0, loss, ds.subset(rows))]
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
    inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
    T = 60
    cfg = TrainConfig(iterations_T=T, dual_step_eta=0.05, inner=inner, seed=3)
    init = init_model(LogisticArch(3))
    calls = []
    original = models_mod._backprop
    monkeypatch.setattr(models_mod, "_backprop",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    trace, _, _ = train(problem, cfg, init)
    monkeypatch.undo()

    thetas = [init.params, *trace.thetas]
    accepted = sum(not np.array_equal(a, b) for a, b in zip(thetas, thetas[1:]))
    terms = distinct_terms(problem.surrogate)
    assert accepted < T // 2  # the memo has kept iterates to pay on
    assert len(calls) <= (accepted + 1) * terms


def test_fairness_train_makes_one_loss_pass_per_table_and_loss_per_iterate(monkeypatch):
    """Every evaluated iterate scores the whole table once per loss that the
    surrogate or the true problem reads, and never a group view on its own."""
    import duallearn.models as models_mod

    problem = fairness_train_problem()
    inner = InnerSolverConfig(epochs=1, batch_size=None, step_size=0.05)
    T = 40
    cfg = TrainConfig(iterations_T=T, dual_step_eta=0.05, inner=inner, seed=3)
    init = init_model(LogisticArch(3))
    passes = []
    original = models_mod.loss_values
    monkeypatch.setattr(models_mod, "loss_values", lambda loss, P, y: passes.append(
        (P.tobytes(), len(y), loss)) or original(loss, P, y))
    trace, _, _ = train(problem, cfg, init)
    monkeypatch.undo()

    ce, indicator = problem.objective_loss, problem.constraints[0].loss
    sigmoid = problem.surrogate.constraints[0].loss
    assert len(set(passes)) == len(passes)  # no (iterate, table, loss) twice
    assert {n for _, n, _ in passes} == {len(problem.objective_dataset)}
    per_loss = {loss: sum(1 for *_, pl in passes if pl == loss) for loss in (ce, sigmoid)}
    # the start point, then the one step of each iteration: the surrogate
    # scores every iterate, the true problem each one a dual step reads
    assert per_loss == {ce: T + 1, sigmoid: T + 1}
    kept = {theta.tobytes() for theta in trace.thetas}
    assert sum(1 for *_, pl in passes if pl == indicator) == len(kept)
    assert len(passes) == 2 * (T + 1) + len(kept)

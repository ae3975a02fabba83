import numpy as np
import pytest

from duallearn.core import (
    ConstraintSpec,
    Dataset,
    LossSpec,
    Problem,
    ReferenceTerm,
    empirical_risk,
)
from duallearn.data import group_split
from duallearn.errors import (ConfigurationError, DualLearnError, InputError,
                              SurrogateRequiredError)
from duallearn.lagrangian import (
    DualState,
    InnerSolverConfig,
    _live_terms,
    _step_rows,
    dual_function,
    empirical_lagrangian,
    gradient_minimize,
    slacks,
)
from duallearn.models import (Evaluation, LinearArch, LogisticArch, MlpArch, ModelState,
                              OptimizerState, init_model, optimizer_step)
from duallearn.oracle import ecrm_enumerate, example1_problem
from duallearn.primaldual import dual_update
from duallearn.robust import AdversarialDataset, AttackConfig

from helpers import (bits, cross_entropy, enumeration_dual, random_enumerable,
                     random_layout_problem, random_mu, row_loss, row_predict)

ABS = LossSpec(kind="absolute", bound_B=4.0)
SCORE = LossSpec(kind="signed-score", bound_B=4.0)
IDENT = LinearArch(1, bias=False)


def scalar_ds(values, labels=None, name="ds"):
    v = np.asarray(values, dtype=float)
    y = np.ones(len(v), dtype=np.int64) if labels is None else np.asarray(labels)
    return Dataset(features=v[:, None], labels=y, name=name)


def simple_problem():
    # identity model theta=1: objective risk 0.2, constraint risk 0.5
    return Problem(
        objective_loss=ABS,
        objective_dataset=scalar_ds([0.2], name="obj"),
        constraints=(ConstraintSpec(loss=ABS, threshold_c=0.2,
                                    dataset=scalar_ds([0.5], name="con")),),
    )


class TestEmpiricalLagrangian:
    def test_zero_multipliers_reduce_to_objective(self):
        prob = simple_problem()
        model = ModelState(np.array([1.0]), IDENT)
        obj = empirical_risk(model, prob.objective_loss, prob.objective_dataset)
        assert empirical_lagrangian(model, DualState.zeros(1), prob) == obj

    def test_substitution(self):
        # 0.2 + 2 * (0.5 - 0.2) = 0.8
        prob = simple_problem()
        model = ModelState(np.array([1.0]), IDENT)
        val = empirical_lagrangian(model, DualState(np.array([2.0])), prob)
        assert val == pytest.approx(0.8, abs=1e-12)

    def test_matches_independent_reimplementation(self):
        # independently coded sample-by-sample evaluation of the weighted form
        rng = np.random.default_rng(21)
        ep = random_enumerable(rng, n_candidates=3, m=2)
        prob = ep.problem
        model = ep.candidates[0]
        mu = rng.uniform(0, 2, size=2)

        def risk_by_hand(loss, ds):
            total = 0.0
            for i in range(len(ds)):
                total += row_loss(loss, row_predict(model, ds.features[i]), ds.labels[i].item())
            return total / len(ds)

        expected = risk_by_hand(prob.objective_loss, prob.objective_dataset)
        for j, c in enumerate(prob.constraints):
            expected += mu[j] * (risk_by_hand(c.loss, c.dataset) - c.threshold_c)
        got = empirical_lagrangian(model, DualState(mu), prob)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        prob = simple_problem()
        model = ModelState(np.array([1.0]), IDENT)
        with pytest.raises(InputError):
            empirical_lagrangian(model, DualState(np.array([1.0, 2.0])), prob)

    def test_affinity_in_mu(self):
        rng = np.random.default_rng(33)
        ep = random_enumerable(rng, n_candidates=2, m=3)
        model = ep.candidates[0]
        mu1 = rng.uniform(0, 3, 3)
        mu2 = rng.uniform(0, 3, 3)
        lam = 0.37
        lhs = empirical_lagrangian(model, DualState(lam * mu1 + (1 - lam) * mu2), ep.problem)
        rhs = (lam * empirical_lagrangian(model, DualState(mu1), ep.problem)
               + (1 - lam) * empirical_lagrangian(model, DualState(mu2), ep.problem))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_lagrangian_slack_consistency(self):
        rng = np.random.default_rng(41)
        ep = random_enumerable(rng, n_candidates=2, m=2)
        model = ep.candidates[1]
        mu = rng.uniform(0, 2, 2)
        obj = empirical_risk(model, ep.problem.objective_loss, ep.problem.objective_dataset)
        expected = obj + float(mu @ slacks(model, ep.problem))
        assert empirical_lagrangian(model, DualState(mu), ep.problem) == pytest.approx(
            expected, abs=1e-12)


class TestSlacks:
    def test_exact_feasibility_boundary(self):
        prob = Problem(objective_loss=ABS, objective_dataset=scalar_ds([0.1]),
                       constraints=(ConstraintSpec(loss=ABS, threshold_c=0.5,
                                                   dataset=scalar_ds([0.5])),))
        model = ModelState(np.array([1.0]), IDENT)
        assert slacks(model, prob)[0] == 0.0

    def test_substitution(self):
        prob = simple_problem()
        model = ModelState(np.array([1.0]), IDENT)
        assert slacks(model, prob)[0] == pytest.approx(0.3, abs=1e-15)

    def test_zero_one_exact_counting(self):
        # 10 scalar probabilities, threshold 0.5: 4 are misclassified by hand
        preds = np.array([0.9, 0.8, 0.2, 0.6, 0.4, 0.7, 0.1, 0.3, 0.95, 0.05])
        labels = np.array([1, 0, 0, 1, 1, 1, 0, 1, 1, 1])
        # miscounts: idx1 (0.8 vs 0), idx4 (0.4 vs 1), idx7 (0.3 vs 1), idx9 (0.05 vs 1)
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        ds = scalar_ds(preds, labels=labels)
        model = ModelState(np.array([1.0]), IDENT)
        prob = Problem(objective_loss=zo, objective_dataset=ds,
                       constraints=(ConstraintSpec(loss=zo, threshold_c=0.15, dataset=ds),))
        assert slacks(model, prob)[0] == (4 / 10) - 0.15


class TestDualFunction:
    """The exact dual function over a candidate list (`helpers.enumeration_dual`,
    over `enumeration_stats`), then the gradient solver's."""

    def test_zero_mu_enumeration_is_erm(self):
        rng = np.random.default_rng(3)
        ep = random_enumerable(rng, n_candidates=2, m=1)
        val, minimizer = enumeration_dual(ep.problem, ep.candidates, np.zeros(1))
        risks = [empirical_risk(c, ep.problem.objective_loss, ep.problem.objective_dataset)
                 for c in ep.candidates]
        assert val == min(risks)
        assert minimizer is ep.candidates[int(np.argmin(risks))]

    def test_example1_hand_evaluated_comparison(self):
        # the Lagrangian of each candidate reduces to a closed form in tau_bar;
        # evaluate both by hand from the drawn arrays and check the argmin
        ep = example1_problem(50, seed=23)
        d0, d1, d2 = (ep.problem.objective_dataset,
                      ep.problem.constraints[0].dataset,
                      ep.problem.constraints[1].dataset)
        mu = np.array([0.7, 0.3])
        tau_bar = float(d1.features[:, 1].mean())

        def hand_lagrangian(theta):
            obj = float(np.abs(d0.labels * (d0.features @ theta)).sum()) / len(d0)
            s1 = (-theta[0] + tau_bar * theta[1]) - (-1.0)
            s2 = (-tau_bar * theta[0] + theta[1]) - 1.0
            return obj + mu[0] * s1 + mu[1] * s2

        vals = [hand_lagrangian(np.asarray(c.params)) for c in ep.candidates]
        got_val, got_min = enumeration_dual(ep.problem, ep.candidates, mu)
        j = int(np.argmin(vals))
        assert got_min is ep.candidates[j]
        assert got_val == pytest.approx(vals[j], abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        model = ModelState(np.array([1.0]), IDENT)
        twin = ModelState(np.array([1.0]), IDENT)
        _, minimizer = enumeration_dual(simple_problem(), (model, twin), np.zeros(1))
        assert minimizer is model

    def test_weak_duality_against_ecrm(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            ep = random_enumerable(rng)
            p_hat = ecrm_enumerate(ep).value
            for _ in range(5):
                mu = rng.uniform(0, 5, ep.problem.m)
                d_val, _ = enumeration_dual(ep.problem, ep.candidates, mu)
                assert d_val <= p_hat

    def test_concavity(self):
        rng = np.random.default_rng(15)
        ep = random_enumerable(rng, n_candidates=4, m=2)

        def d(mu):
            return enumeration_dual(ep.problem, ep.candidates, mu)[0]

        for _ in range(200):
            mu1 = rng.uniform(0, 4, 2)
            mu2 = rng.uniform(0, 4, 2)
            lam = float(rng.uniform())
            assert d(lam * mu1 + (1 - lam) * mu2) >= (
                lam * d(mu1) + (1 - lam) * d(mu2) - 1e-10)

    def test_gradient_solver_improves_and_reports_best(self):
        rng = np.random.default_rng(2)
        ds = Dataset(features=rng.uniform(-1, 1, (30, 2)), labels=rng.choice([0, 1], 30))
        ce = cross_entropy()
        prob = Problem(objective_loss=ce, objective_dataset=ds)
        init = init_model(LogisticArch(2))
        solver = InnerSolverConfig(epochs=5, batch_size=8, step_size=0.1)
        val, minimizer = dual_function(DualState.zeros(0), prob, solver, init,
                                       rng=np.random.default_rng(1))
        init_val = empirical_risk(init, ce, ds)
        assert val <= init_val
        assert val == empirical_risk(minimizer, ce, ds)

    def test_gradient_solver_requires_differentiable_losses(self):
        zo = LossSpec(kind="zero-one", bound_B=1.0)
        ds = scalar_ds([0.2, 0.8], labels=[0, 1])
        prob = Problem(objective_loss=zo, objective_dataset=ds)
        solver = InnerSolverConfig(epochs=1, step_size=0.1)
        with pytest.raises(SurrogateRequiredError):
            dual_function(DualState.zeros(0), prob, solver, ModelState(np.array([1.0]), IDENT))


class TestValidation:
    def test_dual_state_rejects_negative(self):
        with pytest.raises(InputError):
            DualState(np.array([-0.1]))

    def test_dual_state_rejects_nonfinite(self):
        with pytest.raises(InputError):
            DualState(np.array([np.inf]))

    def test_gradient_needs_positive_epochs(self):
        with pytest.raises(ConfigurationError):
            InnerSolverConfig(epochs=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, build", [
        ("step_size", lambda v: AttackConfig(epsilon=0.1, steps=5, step_size=v)),
        ("step_size", lambda v: InnerSolverConfig(step_size=v)),
        ("eta", lambda v: dual_update(DualState.zeros(1), np.zeros(1), v)),
    ], ids=["attack", "inner", "dual_update"])
    def test_non_finite_step_sizes_are_refused_by_name(self, field, build, value):
        with pytest.raises(DualLearnError, match=f"^{field} must be"):
            build(value)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("references", [False, True])
@pytest.mark.parametrize("m", range(4))
def test_gradient_terms_draw_the_rows_of_a_walk_over_the_constraints(m, references, seed):
    """A step's terms and minibatch rows are those of walking the constraints:
    a zero multiplier skips its constraint and its reference, draws included."""
    rng = np.random.default_rng(seed)
    problem = random_layout_problem(rng, m, references)
    mu = random_mu(rng, m)
    ev = Evaluation(ModelState(rng.normal(size=4), LinearArch(3)))
    obj_rows = None if seed % 2 else rng.choice(len(problem.objective_dataset), size=3,
                                                replace=False)
    batch_size = int(rng.integers(3, 12))

    def draw(walk_rng, dataset):
        if len(dataset) <= batch_size:
            return None
        return walk_rng.choice(len(dataset), size=batch_size, replace=False)

    walk_rng = np.random.default_rng(seed + 100)
    want = [(1.0, problem.objective_loss, problem.objective_dataset, obj_rows)]
    for w, c in zip(mu.tolist(), problem.constraints):
        if w == 0.0:
            continue
        want.append((w, c.loss, c.dataset, draw(walk_rng, c.dataset)))
        if c.reference is not None:
            ref = c.reference
            want.append((-w, ref.loss, ref.dataset, draw(walk_rng, ref.dataset)))

    step_rng = np.random.default_rng(seed + 100)
    live = _live_terms(problem, DualState(mu), batch_size)
    got = _step_rows(live, obj_rows, batch_size, step_rng)
    assert len(live) == len(got) == len(want)
    for (weight, loss, dataset, _), rows, (w, want_loss, want_set, want_rows) in zip(live, got,
                                                                                    want):
        assert bits(weight) == bits(w) and loss is want_loss and dataset is want_set
        if want_rows is None:
            assert rows is None
        else:
            assert rows.tolist() == want_rows.tolist()
    assert step_rng.bit_generator.state == walk_rng.bit_generator.state


def reference_minimize(dual, problem, solver, start, rng):
    """`gradient_minimize` from public pieces, one step at a time: walk the
    terms, skip a zero weight, cut the objective's rows from the epoch's
    permutation and draw every other set's rows from `rng` in term order.
    An epoch's first step reads each term's `param_grad` from the scored
    evaluation, on the set it realised or that set's drawn rows
    (`Dataset.subset`); every later step reads it from a fresh `Evaluation`
    of the bare iterate per term, on the set's rows (`Dataset.subset`) or
    their attack (`AdversarialDataset.attack`). The weighted gradients are
    summed in term order, one `optimizer_step` is taken, and a fresh
    `Evaluation` scores each epoch's last iterate."""
    problem = problem.surrogate
    n0 = len(problem.objective_dataset)
    bs = solver.batch_size
    whole = bs is None or bs >= n0
    opt = OptimizerState(step_size=solver.step_size)
    at = best = start
    best_val = empirical_lagrangian(start, dual, problem)
    for _ in range(solver.epochs):
        order = None if whole else rng.permutation(n0)
        model = at.model
        for lo in range(0, n0, n0 if whole else bs):
            grads = []
            for k, (w, (loss, d)) in enumerate(zip(problem.weights(dual.mu), problem.terms)):
                if w == 0.0:
                    continue
                if k == 0:
                    rows = None if whole else order[lo : lo + bs]
                elif bs is None or len(d) <= bs:
                    rows = None
                else:
                    rows = rng.choice(len(d), size=bs, replace=False)
                if lo == 0:
                    g = at.param_grad(loss, d if rows is None else at.realize(d).subset(rows))
                elif isinstance(d, AdversarialDataset):
                    g = Evaluation(model).param_grad(loss, d.attack(model, rows)[0])
                else:
                    g = Evaluation(model).param_grad(loss, d if rows is None else d.subset(rows))
                grads.append(w * g)
            total = np.zeros(model.arch.n_params)
            for g in grads:
                total += g
            opt, model = optimizer_step(opt, model, total)
        at = Evaluation(model)
        val = empirical_lagrangian(at, dual, problem)
        if val < best_val:
            best_val, best = val, at
    return best


def step_table(n=60, seed=0):
    rng = np.random.default_rng(seed)
    ds = Dataset(features=rng.uniform(-1.0, 1.0, (n, 3)), labels=rng.choice([0, 1], n),
                 name="table")
    return ds, tuple("ABCD"[i] for i in rng.integers(0, 4, n))


def robust_step_problem(attack):
    """CE objective on a table, an attacked CE constraint on it and a plain
    CE constraint on one of its group views."""
    ds, groups = step_table()
    ce = cross_entropy()
    return Problem(objective_loss=ce, objective_dataset=ds, constraints=(
        ConstraintSpec(loss=ce, threshold_c=0.4, dataset=AdversarialDataset(ds, ce, attack)),
        ConstraintSpec(loss=ce, threshold_c=0.5, dataset=group_split(ds, groups)["A"])))


def fairness_step_problem():
    """Rate-indicator constraints on group views, each against the whole table."""
    ds, groups = step_table(seed=1)
    rate = LossSpec(kind="rate-indicator", bound_B=1.0)
    parts = group_split(ds, groups)
    return Problem(objective_loss=cross_entropy(), objective_dataset=ds,
                   constraints=tuple(ConstraintSpec(loss=rate, threshold_c=0.05, dataset=parts[g],
                                                    reference=ReferenceTerm(loss=rate,
                                                                            dataset=ds), name=g)
                                     for g in "ABCD"))


def shared_small_set_problem():
    """Two CE constraints on one 10-row view of the table, which every
    tested batch size uses whole, so both terms read one (set, loss)."""
    ds, _ = step_table(seed=2)
    ce = cross_entropy()
    small = ds.subset(np.arange(0, 40, 4), name="small")
    return Problem(objective_loss=ce, objective_dataset=ds, constraints=(
        ConstraintSpec(loss=ce, threshold_c=0.3, dataset=small),
        ConstraintSpec(loss=cross_entropy(), threshold_c=0.6, dataset=small)))


STEP_CASES = {
    "logistic-exact": (lambda: robust_step_problem(AttackConfig(epsilon=0.3,
                                                                clamp_box=(-1.0, 1.0))),
                       LogisticArch(3)),
    "mlp-pgd": (lambda: robust_step_problem(AttackConfig(epsilon=0.3, steps=3, step_size=0.1,
                                                         restarts=2, clamp_box=(-1.0, 1.0),
                                                         seed=5)),
                MlpArch((3, 4, 1), output="sigmoid")),
    "fairness": (fairness_step_problem, LogisticArch(3)),
    "shared-small-set": (shared_small_set_problem, LogisticArch(3)),
    "mlp-fairness": (fairness_step_problem, MlpArch((3, 5, 1), output="sigmoid")),
    "mlp-linear-pgd": (lambda: robust_step_problem(AttackConfig(epsilon=0.25, steps=4,
                                                                step_size=0.1, restarts=3,
                                                                clamp_box=(-1.0, 1.0), seed=9)),
                       MlpArch((3, 4, 1))),
}


@pytest.mark.parametrize("batch_size", [None, 16, 13])
@pytest.mark.parametrize("case", STEP_CASES)
def test_gradient_minimize_takes_the_steps_of_its_public_pieces(case, batch_size):
    """Parameters and the generator's final state equal, bit for bit, those of
    the one-step-at-a-time reference, at multipliers with and without zeros."""
    build, arch = STEP_CASES[case]
    problem = build()
    solver = InnerSolverConfig(epochs=3, batch_size=batch_size, step_size=0.1)
    for k, mu in enumerate(([0.0] * problem.m, [0.7] + [0.0] * (problem.m - 1),
                            [0.0] + [1.3] * (problem.m - 1), [0.4, 0.0, 2.0, 0.0][:problem.m],
                            [1.1, 0.6, 0.3, 0.9][:problem.m])):
        dual = DualState(np.array(mu))
        init = ModelState(np.random.default_rng(k).normal(size=arch.n_params), arch)
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        got = gradient_minimize(dual, problem, solver, Evaluation(init), got_rng)
        want = reference_minimize(dual, problem, solver, Evaluation(init), want_rng)
        assert bits(got.model.params) == bits(want.model.params)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

"""Shared builders for the test suite: the hand-solved convex toy, random
small enumerable instances, random problems with references, one-row forms
of the batch API, the risk of precomputed predictions, and closed forms of
the linear and logistic passes, bit references of replaced numerics,
counters of the randomness a run builds, and the modules a command loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from duallearn import primaldual
from duallearn.core import (ConstraintSpec, Dataset, LossSpec, Problem, ReferenceTerm,
                            loss_values, stable_sigmoid)
from duallearn.errors import InputError
from duallearn.models import (LinearArch, LogisticArch, ModelState, grad_input_batch,
                              predict_batch)
from duallearn.oracle import EnumerableProblem

TOY_BOUND = 4.0


def row_loss(loss: LossSpec, prediction, label) -> float:
    """`loss_values` of one (prediction vector, label) row."""
    P = np.asarray(prediction, dtype=float).reshape(1, -1)
    return float(loss_values(loss, P, np.asarray([label]))[0])


def dataset_risk(loss: LossSpec, predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean loss over precomputed predictions, in deterministic reduction order."""
    vals = loss_values(loss, predictions, labels)
    return float(vals.sum()) / vals.shape[0]


def record_forwards(monkeypatch, mod, record) -> None:
    """Call `record(X)` on every feature array that module `mod` forwards:
    through `predict_batch`, and in `robust` also through the stacked
    forward `models._forward` (which `models.predict_batch` itself calls)."""
    names = ("predict_batch", "_forward") if mod.__name__ == "duallearn.robust" else (
        "predict_batch",)
    for name in names:
        forward = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda m, X, forward=forward: record(X) or forward(m, X))


def row_predict(model: ModelState, x) -> np.ndarray:
    """`predict_batch` of one feature vector."""
    return predict_batch(model, np.asarray(x, dtype=float)[None, :])[0]


def row_grad_input(model: ModelState, loss: LossSpec, x, label) -> np.ndarray:
    """`grad_input_batch` of one (feature vector, label) row."""
    return grad_input_batch(model, loss, np.asarray(x, dtype=float)[None, :],
                            np.asarray([label]))[0]

def closed_form_pass(model: ModelState, X: np.ndarray, G: np.ndarray):
    """(predictions on X, which may be a (..., N, d) stack; parameter gradient
    and input gradients of the upstream (N, k) matrix G on a 2-D X) of a
    linear or logistic model, written out the way each was computed before
    both became one-layer networks: the reference their bits are held to."""
    arch = model.arch
    if isinstance(arch, LogisticArch):
        w, b = model.params[:-1], model.params[-1]
        P = stable_sigmoid(X @ w + b)[..., None]
        if X.ndim != 2:
            return P, None, None
        p = P[:, 0]
        ds = G[:, 0] * p * (1.0 - p)
        return P, np.concatenate([ds @ X, [ds.sum()]]), ds[:, None] * w[None, :]
    w_end = arch.out_dim * arch.in_dim
    W = model.params[:w_end].reshape(arch.out_dim, arch.in_dim)
    b = model.params[w_end:] if arch.bias else np.zeros(arch.out_dim)
    P = X @ W.T + b
    if X.ndim != 2:
        return P, None, None
    parts = [(G.T @ X).ravel()] + ([G.sum(axis=0)] if arch.bias else [])
    return P, np.concatenate(parts), G @ W


# Hand-derived before implementation: objective (1/N) sum (theta - y_n)^2 over
# labels with mean 1.0, one constraint theta <= 0.5 via a unit-score dataset.
# Unconstrained argmin is theta = 1, so the constraint is active:
#   theta* = 0.5, mu* = 2 (1 - 0.5) = 1, P* = 0.25 + var(y).
TOY_LABELS = np.array([0.8, 1.2, 1.0, 1.0, 0.9, 1.1, 0.95, 1.05])
TOY_THRESHOLD = 0.5
TOY_ARCH = LinearArch(in_dim=1, out_dim=1, bias=False)


def toy_var() -> float:
    return float(((TOY_LABELS - 1.0) ** 2).mean())


def toy_analytic():
    """(theta*, mu*, P*) of the constrained least-squares toy."""
    return 0.5, 1.0, 0.25 + toy_var()


def convex_toy() -> Problem:
    obj_ds = Dataset(features=np.ones((len(TOY_LABELS), 1)), labels=TOY_LABELS,
                     name="toy-objective")
    con_ds = Dataset(features=np.ones((4, 1)), labels=np.ones(4, dtype=np.int64),
                     name="toy-constraint")
    return Problem(
        objective_loss=LossSpec(kind="squared", bound_B=TOY_BOUND),
        objective_dataset=obj_ds,
        constraints=(ConstraintSpec(
            loss=LossSpec(kind="signed-score", bound_B=TOY_BOUND),
            threshold_c=TOY_THRESHOLD, dataset=con_ds, name="score-cap"),),
        name="convex-toy",
    )


def toy_candidates(lo: float = -1.0, hi: float = 2.0, points: int = 601):
    grid = np.linspace(lo, hi, points)
    return tuple(ModelState(np.array([t]), TOY_ARCH) for t in grid)


def random_enumerable(rng: np.random.Generator, n_candidates=None, m=None,
                      loss_pool=("absolute", "signed-score", "zero-one",
                                 "rate-indicator")) -> EnumerableProblem:
    """Random small instance: linear candidates, random datasets/thresholds."""
    d = int(rng.integers(1, 4))
    n_candidates = n_candidates or int(rng.integers(2, 6))
    m = m if m is not None else int(rng.integers(1, 4))
    arch = LinearArch(in_dim=d, out_dim=1, bias=False)
    B = 4.0

    def random_dataset(name):
        n = int(rng.integers(3, 9))
        X = rng.uniform(-1, 1, size=(n, d))
        y = rng.choice([-1, 1], size=n)
        return Dataset(features=X, labels=y, name=name)

    def random_loss():
        kind = str(rng.choice(list(loss_pool)))
        return LossSpec(kind=kind, bound_B=B if kind not in ("zero-one", "rate-indicator") else 1.0,
                        rate_shift=0.0)

    constraints = tuple(
        ConstraintSpec(loss=random_loss(),
                       threshold_c=float(rng.uniform(-0.5, 1.0)),
                       dataset=random_dataset(f"c{i}"), name=f"c{i}")
        for i in range(m)
    )
    problem = Problem(objective_loss=LossSpec(kind="absolute", bound_B=B),
                      objective_dataset=random_dataset("obj"),
                      constraints=constraints)
    candidates = tuple(ModelState(rng.uniform(-1.5, 1.5, size=d), arch)
                       for _ in range(n_candidates))
    return EnumerableProblem(problem=problem, candidates=candidates)


def random_layout_problem(rng: np.random.Generator, m: int, references: bool) -> Problem:
    """Random problem with m differentiable constraints over 3 features. Each
    set is a table of its own or a view of the objective's table, and with
    `references` each constraint has a reference with probability 2/3."""
    def table(name):
        n = int(rng.integers(4, 25))
        return Dataset(features=rng.uniform(-1, 1, size=(n, 3)), labels=rng.choice([-1, 1], n),
                       name=name)

    base = table("base")

    def dataset(name):
        if rng.random() < 0.5:
            return table(name)
        n = int(rng.integers(1, len(base) + 1))
        return base.subset(rng.choice(len(base), size=n, replace=False), name=name)

    def loss():
        return LossSpec(kind=str(rng.choice(["absolute", "signed-score", "squared", "hinge"])),
                        bound_B=4.0)

    constraints = []
    for i in range(m):
        reference = (ReferenceTerm(loss=loss(), dataset=dataset(f"r{i}"))
                     if references and rng.random() < 2 / 3 else None)
        constraints.append(ConstraintSpec(loss=loss(), threshold_c=float(rng.uniform(-0.5, 1.0)),
                                          dataset=dataset(f"c{i}"), reference=reference,
                                          name=f"c{i}"))
    return Problem(objective_loss=loss(), objective_dataset=base, constraints=tuple(constraints))


def random_mu(rng: np.random.Generator, m: int) -> np.ndarray:
    """Multipliers in [0, 2), each zero with probability 2/5."""
    mu = rng.uniform(0.0, 2.0, size=m)
    mu[rng.random(m) < 0.4] = 0.0
    return mu


def bits(x) -> list[int]:
    """The float64 bit patterns of `x`, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def two_division_sigmoid(x):
    """`stable_sigmoid` as it was written with one division per branch: the
    reference its one-division form is held to, bit for bit."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def column_store_ce_grads(loss: LossSpec, predictions, labels) -> np.ndarray:
    """The scalar cross-entropy prediction gradient as it was written (labels
    cast to float and compared twice, a sign per row, the column stored into
    zeros): the reference `loss_pred_grads` is held to, bit for bit."""
    p = np.asarray(predictions, dtype=float)
    yi = np.asarray(labels).astype(float)
    lo, hi = loss.clamp_p_min, 1.0 - loss.clamp_p_min
    p_true = np.where(yi == 1.0, p[:, 0], 1.0 - p[:, 0])
    inside = (p_true >= lo) & (p_true <= hi)
    sign = np.where(yi == 1.0, 1.0, -1.0)
    grads = np.zeros_like(p)
    grads[:, 0] = np.where(inside, -sign / np.where(inside, p_true, 1.0), 0.0)
    return grads


def float_label_ce_values(loss: LossSpec, predictions, labels) -> np.ndarray:
    """The scalar cross-entropy loss values as they were written (labels cast
    to float and compared three times): the reference `loss_values` is held
    to, bit for bit and error for error."""
    p = np.asarray(predictions, dtype=float)
    yi = np.asarray(labels).astype(float)
    if not ((yi == 0.0) | (yi == 1.0)).all():
        raise InputError("scalar cross-entropy predictions need {0, 1} labels")
    lo, hi = loss.clamp_p_min, 1.0 - loss.clamp_p_min
    p_true = np.where(yi == 1.0, p[:, 0], 1.0 - p[:, 0])
    return -np.log(np.minimum(np.maximum(p_true, lo), hi))


class SeedingCounter:
    """Counts the generators (`np.random.default_rng`) and seed sequences
    (`np.random.SeedSequence`) built while it is installed, and the children
    spawned from those sequences."""

    def __init__(self, monkeypatch) -> None:
        self.generators = 0
        self.sequences: list[np.random.SeedSequence] = []
        default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

        def counting_rng(*args, **kwargs):
            self.generators += 1
            return default_rng(*args, **kwargs)

        def counting_sequence(*args, **kwargs):
            self.sequences.append(seed_sequence(*args, **kwargs))
            return self.sequences[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(np.random, "SeedSequence", counting_sequence)

    def counts(self) -> dict[str, int]:
        return {"generators": self.generators, "seed_sequences": len(self.sequences),
                "spawned": sum(seq.n_children_spawned for seq in self.sequences)}


def seed_from_spawned_children(monkeypatch, seed: int, T: int) -> list[int]:
    """Make `train`'s gradient solver draw, at its t-th call, from
    default_rng(SeedSequence(seed % 2**63).spawn(T)[t]), the generator each
    iteration was given when every child was spawned up front. Returns a
    list that holds the number of calls made so far."""
    children = np.random.SeedSequence(seed % 2 ** 63).spawn(T)
    calls = [0]
    solve = primaldual.gradient_minimize

    def spawned(dual, problem, solver, start, rng):
        child = children[calls[0]]
        calls[0] += 1
        return solve(dual, problem, solver, start, np.random.default_rng(child))

    monkeypatch.setattr(primaldual, "gradient_minimize", spawned)
    return calls


SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_modules(args=None) -> list[str]:
    """The duallearn and scipy modules loaded, in sorted order, by a fresh
    interpreter that imports duallearn and then, given `args`, runs the
    command `duallearn.cli.main(args)`, which must succeed."""
    lines = ["import json, sys", "import duallearn"]
    if args is not None:
        lines += ["from duallearn.cli import main", f"code = main({list(args)!r})",
                  "if code != 0: sys.exit(code)"]
    lines.append("print(json.dumps(sorted(name for name in sys.modules "
                 "if name.split('.')[0] in ('duallearn', 'scipy'))))")
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])

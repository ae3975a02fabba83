import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duallearn import core, models
from duallearn.cli import main
from duallearn.core import LossSpec, empirical_risk
from duallearn.data import CsvSchema, load_csv
from duallearn.errors import InputError
from duallearn.models import LogisticArch, MlpArch, ModelState, init_model, save_model
from duallearn.oracle import (ecrm_enumerate, example1_block_trials, example1_lines,
                              example1_problem, example1_trials)
from duallearn.primaldual import TrainTrace, load_trace, save_trace

from fixtures.bounds_reference import ref_gap_estimate, ref_multiplier_bound, ref_zeta_vc
from helpers import loaded_modules, seed_from_spawned_children

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def derived_config(tmp_path, shipped, edit):
    """A shipped config with absolute dataset paths, changed in place by `edit`."""
    cfg = json.loads((CONFIGS / shipped).read_text())
    for spec in cfg["problem"]["datasets"].values():
        if "path" in spec:
            spec["path"] = str((CONFIGS / spec["path"]).resolve())
    edit(cfg)
    path = tmp_path / f"edited_{shipped}"
    path.write_text(json.dumps(cfg))
    return path, cfg


def short_fairness(save_theta):
    def edit(cfg):
        cfg["dual"]["iterations_T"] = 3
        cfg["output"]["save_theta"] = save_theta
    return edit


def test_fairness_train_then_eval_of_the_mixture(tmp_path):
    path, cfg = derived_config(tmp_path, "fairness_train.json", short_fairness(True))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "train")]) == 0
    trace_path = tmp_path / "train" / "trace.jsonl"
    trace = load_trace(trace_path)
    assert len(trace) == 3
    thetas = np.load(tmp_path / "train" / "thetas.npy", allow_pickle=False)
    assert thetas.shape == (3, trace.arch.n_params)
    assert thetas.tobytes() == trace.thetas.tobytes()

    assert main(["eval", "--config", str(path), "--trace", str(trace_path),
                 "--out", str(tmp_path / "eval")]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["source"]["support"] == 3
    assert [c["name"] for c in summary["constraints"]] == ["rate-A", "rate-B", "rate-C", "rate-D"]
    spec = cfg["problem"]["datasets"]["train"]
    ds, _ = load_csv(spec["path"], CsvSchema(label_column=spec["label_column"],
                                             feature_columns=tuple(spec["feature_columns"]),
                                             group_column=spec["group_column"]))
    risks = [empirical_risk(ModelState(theta, trace.arch), LossSpec.cross_entropy(), ds)
             for theta in trace.thetas]
    assert summary["objective_risk"] == pytest.approx(float(np.mean(risks)), rel=1e-12)


def test_eval_of_a_trace_without_snapshots_names_save_theta(tmp_path, capsys):
    path, _ = derived_config(tmp_path, "fairness_train.json", short_fairness(False))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "train")]) == 0
    code = main(["eval", "--config", str(path), "--trace",
                 str(tmp_path / "train" / "trace.jsonl"), "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no theta snapshots" in err and "output.save_theta" in err
    assert "strided" not in err


@pytest.mark.parametrize("section, key, value", [
    ("dual", "variant", "alternating"),
    ("dual", "adam_step", 0.002),
    ("inner", "target_rho", 0.0),
    ("dual", "snapshot_stride", 1),
    ("problem.objective.loss", "lipschitz_M", 1.0),
    ("attack", "kind", "fgsm"),
    ("inner", "method", "gradient"),
    ("inner", "optimizer", "adam"),
    ("inner", "warm_start", True),
    ("", "surrogate", {"slope_a": 8.0, "shift": 0.5}),
    ("problem.constraints[0]", "surrogate", {"slope_a": 8.0, "shift": 0.5}),
])
def test_removed_keys_are_rejected_with_their_path(tmp_path, capsys, section, key, value):
    shipped = "robust_train.json" if section == "attack" else "fairness_train.json"
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", section)]
    path, _ = derived_config(tmp_path, shipped, set_key([*keys, key], value))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    name = f"{section}.{key}" if section else key
    assert f"unknown config key {name}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_clean_rows_outside_the_attack_box_are_an_input_error(tmp_path, capsys):
    def edit(cfg):
        cfg["attack"].update(clamp_lo=-1.0, clamp_hi=1.0)
        cfg["dual"]["iterations_T"] = 1
    path, _ = derived_config(tmp_path, "robust_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error in duallearn.robust:")
    assert "clamp_box [-1.0, 1.0]" in err


@pytest.mark.parametrize("key, value", [
    ("steps", 50), ("step_size", 0.1), ("restarts", 7),
])
def test_attack_preset_refuses_the_keys_it_sets(tmp_path, capsys, key, value):
    def edit(cfg):
        cfg["attack"][key] = value
    path, _ = derived_config(tmp_path, "robust_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"attack.{key} cannot be combined with attack.preset 'pgd-training'" in err
    assert not (tmp_path / "run" / "trace.jsonl").exists()


@pytest.mark.parametrize("key", ["clamp_lo", "clamp_hi"])
def test_attack_clamp_box_needs_both_bounds(tmp_path, capsys, key):
    def edit(cfg):
        cfg["attack"][key] = 6.0 if key == "clamp_hi" else -6.0
    path, _ = derived_config(tmp_path, "robust_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "attack.clamp_lo and attack.clamp_hi must be given together" in err
    assert "Traceback" not in err and "KeyError" not in err


@pytest.mark.parametrize("shipped, path, value, key", [
    ("fairness_train.json", ["problem", "constraints", 0, "loss", "rate_shift"], math.nan,
     "problem.constraints[0].loss.rate_shift"),
    ("fairness_train.json", ["problem", "constraints", 1, "loss", "rate_shift"], -math.inf,
     "problem.constraints[1].loss.rate_shift"),
    ("fairness_train.json", ["problem", "constraints", 0, "loss", "rate_slope"], math.nan,
     "problem.constraints[0].loss.rate_slope"),
    ("robust_train.json", ["attack", "step_size"], math.nan, "attack.step_size"),
    ("fairness_train.json", ["inner", "step_size"], math.inf, "inner.step_size"),
])
def test_a_number_that_is_not_finite_is_refused(tmp_path, capsys, shipped, path, value, key):
    """JSON's NaN and Infinity parse as floats; every number key refuses them."""
    def edit(cfg):
        if path[0] == "attack":  # the preset sets step_size, so spell the schedule out
            cfg["attack"] = {"epsilon": 0.8, "steps": 5, "step_size": 0.2, "seed": 0}
        set_key(path, value)(cfg)
    config, _ = derived_config(tmp_path, shipped, edit)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"config key {key} must be a finite number, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_bounds_report_the_delta_their_zeta_was_computed_with(tmp_path):
    computed = {"B": 1.0, "xi": 0.1, "N": 1000, "d_vc": 10.0, "M": 1.0, "nu": 0.01}
    declared = {"zetas": [0.2], "B": 1.0, "xi": 0.1, "M": 1.0, "nu": 0.01}
    for name, bounds, delta in (("computed", computed, 0.05),
                                ("computed-at-0.1", {**computed, "delta": 0.1}, 0.1),
                                ("declared", declared, None),
                                ("declared-at-0.1", {**declared, "delta": 0.1}, 0.1)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"bounds": bounds}))
        assert main(["bounds", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        report = json.loads((tmp_path / name / "summary.json").read_text())["report"]
        assert report["delta"] == delta, name
        if "d_vc" in bounds:
            assert report["zeta_per_constraint"] == [
                pytest.approx(ref_zeta_vc(1000, 10.0, delta, 1.0), rel=1e-12)]


def test_bounds_fixture_matches_the_reference_formulas(tmp_path):
    assert main(["bounds", "--config", str(CONFIGS / "bounds_fixture.json"),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    b = json.loads((CONFIGS / "bounds_fixture.json").read_text())["bounds"]
    zeta = ref_zeta_vc(b["N"], b["d_vc"], b["delta"], b["B"])
    cap = ref_multiplier_bound(b["B"], b["xi"])
    report = summary["report"]
    assert summary["Delta_cap"] == pytest.approx(cap, rel=1e-12)
    assert (summary["zeta_source"], summary["Delta_source"]) == ("vc", "capped-by-B/xi")
    assert report["zeta_per_constraint"] == [pytest.approx(zeta, rel=1e-12)]
    assert report["Delta"] == pytest.approx(cap, rel=1e-12)
    assert report["gap_estimate"] == pytest.approx(
        ref_gap_estimate([zeta], cap, b["M"], b["nu"]), rel=1e-12)


def short_run(cfg):
    cfg["dual"]["iterations_T"] = 3


@pytest.mark.parametrize("shipped", ["fairness_train.json", "robust_train.json"])
def test_training_from_the_echo_reproduces_the_run(tmp_path, shipped):
    path, _ = derived_config(tmp_path, shipped, short_run)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", "--config", str(path), "--out", str(first)]) == 0
    assert main(["train", "--config", str(first / "config_echo.json"),
                 "--out", str(second)]) == 0
    for name in ("trace.jsonl", "summary.json", "config_echo.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def set_key(path, value):
    """An edit that sets the key at `path` (a list of keys and indices)."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("shipped, edit, message", [
    # a key of a variant other than the one selected
    ("fairness_train.json", set_key(["model", "widths"], [6, 1]),
     "unknown config key model.widths"),
    ("fairness_train.json", set_key(["model", "bias"], True), "unknown config key model.bias"),
    ("fairness_train.json", set_key(["inner", "grid_lo"], [0.0]),
     "unknown config key inner.grid_lo"),
    ("robust_train.json", set_key(["problem", "datasets", "synth", "path"], "x.csv"),
     "unknown config key problem.datasets.synth.path"),
    ("fairness_train.json", set_key(["problem", "datasets", "train", "dim"], 6),
     "unknown config key problem.datasets.train.dim"),
    # a LossSpec field that the loss kind does not read
    ("robust_train.json", set_key(["problem", "objective", "loss", "rate_slope"], 0.1),
     "unknown config key problem.objective.loss.rate_slope"),
    ("fairness_train.json", set_key(["problem", "constraints", 0, "loss", "clamp_p_min"], 1e-3),
     "unknown config key problem.constraints[0].loss.clamp_p_min"),
    # an unknown kind is named before any key it would not read
    ("fairness_train.json", set_key(["problem", "objective", "loss"],
                                    {"kind": "bogus", "rate_slope": 2.0}),
     "problem.objective.loss.kind: unknown loss kind 'bogus'"),
    ("robust_train.json", set_key(["problem", "objective", "loss"],
                                  {"kind": "hinge", "bound_B": 1.0}),
     "problem.objective.loss.kind: unknown loss kind 'hinge'"),
    # an objective that the gradient steps cannot minimize
    ("robust_train.json", set_key(["problem", "objective", "loss"],
                                  {"kind": "zero-one", "bound_B": 1.0}),
     "problem.objective.loss.kind: loss kind 'zero-one' has no gradient"),
    ("fairness_train.json", set_key(["problem", "objective", "loss"],
                                    {"kind": "rate-indicator", "bound_B": 1.0}),
     "problem.objective.loss.kind: loss kind 'rate-indicator' has no gradient"),
    # null where the key takes none
    ("fairness_train.json", set_key(["inner", "epochs"], None), "config key inner.epochs"),
    ("fairness_train.json", set_key(["dual", "method"], None), "config key dual.method"),
    ("fairness_train.json", set_key(["problem", "objective", "loss", "clamp_p_min"], None),
     "config key problem.objective.loss.clamp_p_min"),
    ("robust_train.json", set_key(["attack", "seed"], None), "config key attack.seed"),
    ("fairness_train.json", set_key(["problem", "constraints", 0, "name"], None),
     "config key problem.constraints[0].name"),
    ("fairness_train.json", set_key(["model", "init_seed"], None), "config key model.init_seed"),
    # a negative init seed, whichever model would read it
    ("fairness_train.json", set_key(["model", "init_seed"], -1),
     "model.init_seed must be >= 0, got -1"),
    # a negative attack seed, whichever model would read it
    ("robust_train.json", set_key(["attack", "seed"], -3), "attack.seed must be >= 0, got -3"),
    ("robust_train.json", lambda cfg: pgd_mlp(cfg, {"seed": -3}),
     "attack.seed must be >= 0, got -3"),
    # a float for an int key, a bool for a number key
    ("fairness_train.json", set_key(["inner", "epochs"], 1.0),
     "config key inner.epochs must be an integer, got float"),
    ("fairness_train.json", set_key(["dual", "step_eta"], True),
     "config key dual.step_eta must be a number, got bool"),
])
def test_the_derived_schema_refuses(tmp_path, capsys, shipped, edit, message):
    path, _ = derived_config(tmp_path, shipped, edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def pgd_mlp(cfg, attack):
    """The robust config shortened, with a (2, 4, 1) sigmoid MLP attacked by
    the pgd-evaluation preset, plus the keys in `attack`."""
    cfg["problem"]["datasets"]["synth"]["n"] = 60
    cfg["dual"]["iterations_T"] = 2
    cfg["model"] = {"arch": "mlp", "widths": [2, 4, 1], "output": "sigmoid", "init_seed": 0}
    cfg["attack"] = {"preset": "pgd-evaluation", "epsilon": 0.8, **attack}


@pytest.mark.parametrize("run_seed, attack_seed", [(-2, 2 ** 63 - 2), (5, 5)])
def test_an_inherited_attack_seed_is_derived_like_the_entropy(tmp_path, run_seed, attack_seed):
    """A run seed, negative too, gives the PGD restarts the seed `train`
    derives its entropy from (the run seed modulo 2**63)."""
    path, _ = derived_config(tmp_path, "robust_train.json", lambda cfg: pgd_mlp(cfg, {}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--seed", str(run_seed), "--out", str(out)]) == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["seed"] == run_seed and echo["attack"]["seed"] == attack_seed


@pytest.mark.parametrize("run_seed, init_seed", [(-2, 2 ** 63 - 2), (5, 5)])
def test_an_inherited_init_seed_is_derived_like_the_entropy(tmp_path, run_seed, init_seed):
    """An MLP without model.init_seed is initialised from the run seed
    modulo 2**63, negative run seeds too, as it would be from that seed
    given as its init_seed; the echo holds the derived seed."""
    def mlp(**model):
        def edit(cfg):
            pgd_mlp(cfg, {})
            del cfg["model"]["init_seed"]
            cfg["model"].update(model)
        return edit

    inherited, given = tmp_path / "inherited", tmp_path / "given"
    for out, model in ((inherited, {}), (given, {"init_seed": init_seed})):
        path, _ = derived_config(tmp_path, "robust_train.json", mlp(**model))
        assert main(["train", "--config", str(path), "--seed", str(run_seed),
                     "--out", str(out)]) == 0
    echo = json.loads((inherited / "config_echo.json").read_text())
    assert echo["seed"] == run_seed and echo["model"]["init_seed"] == init_seed
    for name in ("trace.jsonl", "final_model.txt", "config_echo.json"):
        assert (inherited / name).read_bytes() == (given / name).read_bytes(), name


def fairness_eval(tmp_path, *source):
    path, _ = derived_config(tmp_path, "fairness_train.json", short_run)
    return ["eval", "--config", str(path), *source, "--out", str(tmp_path / "eval")]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MODEL_HEADER = "duallearn-model 1\n"
TRACE_HEADER = {"kind": "duallearn-trace", "version": 2, "snapshots": None,
                "arch": {"kind": "logistic", "in_dim": 6}}


@pytest.mark.parametrize("flag, name, text, message", [
    ("--model", "m.txt", MODEL_HEADER, "not a duallearn model file"),
    ("--model", "m.txt", MODEL_HEADER + '{"kind": "logistic"}\n',
     "missing config key in_dim"),
    ("--model", "m.txt", MODEL_HEADER + '{"kind": "logistic", "in_dim": 6}\n' + "0.0\n" * 6
     + "one\n", "could not convert string to float"),
    ("--model", None, None, "No such file"),
    ("--trace", "t.jsonl", "kind: duallearn-trace\n", "Expecting value"),
    ("--trace", "t.jsonl", json.dumps({k: v for k, v in TRACE_HEADER.items() if k != "arch"})
     + "\n", "missing key 'arch'"),
])
def test_a_bad_model_or_trace_file_is_an_input_error_naming_it(tmp_path, capsys, flag, name,
                                                              text, message):
    path = str(tmp_path / "missing.txt") if name is None else write(tmp_path, name, text)
    assert main(fairness_eval(tmp_path, flag, path)) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert "Traceback" not in err


def saved_sources(tmp_path, thetas, arch):
    """(a model file holding row 0 of `thetas`, a trace of every row with
    its snapshot file) for `eval --model` and `eval --trace`."""
    model_path = tmp_path / "model.txt"
    save_model(ModelState(thetas[0], arch), model_path)
    T = len(thetas)
    trace = TrainTrace(objective=np.zeros(T), slacks=np.zeros((T, 1)), mu=np.zeros((T, 1)),
                       lagrangian=np.zeros(T), arch=arch, thetas=thetas)
    save_trace(trace, tmp_path / "trace.jsonl", tmp_path / "thetas.npy")
    return str(model_path), str(tmp_path / "trace.jsonl")


@pytest.mark.parametrize("shipped, preset", [("fairness_train.json", None),
                                             ("robust_train.json", "pgd-evaluation")])
def test_a_model_and_its_one_iterate_trace_evaluate_alike(tmp_path, shipped, preset):
    """`eval --model` and `eval --trace` share one mixture path: a model and
    the trace of one iterate with its parameters write the same summary,
    apart from its source."""
    def edit(cfg):
        if preset is not None:
            cfg["attack"]["preset"] = preset
    path, cfg = derived_config(tmp_path, shipped, edit)
    arch = LogisticArch(cfg["model"]["in_dim"])
    thetas = np.random.default_rng(3).normal(size=(1, arch.n_params))
    model, trace = saved_sources(tmp_path, thetas, arch)
    summaries = {}
    for flag, source in (("--model", model), ("--trace", trace)):
        out = tmp_path / flag.strip("-")
        assert main(["eval", "--config", str(path), flag, source, "--out", str(out)]) == 0
        summaries[flag] = json.loads((out / "summary.json").read_text())
    assert summaries["--model"].pop("source") == {"model": model}
    assert summaries["--trace"].pop("source") == {"trace": trace, "support": 1}
    assert summaries["--model"] == summaries["--trace"]


@pytest.mark.parametrize("flag", ["--model", "--trace"])
def test_a_model_that_does_not_fit_the_config_names_both_dimensions(tmp_path, capsys, flag):
    """The fairness model (6 features) against the robust config (2)."""
    arch = LogisticArch(6)
    sources = dict(zip(("--model", "--trace"),
                       saved_sources(tmp_path, np.zeros((2, arch.n_params)), arch)))
    path, _ = derived_config(tmp_path, "robust_train.json", short_run)
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(path), flag, sources[flag], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (f"{sources[flag]}: the model takes 6 features, but the config's problem has 2"
            in err)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--model", "--trace"])
def test_a_model_with_more_outputs_than_the_losses_take_is_refused_up_front(tmp_path, capsys,
                                                                              flag):
    """Files whose header is a two-output MLP, against the fairness config:
    every model has one output, so the header itself is refused."""
    arch = MlpArch((6, 3, 1))
    sources = dict(zip(("--model", "--trace"),
                       saved_sources(tmp_path, np.zeros((2, arch.n_params)), arch)))
    for path in map(Path, sources.values()):
        path.write_text(path.read_text().replace('"widths": [6, 3, 1]', '"widths": [6, 3, 2]'))
    assert main(fairness_eval(tmp_path, flag, sources[flag])) == 1
    err = capsys.readouterr().err
    assert (f"{sources[flag]}: mlp widths must end in 1 (every model has one output), "
            "got (6, 3, 2)" in err)
    assert "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("model, message", [
    ({"arch": "linear", "in_dim": 5},
     "model.in_dim: the model takes 5 features, but the config's problem has 6"),
    ({"arch": "mlp", "widths": [6, 3, 2]},
     "mlp widths must end in 1 (every model has one output), got (6, 3, 2)"),
], ids=["in_dim", "mlp-widths"])
def test_train_refuses_a_model_that_does_not_fit_before_writing(tmp_path, capsys, model,
                                                                message):
    """A config whose model the problem cannot take is a config error naming
    the model key, and nothing is written."""
    def edit(cfg):
        cfg["dual"]["iterations_T"] = 3
        cfg["model"] = model
    path, _ = derived_config(tmp_path, "fairness_train.json", edit)
    out = tmp_path / "train"
    out.mkdir()
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_robust_train_checks_its_sets_and_weighs_its_terms_a_fixed_number_of_times(
        tmp_path, monkeypatch):
    """A robust `train` builds checked datasets a fixed number of times,
    whatever its numbers of steps and iterations, lays out the term weights
    once per inner-solver call, not once per step, and evaluates only the
    iterates it scores: the initial model and each epoch's last iterate.
    Its loss gradients cover exactly the rows of the step batches (the
    objective's epoch, and batch_size drawn rows a step for the attacked
    set once its multiplier is positive), never a whole table."""
    import duallearn.lagrangian as lagrangian
    import duallearn.primaldual as primaldual
    from duallearn.core import Dataset, Problem

    counts = {}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    weighted, grad_rows = [], []
    solve, pred_grads = primaldual.gradient_minimize, core.loss_pred_grads
    monkeypatch.setattr(Dataset, "__post_init__", counted("checked sets", Dataset.__post_init__))
    monkeypatch.setattr(Problem, "weights", counted("weights", Problem.weights))
    monkeypatch.setattr(models.Evaluation, "__init__",
                        counted("evaluations", models.Evaluation.__init__))
    monkeypatch.setattr(primaldual, "gradient_minimize",
                        lambda dual, *a: weighted.append(dual.mu[0] > 0.0) or solve(dual, *a))
    for mod in (models, lagrangian):
        monkeypatch.setattr(mod, "loss_pred_grads",
                            lambda loss, P, y: grad_rows.append(len(y)) or pred_grads(loss, P, y))
    checked = []
    for T, batch_size in ((2, 128), (5, 128), (3, 32)):  # 16 or 63 steps per iteration
        def edit(cfg):
            cfg["dual"]["iterations_T"] = T
            cfg["inner"]["batch_size"] = batch_size
        path, _ = derived_config(tmp_path, "robust_train.json", edit)
        counts.update({"checked sets": 0, "weights": 0, "evaluations": 0})
        weighted.clear()
        grad_rows.clear()
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / f"T{T}-b{batch_size}")]) == 0
        assert len(weighted) == T
        assert counts["weights"] == T
        assert counts["evaluations"] == T + 1
        steps = -(-2000 // batch_size)
        assert max(grad_rows) <= batch_size
        assert sum(grad_rows) == sum(2000 + steps * batch_size * w for w in weighted)
        checked.append(counts["checked sets"])
    assert checked == [2] * 3  # the synthetic table, then its copy under its config name
    assert any(weighted)  # the last run weighs the attacked set


def test_a_non_finite_snapshot_row_names_the_snapshot_file_and_its_iteration(tmp_path,
                                                                             capsys):
    arch = LogisticArch(6)
    thetas = np.zeros((5, arch.n_params))
    thetas[3, 2], thetas[4, 0] = np.nan, np.inf
    _, trace = saved_sources(tmp_path, thetas, arch)
    assert main(fairness_eval(tmp_path, "--trace", trace)) == 1
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'thetas.npy'}: iteration 3: model parameters must be finite"
            in err)
    assert "Traceback" not in err


def test_a_missing_csv_file_is_an_input_error_naming_it(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    path, _ = derived_config(tmp_path, "fairness_train.json",
                             set_key(["problem", "datasets", "train", "path"], missing))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{missing}: cannot open the dataset" in err
    assert "Traceback" not in err


def test_a_csv_file_of_random_bytes_is_an_input_error_naming_the_offset(tmp_path, capsys):
    noise = tmp_path / "noise.csv"
    data = np.random.default_rng(0).integers(0, 256, 100, dtype=np.uint8).tobytes()
    noise.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        offset = err.start
    path, _ = derived_config(tmp_path, "fairness_train.json",
                             set_key(["problem", "datasets", "train", "path"], str(noise)))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"{noise}: not UTF-8 text: byte 0x{data[offset]:02x} at byte offset {offset}" in err
    assert "Traceback" not in err


def test_the_echo_of_a_relative_config_trains_from_any_working_directory(tmp_path,
                                                                          monkeypatch):
    """A relative --config whose csv path is relative to it, from another
    directory: the echo names the csv by its absolute path."""
    csv = (CONFIGS / json.loads((CONFIGS / "fairness_train.json").read_text())
           ["problem"]["datasets"]["train"]["path"])
    cfg_dir, cwd = tmp_path / "configs", tmp_path / "work"
    cfg_dir.mkdir()
    cwd.mkdir()
    cfg = json.loads((CONFIGS / "fairness_train.json").read_text())
    cfg["problem"]["datasets"]["train"]["path"] = os.path.relpath(csv, cfg_dir)
    short_run(cfg)
    (cfg_dir / "fairness.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(cwd)
    assert main(["train", "--config", "../configs/fairness.json", "--out", "first"]) == 0
    echoed = json.loads(Path("first/config_echo.json").read_text())
    assert echoed["problem"]["datasets"]["train"]["path"] == os.path.abspath(csv)
    assert echoed["model"] == {"arch": "logistic", "in_dim": 6, "init_seed": 1}
    assert echoed["inner"] == {"epochs": 1, "batch_size": None, "step_size": 0.05}
    # each loss echoes the fields its kind reads, and no other
    assert set(echoed["problem"]["objective"]["loss"]) == {"kind", "clamp_p_min", "bound_B"}
    assert set(echoed["problem"]["constraints"][0]["loss"]) == {"kind", "bound_B", "rate_shift",
                                                                 "rate_slope"}
    assert "projection_order" not in json.dumps(echoed)
    assert main(["train", "--config", "first/config_echo.json", "--out", "second"]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", "work/second/config_echo.json", "--out", "third"]) == 0
    for name in ("trace.jsonl", "summary.json", "config_echo.json"):
        first = (cwd / "first" / name).read_bytes()
        assert first == (cwd / "second" / name).read_bytes(), name
        assert first == (tmp_path / "third" / name).read_bytes(), name


def test_a_csv_dataset_without_a_path_names_the_key(tmp_path, capsys):
    def edit(cfg):
        del cfg["problem"]["datasets"]["train"]["path"]
    path, _ = derived_config(tmp_path, "fairness_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "missing config key problem.datasets.train.path" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, config", [
    ("eval", "fairness_train.json"),  # neither --model nor --trace
    ("bounds", None),  # no Delta, and no B and xi to cap it
])
def test_a_refused_command_makes_no_run_directory(tmp_path, capsys, command, config):
    if config is None:
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({"bounds": {"zetas": [0.2], "M": 1.0, "nu": 0.01}}))
    else:
        path, _ = derived_config(tmp_path, config, short_run)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def benchmark_command_modules(tmp_path_factory):
    """{command: the modules `loaded_modules` reports for it} for the five
    commands the benchmark workloads run, cut to one iteration or trial:
    train and eval of a trace's mixture on the fairness config, train and
    eval of its model under the pgd-evaluation attack on the robust config,
    and example1."""
    tmp_path = tmp_path_factory.mktemp("commands")

    def one_iteration(save_theta, preset=None):
        def edit(cfg):
            cfg["dual"]["iterations_T"] = 1
            cfg["output"]["save_theta"] = save_theta
            if preset is not None:
                cfg["attack"]["preset"] = preset
        return edit

    fair, _ = derived_config(tmp_path, "fairness_train.json", one_iteration(True))
    robust, _ = derived_config(tmp_path, "robust_train.json",
                               one_iteration(False, "pgd-evaluation"))
    commands = {
        "fairness train": ["train", "--config", str(fair), "--out", str(tmp_path / "train")],
        "fairness eval --trace": ["eval", "--config", str(fair), "--trace",
                                  str(tmp_path / "train" / "trace.jsonl"),
                                  "--out", str(tmp_path / "eval_trace")],
        "robust train": ["train", "--config", str(robust), "--out", str(tmp_path / "robust")],
        "robust eval --model": ["eval", "--config", str(robust), "--model",
                                str(tmp_path / "robust" / "final_model.txt"),
                                "--out", str(tmp_path / "eval_pgd")],
        "example1": ["example1", "--n", "10", "--trials", "1",
                     "--out", str(tmp_path / "example1")],
    }
    return {command: loaded_modules(args) for command, args in commands.items()}


def test_the_commands_never_import_scipy(benchmark_command_modules):
    """Only the oracle's dual LP uses scipy, and it imports it when called:
    importing it takes longer than a whole one-iteration run takes to set up.
    Covers every command a benchmark workload runs: train, eval of a trace's
    mixture, eval of a model under the pgd-evaluation attack, and example1."""
    for command, modules in benchmark_command_modules.items():
        assert [name for name in modules if name.split(".")[0] == "scipy"] == [], command


def test_each_command_loads_only_the_modules_it_runs(benchmark_command_modules):
    """A command imports its modules where it runs them, and the robust
    ones only for a config with an attack section."""
    common = ["duallearn", "duallearn.cli", "duallearn.config", "duallearn.core",
              "duallearn.errors", "duallearn.models"]
    train = sorted([*common, "duallearn.data", "duallearn.lagrangian", "duallearn.primaldual"])
    assert benchmark_command_modules == {
        "fairness train": train,
        "fairness eval --trace": train,
        "robust train": sorted([*train, "duallearn.robust"]),
        "robust eval --model": sorted([*train, "duallearn.robust"]),
        "example1": sorted([*common, "duallearn.oracle"]),
    }


@pytest.mark.parametrize("config", ["shipped", "missing"])
@pytest.mark.parametrize("source", [[], ["--model", "m.txt", "--trace", "t.jsonl"]])
def test_eval_refuses_its_source_flags_before_reading_the_config(tmp_path, capsys,
                                                                 monkeypatch, config, source):
    """Neither or both of --model and --trace is a usage error, reported
    before the config is read: no csv is loaded, and a missing config is
    not what is reported."""
    import duallearn.data as data

    loaded = []
    monkeypatch.setattr(data, "load_csv", lambda *a: loaded.append(a))
    path = (derived_config(tmp_path, "fairness_train.json", short_run)[0]
            if config == "shipped" else tmp_path / "missing.json")
    assert main(["eval", "--config", str(path), *source, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error: eval needs exactly one of --model or --trace" in err
    assert "Traceback" not in err
    assert loaded == []
    assert not (tmp_path / "run").exists()


def minibatch(shipped_batch_size):
    def edit(cfg):
        cfg["dual"]["iterations_T"] = 12
        if shipped_batch_size is None:
            cfg["inner"]["batch_size"] = 64
        assert cfg["inner"]["batch_size"] is not None
    return edit


@pytest.mark.parametrize("shipped, edit", [("robust_train.json", minibatch(128)),
                                           ("fairness_train.json", minibatch(None))])
def test_a_minibatch_run_draws_from_the_spawned_children(tmp_path, monkeypatch, shipped, edit):
    """Each iteration's generator is built when it draws; the trace has the
    bytes of a run that spawned every iteration's seed up front."""
    path, cfg = derived_config(tmp_path, shipped, edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "lazy")]) == 0
    calls = seed_from_spawned_children(monkeypatch, cfg["seed"], cfg["dual"]["iterations_T"])
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "spawned")]) == 0
    assert calls == [12]
    lazy, spawned = (tmp_path / run / "trace.jsonl" for run in ("lazy", "spawned"))
    assert lazy.read_bytes() == spawned.read_bytes()


@pytest.mark.parametrize("method", ["projected-ascent", "projected-adam"])
def test_a_problem_without_constraints_trains_and_evaluates(tmp_path, method):
    def edit(cfg):
        cfg["problem"]["constraints"] = []
        cfg["dual"].update(iterations_T=4, method=method)
    path, _ = derived_config(tmp_path, "fairness_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "train")]) == 0
    summary = json.loads((tmp_path / "train" / "summary.json").read_text())
    assert summary["final_slacks"] == [] and summary["final_mu"] == []
    assert summary["feasible_at_end"] is True and summary["constraint_names"] == []
    assert summary["final_lagrangian"] == summary["final_objective"]
    trace = load_trace(tmp_path / "train" / "trace.jsonl")
    assert trace.slacks.shape == trace.mu.shape == (4, 0)
    assert trace.lagrangian.tolist() == trace.objective.tolist()

    assert main(["eval", "--config", str(path), "--model",
                 str(tmp_path / "train" / "final_model.txt"),
                 "--out", str(tmp_path / "eval")]) == 0
    metrics = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert metrics["constraints"] == [] and metrics["max_slack"] is None
    assert metrics["objective_risk"] == summary["final_objective"]


def test_parallel_example1_trials_write_the_serial_bytes(tmp_path):
    # three jobs per N, 512 + 512 + 76 trials, drawn through slabs of 512
    # trials (N = 1 and 10) and of 8 (N = 1000)
    args = ["example1", "--n", "1,10,1000", "--trials", "1100", "--seed", "9"]
    assert main([*args, "--out", str(tmp_path / "serial")]) == 0
    assert main([*args, "--parallel-trials", "2", "--out", str(tmp_path / "parallel")]) == 0
    for name in ("trials.jsonl", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "parallel" / name).read_bytes(), name


def example1_all_at_once(ns, trials, seed):
    """The (trials.jsonl, summary.json) bytes of `example1` as it was written:
    every record of every N held, encoded and joined, then counted per N."""
    seeds = range(seed, seed + trials)
    records = [r for n in ns for r in example1_trials(n, seeds)]
    lines = [json.dumps(r, sort_keys=True) for r in records]
    summary = {"command": "example1", "trials": trials, "seed": seed, "per_N": {}}
    for n in ns:
        sub = [r for r in records if r["N"] == n]
        summary["per_N"][str(n)] = {
            "trials": len(sub),
            "fraction_population_J_doubled":
                sum(1 for r in sub if r["population_J"] == 0.125) / len(sub),
            "infeasible": sum(1 for r in sub if not r["feasible"]),
        }
    return ("\n".join(lines) + "\n").encode(), \
        (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("ns, trials", [
    ((1, 10, 1000), 1700),  # 1700 = 3 * 512 + 164 at every N, slabs of 8 at N=1000
    ((10, 9000), 5),        # N=9000 draws slabs of one trial
    ((100,), 200),          # a single N and a single block: slabs of 81 + 81 + 38
    ((1,), 8200),           # 16 full blocks of 512 and a short one of 8
])
def test_streamed_example1_writes_the_all_at_once_bytes(tmp_path, monkeypatch, ns, trials):
    import duallearn.oracle as oracle

    calls = []

    def recorded(n, seeds):
        for block in example1_lines(n, seeds):
            calls.append((n, len(block[1])))
            yield block

    want_trials, want_summary = example1_all_at_once(ns, trials, 3)
    monkeypatch.setattr(oracle, "example1_lines", recorded)
    args = ["example1", "--n", ",".join(map(str, ns)), "--trials", str(trials), "--seed", "3"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trials.jsonl").read_bytes() == want_trials
    assert (tmp_path / "summary.json").read_bytes() == want_summary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json", "trials.jsonl"]
    # never more seeds in one call than one block holds, every seed once
    assert all(size <= example1_block_trials(n) for n, size in calls)
    assert [n for n, _ in calls] == sorted((n for n, _ in calls), key=ns.index)
    assert {n: sum(size for m, size in calls if m == n) for n in ns} == dict.fromkeys(ns, trials)


def test_example1_builds_one_generator_per_block(tmp_path, monkeypatch):
    built = []

    def counted(make):
        def build(*args, **kwargs):
            built.append(make)
            return make(*args, **kwargs)
        return build

    for name in ("PCG64", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
    ns, trials = (10, 100, 1000), 4000
    assert main(["example1", "--n", ",".join(map(str, ns)), "--trials", str(trials),
                 "--out", str(tmp_path)]) == 0
    blocks = sum(math.ceil(trials / example1_block_trials(n)) for n in ns)
    assert blocks == 3 * math.ceil(4000 / 512) == 24
    assert len(built) == blocks  # not one per slab (5 + 50 + 500) or per trial (12,000)


def test_example1_runs_no_forward_pass_or_loss_evaluation(tmp_path, monkeypatch):
    """The trials read their risks in closed form from the draws: no block
    forwards a candidate or evaluates a loss (forwarding both candidates over
    three tables per block made 3,330 calls of each)."""
    calls = dict.fromkeys(("predict_batch", "loss_values"), 0)

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for name, f in (("predict_batch", models.predict_batch), ("loss_values", core.loss_values)):
        # every module's binding, so no caller in the package escapes the count
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "duallearn"]:
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name, counted(name, f))
    ecrm_enumerate(example1_problem(10, 0))  # the library path is counted
    assert min(calls.values()) > 0
    calls.update(dict.fromkeys(calls, 0))
    assert main(["example1", "--n", "10,100,1000", "--trials", "4000",
                 "--out", str(tmp_path)]) == 0
    assert calls == {"predict_batch": 0, "loss_values": 0}


def test_example1_encodes_json_only_for_its_summary(tmp_path, monkeypatch):
    """Trial lines are rendered from each block's columns, not encoded record
    by record: a full run makes one JSONEncoder.encode call, for summary.json
    (encoding each record made 12,000)."""
    calls = []
    encode = json.JSONEncoder.encode

    def counted(self, obj):
        calls.append(obj)
        return encode(self, obj)

    monkeypatch.setattr(json.JSONEncoder, "encode", counted)
    json.dumps({"seed": 0}, sort_keys=True)  # the way json.dumps encodes is counted
    assert len(calls) == 1
    calls.clear()
    assert main(["example1", "--n", "10,100,1000", "--trials", "4000",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert calls[0]["command"] == "example1"
    assert (tmp_path / "summary.json").read_text() == \
        json.dumps(calls[0], sort_keys=True, indent=2) + "\n"


def test_example1_memory_does_not_grow_with_the_trial_count(tmp_path):
    """Trial lines are written block by block, so ten times the trials needs
    no more memory than one block holds. Both runs span several full blocks at
    every N (3 and 30 blocks of 512 trials), so the ratio compares runs that
    hold the same largest block.
    Each peak is taken above the memory held when its run starts, which
    neither run allocates."""
    block = example1_block_trials(10)

    def peak(trials: int) -> int:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert main(["example1", "--n", "10,1000", "--trials", str(trials),
                     "--out", str(tmp_path / str(trials))]) == 0
        return tracemalloc.get_traced_memory()[1] - held

    tracemalloc.start()
    try:
        peak(1)  # lazy one-time state
        few, many = peak(3 * block), peak(30 * block)
    finally:
        tracemalloc.stop()
    assert many <= 1.25 * few, (few, many)


def test_a_failed_example1_block_writes_nothing(tmp_path, monkeypatch, capsys):
    import duallearn.oracle as oracle

    calls = []

    def third_block_fails(n, seeds):
        for block in example1_lines(n, seeds):
            calls.append(n)
            if len(calls) == 3:
                raise InputError("block three failed")
            yield block

    monkeypatch.setattr(oracle, "example1_lines", third_block_fails)
    args = ["example1", "--n", "1000", "--trials", str(2 * example1_block_trials(1000) + 1)]
    assert main([*args, "--out", str(tmp_path / "fresh")]) == 1
    assert "block three failed" in capsys.readouterr().err
    assert list((tmp_path / "fresh").iterdir()) == []

    # a failed run leaves the outputs of an earlier run in its directory as they were
    monkeypatch.setattr(oracle, "example1_lines", example1_lines)
    assert main([*args, "--out", str(tmp_path / "rerun")]) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "rerun").iterdir()}
    calls.clear()
    monkeypatch.setattr(oracle, "example1_lines", third_block_fails)
    assert main([*args, "--seed", "5", "--out", str(tmp_path / "rerun")]) == 1
    assert {p.name: p.read_bytes() for p in (tmp_path / "rerun").iterdir()} == before


@pytest.mark.parametrize("args, message", [
    (["--n", "10,,100"], "--n must be distinct comma-separated sample sizes"),
    (["--n", "10,0"], "--n must be distinct comma-separated sample sizes"),
    (["--n", "10,100,10"], "--n must be distinct comma-separated sample sizes"),
    (["--trials", "0"], "--trials must be >= 1"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--parallel-trials", "0"], "--parallel-trials must be >= 1, got 0"),
    (["--parallel-trials", "-5"], "--parallel-trials must be >= 1, got -5"),
])
def test_bad_example1_flags_are_named(tmp_path, capsys, args, message):
    assert main(["example1", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "trials.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_grouped_dataset_is_split_once_and_its_groups_are_shared(tmp_path, monkeypatch,
                                                                  command):
    import duallearn.cli as cli
    import duallearn.data as data

    def edit(cfg):
        short_fairness(False)(cfg)
        cfg["problem"]["constraints"][1]["group"] = "A"
        cfg["problem"]["constraints"][2]["reference"] = {"dataset": "train", "group": "A"}

    path, cfg = derived_config(tmp_path, "fairness_train.json", edit)
    splits, problems = [], []
    split, build = data.group_split, cli._build_problem

    def build_and_keep(*args):
        out = build(*args)
        problems.append(out[0])
        return out

    monkeypatch.setattr(data, "group_split", lambda *a: splits.append(a) or split(*a))
    monkeypatch.setattr(cli, "_build_problem", build_and_keep)
    model = tmp_path / "model.txt"
    save_model(init_model(LogisticArch(in_dim=6)), model)
    args = ["--model", str(model)] if command == "eval" else []
    assert main([command, "--config", str(path), *args, "--out", str(tmp_path / "run")]) == 0
    assert len(splits) == 1
    (problem,) = problems
    group_a = problem.constraints[0].dataset
    assert group_a.name == "train[A]"
    assert problem.constraints[1].dataset is group_a
    assert problem.constraints[2].reference.dataset is group_a
    assert problem.constraints[3].dataset.name == "train[D]"

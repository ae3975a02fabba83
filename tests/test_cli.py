import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duallearn.cli import main
from duallearn.core import LossSpec, empirical_risk
from duallearn.data import CsvSchema, load_csv
from duallearn.models import ModelState
from duallearn.primaldual import load_trace

from fixtures.bounds_reference import ref_gap_estimate, ref_multiplier_bound, ref_zeta_vc

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
    # null where the key takes none
    ("fairness_train.json", set_key(["inner", "epochs"], None), "config key inner.epochs"),
    ("fairness_train.json", set_key(["dual", "method"], None), "config key dual.method"),
    ("fairness_train.json", set_key(["problem", "objective", "loss", "clamp_p_min"], None),
     "config key problem.objective.loss.clamp_p_min"),
    ("robust_train.json", set_key(["attack", "seed"], None), "config key attack.seed"),
    ("fairness_train.json", set_key(["problem", "constraints", 0, "name"], None),
     "config key problem.constraints[0].name"),
    ("fairness_train.json", set_key(["model", "init_seed"], None), "config key model.init_seed"),
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


def test_the_commands_never_import_scipy(tmp_path):
    """Only the oracle's dual LP uses scipy, and it imports it when called:
    importing it takes longer than a whole one-iteration run takes to set up."""
    path, _ = derived_config(tmp_path, "fairness_train.json",
                             set_key(["dual", "iterations_T"], 1))
    script = "\n".join([
        "import sys",
        "from duallearn.cli import main",
        f"codes = [main(['train', '--config', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'train')!r}]),",
        f"         main(['example1', '--n', '10', '--trials', '1', "
        f"'--out', {str(tmp_path / 'example1')!r}])]",
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


def test_parallel_example1_trials_write_the_serial_bytes(tmp_path):
    # blocks of 150 trials (N=1), of 819 (N=10, one short block) and of 8 (N=1000)
    args = ["example1", "--n", "1,10,1000", "--trials", "150", "--seed", "9"]
    assert main([*args, "--out", str(tmp_path / "serial")]) == 0
    assert main([*args, "--parallel-trials", "2", "--out", str(tmp_path / "parallel")]) == 0
    for name in ("trials.jsonl", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "parallel" / name).read_bytes(), name


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

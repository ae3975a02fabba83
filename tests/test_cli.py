import json
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
    assert thetas.tobytes() == np.stack([r.theta for r in trace.records]).tobytes()

    assert main(["eval", "--config", str(path), "--trace", str(trace_path),
                 "--out", str(tmp_path / "eval")]) == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["source"]["support"] == 3
    assert [c["name"] for c in summary["constraints"]] == ["rate-A", "rate-B", "rate-C", "rate-D"]
    spec = cfg["problem"]["datasets"]["train"]
    ds, _ = load_csv(spec["path"], CsvSchema(label_column=spec["label_column"],
                                             feature_columns=tuple(spec["feature_columns"]),
                                             group_column=spec["group_column"]))
    risks = [empirical_risk(ModelState(r.theta, trace.arch), LossSpec.cross_entropy(), ds)
             for r in trace.records]
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
])
def test_removed_keys_are_rejected_with_their_path(tmp_path, capsys, section, key, value):
    def edit(cfg):
        cfg[section][key] = value
    path, _ = derived_config(tmp_path, "fairness_train.json", edit)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"unknown config key {section}.{key}" in capsys.readouterr().err


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
    ("kind", "fgsm"), ("steps", 50), ("step_size", 0.1), ("restarts", 7),
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

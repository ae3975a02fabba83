"""Experiment driver.

Four commands over a single JSON config tree:

- ``train``: build the configured problem and run projected dual ascent
  (full inner solves, or one warm-started epoch per dual update with
  ``inner.epochs: 1``). The run directory gets ``config_echo.json``,
  ``trace.jsonl`` (a header line, then one JSON record per iteration),
  ``thetas.npy`` when ``output.save_theta`` is on (every theta snapshot as
  one (K, P) float64 array; the trace header names it and its stride),
  ``final_model.txt`` and ``summary.json``.
- ``eval``: nominal / adversarial / group-rate metrics for a saved model or
  for the randomized solution of a saved trace (``--trace`` reads
  ``thetas.npy`` through the trace header), written as ``config_echo.json``
  and ``summary.json``.
- ``example1``: pathology trials of the built-in hard instance, with the
  fraction of trials landing on the doubled population objective.
- ``bounds``: assemble the generalization-bound report from declared inputs.

Configs are validated strictly (unknown keys are rejected, with full key
paths in the error); every defaulted value is materialized into
config_echo.json so reruns are exactly reproducible. Output files contain
no timestamps: identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .core import ConstraintSpec, Dataset, LossSpec, Problem, ReferenceTerm
from .data import CsvSchema, group_split, load_csv, synth_two_gaussians
from .errors import ConfigurationError, DualLearnError
from .lagrangian import InnerSolverConfig
from .models import (
    LinearArch,
    LogisticArch,
    MlpArch,
    ModelState,
    arch_to_dict,
    init_model,
    load_model,
    save_model,
)
from .oracle import example1_trial
from .primaldual import (
    RandomizedSolution,
    TrainConfig,
    load_trace,
    mixture_risks,
    randomized_solution,
    save_trace,
    train,
)
from .rate import SurrogateConfig, build_surrogate_lagrangian
from .robust import AdversarialDataset, AttackConfig

ENV_OUT = "DUALLEARN_OUT"


# --- strict config validation -------------------------------------------------

_NUM = (int, float)

_LOSS_KEYS = {
    "kind": str, "bound_B": _NUM, "lipschitz_M": _NUM, "clamp_p_min": _NUM,
    "rate_shift": _NUM, "rate_slope": _NUM,
}
_DATASET_KEYS = {
    "kind": str, "path": str, "label_column": str, "feature_columns": list,
    "group_column": str, "label_kind": str,
    "dim": int, "means": list, "sigma": _NUM, "n": int, "seed": int,
}
_REFERENCE_KEYS = {"dataset": str, "group": str, "loss": dict}
_CONSTRAINT_KEYS = {
    "loss": dict, "threshold_c": _NUM, "dataset": str, "group": str,
    "adversarial": bool, "surrogate": dict, "reference": dict, "name": str,
}
_SURROGATE_KEYS = {"slope_a": _NUM, "shift": _NUM, "enabled_in_primal": bool}
_ATTACK_KEYS = {
    "kind": str, "epsilon": _NUM, "steps": int, "step_size": _NUM,
    "restarts": int, "clamp_lo": _NUM, "clamp_hi": _NUM, "seed": int,
    "preset": str,
}
_SCHEMA = {
    "seed": int,
    "problem": {
        "datasets": dict,  # name -> dataset spec, validated separately
        "objective": {"loss": dict, "dataset": str, "adversarial": bool},
        "constraints": list,
    },
    "model": {
        "arch": str, "in_dim": int, "out_dim": int, "bias": bool,
        "widths": list, "activation": str, "output": str, "init_seed": int,
    },
    "inner": {
        "method": str, "epochs": int, "batch_size": int, "optimizer": str,
        "step_size": _NUM, "warm_start": bool,
        "grid_lo": list, "grid_hi": list, "grid_points": int,
    },
    "dual": {"iterations_T": int, "step_eta": _NUM, "method": str, "snapshot_stride": int},
    "attack": _ATTACK_KEYS,
    "surrogate": _SURROGATE_KEYS,
    "bounds": {
        "B": _NUM, "M": _NUM, "nu": _NUM, "xi": _NUM, "delta": _NUM,
        "N": int, "d_vc": _NUM, "R_N": _NUM, "zetas": list, "Delta": _NUM,
        "thresholds_c": list,
    },
    "output": {"save_theta": bool},
}


def _type_ok(value, expected) -> bool:
    if expected is _NUM:
        return isinstance(value, _NUM) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def _validate_keys(node: dict, allowed: dict, path: str) -> None:
    if not isinstance(node, dict):
        raise ConfigurationError(f"config key {path or '<root>'} must be an object")
    for key, value in node.items():
        if key not in allowed:
            raise ConfigurationError(f"unknown config key {path}{key}")
        spec = allowed[key]
        if isinstance(spec, dict) and not _type_ok(value, dict):
            raise ConfigurationError(f"config key {path}{key} must be an object")
        if isinstance(spec, dict):
            _validate_keys(value, spec, f"{path}{key}.")
        elif value is not None and not _type_ok(value, spec):
            want = "number" if spec is _NUM else getattr(spec, "__name__", str(spec))
            raise ConfigurationError(
                f"config key {path}{key} must be a {want}, got {type(value).__name__}"
            )


def validate_config(cfg: dict) -> None:
    """Reject unknown keys and mistyped values, reporting full key paths."""
    _validate_keys(cfg, _SCHEMA, "")
    problem = cfg.get("problem", {})
    for name, spec in problem.get("datasets", {}).items():
        _validate_keys(spec, _DATASET_KEYS, f"problem.datasets.{name}.")
    for i, c in enumerate(problem.get("constraints", []) or []):
        _validate_keys(c, _CONSTRAINT_KEYS, f"problem.constraints[{i}].")
        if "loss" in c:
            _validate_keys(c["loss"], _LOSS_KEYS, f"problem.constraints[{i}].loss.")
        if "surrogate" in c and c["surrogate"] is not None:
            _validate_keys(c["surrogate"], _SURROGATE_KEYS,
                           f"problem.constraints[{i}].surrogate.")
        if "reference" in c and c["reference"] is not None:
            _validate_keys(c["reference"], _REFERENCE_KEYS,
                           f"problem.constraints[{i}].reference.")
            if "loss" in c["reference"]:
                _validate_keys(c["reference"]["loss"], _LOSS_KEYS,
                               f"problem.constraints[{i}].reference.loss.")
    obj = problem.get("objective")
    if obj is not None and "loss" in obj:
        _validate_keys(obj["loss"], _LOSS_KEYS, "problem.objective.loss.")


def _require(cfg: dict, key: str, context: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigurationError(f"missing config key {context}{key}")
    return cfg[key]


# --- builders (each returns the object plus its fully-defaulted echo) ----------

def _build_loss(spec: dict, context: str) -> tuple[LossSpec, dict]:
    kind = _require(spec, "kind", context)
    if kind == "clamped-cross-entropy" and "bound_B" not in spec:
        loss = LossSpec.cross_entropy(clamp_p_min=spec.get("clamp_p_min", 1e-6),
                                      lipschitz_M=spec.get("lipschitz_M"))
    else:
        loss = LossSpec(kind=kind, bound_B=_require(spec, "bound_B", context),
                        lipschitz_M=spec.get("lipschitz_M"),
                        clamp_p_min=spec.get("clamp_p_min", 1e-6),
                        rate_shift=spec.get("rate_shift", 0.5),
                        rate_slope=spec.get("rate_slope", 8.0))
    echo = {"kind": loss.kind, "bound_B": loss.bound_B, "lipschitz_M": loss.lipschitz_M,
            "clamp_p_min": loss.clamp_p_min, "rate_shift": loss.rate_shift,
            "rate_slope": loss.rate_slope}
    return loss, echo


_ATTACK_PRESETS = {
    "pgd-training": AttackConfig.pgd_training,
    "pgd-evaluation": AttackConfig.pgd_evaluation,
    "fgsm": AttackConfig.fgsm,
}


def _build_attack(spec: dict, seed: int) -> tuple[AttackConfig, dict]:
    if (spec.get("clamp_lo") is None) != (spec.get("clamp_hi") is None):
        raise ConfigurationError(
            "attack.clamp_lo and attack.clamp_hi must be given together: "
            "the clamp box needs both bounds")
    clamp = None
    if spec.get("clamp_lo") is not None:
        clamp = (float(spec["clamp_lo"]), float(spec["clamp_hi"]))
    preset = spec.get("preset")
    eps = float(_require(spec, "epsilon", "attack."))
    aseed = spec.get("seed", seed)
    if preset is None:
        cfg = AttackConfig(kind=_require(spec, "kind", "attack."), epsilon=eps,
                           steps=spec.get("steps", 1),
                           step_size=spec.get("step_size", eps),
                           restarts=spec.get("restarts", 1), clamp_box=clamp,
                           seed=aseed)
    elif preset in _ATTACK_PRESETS:
        for key in ("kind", "steps", "step_size", "restarts"):
            if spec.get(key) is not None:
                raise ConfigurationError(
                    f"attack.{key} cannot be combined with attack.preset {preset!r}, "
                    "which sets it")
        cfg = _ATTACK_PRESETS[preset](eps, clamp_box=clamp, seed=aseed)
    else:
        raise ConfigurationError(f"unknown attack preset {preset!r}")
    echo = {"kind": cfg.kind, "epsilon": cfg.epsilon, "steps": cfg.steps,
            "step_size": cfg.step_size, "restarts": cfg.restarts,
            "clamp_lo": None if clamp is None else clamp[0],
            "clamp_hi": None if clamp is None else clamp[1], "seed": cfg.seed,
            "projection_order": "ball-then-box"}
    return cfg, echo


def _build_surrogate(spec: dict | None) -> tuple[SurrogateConfig | None, dict | None]:
    if spec is None:
        return None, None
    cfg = SurrogateConfig(slope_a=spec.get("slope_a", 8.0),
                          shift=spec.get("shift", 0.5),
                          enabled_in_primal=spec.get("enabled_in_primal", True))
    return cfg, {"slope_a": cfg.slope_a, "shift": cfg.shift,
                 "enabled_in_primal": cfg.enabled_in_primal}


def _build_datasets(problem_cfg: dict, base_dir: Path):
    """Load every declared dataset; returns name -> (Dataset, groups or None)."""
    out: dict[str, tuple[Dataset, tuple[str, ...] | None]] = {}
    echo: dict[str, dict] = {}
    for name, spec in _require(problem_cfg, "datasets", "problem.").items():
        kind = _require(spec, "kind", f"problem.datasets.{name}.")
        if kind == "csv":
            schema = CsvSchema(
                label_column=_require(spec, "label_column", f"problem.datasets.{name}."),
                feature_columns=tuple(_require(spec, "feature_columns",
                                               f"problem.datasets.{name}.")),
                group_column=spec.get("group_column"),
                label_kind=spec.get("label_kind", "class"),
            )
            path = Path(spec["path"])
            if not path.is_absolute():
                path = base_dir / path
            ds, groups = load_csv(path, schema)
            ds = Dataset(features=ds.features, labels=ds.labels, name=name)
            out[name] = (ds, groups)
            echo[name] = {"kind": "csv", "path": str(path),
                          "label_column": schema.label_column,
                          "feature_columns": list(schema.feature_columns),
                          "group_column": schema.group_column,
                          "label_kind": schema.label_kind}
        elif kind == "two-gaussians":
            ds = synth_two_gaussians(
                dim=_require(spec, "dim", f"problem.datasets.{name}."),
                means=_require(spec, "means", f"problem.datasets.{name}."),
                sigma=_require(spec, "sigma", f"problem.datasets.{name}."),
                N=_require(spec, "n", f"problem.datasets.{name}."),
                seed=spec.get("seed", 0),
            )
            ds = Dataset(features=ds.features, labels=ds.labels, name=name)
            out[name] = (ds, None)
            echo[name] = {"kind": "two-gaussians", "dim": spec["dim"],
                          "means": spec["means"], "sigma": spec["sigma"],
                          "n": spec["n"], "seed": spec.get("seed", 0)}
        else:
            raise ConfigurationError(f"problem.datasets.{name}.kind: unknown kind {kind!r}")
    return out, echo


def _dataset_ref(datasets, name: str, group: str | None, context: str) -> Dataset:
    if name not in datasets:
        raise ConfigurationError(f"{context}: unknown dataset {name!r}")
    ds, groups = datasets[name]
    if group is None:
        return ds
    if groups is None:
        raise ConfigurationError(f"{context}: dataset {name!r} has no group column")
    parts = group_split(ds, groups)
    if group not in parts:
        raise ConfigurationError(f"{context}: dataset {name!r} has no group {group!r}")
    return parts[group]


def _build_problem(cfg: dict, base_dir: Path, seed: int):
    problem_cfg = _require(cfg, "problem", "")
    datasets, ds_echo = _build_datasets(problem_cfg, base_dir)
    attack_cfg, attack_echo = (None, None)
    if cfg.get("attack") is not None:
        attack_cfg, attack_echo = _build_attack(cfg["attack"], seed)
    default_sur, default_sur_echo = _build_surrogate(cfg.get("surrogate"))
    # Equal loss specs become one object: evaluations key losses by identity.
    shared: dict[LossSpec, LossSpec] = {}

    def build_loss(spec: dict, context: str) -> tuple[LossSpec, dict]:
        loss, echo = _build_loss(spec, context)
        return shared.setdefault(loss, loss), echo

    obj_cfg = _require(problem_cfg, "objective", "problem.")
    obj_loss, obj_loss_echo = build_loss(_require(obj_cfg, "loss", "problem.objective."),
                                          "problem.objective.loss.")
    obj_ds = _dataset_ref(datasets, _require(obj_cfg, "dataset", "problem.objective."),
                          None, "problem.objective.dataset")
    obj_adv = obj_cfg.get("adversarial", False)
    if obj_adv:
        if attack_cfg is None:
            raise ConfigurationError("problem.objective.adversarial needs an attack section")
        objective_dataset = AdversarialDataset(obj_ds, obj_loss, attack_cfg)
    else:
        objective_dataset = obj_ds

    constraints = []
    con_echo = []
    for i, c in enumerate(problem_cfg.get("constraints", []) or []):
        ctx = f"problem.constraints[{i}]"
        loss, loss_echo = build_loss(_require(c, "loss", ctx + "."), ctx + ".loss.")
        ds = _dataset_ref(datasets, _require(c, "dataset", ctx + "."),
                          c.get("group"), ctx + ".dataset")
        dataset = ds
        if c.get("adversarial", False):
            if attack_cfg is None:
                raise ConfigurationError(f"{ctx}.adversarial needs an attack section")
            dataset = AdversarialDataset(ds, loss, attack_cfg)
        reference = None
        ref_echo = None
        if c.get("reference") is not None:
            rspec = c["reference"]
            rloss, rloss_echo = (build_loss(rspec["loss"], ctx + ".reference.loss.")
                                 if rspec.get("loss") is not None else (loss, loss_echo))
            rds = _dataset_ref(datasets, _require(rspec, "dataset", ctx + ".reference."),
                               rspec.get("group"), ctx + ".reference.dataset")
            reference = ReferenceTerm(loss=rloss, dataset=rds)
            ref_echo = {"dataset": rspec["dataset"], "group": rspec.get("group"),
                        "loss": rloss_echo}
        sur, sur_echo = _build_surrogate(c.get("surrogate"))
        if sur is None:
            sur, sur_echo = default_sur, default_sur_echo
        constraints.append(ConstraintSpec(
            loss=loss, threshold_c=float(_require(c, "threshold_c", ctx + ".")),
            dataset=dataset, surrogate=sur, reference=reference,
            name=c.get("name", f"constraint-{i}"),
        ))
        con_echo.append({"loss": loss_echo, "threshold_c": float(c["threshold_c"]),
                         "dataset": c["dataset"], "group": c.get("group"),
                         "adversarial": c.get("adversarial", False),
                         "surrogate": sur_echo, "reference": ref_echo,
                         "name": c.get("name", f"constraint-{i}")})

    problem = Problem(objective_loss=obj_loss, objective_dataset=objective_dataset,
                      constraints=tuple(constraints), name="configured")
    echo = {"datasets": ds_echo,
            "objective": {"loss": obj_loss_echo,
                          "dataset": obj_cfg["dataset"], "adversarial": obj_adv},
            "constraints": con_echo}
    return problem, echo, attack_echo, datasets


def _build_model(cfg: dict, seed: int):
    model_cfg = _require(cfg, "model", "")
    arch_kind = _require(model_cfg, "arch", "model.")
    if arch_kind == "linear":
        arch = LinearArch(in_dim=_require(model_cfg, "in_dim", "model."),
                          out_dim=model_cfg.get("out_dim", 1),
                          bias=model_cfg.get("bias", True))
    elif arch_kind == "logistic":
        arch = LogisticArch(in_dim=_require(model_cfg, "in_dim", "model."))
    elif arch_kind == "mlp":
        arch = MlpArch(widths=tuple(_require(model_cfg, "widths", "model.")),
                       activation=model_cfg.get("activation", "tanh"),
                       output=model_cfg.get("output", "linear"))
    else:
        raise ConfigurationError(f"model.arch: unknown architecture {arch_kind!r}")
    init_seed = model_cfg.get("init_seed", seed)
    model = init_model(arch, seed=init_seed)
    echo = dict(arch_to_dict(arch))
    echo["init_seed"] = init_seed
    return model, echo


def _grid_candidates(arch, lo, hi, points: int) -> tuple[ModelState, ...]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != (arch.n_params,) or hi.shape != (arch.n_params,):
        raise ConfigurationError(
            f"inner.grid_lo/grid_hi must have {arch.n_params} entries for this model"
        )
    axes = [np.linspace(lo[i], hi[i], points) for i in range(arch.n_params)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    return tuple(ModelState(params=row, arch=arch) for row in flat)


def _build_inner(cfg: dict, arch) -> tuple[InnerSolverConfig, dict]:
    inner_cfg = _require(cfg, "inner", "")
    method = _require(inner_cfg, "method", "inner.")
    if method == "enumeration":
        points = inner_cfg.get("grid_points", 200)
        cands = _grid_candidates(arch, _require(inner_cfg, "grid_lo", "inner."),
                                 _require(inner_cfg, "grid_hi", "inner."), points)
        inner = InnerSolverConfig(method="enumeration", candidates=cands)
        echo = {"method": "enumeration", "grid_lo": inner_cfg["grid_lo"],
                "grid_hi": inner_cfg["grid_hi"], "grid_points": points}
        return inner, echo
    inner = InnerSolverConfig(
        method="gradient", epochs=inner_cfg.get("epochs", 1),
        batch_size=inner_cfg.get("batch_size"),
        optimizer=inner_cfg.get("optimizer", "adam"),
        step_size=inner_cfg.get("step_size", 1e-2),
        warm_start=inner_cfg.get("warm_start", True),
    )
    echo = {"method": "gradient", "epochs": inner.epochs, "batch_size": inner.batch_size,
            "optimizer": inner.optimizer, "step_size": inner.step_size,
            "warm_start": inner.warm_start}
    return inner, echo


def _out_dir(args, command: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        root = os.environ.get(ENV_OUT, "runs")
        out = Path(root) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> tuple[dict, Path]:
    p = Path(path)
    try:
        cfg = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {p}") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{p}: invalid JSON ({err})") from None
    validate_config(cfg)
    return cfg, p.parent


# --- commands ------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg, base_dir = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = _out_dir(args, "train")

    problem, problem_echo, attack_echo, _ = _build_problem(cfg, base_dir, seed)
    model, model_echo = _build_model(cfg, seed)
    inner, inner_echo = _build_inner(cfg, model.arch)

    dual_cfg = _require(cfg, "dual", "")
    tcfg = TrainConfig(
        iterations_T=_require(dual_cfg, "iterations_T", "dual."),
        dual_step_eta=_require(dual_cfg, "step_eta", "dual."),
        inner=inner,
        dual_method=dual_cfg.get("method", "projected-ascent"),
        seed=seed,
        snapshot_stride=dual_cfg.get("snapshot_stride", 1),
    )
    dual_echo = {"iterations_T": tcfg.iterations_T, "step_eta": tcfg.dual_step_eta,
                 "method": tcfg.dual_method, "snapshot_stride": tcfg.snapshot_stride}

    primal_problem = build_surrogate_lagrangian(problem)
    save_theta = (cfg.get("output") or {}).get("save_theta", True)

    echo = {"seed": seed, "problem": problem_echo, "model": model_echo,
            "inner": inner_echo, "dual": dual_echo, "attack": attack_echo,
            "surrogate": (cfg.get("surrogate") and _build_surrogate(cfg["surrogate"])[1]),
            "output": {"save_theta": save_theta}}
    _write_json(out / "config_echo.json", echo)

    trace, final_model, final_mu = train(
        problem, tcfg, model,
        primal_problem=None if primal_problem is problem else primal_problem,
    )

    save_trace(trace, out / "trace.jsonl",
               thetas_path=(out / "thetas.npy" if save_theta else None))
    save_model(final_model, out / "final_model.txt")
    final_slacks = trace.records[-1].slacks
    summary = {
        "command": "train",
        "seed": seed,
        "iterations_T": tcfg.iterations_T,
        "final_objective": trace.records[-1].objective,
        "final_lagrangian": trace.records[-1].lagrangian,
        "final_slacks": [float(v) for v in final_slacks],
        "final_mu": [float(v) for v in final_mu.mu],
        "feasible_at_end": bool(np.all(final_slacks <= 0.0)) if problem.m else True,
        "constraint_names": [c.name for c in problem.constraints],
        "projection_order": "ball-then-box" if attack_echo else None,
    }
    _write_json(out / "summary.json", summary)
    print(f"train: wrote {out}/trace.jsonl and summary.json "
          f"(final objective {summary['final_objective']:.6g})")
    return 0


def _eval_metrics(sol: RandomizedSolution, problem: Problem) -> dict:
    terms = [(problem.objective_loss, problem.objective_dataset)]
    for c in problem.constraints:
        terms.append((c.loss, c.dataset))
        if c.reference is not None:
            terms.append((c.reference.loss, c.reference.dataset))
    risks = iter(mixture_risks(sol, terms))
    metrics = {"objective_risk": next(risks)}
    cons = []
    for c in problem.constraints:
        risk = next(risks)
        entry = {"name": c.name, "risk": risk, "threshold_c": c.threshold_c}
        if c.reference is not None:
            ref = next(risks)
            entry["reference_risk"] = ref
            entry["slack"] = risk - ref - c.threshold_c
        else:
            entry["slack"] = risk - c.threshold_c
        cons.append(entry)
    metrics["constraints"] = cons
    metrics["max_slack"] = max((e["slack"] for e in cons), default=None)
    return metrics


def cmd_eval(args) -> int:
    cfg, base_dir = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = _out_dir(args, "eval")
    problem, problem_echo, attack_echo, _ = _build_problem(cfg, base_dir, seed)

    if (args.model is None) == (args.trace is None):
        raise ConfigurationError("eval needs exactly one of --model or --trace")
    if args.model is not None:
        sol = RandomizedSolution(models=(load_model(args.model),))
        source = {"model": str(args.model)}
    else:
        sol = randomized_solution(load_trace(args.trace))
        source = {"trace": str(args.trace), "support": len(sol.models)}

    _write_json(out / "config_echo.json",
                {"seed": seed, "problem": problem_echo, "attack": attack_echo,
                 "source": source})
    metrics = _eval_metrics(sol, problem)
    summary = {"command": "eval", "seed": seed, "source": source, **metrics}
    _write_json(out / "summary.json", summary)
    print(f"eval: objective risk {metrics['objective_risk']:.6g}; "
          f"wrote {out}/summary.json")
    return 0


def cmd_example1(args) -> int:
    out = _out_dir(args, "example1")
    ns = [int(v) for v in args.n.split(",")]
    jobs = [(n, args.seed + t) for n in ns for t in range(args.trials)]
    if args.parallel_trials > 1:
        with ProcessPoolExecutor(max_workers=args.parallel_trials) as pool:
            records = list(pool.map(_trial_star, jobs, chunksize=64))
    else:
        records = [example1_trial(n, s) for n, s in jobs]

    lines = [json.dumps(r, sort_keys=True) for r in records]
    (out / "trials.jsonl").write_text("\n".join(lines) + "\n")
    summary = {"command": "example1", "trials": args.trials, "seed": args.seed, "per_N": {}}
    for n in ns:
        sub = [r for r in records if r["N"] == n]
        doubled = sum(1 for r in sub if r["population_J"] == 0.125)
        summary["per_N"][str(n)] = {
            "trials": len(sub),
            "fraction_population_J_doubled": doubled / len(sub),
            "infeasible": sum(1 for r in sub if not r["feasible"]),
        }
    _write_json(out / "summary.json", summary)
    for n in ns:
        frac = summary["per_N"][str(n)]["fraction_population_J_doubled"]
        print(f"example1: N={n}: fraction at doubled population objective = {frac:.4f}")
    return 0


def _trial_star(job) -> dict:
    return example1_trial(*job)


def cmd_bounds(args) -> int:
    cfg, _ = _load_config(args.config)
    out = _out_dir(args, "bounds")
    b = _require(cfg, "bounds", "")
    summary: dict = {"command": "bounds"}

    zetas = b.get("zetas")
    zeta_source = "declared"
    if zetas is None and b.get("N") is not None:
        if b.get("d_vc") is not None:
            zetas = [bounds_mod.zeta_vc(b["N"], b["d_vc"], b.get("delta", 0.05),
                                        _require(b, "B", "bounds."))]
            zeta_source = "vc"
        elif b.get("R_N") is not None:
            zetas = [bounds_mod.zeta_rademacher(b["N"], b["R_N"], b.get("delta", 0.05),
                                                _require(b, "B", "bounds."))]
            zeta_source = "rademacher"
    if b.get("B") is not None and b.get("xi") is not None:
        summary["Delta_cap"] = bounds_mod.multiplier_bound(b["B"], b["xi"])

    if zetas is not None and b.get("M") is not None and b.get("nu") is not None:
        delta_val = b.get("Delta")
        delta_source = "declared"
        if delta_val is None:
            if "Delta_cap" not in summary:
                raise ConfigurationError(
                    "bounds: need Delta, or B and xi to cap it"
                )
            delta_val = summary["Delta_cap"]
            delta_source = "capped-by-B/xi"
        report = bounds_mod.gap_report(zetas, delta_val, b["M"], b["nu"],
                                       B=b.get("B"), xi=b.get("xi"),
                                       delta=b.get("delta"),
                                       thresholds_c=b.get("thresholds_c"))
        summary["report"] = report.to_dict()
        summary["zeta_source"] = zeta_source
        summary["Delta_source"] = delta_source
        summary["nu_source"] = "assumed"
    _write_json(out / "summary.json", summary)
    shown = summary.get("Delta_cap")
    print(f"bounds: Delta_cap={shown}; wrote {out}/summary.json")
    return 0


# --- entry point -----------------------------------------------------------------

def _failing_module(err: BaseException) -> str:
    """Innermost duallearn module in the traceback of the original error,
    past any re-raise that only adds context (such as the iteration index)."""
    while err.__cause__ is not None:
        err = err.__cause__
    tb = err.__traceback__
    module = "duallearn"
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("duallearn"):
            module = name
        tb = tb.tb_next
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="duallearn",
        description="Constrained learning by projected dual ascent over an empirical Lagrangian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--out", default=None, help=f"run directory (default ${ENV_OUT}/<command>)")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_train = sub.add_parser("train", help="run the configured primal-dual training")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="metrics for a saved model or randomized solution")
    add_common(p_eval)
    p_eval.add_argument("--model", default=None, help="saved model file")
    p_eval.add_argument("--trace", default=None, help="saved trace file (randomized solution)")
    p_eval.set_defaults(func=cmd_eval)

    p_ex = sub.add_parser("example1", help="pathology trials of the built-in hard instance")
    p_ex.add_argument("--trials", type=int, default=1000)
    p_ex.add_argument("--n", default="10,100,1000", help="comma-separated sample sizes")
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--parallel-trials", type=int, default=1)
    p_ex.add_argument("--out", default=None)
    p_ex.set_defaults(func=cmd_example1)

    p_b = sub.add_parser("bounds", help="assemble the generalization-bound report")
    add_common(p_b)
    p_b.set_defaults(func=cmd_bounds)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DualLearnError as err:
        print(f"error in {_failing_module(err)}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

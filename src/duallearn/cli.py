"""Experiment driver.

Four commands over a single JSON config tree:

- ``train``: build the configured problem and run projected dual ascent
  with the ADAM inner solver, which resumes each dual iteration from the
  previous minimizer for ``inner.epochs`` passes. The gradient steps
  minimize the problem's surrogate, in which each rate indicator is a
  sigmoid with the indicator's own ``rate_shift`` and ``rate_slope``;
  slacks and the trace read the indicators. The run directory gets
  ``config_echo.json``, ``trace.jsonl`` (a header line, then
  one JSON record per iteration), ``thetas.npy`` when ``output.save_theta``
  is on (every iterate's theta as one (T, P) float64 array, named by the
  trace header; absent otherwise), ``final_model.txt`` and ``summary.json``.
- ``eval``: nominal / adversarial / group-rate metrics for a saved model or
  for the randomized solution of a saved trace (``--trace`` reads
  ``thetas.npy`` through the trace header), written as ``config_echo.json``
  and ``summary.json``. Both are one mixture path over a parameter block
  (a model is its one row), and a block whose input width is not the
  problem's feature count is refused, naming its file, before anything is
  written. Every model has one output, which every loss kind takes.
- ``example1``: pathology trials of the built-in hard instance, with the
  fraction of trials landing on the doubled population objective. Each
  sample size N runs trials ``--seed`` to ``--seed + --trials - 1`` of its
  own draw stream, so the sizes draw independently (a trial's ``seed`` in
  ``trials.jsonl`` is its id in that stream). The trials of each N run in
  blocks of `duallearn.oracle.EX1_BLOCK_TRIALS` (512) consecutive seeds,
  one job each for `duallearn.oracle.example1_block_lines`, which returns
  a block's ``trials.jsonl`` lines, with the bits of the library's
  evaluation path (`oracle.example1_problem` and `oracle.ecrm_enumerate`),
  and its counts for ``summary.json``. A serial run computes each block
  when the writer asks for it and writes its lines with one ``writelines``
  before the next is computed, so its memory is bounded by one block
  whatever the trial count; the ``--parallel-trials`` workers return the
  same blocks, in order, to the same writer. A 4,000-trial run at N = 10,
  100 and 1000 is 24 blocks; the `duallearn.oracle` docstring splits its
  trial work into draws, closed-form stats, selection, line rendering and
  the write. A run that fails writes neither file.
- ``bounds``: assemble the generalization-bound report from declared inputs.

Each command imports the modules it runs where it runs them, so a process
loads only those: ``train`` and ``eval`` load the data, Lagrangian and
dual-ascent modules, and the attack module only for a config with an
``attack`` section; ``example1`` loads the oracle, and ``bounds`` the bound
calculators. Importing this module loads only the config, core, errors and
models modules it shares with all of them.

Configs are validated strictly, with the full key path in every error; a
value that a section's own constructor refuses is named by the section's
path (see `duallearn.config.refusals_named`).
Each section that configures a dataclass (every loss and attack, the model
architecture, the gradient inner solver, the dual schedule and the csv
schema) takes its keys, types and defaults from that dataclass (see
`duallearn.config`); a hand-written schema covers the structure around them.
Unknown keys, keys of a variant other than the one selected, and nulls
where a key takes none are refused; a refused config writes nothing, as the
run directory is made only once every section is built. config_echo.json
holds every value the run used, defaults included (csv paths made
absolute), and is itself a config: training from it reproduces the run from
any working directory. Output files contain no timestamps: identical inputs
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import check, from_config, read, refusals_named, require
from .core import LOSS_KINDS, ConstraintSpec, Dataset, LossSpec, Problem, ReferenceTerm
from .errors import ConfigurationError, DualLearnError, InputError
from .models import (
    arch_from_dict,
    arch_to_dict,
    init_model,
    load_model,
    save_model,
)

if TYPE_CHECKING:
    from .robust import AttackConfig

ENV_OUT = "DUALLEARN_OUT"


# The structure around the dataclass sections.
_OBJECTIVE = {"loss": dict, "dataset": str, "adversarial": bool}
_CONSTRAINT = {"loss": dict, "threshold_c": float, "dataset": str, "group": str | None,
               "adversarial": bool, "reference": dict | None, "name": str}
_REFERENCE = {"dataset": str, "group": str | None, "loss": dict | None}
_BOUNDS = {**dict.fromkeys(("B", "M", "nu", "xi", "delta", "d_vc", "R_N", "Delta"), float),
           "N": int, "zetas": tuple[float, ...], "thresholds_c": tuple[float, ...]}
_TOP = {"seed": int, "model": dict, "inner": dict, "dual": dict,
        "problem": {"datasets": dict, "objective": _OBJECTIVE, "constraints": list | None},
        "attack": dict | None, "bounds": _BOUNDS,
        "output": {"save_theta": bool}}
_TWO_GAUSSIANS = {"kind": str, "dim": int, "means": tuple[tuple[float, ...], ...],
                  "sigma": float, "n": int, "seed": int}
_DUAL_KEYS = {"dual_step_eta": "step_eta", "dual_method": "method"}


def validate_config(cfg) -> dict:
    """The config with its top-level structure checked and its numbers read
    as their types: unknown keys, mistyped values and nulls where a key
    takes none are refused with their full key paths. Each constraint and
    each dataclass section is checked as it is built (see `duallearn.config`)."""
    return read(cfg, _TOP, "")


# --- builders (each returns the object plus the echo of the values it used) ----

# The LossSpec fields each loss kind reads besides its kind (bound_B alone
# where a kind is not listed); any other field is no config key of that kind.
_RATE_KEYS = ("bound_B", "rate_shift", "rate_slope")
_LOSS_KEYS = {"clamped-cross-entropy": ("clamp_p_min", "bound_B"),
              "rate-indicator": _RATE_KEYS, "rate-sigmoid": _RATE_KEYS}


def _build_loss(spec, path: str) -> tuple[LossSpec, dict]:
    kind = check(require(spec, "kind", path), str, path + "kind")
    if kind not in LOSS_KINDS:
        raise ConfigurationError(f"{path}kind: unknown loss kind {kind!r}")
    keys = _LOSS_KEYS.get(kind, ("bound_B",))
    unread = {f.name: f.default for f in dataclasses.fields(LossSpec)
              if f.name != "kind" and f.name not in keys}
    defaults = {}
    if kind == "clamped-cross-entropy":
        # the one bound LossSpec accepts; it refuses a clamp outside (0, 1/2)
        # before it reads bound_B
        defaults["bound_B"] = lambda v: (-math.log(v["clamp_p_min"]) if v["clamp_p_min"] > 0
                                         else math.inf)
    return from_config(LossSpec, spec, path, defaults, **unread)


# preset -> the AttackConfig constructor that makes it
_ATTACK_PRESETS = {"pgd-training": "pgd_training", "pgd-evaluation": "pgd_evaluation",
                   "fgsm": "fgsm"}
_PRESET_KEYS = ("steps", "step_size", "restarts")
# Attack keys that are not AttackConfig fields: the preset and the clamp box.
_ATTACK_OWN = {"preset": str | None, "clamp_lo": float | None, "clamp_hi": float | None}


def _build_attack(spec, seed: int) -> tuple[AttackConfig, dict]:
    from .robust import AttackConfig

    own = read({k: v for k, v in spec.items() if k in _ATTACK_OWN}, _ATTACK_OWN, "attack.")
    rest = {k: v for k, v in spec.items() if k not in _ATTACK_OWN}
    lo, hi = own.get("clamp_lo"), own.get("clamp_hi")
    if (lo is None) != (hi is None):
        raise ConfigurationError(
            "attack.clamp_lo and attack.clamp_hi must be given together: "
            "the clamp box needs both bounds")
    # an inherited seed is the run seed modulo 2**63, as `train` derives its
    # entropy, so that a negative run seed gives a valid one
    seed %= 2 ** 63
    defaults = {"seed": seed, "step_size": lambda v: v["epsilon"]}
    preset = own.get("preset")
    if preset is not None:
        if preset not in _ATTACK_PRESETS:
            raise ConfigurationError(f"unknown attack preset {preset!r}")
        for key in _PRESET_KEYS:
            if key in rest:
                raise ConfigurationError(
                    f"attack.{key} cannot be combined with attack.preset {preset!r}, "
                    "which sets it")
        epsilon = check(require(rest, "epsilon", "attack."), float, "attack.epsilon")
        with refusals_named("attack."):
            made = getattr(AttackConfig, _ATTACK_PRESETS[preset])(epsilon)
        defaults = {"seed": seed, **{key: getattr(made, key) for key in _PRESET_KEYS}}
    cfg, echo = from_config(AttackConfig, rest, "attack.", defaults,
                            clamp_box=None if lo is None else (lo, hi))
    return cfg, {**echo, "clamp_lo": lo, "clamp_hi": hi}


def _build_datasets(specs: dict, base_dir: Path):
    """Load every declared dataset; returns name -> (Dataset, its split by
    group or None), each grouped dataset split once."""
    from .data import CsvSchema, group_split, load_csv, synth_two_gaussians

    out: dict[str, tuple[Dataset, dict[str, Dataset] | None]] = {}
    echo: dict[str, dict] = {}
    for name, spec in specs.items():
        ctx = f"problem.datasets.{name}."
        kind = require(check(spec, dict, ctx.rstrip(".")), "kind", ctx)
        if kind == "csv":
            rest = {k: v for k, v in spec.items() if k not in ("kind", "path")}
            schema, values = from_config(CsvSchema, rest, ctx)
            # absolute with `..` collapsed (symlinks kept), so the echo loads
            # the same file from any working directory
            path = os.path.abspath(base_dir / check(require(spec, "path", ctx), str,
                                                    ctx + "path"))
            ds, groups = load_csv(path, schema)
            echo[name] = {"kind": "csv", "path": path, **values}
        elif kind == "two-gaussians":
            values = echo[name] = {"seed": 0, **read(spec, _TWO_GAUSSIANS, ctx)}
            dim, means, sigma, n = (require(values, key, ctx)
                                    for key in ("dim", "means", "sigma", "n"))
            with refusals_named(ctx):
                ds = synth_two_gaussians(dim, means, sigma, n, values["seed"])
            groups = None
        else:
            raise ConfigurationError(f"{ctx}kind: unknown kind {kind!r}")
        ds = Dataset(features=ds.features, labels=ds.labels, name=name)
        out[name] = (ds, None if groups is None else group_split(ds, groups))
    return out, echo


def _dataset_ref(datasets, name: str, group: str | None, context: str) -> Dataset:
    if name not in datasets:
        raise ConfigurationError(f"{context}: unknown dataset {name!r}")
    ds, parts = datasets[name]
    if group is None:
        return ds
    if parts is None:
        raise ConfigurationError(f"{context}: dataset {name!r} has no group column")
    if group not in parts:
        raise ConfigurationError(f"{context}: dataset {name!r} has no group {group!r}")
    return parts[group]


def _build_problem(cfg: dict, base_dir: Path, seed: int):
    """(problem, its echo, the attack echo)."""
    problem_cfg = require(cfg, "problem", "")
    datasets, ds_echo = _build_datasets(require(problem_cfg, "datasets", "problem."), base_dir)
    attack_cfg, attack_echo = (None, None)
    if cfg.get("attack") is not None:
        attack_cfg, attack_echo = _build_attack(cfg["attack"], seed)

    def term(spec: dict, ctx: str):
        """(loss, its echo, dataset) of the objective or of a constraint."""
        loss, loss_echo = _build_loss(require(spec, "loss", ctx + "."), ctx + ".loss.")
        ds = _dataset_ref(datasets, require(spec, "dataset", ctx + "."),
                          spec.get("group"), ctx + ".dataset")
        if spec.get("adversarial", False):
            if attack_cfg is None:
                raise ConfigurationError(f"{ctx}.adversarial needs an attack section")
            from .robust import AdversarialDataset

            ds = AdversarialDataset(ds, loss, attack_cfg)
        return loss, loss_echo, ds

    obj_cfg = require(problem_cfg, "objective", "problem.")
    obj_loss, obj_loss_echo, obj_ds = term(obj_cfg, "problem.objective")
    constraints = []
    con_echo = []
    for i, c in enumerate(problem_cfg.get("constraints") or []):
        ctx = f"problem.constraints[{i}]"
        c = read(c, _CONSTRAINT, ctx + ".")
        loss, loss_echo, dataset = term(c, ctx)
        reference = ref_echo = None
        if c.get("reference") is not None:
            rspec = read(c["reference"], _REFERENCE, ctx + ".reference.")
            rloss, rloss_echo = (_build_loss(rspec["loss"], ctx + ".reference.loss.")
                                 if rspec.get("loss") is not None else (loss, loss_echo))
            rds = _dataset_ref(datasets, require(rspec, "dataset", ctx + ".reference."),
                               rspec.get("group"), ctx + ".reference.dataset")
            reference = ReferenceTerm(loss=rloss, dataset=rds)
            ref_echo = {"group": None, **rspec, "loss": rloss_echo}
        echo = {"group": None, "adversarial": False, "name": f"constraint-{i}", **c,
                "loss": loss_echo, "reference": ref_echo}
        constraints.append(ConstraintSpec(
            loss=loss, threshold_c=require(c, "threshold_c", ctx + "."), dataset=dataset,
            reference=reference, name=echo["name"]))
        con_echo.append(echo)

    problem = Problem(objective_loss=obj_loss, objective_dataset=obj_ds,
                      constraints=tuple(constraints), name="configured")
    echo = {"datasets": ds_echo, "constraints": con_echo,
            "objective": {"adversarial": False, **obj_cfg, "loss": obj_loss_echo}}
    return problem, echo, attack_echo


def _build_model(spec: dict, seed: int):
    arch = arch_from_dict({k: v for k, v in spec.items() if k != "init_seed"}, "model.", "arch")
    if "init_seed" in spec:
        init_seed = check(spec["init_seed"], int, "model.init_seed")
        if init_seed < 0:
            raise ConfigurationError(f"model.init_seed must be >= 0, got {init_seed}")
    else:
        init_seed = seed % 2 ** 63  # inherited as attack.seed is
    return init_model(arch, seed=init_seed), {**arch_to_dict(arch, "arch"), "init_seed": init_seed}


def _check_model_fits(arch, problem, error, name: str) -> None:
    """Refuse, by `error` naming `name`, a model whose input width is not the
    problem's feature count; called before anything is written."""
    if arch.widths[0] != problem.n_features:
        raise error(f"{name}: the model takes {arch.widths[0]} features, but the "
                    f"config's problem has {problem.n_features}")


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


def _load_config(args) -> tuple[dict, Path, int]:
    """The checked config of `args.config`, its directory and the run seed."""
    p = Path(args.config)
    try:
        cfg = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {p}") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{p}: invalid JSON ({err})") from None
    cfg = validate_config(cfg)
    return cfg, p.parent, args.seed if args.seed is not None else cfg.get("seed", 0)


# --- commands ------------------------------------------------------------------

def cmd_train(args) -> int:
    from .lagrangian import InnerSolverConfig
    from .primaldual import TrainConfig, save_trace, train

    cfg, base_dir, seed = _load_config(args)
    problem, problem_echo, attack_echo = _build_problem(cfg, base_dir, seed)
    model, model_echo = _build_model(require(cfg, "model", ""), seed)
    _check_model_fits(model.arch, problem, ConfigurationError,
                      "model.in_dim" if "in_dim" in model_echo else "model.widths")
    # the gradient steps minimize the objective as it is (the surrogate swaps
    # only constraint losses)
    objective = problem.surrogate.objective_loss
    if not objective.differentiable:
        raise ConfigurationError(
            f"problem.objective.loss.kind: loss kind {objective.kind!r} has no gradient, "
            "and the gradient steps minimize the objective")
    inner, inner_echo = from_config(InnerSolverConfig, require(cfg, "inner", ""), "inner.")
    save_theta = cfg.get("output", {}).get("save_theta", True)
    tcfg, dual_echo = from_config(TrainConfig, require(cfg, "dual", ""), "dual.",
                                  keys=_DUAL_KEYS, inner=inner, seed=seed,
                                  save_theta=save_theta)

    out = _out_dir(args, "train")
    echo = {"seed": seed, "problem": problem_echo, "model": model_echo,
            "inner": inner_echo, "dual": dual_echo, "attack": attack_echo,
            "output": {"save_theta": save_theta}}
    _write_json(out / "config_echo.json", echo)

    trace, final_model, final_mu = train(problem, tcfg, model)

    save_trace(trace, out / "trace.jsonl",
               thetas_path=(out / "thetas.npy" if save_theta else None))
    save_model(final_model, out / "final_model.txt")
    final_slacks = trace.slacks[-1]
    summary = {
        "command": "train",
        "seed": seed,
        "iterations_T": tcfg.iterations_T,
        "final_objective": float(trace.objective[-1]),
        "final_lagrangian": float(trace.lagrangian[-1]),
        "final_slacks": [float(v) for v in final_slacks],
        "final_mu": [float(v) for v in final_mu.mu],
        "feasible_at_end": bool(np.all(final_slacks <= 0.0)),
        "constraint_names": [c.name for c in problem.constraints],
        "projection_order": "ball-then-box" if attack_echo else None,
    }
    _write_json(out / "summary.json", summary)
    print(f"train: wrote {out}/trace.jsonl and summary.json "
          f"(final objective {summary['final_objective']:.6g})")
    return 0


def cmd_eval(args) -> int:
    """Metrics of the uniform mixture over the one row of a saved model, or
    over every iterate of a saved trace (`support` is their count)."""
    # a usage error is reported before the config is read
    if (args.model is None) == (args.trace is None):
        raise ConfigurationError("eval needs exactly one of --model or --trace")
    from .primaldual import load_trace, mixture_risks, randomized_solution

    cfg, base_dir, seed = _load_config(args)
    problem, problem_echo, attack_echo = _build_problem(cfg, base_dir, seed)

    if args.model is not None:
        path, model = args.model, load_model(args.model)
        arch, thetas = model.arch, model.params[None]
        source = {"model": str(args.model)}
    else:
        path, trace = args.trace, load_trace(args.trace)
        arch, thetas = trace.arch, randomized_solution(trace)
        source = {"trace": str(args.trace), "support": len(thetas)}
    _check_model_fits(arch, problem, InputError, path)

    out = _out_dir(args, "eval")
    _write_json(out / "config_echo.json",
                {"seed": seed, "problem": problem_echo, "attack": attack_echo,
                 "source": source})
    risks = mixture_risks(arch, thetas, problem)
    cons = [{"name": c.name, "threshold_c": c.threshold_c} for c in problem.constraints]
    for (i, part, _, _), risk in zip(problem.constraint_terms, risks[1:]):
        cons[i]["risk" if part == "dataset" else "reference_risk"] = risk
    for entry, slack in zip(cons, problem.slacks_of(risks).tolist()):
        entry["slack"] = slack
    _write_json(out / "summary.json",
                {"command": "eval", "seed": seed, "source": source, "objective_risk": risks[0],
                 "constraints": cons, "max_slack": max((e["slack"] for e in cons), default=None)})
    print(f"eval: objective risk {risks[0]:.6g}; wrote {out}/summary.json")
    return 0


def cmd_example1(args) -> int:
    from .oracle import EX1_BLOCK_TRIALS, example1_block_lines

    try:
        ns = [int(v) for v in args.n.split(",")]
    except ValueError:
        ns = []
    if not ns or min(ns) < 1 or len(set(ns)) != len(ns):
        raise ConfigurationError(
            f"--n must be distinct comma-separated sample sizes >= 1, got {args.n!r}")
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    if args.parallel_trials < 1:
        raise ConfigurationError(f"--parallel-trials must be >= 1, got {args.parallel_trials}")
    out = _out_dir(args, "example1")
    seeds = range(args.seed, args.seed + args.trials)
    # one job per block of trials, in record order
    jobs = [(n, seeds[i:i + EX1_BLOCK_TRIALS])
            for n in ns for i in range(0, len(seeds), EX1_BLOCK_TRIALS)]
    doubled, infeasible = dict.fromkeys(ns, 0), dict.fromkeys(ns, 0)
    pool = contextlib.nullcontext()
    if args.parallel_trials > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=args.parallel_trials,
                                   mp_context=multiprocessing.get_context("spawn"))
    # written under another name and renamed when complete, so a failed run
    # leaves no partial trials.jsonl
    partial = out / "trials.jsonl.partial"
    try:
        with pool as workers, partial.open("w") as f:
            # the builtin map is lazy: a serial run computes a block when it is written
            blocks = (map if workers is None else workers.map)(example1_block_lines, *zip(*jobs))
            for n, lines, block_doubled, block_infeasible in blocks:
                f.writelines(lines)
                doubled[n] += block_doubled
                infeasible[n] += block_infeasible
                del lines  # freed before the next block is computed
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(out / "trials.jsonl")
    summary = {"command": "example1", "trials": args.trials, "seed": args.seed,
               "per_N": {str(n): {"trials": args.trials,
                                  "fraction_population_J_doubled": doubled[n] / args.trials,
                                  "infeasible": infeasible[n]} for n in ns}}
    _write_json(out / "summary.json", summary)
    for n in ns:
        frac = summary["per_N"][str(n)]["fraction_population_J_doubled"]
        print(f"example1: N={n}: fraction at doubled population objective = {frac:.4f}")
    return 0


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    cfg, _, _ = _load_config(args)
    b = require(cfg, "bounds", "")
    summary: dict = {"command": "bounds"}

    zetas = b.get("zetas")
    delta = b.get("delta")
    zeta_source = "declared"
    if zetas is None and b.get("N") is not None:
        delta = 0.05 if delta is None else delta
        if b.get("d_vc") is not None:
            zetas = [bounds_mod.zeta_vc(b["N"], b["d_vc"], delta, require(b, "B", "bounds."))]
            zeta_source = "vc"
        elif b.get("R_N") is not None:
            zetas = [bounds_mod.zeta_rademacher(b["N"], b["R_N"], delta,
                                                require(b, "B", "bounds."))]
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
                                       delta=delta,
                                       thresholds_c=b.get("thresholds_c"))
        summary["report"] = dataclasses.asdict(report)
        summary["zeta_source"] = zeta_source
        summary["Delta_source"] = delta_source
        summary["nu_source"] = "assumed"
    out = _out_dir(args, "bounds")
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
    p_ex.add_argument("--trials", type=int, default=1000,
                      help="trials per sample size; records are written block by block, "
                           "so memory is bounded by one block of trials")
    p_ex.add_argument("--n", default="10,100,1000", help="comma-separated sample sizes")
    p_ex.add_argument("--seed", type=int, default=0,
                      help="id of the first trial in each sample size's draw stream")
    p_ex.add_argument("--parallel-trials", type=int, default=1,
                      help="worker processes that compute blocks of trials; the records "
                           "are written in the serial order, with the serial bytes")
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

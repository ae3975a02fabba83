"""Benchmark of the duallearn command line, driven the way a user drives it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Commands run one process at a time
(a closed loop with one client), with BLAS limited to one thread and
``example1 --parallel-trials 1``. A run repeats the workload's commands until
``--seconds`` is used up and reports medians over the repetitions.

The benchmark and its commands are pinned to one CPU, and every timing is the
commands' CPU time at a fixed reference speed: probe.py measures the speed of
that CPU while each command runs. Raw wall times are in the detailed report.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` repeats pairs of
an untraced and a traced execution (tracer.py wraps the package's public
functions from outside) and reports the per-module metrics. Every command's
output is checked; the last line of standard output is the result object,
and the line before it a detailed report with quartiles, sample counts and
the environment. See README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_UNIT_S, SpeedProbe, normalised  # noqa: E402
from stats import RepeatCounter, fail_counts, mismatches, quartiles, self_times, tail  # noqa: E402

WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
# Summary values must match the recorded reference within this tolerance.
RTOL, ATOL = 1e-6, 1e-9
COMMAND_TIMEOUT_S = 150
# One-iteration runs per repetition; set-up is their median over the run.
SETUPS_PER_REP = 2
BLAS_THREADS = "1"
# The CPU that the benchmark and its commands run on; set by main().
PINNED_CPU: int | None = None

WORKLOADS = ("fairness_train", "robust_pgd", "fairness_mixture", "example1_trials")
SHIPPED_SEEDS = {"fairness_train": 1, "robust_pgd": 0, "fairness_mixture": 1,
                 "example1_trials": 0}
EXAMPLE1_NS = "10,100,1000"
EXAMPLE1_TRIALS = 4000

END_TO_END = {"setup_s": "s", "commands_s": "s", "step_ms": "ms", "peak_rss_mb": "MB",
              "run_dir_bytes": "B"}
# Reported in the detailed line only: they apply to some workloads, not all,
# or (wall_s, probe_unit_ms) follow the host's speed too closely to gate.
EXTRA_UNITS = {"train_iter_ms": "ms", "eval_s": "s", "trials_per_s": "1/s",
               "wall_s": "s", "probe_unit_ms": "ms"}

# per-layer metric -> unit; all are computed by layer_metrics()
PER_LAYER = {
    "cli.validate_config.s": "s",
    "data.load_csv.s": "s",
    "data.group_split.calls": "count",
    "data.synth_two_gaussians.s": "s",
    "core.empirical_risk.calls": "count",
    "core.empirical_risk.calls_per_iter": "calls/iter",
    "core.empirical_risk.s": "s",
    "core.empirical_risk.self_s": "s",
    "core.loss_values.rows": "rows",
    "core.loss_values.s": "s",
    "core.loss_pred_grads.rows": "rows",
    "core.loss_pred_grads.s": "s",
    "models.predict_batch.calls_per_iter": "calls/iter",
    "models.predict_batch.rows_per_iter": "rows/iter",
    "models.predict_batch.s": "s",
    "models.predict_batch.repeat_row_share": "ratio",
    "models.grad_params.calls": "count",
    "models.grad_params.s": "s",
    "models.optimizer_step.s": "s",
    "models.grad_input_batch.calls": "count",
    "models.grad_input_batch.rows": "rows",
    "models.grad_input_batch.s": "s",
    "models.save_model.calls": "count",
    "models.save_model.s": "s",
    "models.load_model.calls": "count",
    "models.load_model.s": "s",
    "lagrangian.dual_function.calls": "count",
    "lagrangian.dual_function.p50_ms": "ms",
    "lagrangian.dual_function.tail_ms": "ms",
    "lagrangian.dual_function.self_s": "s",
    "lagrangian.slacks.calls": "count",
    "lagrangian.slacks.s": "s",
    "lagrangian.empirical_lagrangian.calls": "count",
    "lagrangian.empirical_lagrangian.s": "s",
    "lagrangian.enumeration_stats.calls": "count",
    "lagrangian.enumeration_stats.s": "s",
    "robust.perturb_batch.calls": "count",
    "robust.perturb_batch.rows": "rows",
    "robust.perturb_batch.s": "s",
    "robust.perturb_batch.share": "ratio",
    "robust.perturb_batch.repeat_row_share": "ratio",
    "primaldual.train.s": "s",
    "primaldual.train.self_s": "s",
    "primaldual.dual_update.calls": "count",
    "primaldual.save_trace.s": "s",
    "primaldual.load_trace.s": "s",
    "primaldual.randomized_solution.s": "s",
    "oracle.example1_trial.calls": "count",
    "oracle.example1_trial.p50_ms": "ms",
    "oracle.example1_trial.tail_ms": "ms",
    "oracle.ecrm_enumerate.s": "s",
    "trace.overhead_s": "s",
}
# Reported in the detailed line only: the percentile of each tail_ms follows
# from the call count.
LAYER_EXTRA_UNITS = {
    "lagrangian.dual_function.tail_pct": "%",
    "oracle.example1_trial.tail_pct": "%",
}


# --- workloads -------------------------------------------------------------------

def derive_config(shipped: str, dest: Path, *, save_theta: bool | None = None,
                  attack_preset: str | None = None, iterations_T: int | None = None) -> Path:
    """A shipped config with only the named overrides, dataset paths made absolute."""
    src = ROOT / "configs" / shipped
    cfg = json.loads(src.read_text())
    for spec in cfg["problem"]["datasets"].values():
        if "path" in spec:
            spec["path"] = str((src.parent / spec["path"]).resolve())
    if save_theta is not None:
        cfg.setdefault("output", {})["save_theta"] = save_theta
    if attack_preset is not None:
        cfg["attack"]["preset"] = attack_preset
    if iterations_T is not None:
        cfg["dual"]["iterations_T"] = iterations_T
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(cfg, indent=2) + "\n")
    return dest


def plan(workload: str, cfg_dir: Path):
    """(steps, set-up args, [(label, rep_dir -> args)]) for one workload.

    `steps` is the unit count of the first (main) command: dual iterations
    for `train`, trials for `example1`. The set-up command is the same
    config cut to one iteration (one trial for example1), so it pays
    interpreter start, import, config validation, data load and problem
    build, and almost nothing else.
    """
    if workload == "example1_trials":
        ns = EXAMPLE1_NS.split(",")
        main = ["example1", "--n", EXAMPLE1_NS, "--trials", str(EXAMPLE1_TRIALS),
                "--parallel-trials", "1"]
        setup = ["example1", "--n", ns[0], "--trials", "1", "--parallel-trials", "1"]
        return EXAMPLE1_TRIALS * len(ns), setup, [("example1", lambda rep: list(main))]
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shipped = "robust_train.json" if workload == "robust_pgd" else "fairness_train.json"
    save_theta = workload == "fairness_mixture"
    train_cfg = derive_config(shipped, cfg_dir / "train.json", save_theta=save_theta)
    setup_cfg = derive_config(shipped, cfg_dir / "setup.json", save_theta=save_theta,
                              iterations_T=1)
    steps = [("train", lambda rep: ["train", "--config", str(train_cfg)])]
    if workload == "robust_pgd":
        eval_cfg = derive_config(shipped, cfg_dir / "eval.json", attack_preset="pgd-evaluation")
        steps.append(("eval", lambda rep: ["eval", "--config", str(eval_cfg), "--model",
                                           str(rep / "train" / "final_model.txt")]))
    elif workload == "fairness_mixture":
        steps.append(("eval", lambda rep: ["eval", "--config", str(train_cfg), "--trace",
                                           str(rep / "train" / "trace.jsonl")]))
    iterations = json.loads(train_cfg.read_text())["dual"]["iterations_T"]
    return iterations, ["train", "--config", str(setup_cfg)], steps


# --- running commands --------------------------------------------------------------

def run_command(args: list[str], out: Path, seed: int | None,
                spans: Path | None = None) -> dict:
    """Run one CLI command to completion; its time at the reference speed
    (`time_s`), wall time, mean probe unit time, exit code and peak RSS."""
    argv = [sys.executable]
    argv += ["-m", "duallearn.cli"] if spans is None else [str(HERE / "tracer.py"),
                                                            "--spans", str(spans), "--"]
    argv += [*args, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out.parent / f"{out.name}.log", "wb") as log:
        probe = SpeedProbe().start()
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
        finally:
            unit_s = probe.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return {"exit_code": proc.returncode, "time_s": normalised(cpu, unit_s), "wall_s": wall,
            "probe_unit_s": unit_s, "peak_rss_mb": usage.ru_maxrss / 1024.0, "checks": {}}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def normalized_summary(out: Path) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("source", None)  # holds run-directory paths
    return summary


class Checker:
    """Output checks of one workload run, against the first repetition and
    against the reference recorded at the seed commit."""

    def __init__(self, workload: str, seed: int | None, iterations: int) -> None:
        self.workload = workload
        self.iterations = iterations
        key = str(SHIPPED_SEEDS[workload] if seed is None else seed)
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = refs.get("workloads", {}).get(workload, {}).get(key)
        self.first: dict[str, tuple] = {}

    def outputs(self) -> dict:
        """Deterministic quality values of the run's first repetition."""
        out = {}
        if "train" in self.first:
            train = self.first["train"][0]
            out["final_objective"] = train["final_objective"]
            out["final_max_slack"] = max(train["final_slacks"], default=None)
        if self.workload == "fairness_mixture" and "eval" in self.first:
            out["mixture_max_slack"] = self.first["eval"][0]["max_slack"]
        return out

    def check(self, label: str, out: Path) -> dict[str, bool]:
        try:
            return self._check(label, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            return {"output_readable": False}

    def _check(self, label: str, out: Path) -> dict[str, bool]:
        summary = normalized_summary(out)
        checks = {}
        trace_digest = None
        if label == "train":
            trace = out / "trace.jsonl"
            trace_digest = hashlib.sha256(trace.read_bytes()).hexdigest()
            records = [json.loads(line) for line in trace.read_text().splitlines()[1:]]
            checks["mu_nonnegative"] = all(m >= 0.0 for r in records for m in r["mu"])
            checks["all_iterations_recorded"] = len(records) == self.iterations
        elif label == "eval" and self.workload == "robust_pgd":
            adversarial = summary["constraints"][0]["risk"]
            checks["attack_raises_risk"] = adversarial >= summary["objective_risk"]
        elif label == "eval":
            full = json.loads((out / "summary.json").read_text())
            checks["mixture_full_support"] = full["source"].get("support") == self.iterations
        if self.reference is not None:
            expected = self.reference[label]
            checks["matches_reference"] = not mismatches(summary, expected, RTOL, ATOL)
            if label == "example1":
                checks["doubled_fraction"] = all(
                    summary["per_N"][n]["fraction_population_J_doubled"]
                    == expected["per_N"][n]["fraction_population_J_doubled"]
                    for n in expected["per_N"])
        first = self.first.setdefault(label, (summary, trace_digest))
        checks["repeatable"] = first == (summary, trace_digest)
        return checks


# --- one run ----------------------------------------------------------------------

def run_rep(rep_dir: Path, steps, seed, checker, records, spans_dir=None) -> dict:
    """Run the workload's commands once, in order; {"ok": False} if one exits
    non-zero. Failed output checks are counted in `records`, not here."""
    times, walls, units, rss = {}, {}, [], 0.0
    for label, make_args in steps:
        out = rep_dir / label
        spans = None if spans_dir is None else spans_dir / f"{label}.json"
        rec = run_command(make_args(rep_dir), out, seed, spans)
        if rec["exit_code"] == 0:
            rec["checks"] = checker.check(label, out)
        if spans is not None:
            rec["checks"]["trace_coverage"] = _coverage_ok(spans)
        records.append(rec)
        times[label] = rec["time_s"]
        walls[label] = rec["wall_s"]
        units.append(rec["probe_unit_s"])
        rss = max(rss, rec["peak_rss_mb"])
        if rec["exit_code"] != 0:
            return {"ok": False}
    return {"ok": True, "times": times, "commands_s": sum(times.values()),
            "wall_s": sum(walls.values()), "probe_unit_ms": 1000.0 * quartiles(units)[1],
            "peak_rss_mb": rss,
            "run_dir_bytes": sum(tree_bytes(rep_dir / label) for label, _ in steps)}


def _coverage_ok(spans: Path) -> bool:
    try:
        return json.loads(spans.read_text())["coverage_problems"] == []
    except (OSError, ValueError, KeyError):
        return False


def measure(workload: str, seed: int | None, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run the workload for `seconds`; (detailed report, result object)."""
    work = WORK / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    n_steps, setup_args, steps = plan(workload, work / "configs")
    checker = Checker(workload, seed, n_steps)
    if checker.reference is None:
        print(f"perfbench: warning: no reference outputs recorded for {workload} at seed "
              f"{seed}; matches_reference is not checked in this run", file=sys.stderr)
    records: list[dict] = []

    # Untimed warm-up: compiles bytecode and fills the page cache, costs a user
    # pays once, not per run.
    records.append(run_command(setup_args, work / "warmup", seed))
    if records[-1]["exit_code"] != 0:
        raise RuntimeError("warm-up command failed; see " + str(work / "warmup.log"))
    shutil.rmtree(work / "warmup")

    deadline = time.perf_counter() + seconds
    setup_times, reps, traced = [], [], []
    k = 0
    while True:
        started = time.perf_counter()
        failed_before = fail_counts(records)[1]
        rep_dir = work / f"rep{k}"
        if not trace:
            for i in range(SETUPS_PER_REP):
                rec = run_command(setup_args, rep_dir / f"setup{i}", seed)
                records.append(rec)
                if rec["exit_code"] == 0:
                    setup_times.append(rec["time_s"])
        rep = run_rep(rep_dir / "untraced", steps, seed, checker, records)
        if rep["ok"]:
            reps.append(rep)
        if trace:
            spans_dir = rep_dir / "spans"
            spans_dir.mkdir(parents=True)
            t = run_rep(rep_dir / "traced", steps, seed, checker, records, spans_dir)
            if t["ok"] and rep["ok"]:
                t["layers"] = layer_metrics(spans_dir, steps, n_steps)
                t["layers"]["trace.overhead_s"] = t["commands_s"] - rep["commands_s"]
                traced.append(t)
            shutil.rmtree(work / "spans", ignore_errors=True)
            spans_dir.rename(work / "spans")  # the last repetition's spans stay
        if fail_counts(records)[1] == failed_before:
            shutil.rmtree(rep_dir)  # outputs and logs stay only where something failed
        k += 1
        # Start another repetition only if one more fits.
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    attempted, failed = fail_counts(records)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": attempted, "failed": failed,
              "fail_rate": failed / attempted,
              "outputs": checker.outputs(),
              "reference_recorded": checker.reference is not None,
              "failed_checks": sorted({name for r in records
                                       for name, ok in r["checks"].items() if not ok}),
              "environment": environment()}
    if trace:
        if not traced:
            raise RuntimeError("no traced repetition succeeded")
        units = {**PER_LAYER, **LAYER_EXTRA_UNITS}
        samples = {name: [t["layers"][name] for t in traced] for name in units}
        values = {name: quartiles(v)[1] for name, v in samples.items()}
    else:
        if not reps or not setup_times:
            raise RuntimeError("no repetition succeeded")
        samples, values = end_to_end(reps, setup_times, n_steps, steps[0][0])
        units = {**END_TO_END, **EXTRA_UNITS}
    report["metrics"] = {}
    for name, value in values.items():
        entry = report["metrics"][name] = {"value": value, "unit": units[name]}
        if name in samples:
            q1, _, q3 = quartiles(samples[name])
            entry.update(q1=q1, q3=q3, n=len(samples[name]))
    wanted = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": wanted[name]}
                          for name in wanted}}
    return report, result


def end_to_end(reps, setup_times, n_steps, main_label) -> tuple[dict, dict]:
    """(per-repetition samples, reported median) of each end-to-end metric."""
    setup_s = quartiles(setup_times)[1]
    samples = {
        "setup_s": setup_times,
        "commands_s": [r["commands_s"] for r in reps],
        "step_ms": [1000.0 * (r["times"][main_label] - setup_s) / n_steps for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "run_dir_bytes": [r["run_dir_bytes"] for r in reps],
        "wall_s": [r["wall_s"] for r in reps],
        "probe_unit_ms": [r["probe_unit_ms"] for r in reps],
    }
    if "eval" in reps[0]["times"]:
        samples["eval_s"] = [r["times"]["eval"] for r in reps]
    values = {name: quartiles(v)[1] for name, v in samples.items()}
    if main_label == "train":
        values["train_iter_ms"] = values["step_ms"]
    else:
        values["trials_per_s"] = 1000.0 / values["step_ms"]
    return samples, values


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_cpu": PINNED_CPU,
        "timing": "CPU time of the commands at a reference speed of "
                  f"{REFERENCE_UNIT_S * 1000:g} ms per probe unit",
        "load": "closed loop, 1 client: one CLI process at a time, "
                "example1 --parallel-trials 1",
    }


# --- per-layer metrics from spans ------------------------------------------------------

def _load_spans(path: Path):
    data = json.loads(path.read_text())
    names = data["names"]
    spans = [(names[n], s, e, p, rows) for n, s, e, p, rows in data["spans"]]
    return spans, data["repeats"]


def layer_metrics(spans_dir: Path, steps, n_steps: int) -> dict:
    """Per-layer metrics of one traced repetition of the workload."""
    calls, rows, busy, own, durations = {}, {}, {}, {}, {}
    main_calls, main_rows = {}, {}
    repeat: dict[str, RepeatCounter] = {}
    perturb_in_train = 0.0
    for i, (label, _) in enumerate(steps):
        spans, repeats = _load_spans(spans_dir / f"{label}.json")
        selfs = self_times([s[:4] for s in spans])
        for (name, start, end, parent, n), self_s in zip(spans, selfs):
            calls[name] = calls.get(name, 0) + 1
            rows[name] = rows.get(name, 0) + n
            busy[name] = busy.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_s
            durations.setdefault(name, []).append(end - start)
            if i == 0:
                main_calls[name] = main_calls.get(name, 0) + 1
                main_rows[name] = main_rows.get(name, 0) + n
            if name == "robust.perturb_batch" and _has_ancestor(spans, parent,
                                                               "primaldual.train"):
                perturb_in_train += end - start
        for name, counts in repeats.items():
            repeat.setdefault(name, RepeatCounter()).add_counts(counts["sampled"],
                                                                counts["repeats"])

    def per_call(name):
        vals = durations.get(name, [])
        if not vals:
            return 0.0, 0.0, 0.0
        t = tail(vals)
        pct, value = t if t is not None else (0.0, 0.0)
        return 1000.0 * quartiles(vals)[1], 1000.0 * value, pct

    out = {}
    for name in {**PER_LAYER, **LAYER_EXTRA_UNITS}:
        func, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(func, 0)
        elif kind == "rows":
            out[name] = rows.get(func, 0)
        elif kind == "s":
            out[name] = busy.get(func, 0.0)
        elif kind == "self_s":
            out[name] = own.get(func, 0.0)
        elif kind == "calls_per_iter":
            out[name] = main_calls.get(func, 0) / n_steps
        elif kind == "rows_per_iter":
            out[name] = main_rows.get(func, 0) / n_steps
        elif kind == "repeat_row_share":
            out[name] = repeat.get(func, RepeatCounter()).share
        elif kind in ("p50_ms", "tail_ms", "tail_pct"):
            out[name] = per_call(func)[("p50_ms", "tail_ms", "tail_pct").index(kind)]
    train_s = busy.get("primaldual.train", 0.0)
    out["robust.perturb_batch.share"] = perturb_in_train / train_s if train_s else 0.0
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# --- entry point -------------------------------------------------------------------

def pin_cpu() -> None:
    """Pin this process, its probe thread and the commands it starts to one CPU,
    so that the probe measures the CPU the commands run on."""
    global PINNED_CPU
    PINNED_CPU = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {PINNED_CPU})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to every command as --seed (default: the shipped seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "duallearn" / "cli.py",
                           ROOT / "configs" / "fairness_train.json",
                           ROOT / "configs" / "robust_train.json") if not p.is_file()]
    if missing:
        print("perfbench: not a duallearn checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    pin_cpu()
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The package interface that the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps the functions it names in TRACED and refuses to run
when one is missing, and perfbench/run.py drives the command line with fixed
argument lists over configs it derives from the shipped ones, and checks each
summary against perfbench/reference.json. Both files are loaded by path and
left unchanged, so that a change to the package which breaks the benchmark,
or drifts from its recorded outputs, fails here first.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from duallearn import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_callable_in_its_home_module():
    tracer = load("tracer")
    for module, funcs in tracer.TRACED.items():
        home = importlib.import_module(f"duallearn.{module}")
        for func in funcs:
            assert callable(getattr(home, func, None)), f"duallearn.{module}.{func}"


def test_the_command_line_accepts_every_argument_list_of_the_runner(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ on it
    run = load("run")
    parsed = []
    for command in ("train", "eval", "example1"):
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: parsed.append(args) or 0)
    rep = tmp_path / "rep"
    for workload in run.WORKLOADS:
        _, setup, steps = run.plan(workload, tmp_path / workload)
        for args in [setup, *(make(rep) for _, make in steps)]:
            # run_command appends the run directory, and the seed when one is given
            for tail in (["--out", str(tmp_path / "out")],
                         ["--out", str(tmp_path / "out"), "--seed", "17"]):
                assert cli.main([*args, *tail]) == 0
    commands = [args.command for args in parsed]
    assert commands.count("train") == 2 * 2 * 3  # set-up and run of three workloads
    assert commands.count("eval") == 2 * 2
    assert commands.count("example1") == 2 * 2
    assert {args.parallel_trials for args in parsed if args.command == "example1"} == {1}
    # train and eval default to the config's seed (None), example1 to 0
    assert {args.seed for args in parsed} == {None, 0, 17}


def test_the_set_up_command_of_every_workload_runs(tmp_path, monkeypatch):
    """Each workload's set-up command (its config cut to one iteration, or
    example1 at one trial) runs for real, so a config-schema change that the
    derived configs no longer pass fails here."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run")
    for workload in run.WORKLOADS:
        _, setup, _ = run.plan(workload, tmp_path / workload)
        assert cli.main([*setup, "--out", str(tmp_path / "out" / workload)]) == 0, workload


def test_the_main_commands_of_every_workload_match_the_reference(tmp_path, monkeypatch):
    """Each workload's main commands, run once at the shipped seed, write the
    summaries recorded in perfbench/reference.json, within the tolerance the
    benchmark checks them with."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run")
    reference = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in run.WORKLOADS:
        _, _, steps = run.plan(workload, tmp_path / workload)
        expected = reference[workload][str(run.SHIPPED_SEEDS[workload])]
        assert sorted(expected) == sorted(label for label, _ in steps), workload
        rep = tmp_path / "rep" / workload
        for label, make in steps:
            out = rep / label
            assert cli.main([*make(rep), "--out", str(out)]) == 0, (workload, label)
            summary = run.normalized_summary(out)
            assert run.mismatches(summary, expected[label], run.RTOL, run.ATOL) == [], \
                (workload, label)


def test_the_tracer_runs_the_robust_set_up_command(tmp_path, monkeypatch):
    """perfbench/tracer.py wraps every traced function and reads the row
    arguments of some (it hashes each row of `predict_batch`'s and
    `perturb_batch`'s feature matrix), so a traced function fed an array of
    another shape fails here, not only in traced benchmark runs. The
    robust set-up command attacks its whole set at the iterate its one
    primal step reaches, through the exact two-corner attack."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load("run")
    _, setup, _ = run.plan("robust_pgd", tmp_path / "cfg")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "--spans", str(spans), "--",
         *setup, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    assert traced["coverage_problems"] == []
    attacks = traced["names"].index("robust.perturb_batch")
    assert any(span[0] == attacks for span in traced["spans"])

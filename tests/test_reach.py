"""Reach audit: every function defined in `src/duallearn` is called by a
shipped command, or is allow-listed below under the reason it stays.

The shipped commands run one after another in a fresh interpreter, under a
`sys.settrace` hook set before `duallearn` is imported, so the code that
importing a module runs counts as well, whatever this process imported
before: fairness `train` with and without `save_theta`, `eval --trace` of
the mixture, robust `train`, `eval --model` of its model under the
`pgd-evaluation` attack, `example1 --n 10,100 --trials 50` and `bounds` on
the fixture. Training is cut to 5 dual iterations, which reach the same
functions as the shipped iteration counts; 3 would not, as mu stays 0 until
the third iteration, so no adversarial term is weighted before it.

The audit has two levels, read from one `sys.settrace` run that traces
only the package's frames. A function counts as reached once it is called.
Within a reached function that is not allow-listed whole, every statement
must run, or the function must be in `UNRUN` with the reason some of its
statements stay; `raise` statements are error paths and are never required.
Both lists are keyed by function, not by line, so that edits do not break
them, and an entry that no longer holds fails the audit.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from helpers import SRC

CONFIGS = SRC.parent / "configs"
CUT_ITERATIONS = 5

# group -> the functions that no shipped command reaches, as module.qualname
ALLOWED = {
    "the paper's oracles and the library API around them, run by the tests": (
        "__init__.__dir__", "lagrangian.dual_function", "lagrangian.enumeration_stats",
        "oracle.EnumerableProblem.__post_init__", "oracle.dual_enumerate",
        "oracle.ecrm_enumerate", "oracle.example1_problem", "oracle.example1_sample",
        "primaldual.TrainTrace.__len__",
    ),
    "names that only the benchmark's tracer (perfbench/tracer.py) wraps; they leave "
    "src with it (ROADMAP item 1)": (
        "core.empirical_risk", "lagrangian.slacks", "models.grad_params",
        "oracle.example1_trial",
    ),
    "the run report's diagnostics, which have no command yet": (
        "bounds.empirical_rademacher_stats", "primaldual.ergodic_complementary_slackness",
        "primaldual.ergodic_slacks", "primaldual.recommend_hyperparams",
        "rate.MarginReport.__post_init__", "rate._is_rate", "rate.margin_check",
        "rate.surrogate_gap_bound",
    ),
    "the non-convex path (MLP models and the PGD and FGSM attacks), in no shipped config": (
        "models.MlpArch.__post_init__", "models.MlpArch.n_params", "models._hidden",
        "models.grad_input_batch", "robust.AttackConfig.fgsm", "robust._pgd",
        "robust._project", "robust._restart_starts",
    ),
    "error paths, and config paths that no shipped config takes": (
        "bounds.zeta_rademacher",  # a bounds section with R_N instead of d_vc
        "cli._failing_module",  # names the module of a failed command
        "models.Evaluation.risk",  # a view group whose whole table no term reads
    ),
}

# module.qualname of a reached function -> why some of its statements run
# in no shipped command (`raise` statements aside)
UNRUN = {
    # loss kinds and model shapes that no shipped config uses
    "core.loss_values": "zero-one, squared, absolute and signed-score: the tests' fixtures and "
                        "Example 1, which reads absolute and signed-score in closed form",
    "core.loss_pred_grads": "the squared, absolute and signed-score gradients: the closed forms "
                            "of the tests' TOY and random-problem fixtures",
    "models.init_model": "an MLP's seeded initialisation",
    "models._forward": "an MLP's hidden layers",
    "models._backprop": "an MLP's hidden layers",
    "robust._corner_signs": "a linear model or an MLP under attack",
    "robust.perturb_batch": "a clamp box, and PGD of an MLP",
    "robust._corner_stack": "a clamp box",
    "robust.AttackConfig.__post_init__": "a clamp box",
    # library paths that a config does not take
    "core.stable_sigmoid": "a scalar argument, as the rate diagnostics pass",
    "models.Evaluation.of": "sets to realise up front, as grad_params gives",
    # config and flag paths, and error paths past their `raise`
    "bounds.gap_report": "a bounds section with thresholds_c",
    "cli._build_model": "a model section without init_seed",
    "cli._out_dir": "a command without --out",
    "cli.cmd_bounds": "a bounds section with R_N instead of d_vc",
    "cli.cmd_example1": "--parallel-trials above 1, a bad --n and a failed block",
    "cli.main": "the exit codes of a refused or a failed command",
    "config.check": "the message of a mistyped key, an integer beyond the float range",
    "config.refusals_named": "a value that a section's constructor refuses",
    "data.load_csv": "a non-finite feature cell, which is located only once it is found",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions() -> dict[tuple[str, int], tuple[str, ast.AST]]:
    """{(file, first line): (module.qualname, its node)} of every function
    defined in the package's modules, nested ones included; a decorated
    function's first line is its first decorator's, as its code object's is."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[str(path), first] = (f"{path.stem}.{prefix}{child.name}", child)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted((SRC / "duallearn").resolve().glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


def unrun_statements(func: ast.AST, ran: set[int]) -> list[int]:
    """First lines of the statements of `func` that no command runs, given
    the lines `ran` of its file that did run: `raise` statements, the
    docstring and the functions and classes it defines aside. A statement
    runs when a line of its own runs (its lines less those of the
    statements it holds), or a statement it holds runs."""
    unrun = []

    def visit(stmts) -> bool:
        """Whether any of `stmts` runs; records those that do not."""
        any_ran = False
        for stmt in stmts:
            held = [*getattr(stmt, "body", []), *getattr(stmt, "orelse", []),
                    *getattr(stmt, "finalbody", []),
                    *(s for h in getattr(stmt, "handlers", []) for s in h.body)]
            own = set(range(stmt.lineno, stmt.end_lineno + 1)).difference(
                *(range(s.lineno, s.end_lineno + 1) for s in held))
            runs = visit([s for s in held if not isinstance(s, _DEFS)]) or bool(own & ran)
            if not runs and not isinstance(stmt, ast.Raise):
                unrun.append(stmt.lineno)
            any_ran |= runs
        return any_ran

    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    visit([s for s in body if not isinstance(s, _DEFS)])
    return unrun


def shipped_commands(tmp_path) -> list[list[str]]:
    def config(shipped, save_theta=None, preset=None):
        cfg = json.loads((CONFIGS / shipped).read_text())
        for spec in cfg["problem"]["datasets"].values():
            if "path" in spec:
                spec["path"] = str((CONFIGS / spec["path"]).resolve())
        cfg["dual"]["iterations_T"] = CUT_ITERATIONS
        if save_theta is not None:
            cfg["output"]["save_theta"] = save_theta
        if preset is not None:
            cfg["attack"]["preset"] = preset
        path = tmp_path / f"{len(list(tmp_path.glob('*.json')))}_{shipped}"
        path.write_text(json.dumps(cfg))
        return str(path)

    fair, fair_theta = config("fairness_train.json"), config("fairness_train.json", True)
    robust = config("robust_train.json")
    robust_eval = config("robust_train.json", preset="pgd-evaluation")
    run = tmp_path / "runs"
    return [
        ["train", "--config", fair, "--out", str(run / "fair")],
        ["train", "--config", fair_theta, "--out", str(run / "fair_theta")],
        ["eval", "--config", fair_theta, "--trace", str(run / "fair_theta" / "trace.jsonl"),
         "--out", str(run / "eval_trace")],
        ["train", "--config", robust, "--out", str(run / "robust")],
        ["eval", "--config", robust_eval, "--model", str(run / "robust" / "final_model.txt"),
         "--out", str(run / "eval_model")],
        ["example1", "--n", "10,100", "--trials", "50", "--out", str(run / "example1")],
        ["bounds", "--config", str(CONFIGS / "bounds_fixture.json"),
         "--out", str(run / "bounds")],
    ]


# Run in a fresh interpreter with the commands' argument lists and the
# package directory as its arguments; traces only the package's frames and
# prints the (file, first line) of every function called and the (file,
# line) of every line run.
_TRACED_RUN = """
import contextlib, io, json, sys
package = sys.argv[2]
calls, lines = set(), set()
def local(frame, event, arg):
    if event == "line":
        lines.add((frame.f_code.co_filename, frame.f_lineno))
    return local
def trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(package):
        return None
    calls.add((code.co_filename, code.co_firstlineno))
    return local
sys.settrace(trace)
from duallearn.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in json.loads(sys.argv[1])]
sys.settrace(None)
if codes != [0] * len(codes):
    sys.exit(f"exit codes {codes}")
print(json.dumps({"calls": list(calls), "lines": list(lines)}))
"""


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """((file, first line) of every function the shipped commands call,
    (file, line) of every line they run), from one traced run."""
    commands = shipped_commands(tmp_path_factory.mktemp("reach"))
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, json.dumps(commands),
                           str(SRC / "duallearn") + os.sep],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    return tuple({(os.path.realpath(path), line) for path, line in out[key]}
                 for key in ("calls", "lines"))


def test_every_function_is_reached_by_a_command_or_allow_listed(reached):
    defs = {key: name for key, (name, _) in definitions().items()}
    called = {defs.get(key) for key in reached[0]}
    unreached = set(defs.values()) - called
    allowed = [name for names in ALLOWED.values() for name in names]
    assert len(allowed) == len(set(allowed)), "a function is listed twice"
    assert sorted(unreached - set(allowed)) == [], "reached by no command and not allow-listed"
    assert sorted(set(allowed) - set(defs.values())) == [], "allow-listed but not defined"
    assert sorted(set(allowed) & called) == [], "allow-listed but reached: take it off"


def test_every_statement_of_a_reached_function_runs_or_is_allow_listed(reached):
    """Fails on a statement, other than a `raise`, that no command runs in a
    function that is not allow-listed whole, unless `UNRUN` names the
    function; and on an entry of `UNRUN` that is stale."""
    whole = {name for names in ALLOWED.values() for name in names}
    unrun = {}
    for (path, _), (name, func) in definitions().items():
        lines = unrun_statements(func, {line for p, line in reached[1] if p == path})
        if lines and name not in whole:
            unrun[name] = lines
    assert {name: lines for name, lines in unrun.items() if name not in UNRUN} == {}, (
        "statements that no command runs, in functions not allow-listed")
    assert sorted(set(UNRUN) - set(unrun)) == [], "every statement runs: take it off UNRUN"

"""Reach audit: every function defined in `src/duallearn` is called by a
shipped command, or is allow-listed below under the reason it stays.

The shipped commands run one after another in a fresh interpreter, under a
`sys.setprofile` hook set before `duallearn` is imported, so the code that
importing a module runs counts as well, whatever this process imported
before: fairness `train` with and without `save_theta`, `eval --trace` of
the mixture, robust `train`, `eval --model` of its model under the
`pgd-evaluation` attack, `example1 --n 10,100 --trials 50` and `bounds` on
the fixture. Training is cut to 5 dual iterations, which reach the same
functions as the shipped iteration counts; 3 would not, as mu stays 0 until
the third iteration, so no adversarial term is weighted before it.

The audit is function-level: a function counts once it is called, whatever
branches it takes. Branch-level reach (such as loss kinds that no config
uses) is not audited.
"""

import ast
import json
import os
import subprocess
import sys

from helpers import SRC

CONFIGS = SRC.parent / "configs"
CUT_ITERATIONS = 5

# group -> the functions that no shipped command reaches, as module.qualname
ALLOWED = {
    "library API, called by the oracle, the benchmark's tracer and the tests": (
        "__init__.__dir__", "core.empirical_risk", "lagrangian.dual_function",
        "lagrangian.enumeration_stats", "lagrangian.slacks", "models.grad_params",
        "oracle.EnumerableProblem.__post_init__", "oracle._example1_block_records",
        "oracle._example1_draws", "oracle.dual_enumerate", "oracle.ecrm_enumerate",
        "oracle.example1_blocks", "oracle.example1_problem", "oracle.example1_sample",
        "oracle.example1_trial", "oracle.example1_trials", "primaldual.TrainTrace.__len__",
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
        "core._pm_labels",  # hinge losses
        "models.Evaluation.risk",  # a view group whose whole table no term reads
    ),
    "test support": (
        "core.LossSpec.cross_entropy", "data.save_csv",
    ),
}


def definitions() -> dict[tuple[str, int], str]:
    """{(file, first line): module.qualname} of every function defined in
    the package's modules, nested ones included; a decorated function's
    first line is its first decorator's, as its code object's is."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted((SRC / "duallearn").resolve().glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


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


# Run in a fresh interpreter with the commands' argument lists as its one
# argument; prints the (file, first line) of every Python function called.
_PROFILED_RUN = """
import contextlib, io, json, sys
seen = set()
def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(profile)
from duallearn.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(args) for args in json.loads(sys.argv[1])]
sys.setprofile(None)
if codes != [0] * len(codes):
    sys.exit(f"exit codes {codes}")
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in seen})))
"""


def reached_functions(commands) -> set[tuple[str, int]]:
    """(file, first line) of every Python function the commands call."""
    done = subprocess.run([sys.executable, "-c", _PROFILED_RUN, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return {(os.path.realpath(path), line) for path, line in json.loads(done.stdout)}


def test_every_function_is_reached_by_a_command_or_allow_listed(tmp_path):
    defs = definitions()
    reached = {defs.get(key) for key in reached_functions(shipped_commands(tmp_path))}
    unreached = set(defs.values()) - reached
    allowed = [name for names in ALLOWED.values() for name in names]
    assert len(allowed) == len(set(allowed)), "a function is listed twice"
    assert sorted(unreached - set(allowed)) == [], "reached by no command and not allow-listed"
    assert sorted(set(allowed) - set(defs.values())) == [], "allow-listed but not defined"
    assert sorted(set(allowed) & reached) == [], "allow-listed but reached: take it off"

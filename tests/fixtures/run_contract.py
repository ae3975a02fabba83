"""The run contract: the sha256 of every file that the seven shipped command
shapes write, recorded in run_contract.json beside the numpy version that
wrote them, and checked by tests/test_run_contract.py. Digests depend on
numpy's summation order, so a numpy other than the recorded one may
differ without a fault in this package.

    PYTHONPATH=src python3 tests/fixtures/run_contract.py

re-records it. Run that only on a commit whose outputs are known to be
right, and say in the change why the contract was re-recorded.

The shapes run in one process, in order, each into its own directory under
a run root: both shipped `train` configs, the fairness one again with
`save_theta` on, `eval --trace` of that run, `eval --model` of the robust
run's model under the `pgd-evaluation` attack, `example1` as the benchmark
runs it, and `bounds` on the fixture. A file's bytes are hashed after the
run root and the checkout root are replaced by fixed tokens, so the digests
do not depend on where the checkout or the runs live. Each line of a
``.jsonl`` file is hashed too (the first 8 hex digits of its sha256), so
that a mismatch names the first line that differs.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from duallearn.cli import main

CONTRACT = Path(__file__).with_suffix(".json")
CHECKOUT = Path(__file__).resolve().parents[2]
CONFIGS = CHECKOUT / "configs"
# What the run root and the checkout root read as in a hashed file.
RUN_TOKEN, CHECKOUT_TOKEN = b"<run>", b"<checkout>"
LINE_DIGITS = 8

# derived config -> (shipped config, overrides); written under the run root
# with its csv paths made absolute, as perfbench/run.py derives its configs
DERIVED = {"fairness_theta.json": ("fairness_train.json", {"output": {"save_theta": True}}),
           "robust_eval.json": ("robust_train.json", {"attack": {"preset": "pgd-evaluation"}})}
# command shape -> its arguments, less --out, in run order; {configs} is the
# shipped config directory and {run} the run root
COMMANDS = {
    "train-fairness": ["train", "--config", "{configs}/fairness_train.json"],
    "train-fairness-theta": ["train", "--config", "{run}/fairness_theta.json"],
    "eval-trace": ["eval", "--config", "{run}/fairness_theta.json",
                   "--trace", "{run}/train-fairness-theta/trace.jsonl"],
    "train-robust": ["train", "--config", "{configs}/robust_train.json"],
    "eval-model": ["eval", "--config", "{run}/robust_eval.json",
                   "--model", "{run}/train-robust/final_model.txt"],
    "example1": ["example1", "--n", "10,100,1000", "--trials", "4000"],
    "bounds": ["bounds", "--config", "{configs}/bounds_fixture.json"],
}


def _derive(root: Path) -> None:
    for name, (shipped, overrides) in DERIVED.items():
        cfg = json.loads((CONFIGS / shipped).read_text())
        for spec in cfg["problem"]["datasets"].values():
            if "path" in spec:
                spec["path"] = str(CONFIGS / spec["path"])
        for section, values in overrides.items():
            cfg[section].update(values)
        (root / name).write_text(json.dumps(cfg, indent=2) + "\n")


def _line_digests(data: bytes) -> str:
    return "".join(hashlib.sha256(line).hexdigest()[:LINE_DIGITS]
                   for line in data.splitlines(keepends=True))


def digests(root: Path) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Run every command shape into its own directory under `root`, in order.

    Returns (files, lines): shape -> file name -> sha256 of the file's bytes
    with the path tokens in, and shape -> ``.jsonl`` file name -> its line
    digests, `LINE_DIGITS` hex digits per line, concatenated."""
    root = root.resolve()
    _derive(root)
    files: dict[str, dict[str, str]] = {}
    lines: dict[str, dict[str, str]] = {}
    for shape, args in COMMANDS.items():
        run = root / shape
        args = [a.format(configs=CONFIGS, run=root) for a in args]
        if main([*args, "--out", str(run)]) != 0:
            raise RuntimeError(f"{shape} failed")
        files[shape], lines[shape] = {}, {}
        for p in sorted(run.iterdir()):
            data = (p.read_bytes().replace(str(root).encode(), RUN_TOKEN)
                    .replace(str(CHECKOUT).encode(), CHECKOUT_TOKEN))
            files[shape][p.name] = hashlib.sha256(data).hexdigest()
            if p.suffix == ".jsonl":
                lines[shape][p.name] = _line_digests(data)
    return files, lines


def first_differing_line(got: str, recorded: str) -> int:
    """The 1-based number of the first line whose digest differs between two
    concatenated line-digest strings (a line one of them lacks differs)."""
    n = LINE_DIGITS
    for i in range(0, max(len(got), len(recorded)), n):
        if got[i:i + n] != recorded[i:i + n]:
            return i // n + 1
    raise ValueError("the line digests are equal")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files, lines = digests(Path(tmp))
    contract = {"numpy": np.__version__, "commands": files, "lines": lines}
    CONTRACT.write_text(json.dumps(contract, indent=2, sort_keys=True) + "\n")

"""The run contract: the sha256 of every file that the shipped command
shapes write, recorded in run_contract.json beside the numpy version that
wrote them, and checked by tests/test_run_contract.py. Digests depend on
numpy's summation order, so a numpy other than the recorded one may
differ without a fault in this package.

    PYTHONPATH=src python3 tests/fixtures/run_contract.py

re-records it. Run that only on a commit whose outputs are known to be
right, and say in the change why the contract was re-recorded. So far the
contract holds the shape of the benchmark's `example1` workload.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from duallearn.cli import main

CONTRACT = Path(__file__).with_suffix(".json")
# command shape -> its arguments, less --out
COMMANDS = {"example1": ["example1", "--n", "10,100,1000", "--trials", "4000"]}


def digests(root: Path) -> dict[str, dict[str, str]]:
    """Run every command shape into its own directory under `root`: shape ->
    file name -> sha256 of the file's bytes."""
    out = {}
    for shape, args in COMMANDS.items():
        run = root / shape
        if main([*args, "--out", str(run)]) != 0:
            raise RuntimeError(f"{shape} failed")
        out[shape] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(run.iterdir())}
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        contract = {"numpy": np.__version__, "commands": digests(Path(tmp))}
    CONTRACT.write_text(json.dumps(contract, indent=2, sort_keys=True) + "\n")

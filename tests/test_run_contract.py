"""The shipped command shapes write the bytes recorded in the run contract
(see `fixtures/run_contract.py`)."""

import json

import numpy as np

from fixtures.run_contract import CONTRACT, digests, first_differing_line


def test_shipped_commands_write_the_contract_bytes(tmp_path):
    contract = json.loads(CONTRACT.read_text())
    files, lines = digests(tmp_path)
    assert files.keys() == contract["commands"].keys()
    faults = []
    for shape, got in files.items():
        recorded = contract["commands"][shape]
        for name in sorted(got.keys() | recorded.keys()):
            if got.get(name) == recorded.get(name):
                continue
            fault = f"{shape}/{name} differs"
            if name not in got:
                fault = f"{shape}/{name} was not written"
            elif name not in recorded:
                fault = f"{shape}/{name} is not in the contract"
            elif name in contract["lines"][shape]:
                line = first_differing_line(lines[shape][name], contract["lines"][shape][name])
                fault += f" from line {line} on"
            faults.append(fault)
    assert faults == [], (
        f"unlike the run contract, which numpy {contract['numpy']} recorded (this is "
        f"numpy {np.__version__}): {'; '.join(faults)}")

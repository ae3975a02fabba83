"""The shipped command shapes write the bytes recorded in the run contract
(see `fixtures/run_contract.py`)."""

import json

import numpy as np

from fixtures.run_contract import CONTRACT, digests


def test_shipped_commands_write_the_contract_bytes(tmp_path):
    contract = json.loads(CONTRACT.read_text())
    got = digests(tmp_path)
    assert got.keys() == contract["commands"].keys()
    for shape, files in got.items():
        recorded = contract["commands"][shape]
        differ = sorted(f for f in files.keys() | recorded.keys()
                        if files.get(f) != recorded.get(f))
        assert differ == [], (
            f"{shape} wrote {differ} unlike the run contract, which numpy "
            f"{contract['numpy']} recorded; this is numpy {np.__version__}")

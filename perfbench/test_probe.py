"""Tests of the speed probe and of the normalisation to the reference speed."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import REFERENCE_UNIT_S, SpeedProbe, normalised  # noqa: E402


def test_normalised_scales_by_unit_time():
    # Units twice as slow as the reference: the command's CPU time halves.
    assert normalised(2.0, 2 * REFERENCE_UNIT_S) == pytest.approx(1.0)
    assert normalised(3.0, REFERENCE_UNIT_S) == pytest.approx(3.0)


def test_stopped_probe_has_a_sample():
    probe = SpeedProbe().start()
    unit_s = probe.stop()
    assert len(probe.samples) >= 1
    assert unit_s == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert unit_s > 0.0

"""Tests of the tracer's span timing, on synthetic functions.

    python3 -m pytest -q perfbench
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import self_times  # noqa: E402
from tracer import REPEAT_SAMPLE, Tracer  # noqa: E402

TRACER_WORK_S = 0.05
CALLEE_WORK_S = 0.01


def _traced_pair(tracer):
    """An outer function making three calls into a traced predict_batch."""
    def predict_batch(model, X):
        time.sleep(CALLEE_WORK_S)
        return X @ model.params

    inner = tracer.wrap("models.predict_batch", predict_batch)
    model = SimpleNamespace(params=np.ones(2))
    X = np.arange(512.0).reshape(256, 2)

    def slacks():
        return [inner(model, X) for _ in range(3)]

    return tracer.wrap("lagrangian.slacks", slacks)


def test_tracer_work_is_in_no_span(monkeypatch):
    tracer = Tracer()

    def slow_row_keys(params, X):
        time.sleep(TRACER_WORK_S)
        return []

    monkeypatch.setattr(tracer, "_row_keys", slow_row_keys)
    _traced_pair(tracer)()
    spans = [(tracer.names[n], s, e, p) for n, s, e, p, _ in tracer.spans]
    selfs = self_times(spans)
    outer = spans[0]  # spans are kept in call order
    assert outer[0] == "lagrangian.slacks" and outer[3] == -1
    # Three calls hashed for 3 * 50 ms; none of it is in the outer span, whose
    # time is the callees' 3 * 10 ms plus little else.
    assert tracer.excluded >= 3 * TRACER_WORK_S
    assert 3 * CALLEE_WORK_S <= outer[2] - outer[1] < 3 * CALLEE_WORK_S + TRACER_WORK_S / 2
    assert selfs[0] < TRACER_WORK_S / 2
    assert [(name, parent) for name, _, _, parent in spans[1:]] == \
        [("models.predict_batch", 0)] * 3
    for _, start, end, _ in spans[1:]:
        assert CALLEE_WORK_S <= end - start < CALLEE_WORK_S + TRACER_WORK_S / 2


def test_repeated_rows_are_counted():
    tracer = Tracer()
    slacks = _traced_pair(tracer)
    slacks()
    counter = tracer.repeats["models.predict_batch"]
    # Three calls with the same parameters and rows: every sampled key of the
    # second and third call was seen in the first.
    per_call = counter.sampled // 3
    assert per_call > 0 and counter.sampled == 3 * per_call
    assert counter.repeats == 2 * per_call


def test_row_keys_sample_a_fixed_residue_class():
    tracer = Tracer()
    X = np.random.default_rng(0).standard_normal((20000, 3))
    keys = tracer._row_keys(np.zeros(3), X)
    assert all(k % REPEAT_SAMPLE == 0 for k in keys)
    assert len(keys) == pytest.approx(len(X) / REPEAT_SAMPLE, rel=0.2)
    # The same rows give the same keys; other parameters give other keys.
    assert tracer._row_keys(np.zeros(3), X) == keys
    assert set(tracer._row_keys(np.ones(3), X)).isdisjoint(keys)

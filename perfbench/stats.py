"""Arithmetic of the benchmark: summaries of timings, span self time, the
repeated-work ratio, failure counting and the comparison of outputs against
recorded references. Standard library only, so it can be tested in isolation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives
    them; a single value is its own quartiles."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values to summarise")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail(values, beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile that has at least `beyond` samples above it.

    Returns (percentile, value): the value is the sample with exactly
    `beyond` samples after it in sorted order, and the percentile is the
    share of samples at or below it. None when there are too few samples.
    """
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, vals[n - beyond - 1]


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time covered by direct children.

    `spans` is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span or -1. Children of one span never overlap (calls are
    nested on one thread), so the covered time is the sum of their durations.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


@dataclass
class RepeatCounter:
    """Counts keys that were added before: `repeats` of `sampled` keys.

    The caller chooses which keys to sample; counts of separate counters
    can be summed into one with add_counts().
    """

    sampled: int = 0
    repeats: int = 0
    _seen: set = field(default_factory=set, repr=False)

    def add(self, keys) -> None:
        keys = list(keys)
        before = len(self._seen)
        self._seen.update(keys)
        self.sampled += len(keys)
        self.repeats += len(keys) - (len(self._seen) - before)

    def add_counts(self, sampled: int, repeats: int) -> None:
        self.sampled += sampled
        self.repeats += repeats

    @property
    def share(self) -> float:
        return self.repeats / self.sampled if self.sampled else 0.0


def fail_counts(commands) -> tuple[int, int]:
    """(attempted, failed) over command records.

    A command counts once, and fails when it exits non-zero or when any
    check on its output failed.
    """
    attempted = failed = 0
    for cmd in commands:
        attempted += 1
        if cmd["exit_code"] != 0 or any(not ok for ok in cmd["checks"].values()):
            failed += 1
    return attempted, failed


def mismatches(actual, expected, rtol: float, atol: float, path: str = "") -> list[str]:
    """Key paths where `actual` differs from `expected`.

    Numbers match within atol + rtol * |expected|; everything else must be
    equal. Both sides must have the same keys and list lengths.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [path or "<root>"]
        out = []
        for key in sorted(expected):
            out += mismatches(actual[key], expected[key], rtol, atol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += mismatches(a, e, rtol, atol, f"{path}[{i}]")
        return out
    numbers = (int, float)
    if (isinstance(expected, numbers) and not isinstance(expected, bool)
            and isinstance(actual, numbers) and not isinstance(actual, bool)):
        if math.isclose(actual, expected, rel_tol=rtol, abs_tol=atol):
            return []
        return [path]
    return [] if actual == expected else [path]

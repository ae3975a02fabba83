"""Speed probe: how fast the CPU that runs a command is while it runs.

On a shared virtual machine the speed of one vCPU moves by tens of percent
within seconds, because other tenants share the physical core. Wall time and
CPU time both follow it. The probe runs a fixed unit of work (small numpy
products, short Python loops and plain Python calls: the same mix of
interpreter and small-array work as the CLI) at a steady rate on a thread of
the benchmark process, which is pinned to the same CPU as the command. The
unit is timed on the thread's own CPU clock, so time the command holds the CPU
is not counted in it. The command's CPU time divided by the mean unit time,
times `REFERENCE_UNIT_S`, is its CPU time at a fixed reference speed.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# The speed the normalised times refer to: a host on which one probe unit
# takes exactly 1 ms of CPU time.
REFERENCE_UNIT_S = 1e-3
# Gap between units; with units of 1-1.5 ms the probe takes 2-4% of the CPU.
INTERVAL_S = 0.04

_ROWS = np.linspace(-1.0, 1.0, 1200).reshape(200, 6)
_WEIGHTS = np.linspace(0.5, -0.5, 6)


def _step(total: float, k: int) -> float:
    return (total * 31.0 + k) % 1000003.0


def unit() -> float:
    """The fixed unit of work: small-array calls, then plain Python calls.

    Either half alone tracked some commands worse than the two together: the
    interpreter-bound `train` of the fairness config slows more than numpy
    calls do when the host is busy.
    """
    total = 0.0
    for _ in range(70):
        total += float(np.tanh(_ROWS @ _WEIGHTS).sum())
        total += sum([j * j for j in range(30)])
    seen = {}
    for k in range(1400):
        total = _step(total, k)
        seen[k % 97] = total
    return total


class SpeedProbe:
    """Times `unit()` every INTERVAL_S from start() to stop(), on its own thread.

    The first unit runs at once, so a probe that was started has at least one
    sample when it stops.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            unit()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(INTERVAL_S):
                return

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop the thread, wait for it, and return the mean unit time in seconds."""
        self._stop.set()
        self._thread.join()
        return sum(self.samples) / len(self.samples)


def normalised(cpu_s: float, unit_s: float) -> float:
    """CPU time `cpu_s`, measured while units took `unit_s`, at the reference speed."""
    return cpu_s * REFERENCE_UNIT_S / unit_s

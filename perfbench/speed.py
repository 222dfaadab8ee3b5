"""Machine-speed probe: timings scaled to a fixed nominal CPU speed.

On the shared 2-core x86 VM the baseline was measured on, the CPU's speed
changes by up to 2x from one second to the next (other tenants share the
cores), and the mix of fast and slow periods drifts over minutes, so raw
wall times of the same workload spread by 10-23% (quartile distance over
median) across ten runs.

The probe samples the speed while a measurement runs: a wall-clock timer
interrupts the program every INTERVAL seconds and times `reference`, a
fixed slice of work shaped like the tea engine's per-op cost (small numpy
products and Python bookkeeping). The slice allocates nothing table-sized
and touches only a few KiB. Each sample runs it twice and times only the
second run, after the first has refilled the caches the program evicted,
so the sample follows the CPU's speed rather than the program's heap or
cache state. The time spent in the handler is subtracted from the measured
wall time, and the rest is scaled by the mean sampled speed relative to
NOMINAL_SECONDS. Measurements are single-threaded, so a signal handler in
the main thread is enough; no thread or process is started.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05
# Wall time of one `reference` slice on the machine the baseline was measured
# on (a shared 2-core x86 VM, Python 3.11, numpy 2.4) in its fast state: the
# first percentile of 3000 slices. It only sets the scale of the reported
# figures; changing it rescales every baseline.
NOMINAL_SECONDS = 0.00027

_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_V = np.linspace(0.0, 1.0, 32)


def reference() -> float:
    acc = 0.0
    seen = {}
    for i in range(100):
        x = _A @ _V
        y = np.tanh(x) * 0.5 + x
        seen[i & 7] = y
        acc += float(y[i & 31])
    return acc


class SpeedProbe:
    """Context manager: `seconds(wall)` turns a wall time measured inside it
    into seconds at nominal speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_seconds = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.handler_seconds += t2 - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean sampled speed relative to nominal (1.0 = reference machine, fast state)."""
        if not self.samples:
            return 1.0
        return sum(NOMINAL_SECONDS / s for s in self.samples) / len(self.samples)

    def seconds(self, wall: float) -> float:
        return (wall - self.handler_seconds) * self.speed

"""Host-speed adjustment of the end-to-end timings.

On a shared host the speed of a core drifts by 20% and more over a few
minutes, and every timing drifts with it, whatever the program does.  A
run therefore also times a fixed pure-Python routine, ``reference_work``,
before set-up and about every ``EVERY_S`` seconds between items, and
scales its end-to-end timings by ``NOMINAL_S`` over the median reference
time.  The figures then read as they would on a host that runs the
routine in ``NOMINAL_S``.  The routine never calls the program, so a
change to the program moves the adjusted figures as it moves the raw
ones; the raw figures and the factor are kept in the run's stamp.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_S = 0.02    # reference_work() on the 2-vCPU Xeon host the bounds were set on
EVERY_S = 0.5


def reference_work() -> int:
    """Fixed work of the program's kind (bit counts, dict and set updates,
    sorting).  Changing it changes every adjusted figure."""
    acc = 0
    counts: dict[int, int] = {}
    seen = set()
    for i in range(30_000):
        m = (i * 2654435761) & 0xFFFFF
        acc += (m & (m >> 3)).bit_count()
        seen.add(m & 0xFFF)
        counts[m & 0x3FF] = counts.get(m & 0x3FF, 0) + 1
        if not i % 200:
            acc += len(sorted(counts.values()))
    return acc + len(seen)


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0          # seconds spent in reference_work
        self._last = float("-inf")

    def sample(self, repeat: int = 1):
        # Keep the cyclic collector, whose pauses grow with the program's
        # heap, out of the reference timing.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeat):
                t0 = time.perf_counter()
                reference_work()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.spent += t1 - t0
                self._last = t1
        finally:
            if enabled:
                gc.enable()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a measured time by this to read it at nominal host speed."""
        return NOMINAL_S / statistics.median(self.samples)

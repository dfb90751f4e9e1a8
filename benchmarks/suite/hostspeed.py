"""How fast the host runs right now, sampled on a thread of the measuring process.

The reference host is a shared virtual machine.  Other tenants slow its
vCPUs by 20–80% for seconds to minutes at a time, and the guest cannot
tell: no steal time is reported, and a thread's CPU time stretches with
its wall time.  :class:`HostSpeed` runs a fixed pure-Python loop on a
background thread every :data:`PERIOD` seconds and records how much
*thread CPU time* the loop took.  An operation's *slowdown* is the mean
of the samples taken while it ran, over :data:`REFERENCE_S`.

In log terms an operation's time grows by its workload's *elasticity*
times as much as the loop's: 1 for interpreted Python, less for work in
NumPy kernels.  Its *host factor* is its slowdown to that power, and a
time divided by its factor reads as at the loop's reference speed.

The loop's speed also depends on where the interpreter's code and data
sit in memory, by up to a third between two processes, so the samples
are comparable only between processes with the same layout: ``run.py``
starts every measuring process with address-space randomization off.

The factor is kept out of the program's reach.  The loop's working set
fits in the first-level cache, so the program's own memory traffic does
not slow it (a probe that walked a few megabytes did slow with the
program's cache use, and was dropped).  And it counts CPU time, not wall
time: a thread of the program that holds the GIL, or a process that
takes the vCPU, only delays the loop, and a delay is not CPU time.  The
sampler runs in the process that runs the program's operations — the
measuring subprocess, or the ``repro serve`` process for ``serve-mix`` —
and starts before the program is imported.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

#: One sample is this many iterations of the loop, taken every PERIOD s.
ITERATIONS = 20_000
PERIOD = 0.05

#: The speed corrected times are expressed at: the median of 8 788
#: samples of the loop's thread CPU time over forty measuring processes,
#: address-space randomization off, on the reference host (2-vCPU Intel
#: Xeon VM, Python 3.11).  It scales every corrected time alike.
REFERENCE_S = 0.0025

#: An operation that spans fewer samples borrows the nearest ones.
MIN_SAMPLES = 5


class HostSpeed:
    """A daemon thread sampling the host's speed until :meth:`stop`."""

    def __init__(self) -> None:
        #: (perf_counter at the sample's middle, thread CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed",
                                        daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            wall = time.perf_counter()
            cpu = time.thread_time()
            total = 0
            for i in range(ITERATIONS):
                total += i * i % 7
            cost = time.thread_time() - cpu
            self.samples.append(((wall + time.perf_counter()) / 2, cost))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown against the reference host over ``[start, end]``
        (perf_counter times); 1.0 when there are no samples at all."""
        samples = self.samples[:]
        times = [stamp for stamp, _ in samples]
        low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(times, (start + end) / 2)
            low = max(0, min(middle - MIN_SAMPLES // 2,
                             len(samples) - MIN_SAMPLES))
            high = min(len(samples), low + MIN_SAMPLES)
        if high <= low:
            return 1.0
        return statistics.fmean(cost for _, cost in samples[low:high]) / REFERENCE_S

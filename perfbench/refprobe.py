"""CPU time counted against a reference loop timed beside the work.

The benchmark runs on a VM that shares its cores with other tenants.
Its speed changes by up to half within seconds, and CPU time follows:
identical paper passes took 6.4 to 9.4 CPU seconds within three minutes.
A :class:`RefProbe` runs a fixed pure-Python loop from a ``SIGPROF``
handler every :data:`INTERVAL_S` of process CPU time, and counts the
work done between two loops in units of the loop's own time: a window
of ``w`` CPU seconds ending at a loop that took ``q`` seconds adds
``w / q`` refs.  Work and loop run on the same core a few milliseconds
apart, so both slow down together and the sum tracks the work, not the
host.  ``record.json`` gives the run-to-run spread with and without it.

The loop is interpreter work -- integer arithmetic, small objects and
method calls -- because that is what bounds every workload here; a numpy
loop did not slow down with the host the way the workloads did.

The loops add about 4% to the CPU a probed process uses.  They are left
out of the CPU and pass times the benchmark reports; serve-mixed probes
only its untraced daemon run, whose latencies include them.  The
handler runs in the main thread.  ``clock`` measures the windows:
``time.thread_time`` for work in the main thread, ``time.process_time``
for a process whose work also runs in other threads (the daemon).  The
loop itself is always timed on the main thread's clock and left out of
the windows.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Sequence, Tuple

#: Process CPU time between two reference loops.
INTERVAL_S = 0.025
_INT_STEPS = 2000
_OBJ_STEPS = 800


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a * 0.5

    def at(self, x: float) -> float:
        return self.a * x + self.b


def reference_loop() -> float:
    """The fixed work the windows are counted against (about 1 ms)."""
    acc = 0
    for i in range(_INT_STEPS):
        acc += i * i % 7
    total = float(acc)
    for i in range(_OBJ_STEPS):
        total += _Cell(i).at(1.5)
    return total


class RefProbe:
    """Time :func:`reference_loop` every :data:`INTERVAL_S` of CPU time.

    ``samples`` holds one ``(stamp, window_s, loop_s)`` per loop, where
    ``stamp`` is the ``perf_counter`` time the loop started (a
    system-wide clock, so another process can select samples by time).
    """

    def __init__(self, clock: Callable[[], float] = time.thread_time
                 ) -> None:
        self.clock = clock
        self.samples: List[Tuple[float, float, float]] = []
        self.loop_s = 0.0
        self._mark = 0.0
        self._last_loop = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        at = self.clock()
        stamp = time.perf_counter()
        start = time.thread_time()
        reference_loop()
        loop = time.thread_time() - start
        self.samples.append((stamp, at - self._mark - self._last_loop, loop))
        self.loop_s += loop
        self._mark = at
        self._last_loop = loop

    def start(self) -> None:
        reference_loop()  # compile and warm before the first sample
        self.samples = []
        self.loop_s = 0.0
        self._last_loop = 0.0
        self._mark = self.clock()
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        if self.samples:
            # The tail after the last loop counts at that loop's speed.
            tail = self.clock() - self._mark - self._last_loop
            self.samples.append((time.perf_counter(), tail,
                                 self.samples[-1][2]))

    def work_s(self) -> float:
        """CPU seconds of the work itself, the loops left out."""
        return sum(w for _, w, _ in self.samples)


def refs(samples: Sequence[Sequence[float]], since: float = float("-inf"),
         until: float = float("inf")) -> float:
    """Work in refs over the ``RefProbe`` samples stamped in
    ``(since, until]``."""
    return sum(w / q for stamp, w, q in samples
               if since < stamp <= until and q > 0)

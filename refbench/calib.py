"""Reference-speed calibration: read every timing "at reference speed".

On a small shared machine the interpreter's speed itself drifts by a
factor of two or more between (and within) runs, so raw wall-clock and
CPU times of identical work are too noisy to gate on.  The remedy used
here: a fixed *reference kernel* - pure-Python work shaped like the
program's (``__slots__`` objects, dict inserts, ``bisect.insort`` into
page-sized lists, a sort) - runs before and after every timed slice.
The mean ``r`` of those two runs measures the machine's current speed;
every time measured in the slice is multiplied by ``R_REF / r``, where
``R_REF`` is a constant fixed here.  A change to the program changes
the slice time but not ``r``, so it still shows; a change in machine
speed changes both and cancels.

The kernel never imports the program, runs with the cyclic garbage
collector paused and touches only its own data, so its time does not
depend on the program's heap.  It only measures machine speed if the
system under test is idle while it runs: :class:`Calibrator` therefore
meters the CPU time that other threads of this process (and, when
given, a server child process) burn during the kernel runs, and
:meth:`Calibrator.background_share` reports it so a run can fail when
background work would otherwise read as a speed-up.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import time

#: Kernel seconds on the reference machine.  Calibrated times read as
#: "seconds on a machine that runs the kernel in ``R_REF`` seconds".
R_REF = 0.004

#: Above this share of kernel time spent by other threads or the server
#: child, the kernel no longer measures the machine alone: the run fails.
MAX_BACKGROUND_SHARE = 0.10

_CLOCK_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class _Cell:
    __slots__ = ("key", "value", "page")

    def __init__(self, key, value, page):
        self.key = key
        self.value = value
        self.page = page


def _kernel_body(rounds: int = 3) -> int:
    checksum = 0
    for round_no in range(rounds):
        index = {}
        pages = [[] for _ in range(64)]
        key = 12345 + round_no
        for step in range(1200):
            key = (key * 1103515245 + 12345) & 0x7FFFFFFF
            cell = _Cell(key, step, key & 63)
            index[key] = cell
            page = pages[cell.page]
            bisect.insort(page, key)
            if len(page) > 48:
                del page[:24]
        merged = sorted(k for page in pages for k in page)
        checksum ^= merged[len(merged) // 2] ^ len(index)
    return checksum


def reference_kernel(clock=time.perf_counter) -> float:
    """Run the fixed reference work once; returns its seconds on ``clock``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _kernel_body()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def child_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name: state is [0], utime [11], stime [12].
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


class Calibrator:
    """Kernel runs around timed slices plus the idle-guard meter.

    ``watch_pid`` names a child process whose CPU time during kernel
    runs counts as background work (the cluster's server child).
    ``clock`` times the kernel and the set-up phases; a workload timed
    in thread CPU time passes ``time.thread_time`` so that both sides
    of the ``R_REF / r`` ratio use the same clock.
    """

    def __init__(self, watch_pid: int = 0, clock=time.perf_counter):
        self.watch_pid = watch_pid
        self.clock = clock
        self.kernel_times: list = []
        self._kernel_total = 0.0
        self._background = 0.0

    def kernel(self) -> float:
        """One guarded kernel run; returns its seconds on ``self.clock``."""
        other0 = time.process_time() - time.thread_time()
        child0 = child_cpu_seconds(self.watch_pid) if self.watch_pid else 0.0
        elapsed = reference_kernel(self.clock)
        other1 = time.process_time() - time.thread_time()
        child1 = child_cpu_seconds(self.watch_pid) if self.watch_pid else 0.0
        self._background += max(0.0, other1 - other0) + max(0.0, child1 - child0)
        self._kernel_total += elapsed
        self.kernel_times.append(elapsed)
        return elapsed

    def background_share(self) -> float:
        """CPU seconds of other threads/processes per kernel second."""
        if self._kernel_total <= 0:
            return 0.0
        return self._background / self._kernel_total

    def ref_ms(self) -> float:
        """Median kernel time in milliseconds (a diagnostic)."""
        return statistics.median(self.kernel_times) * 1e3 if self.kernel_times else 0.0

    def timed_phase(self, phase) -> "tuple[float, float]":
        """Run ``phase()`` between two kernels; (calibrated s, raw s)."""
        before = self.kernel()
        start = self.clock()
        phase()
        raw = self.clock() - start
        after = self.kernel()
        return raw * R_REF / ((before + after) / 2), raw


class PhaseTotals:
    """The calibrated and raw seconds of one set-up, summed over its phases."""

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.calibrated = 0.0
        self.raw = 0.0

    def __call__(self, phase) -> float:
        """Run one calibrated set-up phase; returns its calibrated seconds."""
        calibrated, raw = self.cal.timed_phase(phase)
        self.calibrated += calibrated
        self.raw += raw
        return calibrated

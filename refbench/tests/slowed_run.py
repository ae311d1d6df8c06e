"""Run the benchmark with ``ThreadSafeDenseFile`` writes slowed down.

Usage, from the repository root::

    python3 refbench/tests/slowed_run.py 0.15 --workload churn --seed 1 --seconds 3 --trace 0

The first argument is the share of each ``insert``/``delete`` call's
own duration that a busy-wait adds after it; the rest are the
arguments of ``refbench/run.py``.  The wrappers are installed on the
class in this process only, before the benchmark starts, so the
benchmark itself carries no slowdown option.  The injected-slowdown
self-test in ``test_refbench.py`` uses this.
"""

from __future__ import annotations

import os
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def busy_wait_wrapper(call, share: float):
    """``call`` followed by a busy-wait of ``share`` of its own duration."""
    clock = time.perf_counter

    def slowed(*args, **kwargs):
        start = clock()
        result = call(*args, **kwargs)
        until = clock() + (clock() - start) * share
        while clock() < until:
            pass
        return result

    return slowed


def main(argv) -> int:
    share = float(argv[0])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, BENCH)
    from repro import ThreadSafeDenseFile

    for name in ("insert", "delete"):
        setattr(ThreadSafeDenseFile, name,
                busy_wait_wrapper(getattr(ThreadSafeDenseFile, name), share))
    import run

    return run.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

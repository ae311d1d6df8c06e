"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest refbench/tests -q

The injected-slowdown self-test runs the benchmark several times per
workload (a few minutes); the other tests are quick.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from streams import DELETE, INSERT, SCAN, SEARCH, churn_stream, preload_keys, uniform_stream  # noqa: E402
from tracing import Tracer  # noqa: E402


def replay_is_clean(ops, preloaded):
    """Every op of the stream is valid against a model of the live keys."""
    live = set(preload_keys(preloaded))
    for kind, key, value in ops:
        if kind == INSERT:
            assert key not in live
            live.add(key)
        elif kind == DELETE:
            assert key in live
            live.remove(key)
        elif kind == SEARCH:
            assert key in live
        else:
            assert kind == SCAN and key <= value
    return live


def test_streams_are_seeded_and_never_fail():
    assert churn_stream(3, 20000, 4096) == churn_stream(3, 20000, 4096)
    assert churn_stream(3, 20000, 4096) != churn_stream(4, 20000, 4096)
    replay_is_clean(churn_stream(3, 20000, 4096), 4096)
    replay_is_clean(uniform_stream(5, 5000, 1024, 0.45, 0.45), 1024)
    replay_is_clean(uniform_stream(5, 5000, 1024, 0.075, 0.075, scan_width=256), 1024)


def test_churn_keeps_its_size_level():
    ops = churn_stream(7, 40000, 4096)
    inserts = sum(1 for op in ops if op[0] == INSERT)
    deletes = sum(1 for op in ops if op[0] == DELETE)
    assert abs(inserts - deletes) <= 2048 + 64
    assert 0.35 < inserts / len(ops) < 0.45


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, total, own = tracer.summary()["outer"]
    inner_calls, inner_total, _ = tracer.summary()["inner"]
    assert calls == 1 and inner_calls == 2
    assert own == pytest.approx(total - inner_total)


def test_restore_removes_every_wrapper():
    class Thing:
        def work(self):
            return 1

    thing = Thing()
    tracer = Tracer()
    tracer.install(thing, "work", "thing", root=True)
    assert "work" in vars(thing) and thing.work() == 1
    tracer.restore()
    assert "work" not in vars(thing)
    assert tracer.op == 1


def run_bench(workload, seed, seconds, slowdown=None):
    """One untraced run's metrics; ``slowdown`` slows ThreadSafeDenseFile writes."""
    if slowdown is None:
        program = [os.path.join("refbench", "run.py")]
    else:
        program = [os.path.join("refbench", "tests", "slowed_run.py"), str(slowdown)]
    completed = subprocess.run(
        [sys.executable, *program, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr
    return result["metrics"]


def test_refuses_to_run_without_the_program(tmp_path):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def test_injected_write_slowdown_trips_churn_only():
    """A 15% busy-wait in ThreadSafeDenseFile writes must show.

    ``slowed_run.py`` installs the busy-wait on the class in the
    benchmark's process (the client process).

    Calibration must not absorb a real slowdown: ``churn`` (the only
    workload whose client calls ``ThreadSafeDenseFile``) must move past
    its ``write_p50_us`` bound; ``stream`` and ``durable`` must not.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    bound = bounds["write_p50_us"]
    ratios = {}
    # Five runs per side everywhere, so that noise alone neither hides
    # the churn slowdown nor moves stream or durable past the bound.
    for workload, seconds, seeds in (
        ("churn", 4, (11, 12, 13, 14, 15)),
        ("stream", 8, (11, 12, 13, 14, 15)),
        ("durable", 5, (11, 12, 13, 14, 15)),
    ):
        plain, slowed = [], []
        for seed in seeds:
            # Alternate which side runs first, so drift hits both alike.
            sides = [(plain, None), (slowed, 0.15)]
            if seed % 2:
                sides.reverse()
            for sink, slowdown in sides:
                sink.append(run_bench(workload, seed, seconds, slowdown)["write_p50_us"]["value"])
        ratios[workload] = statistics.median(slowed) / statistics.median(plain)
    print("write_p50_us slowed/plain ratios:", ratios)
    assert ratios["churn"] > 1 + bound, ratios
    assert abs(ratios["stream"] - 1) < bound, ratios
    assert abs(ratios["durable"] - 1) < bound, ratios

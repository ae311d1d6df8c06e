"""Server side of the ``cluster`` workload, run as a child process.

Usage (from the checkout root; the parent in ``workloads.py`` does it)::

    python3 refbench/cluster_child.py --trace 0

Builds a 4-shard memory-backed ``ShardedDenseFile`` preloaded with the
same records as the other workloads, serves it with a ``ClusterServer``
on a loopback port and prints one JSON line: the address plus the
set-up times, each phase calibrated here (a kernel in the parent cannot
see this process's CPU).  It then answers one-line commands on
standard input: ``kernel`` (run the reference kernel here, for the
parent's slice calibration), ``trace`` / ``untrace`` (install / remove
the server-side span wrappers) and ``stop``, after which it stops the
server and prints a final JSON line with the per-command page accesses
of every shard (from the engines' operation logs), the shards' page
writes, its peak RSS and,
with ``--trace 1``, the server-side span summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

NUM_SHARDS = 4


def build(phase, records, key_space):
    """One set-up, each phase timed by ``phase`` (a ``PhaseTotals``)."""
    from repro import ClusterServer, ShardedDenseFile

    made = {}

    def make():
        made["store"] = ShardedDenseFile.build(
            num_shards=NUM_SHARDS, key_space=key_space,
            capacity_hint=len(records) // NUM_SHARDS,
        )

    def load():
        store = made["store"]
        groups = [[] for _ in range(NUM_SHARDS)]
        for record in records:
            groups[store.shard_map.shard_for(record.key)].append(record)
        for shard, group in zip(store.shards, groups):
            shard.inner.bulk_load(group)

    def serve():
        made["server"] = ClusterServer(made["store"])
        made["address"] = made["server"].start()

    phase(make)
    phase(load)
    phase(serve)
    return made


def instrument(tracer, made) -> None:
    """Server-side spans: frame handling, routing, lock wrapper, engine."""
    server, store = made["server"], made["store"]
    tracer.install(server, "handle_frame", "cluster.server.handle_frame")
    for name in ("insert", "delete", "search"):
        tracer.install(store, name, "cluster.store")
    for shard in store.shards:
        for name in ("insert", "delete", "search"):
            tracer.install(shard, name, "concurrent.file")
        for name in ("insert", "delete"):
            tracer.install(shard.inner, name, "core.engine")
        tracer.install(shard.inner, "search", "core.engine.search")
        tracer.install(
            shard.inner.engine.pagefile, "move_records", "core.pagefile.move",
            on_result=tracer.count("records_moved"),
        )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from calib import Calibrator, PhaseTotals
    from streams import SPACING
    from tracing import Tracer
    from workloads import PRELOAD, SETUP_REPEATS, paper_bound, preload_records

    cal = Calibrator()
    records = preload_records(PRELOAD)
    key_space = PRELOAD * SPACING
    setup_cal, setup_raw = [], []
    made = None
    for _ in range(SETUP_REPEATS):
        if made is not None:
            made["server"].stop()
            made["store"].close()
        phase = PhaseTotals(cal)
        made = build(phase, records, key_space)
        setup_cal.append(phase.calibrated)
        setup_raw.append(phase.raw)
    store, server = made["store"], made["server"]
    logs = [shard.inner.engine.enable_operation_log() for shard in store.shards]
    writes0 = sum(shard.inner.stats.writes for shard in store.shards)
    tracer = Tracer() if args.trace else None
    host, port = made["address"]
    params = store.shards[0].inner.params
    print(json.dumps({
        "host": host, "port": port,
        "setup_cal": setup_cal, "setup_raw": setup_raw,
        "bound": paper_bound(params), "ref_ms": cal.ref_ms(),
    }), flush=True)

    # The parent brackets its timed phase with "trace"/"untrace", so the
    # handshake and the final full scan stay out of the spans.
    for line in sys.stdin:
        command = line.strip()
        if command == "trace" and tracer is not None:
            instrument(tracer, made)
        elif command == "untrace" and tracer is not None:
            tracer.restore()
        elif command == "kernel":
            print(json.dumps({"ok": command, "kernel": cal.kernel()}), flush=True)
            continue
        elif command == "stop":
            break
        print(json.dumps({"ok": command}), flush=True)
    server.stop()
    accesses = [count for log in logs for count in log.page_accesses]
    moved = sum(count for log in logs for count in log.records_moved)
    report = {
        "write_commands": len(accesses),
        "write_accesses": sum(accesses),
        "max_write_accesses": max(accesses, default=0),
        "records_moved": moved,
        # Page writes to the shards' memory-backed stores.
        "storage_writes": sum(shard.inner.stats.writes for shard in store.shards) - writes0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "background_share": cal.background_share(),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        os.makedirs(".bench_out", exist_ok=True)
        tracer.write(os.path.join(".bench_out", "spans-cluster-server.tsv"))
    store.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

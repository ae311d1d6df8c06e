"""Reference-calibrated benchmark of the dense sequential file.

Run from the root of a checkout::

    python3 refbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (timed ones scaled to reference speed,
see ``calib.py``); ``--trace 1`` runs the same stream untraced and then
traced, and reports the per-layer metrics plus the trace overhead.
Diagnostics (raw wall-clock figures, kernel time) go to standard
error.  Workloads, metrics and the calibration method are described in
``refbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(share * len(ordered))) - 1))
    return ordered[index]


def exact_counts(workload) -> dict:
    """The counts that depend only on the op stream, never on timing."""
    return {
        "page_accesses_per_write": workload.write_accesses / max(1, workload.write_commands),
        "max_page_accesses_per_write": workload.max_write_accesses,
        "storage_writes_per_write": workload.storage_writes / max(1, workload.write_commands),
        "write_bytes_per_user_byte": workload.write_bytes_per_user_byte(),
    }


def end_to_end(workload) -> dict:
    us = 1e6
    writes, reads = workload.cal_writes, workload.cal_reads
    exact = exact_counts(workload)
    return {
        "setup_s": (statistics.median(workload.setup_cal), "s"),
        "ops_per_s": (workload.cal_ops / workload.cal_busy, "1/s"),
        "write_p50_us": (percentile(writes, 0.50) * us, "us"),
        "write_tail_us": (percentile(writes, workload.TAIL) * us, "us"),
        "read_p50_us": (percentile(reads, 0.50) * us, "us"),
        "read_tail_us": (percentile(reads, workload.TAIL) * us, "us"),
        "page_accesses_per_write": (exact["page_accesses_per_write"], "count"),
        "max_page_accesses_per_write": (exact["max_page_accesses_per_write"], "count"),
        "storage_writes_per_write": (exact["storage_writes_per_write"], "count"),
        "peak_rss_mb": (workload.rss_mb(), "MiB"),
    }


def wall_clock(workload) -> dict:
    """Durable's wall-clock transaction latency (its timed metrics are CPU time)."""
    wall = getattr(workload, "wall_writes", None)
    if not wall:
        return {}
    return {
        "wall_write_p50_us": percentile(wall, 0.50) * 1e6,
        "wall_write_p99_us": percentile(wall, 0.99) * 1e6,
        "wall_ops_per_s": len(wall) / sum(wall),
    }


def diagnostics(workload) -> dict:
    """Raw (uncalibrated) figures beside the calibrated ones; not gated."""
    us = 1e6
    return {
        "raw_setup_s": statistics.median(workload.setup_raw),
        "raw_ops_per_s": workload.attempted / workload.slice_busy(0, 0),
        "raw_write_p50_us": percentile(workload.raw_writes, 0.50) * us,
        "raw_write_tail_us": percentile(workload.raw_writes, workload.TAIL) * us,
        "raw_read_p50_us": percentile(workload.raw_reads, 0.50) * us,
        "raw_read_tail_us": percentile(workload.raw_reads, workload.TAIL) * us,
        "write_p99_us": percentile(workload.cal_writes, 0.99) * us,
        "read_p99_us": percentile(workload.cal_reads, 0.99) * us,
        "calib.ref_ms": workload.cal.ref_ms(),
        **wall_clock(workload),
        "calib.background_share": workload.background_share(),
        "ops": workload.attempted,
        "bound": workload.bound(),
    }


def per_layer(base, traced) -> dict:
    """Layer metrics of the traced run; counts from the untraced one.

    Span times are scaled to reference speed with the traced run's
    median slice factor.  A layer the workload does not reach reports 0.
    """
    spans = dict(traced.tracer.summary())
    child = getattr(traced, "child_report", {})
    for name, figures in child.get("spans", {}).items():
        spans[name] = tuple(figures)
    counts = dict(traced.tracer.counts)
    counts.update(child.get("counts", {}))
    scale = statistics.median(traced.scales) * 1e6

    def per(name: str, index: int, divisor: float) -> float:
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        value = (calls, total, own)[index]
        return value * scale / divisor if calls and divisor else 0.0

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    TOTAL, SELF = 1, 2
    writes = traced.write_commands
    ops = traced.attempted
    extra = base.extra
    untraced_rate = end_to_end(base)["ops_per_s"][0]
    traced_rate = end_to_end(traced)["ops_per_s"][0]
    rpc = calls("cluster.rpc")
    metrics = {
        "core.engine.self_us_per_write": (per("core.engine", SELF, writes), "us"),
        "core.engine.records_moved_per_write": (counts.get("records_moved", 0) / writes, "count"),
        "concurrent.file.self_us_per_op": (
            per("concurrent.file", SELF, calls("concurrent.file")), "us"),
        "core.pagefile.scan_us_per_record": (
            per("core.pagefile.scan", TOTAL, extra.get("scanned_records", 0)), "us"),
        "storage.bufferpool.hit_rate": (extra.get("hit_rate", 0.0), "ratio"),
        "storage.bufferpool.misses_per_op": (extra.get("misses_per_op", 0.0), "count"),
        "storage.bufferpool.writebacks_per_op": (extra.get("writebacks_per_op", 0.0), "count"),
        "storage.bufferpool.prefetch_hits_per_op": (
            extra.get("prefetch_hits_per_op", 0.0), "count"),
        "storage.ondisk.encode_us_per_page": (
            per("storage.ondisk.encode", TOTAL, calls("storage.ondisk.encode")), "us"),
        "storage.ondisk.pages_written_per_op": (extra.get("pages_written_per_op", 0.0), "count"),
        "storage.wal.commit_us": (per("storage.wal.write_transaction", TOTAL, ops), "us"),
        "storage.wal.fsyncs_per_txn": (extra.get("fsyncs_per_txn", 0.0), "count"),
        "storage.wal.bytes_per_txn": (extra.get("journal_bytes_per_txn", 0.0), "B"),
        "storage.write_bytes_per_user_byte": (base.write_bytes_per_user_byte(), "ratio"),
        "persistent.open_s": (
            statistics.median(base.open_cal) if hasattr(base, "open_cal") else 0.0, "s"),
        "persistent.commit_self_us": (per("persistent.commit", SELF, ops), "us"),
        "cluster.client.self_us": (per("cluster.client", SELF, calls("cluster.client")), "us"),
        "cluster.client.retries_per_op": (getattr(traced, "retries", 0) / ops, "count"),
        "cluster.wire.encode_us": (
            per("cluster.wire.encode", TOTAL, calls("cluster.wire.encode")), "us"),
        "cluster.wire.decode_us": (
            per("cluster.wire.decode", TOTAL, calls("cluster.wire.decode")), "us"),
        "cluster.server.handle_frame_us": (
            per("cluster.server.handle_frame", TOTAL, calls("cluster.server.handle_frame")), "us"),
        "cluster.store.us_per_op": (per("cluster.store", TOTAL, calls("cluster.store")), "us"),
        "cluster.transport_us": (
            max(0.0, per("cluster.rpc", TOTAL, rpc)
                - per("cluster.server.handle_frame", TOTAL, rpc)), "us"),
        "paper.bound_headroom": (base.bound() - base.max_write_accesses, "count"),
        "calib.ref_ms": (base.cal.ref_ms(), "ms"),
        "calib.background_share": (base.background_share(), "ratio"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead": (untraced_rate / traced_rate, "ratio"),
    }
    return metrics


def run_once(cls, args, tracer=None):
    from calib import Calibrator

    workload = cls(args.seed, args.seconds, Calibrator(clock=cls.CLOCK), tracer=tracer)
    try:
        workload.execute()
    finally:
        workload.close()
    return workload


def check(workload) -> list:
    """Failed checks beyond the per-op oracle comparisons."""
    from calib import MAX_BACKGROUND_SHARE

    problems = list(workload.problems)
    bound = workload.bound()
    if workload.max_write_accesses > bound:
        problems.append(
            f"max page accesses per write {workload.max_write_accesses} exceeds "
            f"the Theorem 5.5 bound {bound}"
        )
    share = workload.background_share()
    if share > MAX_BACKGROUND_SHARE:
        problems.append(
            f"background CPU during kernel runs was {share:.1%} of kernel time "
            f"(limit {MAX_BACKGROUND_SHARE:.0%}): calibration would be biased"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"refbench: no program source at {source}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)

    from tracing import Tracer
    from workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"refbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    base = run_once(cls, args)
    problems = check(base)
    print(json.dumps(diagnostics(base), sort_keys=True), file=sys.stderr)
    if args.trace:
        traced = run_once(cls, args, tracer=Tracer())
        problems += check(traced)
        for name, value in exact_counts(base).items():
            if exact_counts(traced)[name] != value:
                problems.append(f"traced run's {name} differs from the untraced run's")
        os.makedirs(WORK_DIR, exist_ok=True)
        traced.tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}.tsv"))
        metrics = per_layer(base, traced)
    else:
        metrics = end_to_end(base)
    for problem in problems:
        print(f"refbench: FAILED CHECK: {problem}", file=sys.stderr)
    failed = base.failed + (traced.failed if args.trace else 0)
    result = {
        "correct": not problems,
        "attempted": base.attempted + (traced.attempted if args.trace else 0),
        "failed": max(failed, 1) if problems else 0,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four closed-loop workloads, each driven through the public API.

One client issues the next operation only after the previous one
returned.  Each workload

* sets itself up ``SETUP_REPEATS`` times, timing every set-up phase
  between two reference-kernel runs (see :mod:`calib`), and keeps the
  last file for the timed phase;
* runs a seeded operation stream generated before timing, in slices of
  a fixed op count with a kernel run between every two slices, so every
  latency can be scaled to reference speed;
* keeps an oracle of acknowledged writes and checks the program's
  answers against it, during the run and at the end.

The op count is ``RATE * seconds`` - the stream a reference-speed
machine finishes in about ``seconds`` - so the exact counts (page
accesses, bytes written) depend only on the seed and ``seconds``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from typing import Dict, List

from calib import R_REF, Calibrator, PhaseTotals
from streams import (
    DELETE, INSERT, SCAN, SEARCH, SPACING, churn_stream, preload_keys, uniform_stream,
)

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 9
#: Where the durable workloads keep their files, under the checkout.
WORK_DIR = ".bench_out"

M, SMALL_D, BIG_D = 8192, 8, 48
PRELOAD = 32768
DURABLE_M, DURABLE_PRELOAD = 4096, 16384
TXN_COMMANDS = 16


def preload_records(count: int):
    from repro import Record

    return [Record(key, f"p{key:x}") for key in preload_keys(count)]


def user_bytes(kind: str, value) -> int:
    """Bytes the user asked to store: an 8-byte key, plus the value."""
    return 8 + (len(value.encode()) if kind == INSERT else 0)


def paper_bound(params) -> int:
    """Theorem 5.5's per-command bound, as EXP-W1 states it."""
    return 3 * params.shift_budget + 2 * params.log_m + 4


def digest(pairs) -> str:
    """SHA-256 over ``(key, value)`` pairs in key order."""
    hasher = hashlib.sha256()
    for key, value in pairs:
        hasher.update(f"{key}\x1f{value}\x1e".encode())
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared slice/calibration loop and result bookkeeping."""

    name = "?"
    RATE = 1000  # ops per second at reference speed
    SLICE = 100  # ops per calibrated slice
    #: The percentile ``*_tail_us`` reports: the highest one that stays
    #: steady from run to run on this workload.
    TAIL = 0.99
    #: The share of slices, fastest first, that the calibrated metrics
    #: pool (see ``timed``).
    CALM_SHARE = 1.0
    #: The clock of every timed metric and of the calibration kernel.
    CLOCK = time.perf_counter

    def __init__(self, seed: int, seconds: int, cal: Calibrator, tracer=None):
        self.seed = seed
        self.cal = cal
        self.tracer = tracer
        self.count = max(self.SLICE, int(self.RATE * seconds) // self.SLICE * self.SLICE)
        # Per-op raw latencies (seconds), filled by run_slice.
        self.raw_writes: List[float] = []
        self.raw_reads: List[float] = []
        self.cal_writes: List[float] = []
        self.cal_reads: List[float] = []
        self.scales: List[float] = []
        # Ops and calibrated busy seconds of the pooled (calm) slices.
        self.cal_ops = 0
        self.cal_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.write_accesses = 0
        self.write_commands = 0
        self.max_write_accesses = 0
        self.storage_writes = 0
        self.user_bytes = 0
        self.written_bytes = 0
        self.scanned = 0
        #: Live keys in order, kept only where scans are checked.
        self.sorted_keys = None
        self.setup_cal: List[float] = []
        self.setup_raw: List[float] = []
        self.extra: Dict[str, float] = {}

    # -- helpers --------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def setup_once(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            # setup_once times each of its phases with ``self.phase``.
            self.phase = PhaseTotals(self.cal)
            self.setup_once()
            self.setup_cal.append(self.phase.calibrated)
            self.setup_raw.append(self.phase.raw)

    def ops(self) -> list:
        raise NotImplementedError

    def calls(self) -> tuple:
        """``(insert, delete, search, scan)`` as the client calls them now.

        Looked up at the start of every slice, so span wrappers that the
        traced run installs are the ones called.  A kind the workload's
        stream never issues may be ``None``.
        """
        raise NotImplementedError

    def page_accesses(self):
        """The logical page-access meter, or ``None`` where it is read elsewhere."""
        return None

    def storage_write_count(self) -> int:
        """Page writes (and fsyncs) that reached the storage medium so far."""
        raise NotImplementedError

    def run_slice(self, chunk) -> None:
        """Time every op of ``chunk`` and check its answer against the oracle."""
        clock = self.cal.clock
        insert, delete, search, scan = self.calls()
        oracle, keys = self.oracle, self.sorted_keys
        accesses = self.page_accesses
        writes, reads = self.raw_writes, self.raw_reads
        for kind, key, value in chunk:
            self.attempted += 1
            try:
                if kind is SEARCH:
                    t0 = clock()
                    found = search(key)
                    t1 = clock()
                    reads.append(t1 - t0)
                    if found is None or found.value != oracle[key]:
                        self.fail(f"search {key}: got {found!r}")
                    continue
                if kind is SCAN:
                    t0 = clock()
                    got = scan(key, value)
                    t1 = clock()
                    reads.append(t1 - t0)
                    self.scanned += len(got)
                    lo = bisect.bisect_left(keys, key)
                    hi = bisect.bisect_right(keys, value)
                    if [r.key for r in got] != keys[lo:hi]:
                        self.fail(f"scan {key}..{value}: wrong keys")
                    continue
                before = accesses()
                if kind is INSERT:
                    t0 = clock()
                    insert(key, value)
                    t1 = clock()
                    oracle[key] = value
                    if keys is not None:
                        bisect.insort(keys, key)
                else:
                    t0 = clock()
                    removed = delete(key)
                    t1 = clock()
                    want = oracle.pop(key)
                    if removed is None or removed.key != key or removed.value != want:
                        self.fail(f"delete {key}: got {removed!r}")
                    if keys is not None:
                        del keys[bisect.bisect_left(keys, key)]
                writes.append(t1 - t0)
                self.user_bytes += user_bytes(kind, value)
                if before is not None:
                    self.count_write(accesses() - before)
            except Exception as error:
                self.fail(f"{kind} {key}: {type(error).__name__}: {error}")

    def timed(self, ops: list) -> None:
        """Run ``ops`` in slices, each scaled by the kernel runs around it.

        A slice is bracketed by the kernel run just before it and the one
        just after it (which also opens the next slice), and scaled by
        their mean, so a change of machine speed during a slice is
        caught at both ends at no extra kernel cost.  The calibrated
        figures pool the ``CALM_SHARE`` of slices with the highest
        calibrated throughput.
        """
        writes0 = self.storage_write_count()
        slices = []
        before = self.slice_kernel()
        for start in range(0, len(ops), self.SLICE):
            writes, reads = len(self.raw_writes), len(self.raw_reads)
            attempted = self.attempted
            self.run_slice(ops[start : start + self.SLICE])
            after = self.slice_kernel()
            scale = R_REF / ((before + after) / 2)
            before = after
            self.scales.append(scale)
            done, busy = self.attempted - attempted, self.slice_busy(writes, reads)
            ranges = (writes, len(self.raw_writes), reads, len(self.raw_reads))
            slices.append((done / (busy * scale), done, busy * scale, scale, ranges))
        self.storage_writes = self.storage_write_count() - writes0
        slices.sort(key=lambda row: row[0], reverse=True)
        calm = max(1, round(self.CALM_SHARE * len(slices)))
        for _, done, busy, scale, (w0, w1, r0, r1) in slices[:calm]:
            self.cal_ops += done
            self.cal_busy += busy
            self.cal_writes.extend(x * scale for x in self.raw_writes[w0:w1])
            self.cal_reads.extend(x * scale for x in self.raw_reads[r0:r1])

    def slice_kernel(self) -> float:
        """One reference-kernel time between two slices."""
        return self.cal.kernel()

    def count_write(self, accesses: int) -> None:
        self.write_accesses += accesses
        self.write_commands += 1
        if accesses > self.max_write_accesses:
            self.max_write_accesses = accesses

    def finish(self) -> None:
        """End-of-run checks against the oracle."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def bound(self) -> int:
        raise NotImplementedError

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def background_share(self) -> float:
        """The idle guard's reading: other CPU per kernel second."""
        return self.cal.background_share()

    def write_bytes_per_user_byte(self) -> float:
        """Bytes written to storage per byte the user asked to store."""
        return self.written_bytes / self.user_bytes if self.user_bytes else 0.0

    def slice_busy(self, writes: int, reads: int) -> float:
        """Raw seconds inside the program's calls since the given list lengths."""
        return sum(self.raw_writes[writes:]) + sum(self.raw_reads[reads:])

    def instrument(self, tracer) -> None:
        """Install this workload's span wrappers (``--trace 1`` only)."""
        raise NotImplementedError

    def execute(self) -> None:
        ops = self.ops()
        self.setup()
        if self.tracer is not None:
            self.instrument(self.tracer)
        self.timed(ops)
        if self.tracer is not None:
            self.uninstrument(self.tracer)
        self.finish()

    def uninstrument(self, tracer) -> None:
        tracer.restore()


def _trace_engine(tracer, engine, owner=None) -> None:
    """Spans on the CONTROL 2 engine's commands and its record moves.

    ``owner`` is the object whose ``insert``/``delete`` the layer above
    calls (the facade's bound aliases, or the engine itself).
    """
    owner = engine if owner is None else owner
    for name in ("insert", "delete"):
        tracer.install(owner, name, "core.engine")
    tracer.install(owner, "search", "core.engine.search")
    tracer.install(
        engine.pagefile, "move_records", "core.pagefile.move",
        on_result=tracer.count("records_moved"),
    )


def _oracle_check(workload: Workload, dense, oracle: Dict[int, object]) -> None:
    """``validate()`` plus a digest of the contents against the oracle."""
    try:
        dense.validate()
    except Exception as error:  # any invariant break fails the run
        workload.fail(f"validate: {type(error).__name__}: {error}")
    if digest(dense.items()) != digest(sorted(oracle.items())):
        workload.fail(f"content digest mismatch ({len(dense)} records vs {len(oracle)})")


# ----------------------------------------------------------------------
# churn: the CONTROL 2 engine behind the lock wrapper, in memory
# ----------------------------------------------------------------------


class Churn(Workload):
    """Hot-window insert/delete churn plus point searches, in memory."""

    name = "churn"
    RATE = 40000
    SLICE = 1000

    def setup_once(self) -> None:
        from repro import DenseSequentialFile, ThreadSafeDenseFile

        records = preload_records(PRELOAD)
        made = {}
        self.phase(lambda: made.setdefault("dense", DenseSequentialFile(M, SMALL_D, BIG_D)))
        self.phase(lambda: made["dense"].bulk_load(records))
        self.phase(lambda: made.setdefault("file", ThreadSafeDenseFile(made["dense"])))
        self.dense = made["dense"]
        self.file = made["file"]
        self.oracle = {record.key: record.value for record in records}

    def ops(self) -> list:
        return churn_stream(self.seed, self.count, PRELOAD)

    def bound(self) -> int:
        return paper_bound(self.dense.params)

    def calls(self) -> tuple:
        file = self.file
        return file.insert, file.delete, file.search, None

    def page_accesses(self) -> int:
        stats = self.dense.stats
        return stats.reads + stats.writes

    def storage_write_count(self) -> int:
        # The memory-backed store is the medium: every logical page write.
        return self.dense.stats.writes

    def instrument(self, tracer) -> None:
        for name in ("insert", "delete", "search"):
            tracer.install(self.file, name, "concurrent.file", root=True)
        _trace_engine(tracer, self.dense.engine, owner=self.dense)

    def finish(self) -> None:
        _oracle_check(self, self.dense, self.oracle)


# ----------------------------------------------------------------------
# stream: range scans through the buffer pool of a persistent file
# ----------------------------------------------------------------------


class Stream(Workload):
    """85% 256-record range scans, 15% uniform updates, 32x the cache."""

    name = "stream"
    RATE = 4000
    SLICE = 100
    CACHE_PAGES = 256
    READAHEAD = 8
    SCAN_WIDTH = 256

    def setup_once(self) -> None:
        from repro import PersistentDenseFile

        os.makedirs(WORK_DIR, exist_ok=True)
        path = os.path.join(WORK_DIR, "stream.dsf")
        if getattr(self, "file", None) is not None:
            self.file.close()
        records = preload_records(PRELOAD)
        made = {}
        self.phase(
            lambda: made.setdefault(
                "file",
                PersistentDenseFile.create(
                    path, M, SMALL_D, BIG_D, overwrite=True,
                    cache_pages=self.CACHE_PAGES, readahead=self.READAHEAD,
                ),
            )
        )
        self.phase(lambda: made["file"].bulk_load(records))
        self.phase(lambda: made["file"].flush())
        self.file = made["file"]
        file = self.file
        # A scan consumes the generator: that is the work a reader waits for.
        self.scan = lambda lo, hi: list(file.range(lo, hi))
        self.oracle = {record.key: record.value for record in records}
        self.sorted_keys = [record.key for record in records]

    def ops(self) -> list:
        return uniform_stream(
            self.seed, self.count, PRELOAD, 0.075, 0.075, scan_width=self.SCAN_WIDTH
        )

    def bound(self) -> int:
        return paper_bound(self.file.params)

    def disk_store(self):
        return self.file.store.inner

    def calls(self) -> tuple:
        file = self.file
        return file.insert, file.delete, None, self.scan

    def page_accesses(self) -> int:
        stats = self.file.stats
        return stats.reads + stats.writes

    def storage_write_count(self) -> int:
        # Pages the buffer pool writes back to the file.
        return self.disk_store().stats()["physical_writes"]

    def timed(self, ops: list) -> None:
        pool = self.file.store.pool_stats
        pool0 = (pool.hits, pool.misses, pool.prefetch_hits, pool.physical_writes)
        super().timed(ops)
        hits, misses, prefetch_hits, writebacks = (
            pool.hits - pool0[0],
            pool.misses - pool0[1],
            pool.prefetch_hits - pool0[2],
            pool.physical_writes - pool0[3],
        )
        pages_written = self.storage_writes
        self.written_bytes = pages_written * self.disk_store().raw.slot_capacity
        self.extra.update(
            hit_rate=hits / max(1, hits + misses),
            misses_per_op=misses / len(ops),
            writebacks_per_op=writebacks / len(ops),
            prefetch_hits_per_op=prefetch_hits / len(ops),
            pages_written_per_op=pages_written / len(ops),
            scanned_records=self.scanned,
        )

    def instrument(self, tracer) -> None:
        for name in ("insert", "delete"):
            tracer.install(self.file, name, "persistent.file", root=True)
        tracer.install(self, "scan", "core.pagefile.scan", root=True)
        _trace_engine(tracer, self.file.engine)
        tracer.install(self.disk_store().raw, "encode_page_image", "storage.ondisk.encode")

    def finish(self) -> None:
        _oracle_check(self, self.file.dense, self.oracle)

    def close(self) -> None:
        self.file.close()


# ----------------------------------------------------------------------
# durable: group-committed transactions on a journaled file
# ----------------------------------------------------------------------


class Durable(Workload):
    """16-command group-commit transactions: 45% ins, 45% del, 10% search."""

    name = "durable"
    RATE = 500  # transactions per second at reference speed
    SLICE = 20
    # A transaction is timed by the CPU time of the client thread: the
    # kernel work of its write/fsync/rename calls counts, the wait for
    # the shared disk does not.  That wait moved the wall-clock median
    # by 10-21% and the p99 by 30-80% from run to run, and no kernel can
    # calibrate it away; the wall-clock figures go to the diagnostics.
    # The kernel and the set-up phases are timed on the same clock.  The
    # I/O a transaction issues is gated as an exact count instead
    # (``storage_writes_per_write``: pages journaled plus journal fsyncs).
    # Even in CPU time the p99 follows the file system's fsync tail, so
    # the tail reported is p90.
    TAIL = 0.90
    CLOCK = time.thread_time

    DIR = os.path.join(WORK_DIR, "durable")

    def setup(self) -> None:
        self.open_cal: List[float] = []
        self.wall_writes: List[float] = []
        super().setup()

    def path(self) -> str:
        return os.path.join(self.DIR, "durable.dsf")

    def setup_once(self) -> None:
        from repro import JournaledDenseFile

        if getattr(self, "file", None) is not None and not self.file.closed:
            self.file.close()
        # A fresh directory: no journal or applied image of an earlier
        # set-up may take part in this one's recovery.
        shutil.rmtree(self.DIR, ignore_errors=True)
        os.makedirs(self.DIR)
        records = preload_records(DURABLE_PRELOAD)
        made = {}
        path = self.path()
        self.phase(
            lambda: made.setdefault(
                "file",
                JournaledDenseFile.create(path, DURABLE_M, SMALL_D, BIG_D, overwrite=True),
            )
        )
        self.phase(lambda: made["file"].bulk_load(records))
        self.phase(lambda: made["file"].close())
        # Recovery plus decoding every page: the persistent layer's open.
        self.open_cal.append(
            self.phase(lambda: made.__setitem__("file", JournaledDenseFile.open(path)))
        )
        self.file = made["file"]
        self.oracle = {record.key: record.value for record in records}

    def ops(self) -> list:
        commands = uniform_stream(
            self.seed, self.count * TXN_COMMANDS, DURABLE_PRELOAD, 0.45, 0.45
        )
        return [
            commands[i : i + TXN_COMMANDS]
            for i in range(0, len(commands), TXN_COMMANDS)
        ]

    def bound(self) -> int:
        return paper_bound(self.file.params)

    def storage_write_count(self) -> int:
        journal = self.file.journal.counters()
        return journal["pages_journaled"] + journal["fsyncs"]

    def run_slice(self, chunk) -> None:
        clock, cpu = time.perf_counter, self.cal.clock
        file = self.file
        insert, delete, search, transaction = (
            file.insert, file.delete, file.search, file.transaction,
        )
        stats = file.stats
        oracle = self.oracle
        writes, reads = self.raw_writes, self.raw_reads
        for txn in chunk:
            self.attempted += 1
            staged = {}
            results = []
            accesses = []
            try:
                w0, t0 = clock(), cpu()
                with transaction():
                    for kind, key, value in txn:
                        before = stats.reads + stats.writes
                        if kind is INSERT:
                            insert(key, value)
                        elif kind is DELETE:
                            results.append((key, delete(key)))
                        else:
                            s0 = cpu()
                            results.append((key, search(key)))
                            reads.append(cpu() - s0)
                        if kind is not SEARCH:
                            accesses.append(stats.reads + stats.writes - before)
                t1, w1 = cpu(), clock()
            except Exception as error:
                self.fail(f"transaction: {type(error).__name__}: {error}")
                continue
            writes.append(t1 - t0)
            self.wall_writes.append(w1 - w0)
            for count in accesses:
                self.count_write(count)
            found = dict(results)
            for kind, key, value in txn:
                if kind is INSERT:
                    staged[key] = value
                    self.user_bytes += user_bytes(kind, value)
                elif kind is DELETE:
                    want = staged.pop(key) if key in staged else oracle.pop(key)
                    got = found[key]
                    if got is None or got.key != key or got.value != want:
                        self.fail(f"delete {key}: got {got!r}")
                    self.user_bytes += user_bytes(kind, value)
                else:
                    want = staged.get(key, oracle.get(key))
                    got = found[key]
                    if got is None or got.value != want:
                        self.fail(f"search {key}: got {got!r}")
            oracle.update(staged)

    def slice_busy(self, writes: int, reads: int) -> float:
        # Searches run inside the transactions the write times cover.
        return sum(self.raw_writes[writes:])

    def timed(self, ops: list) -> None:
        journal0 = self.file.journal.counters()
        super().timed(ops)
        journal = self.file.journal.counters()
        slot = self.file.store.raw.slot_capacity
        pages = journal["pages_journaled"] - journal0["pages_journaled"]
        journal_bytes = journal["bytes_journaled"] - journal0["bytes_journaled"]
        self.written_bytes = journal_bytes + pages * slot
        self.extra.update(
            fsyncs_per_txn=(journal["fsyncs"] - journal0["fsyncs"]) / len(ops),
            journal_bytes_per_txn=journal_bytes / len(ops),
            pages_written_per_op=pages / len(ops),
        )

    def instrument(self, tracer) -> None:
        file = self.file
        tracer.install_transaction(file)
        _trace_engine(tracer, file.engine)
        tracer.install(file.journal, "write_transaction", "storage.wal.write_transaction")
        raw = file.store.raw
        tracer.install(raw, "encode_page_image", "storage.ondisk.encode")
        tracer.install(raw, "write_page_payload", "storage.ondisk.write")
        tracer.install(raw, "flush", "storage.ondisk.fsync")

    def finish(self) -> None:
        """Every acknowledged transaction must survive close + reopen."""
        from repro import JournaledDenseFile

        self.file.close()
        self.file = JournaledDenseFile.open(self.path())
        try:
            self.file.validate()
        except Exception as error:
            self.fail(f"validate after reopen: {type(error).__name__}: {error}")
        got = digest(self.file.dense.items())
        if got != digest(sorted(self.oracle.items())):
            self.fail("reopened contents differ from acknowledged transactions")

    def close(self) -> None:
        if not self.file.closed:
            self.file.close()


# ----------------------------------------------------------------------
# cluster: one client, the server in a child process
# ----------------------------------------------------------------------


class Cluster(Workload):
    """40% insert, 40% delete, 20% search through one ``ClusterClient``."""

    name = "cluster"
    RATE = 5000
    SLICE = 100
    # A round trip's tail is two processes' wake-ups on a shared
    # machine: after calibration its p99 moved 17-92% from run to run
    # and its p95 up to 25% when the machine was busy; its p90 stayed
    # within about 13%.
    TAIL = 0.90
    # A round trip waits for the other process to be scheduled, which a
    # loaded host delays far more than it slows the kernel: stretches of
    # a run went 2-3x slower while the kernel slowed 1.4x, and the
    # throughput pooled over all slices spread 11-49% (IQR/median) from
    # run to run.  Pooling the fastest tenth of the slices - the
    # stretches the host left alone - it spread 2.5-5% with 100-op
    # slices (5-11% with 200-op slices, 8% with the fastest quarter).
    # A change that slows every op slows these slices alike; one that
    # only adds rare stalls may not show here.
    CALM_SHARE = 0.1
    CHILD_TIMEOUT = 120.0

    def _child_line(self) -> dict:
        ready, _, _ = select.select([self.child.stdout], [], [], self.CHILD_TIMEOUT)
        line = self.child.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("cluster server child did not answer")
        return json.loads(line)

    def setup(self) -> None:
        from repro import ClusterClient

        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "cluster_child.py"),
             "--trace", "1" if self.tracer is not None else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self._child_line()
        self.setup_cal, self.setup_raw = ready["setup_cal"], ready["setup_raw"]
        self._bound = ready["bound"]
        self.cal.watch_pid = self.child.pid
        self.client = ClusterClient.connect(ready["host"], ready["port"])
        self.client.hello()
        self.oracle = {record.key: record.value for record in preload_records(PRELOAD)}

    def ops(self) -> list:
        return uniform_stream(self.seed, self.count, PRELOAD, 0.4, 0.4)

    def bound(self) -> int:
        return self._bound

    def calls(self) -> tuple:
        client = self.client
        return client.insert, client.delete, client.search, None

    def storage_write_count(self) -> int:
        # Counted by the server child over the timed phase; see finish().
        return 0

    def slice_kernel(self) -> float:
        """The mean of a kernel run in the server process and one here.

        A round trip is client work plus server work; scaling by the
        client's kernel alone made the p50 spread worse than raw on
        some runs.
        """
        server = self.command("kernel")["kernel"]
        return (server + self.cal.kernel()) / 2

    def command(self, word: str) -> dict:
        """Send one control command to the server child; its reply."""
        self.child.stdin.write(word + "\n")
        self.child.stdin.flush()
        return self._child_line()

    def instrument(self, tracer) -> None:
        import repro.cluster.client as client_module

        for name in ("insert", "delete", "search"):
            tracer.install(self.client, name, "cluster.client", root=True)
        tracer.install(client_module, "encode_frame", "cluster.wire.encode")
        tracer.install(client_module, "decode_bytes", "cluster.wire.decode")
        tracer.install(self.client.channel, "request", "cluster.rpc")
        self.command("trace")

    def uninstrument(self, tracer) -> None:
        tracer.restore()
        self.command("untrace")

    def finish(self) -> None:
        """Scan the whole key range through the client; stop the server."""
        scan = self.client.range(0, PRELOAD * SPACING)
        if scan.partial or digest((r.key, r.value) for r in scan) != digest(
            sorted(self.oracle.items())
        ):
            self.fail("full-range scan through the client differs from the oracle")
        self.retries = self.client.client_stats()["retries"]
        self.client.close()
        report = self.command("stop")
        self.child.wait(timeout=self.CHILD_TIMEOUT)
        self.write_commands = report["write_commands"]
        self.write_accesses = report["write_accesses"]
        self.max_write_accesses = report["max_write_accesses"]
        self.storage_writes = report["storage_writes"]
        self.child_report = report

    def rss_mb(self) -> float:
        return peak_rss_mb() + self.child_report["peak_rss_mb"]

    def background_share(self) -> float:
        # The server's kernel runs are guarded in the server process.
        return max(self.cal.background_share(), self.child_report["background_share"])

    def close(self) -> None:
        child = getattr(self, "child", None)
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()


WORKLOADS = {cls.name: cls for cls in (Churn, Stream, Durable, Cluster)}

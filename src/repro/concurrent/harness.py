"""Deterministic interleaving torture harness for the concurrent front-end.

The harness drives N seeded client threads — mixed insert/delete/scan
streams built from :mod:`repro.workloads.generators` — against one
shared :class:`~repro.concurrent.file.ThreadSafeDenseFile` and checks
**linearizability**: every batch of concurrently released operations
must be equivalent to *some* sequential order of those operations
applied to a model oracle, and the file's full contents must match the
oracle's whenever the harness looks.

Determinism: the *schedule* — which thread runs which operation in
which batch — is a pure function of the seed.  A coordinator thread
releases each batch through a fresh barrier so its operations genuinely
overlap in time; the OS may interleave the racing operations however it
likes, which is exactly what the permutation check accounts for.  The
same seed therefore always produces the same schedule (asserted via
:attr:`StressReport.schedule_digest`), and a failure names the batch
and seed that reproduce it.

The harness **proves its own teeth** with two negative controls
(:func:`self_test`):

* *seeded race*: the same workload with the lock deliberately bypassed
  (``bypass_lock=True``) over a store that sleeps between page touches
  to amplify interleavings — the checker must catch the resulting
  corruption (oracle divergence, invariant violation, or an outright
  exception);
* *deadlock*: two operations acquiring two locks in opposite orders,
  released in one batch — the per-operation deadlines must surface
  :class:`~repro.core.errors.OperationTimeout` instead of hanging the
  run (and the build).

A variant runs the whole torture over a
:func:`~repro.storage.faults.fault_tolerant_stack` with a seeded
transient-fault plan underneath, reporting how many transients the
deadline-aware :class:`~repro.storage.faults.RetryingStore` absorbed.

A second schedule, :func:`run_replica_stress`, splits the roles across
a replication pair: writer threads hammer a journaled *primary* while
reader threads hold snapshots on a WAL-shipped *replica*.  The check
is prefix consistency — every replica snapshot's record digest must
equal the digest the primary-side
:class:`~repro.replication.StateRecorder` captured at exactly that
committed sequence, so readers can never observe a torn or reordered
replication state.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.dense_file import DenseSequentialFile
from ..core.errors import (
    ConfigurationError,
    OperationTimeout,
    OverloadError,
    ReproError,
)
from ..core.params import ceil_log2
from ..storage.backend import (
    BufferedStore,
    DiskStore,
    MemoryStore,
    PageStore,
)
from ..storage.faults import FaultPlan, fault_tolerant_stack
from ..storage.page import Page
from ..workloads.driver import split_workload
from ..workloads.generators import INSERT, mixed_workload
from .deadline import Deadline
from .file import ThreadSafeDenseFile
from .retry import RetryPolicy
from .rwlock import FairRWLock

if TYPE_CHECKING:  # pragma: no cover - imported lazily at runtime
    from ..sanitizer import SanitizerRuntime

#: Operation kinds a client thread can issue.
KINDS = ("insert", "delete", "scan", "search", "count")

#: Stacks the harness can torture.
STACKS = ("memory", "disk", "buffered", "faulty")


@dataclass(frozen=True)
class ClientOp:
    """One operation a client thread will issue."""

    kind: str
    key: object
    arg: int = 0
    thread: int = 0

    def describe(self) -> str:
        """Compact one-line rendering for violation reports."""
        return f"t{self.thread}:{self.kind}({self.key},{self.arg})"


@dataclass
class StressConfig:
    """Everything that determines a torture run (and only that).

    Two configs with equal fields produce byte-identical schedules; the
    seed controls workload content, read mix and batch composition.
    """

    threads: int = 4
    total_ops: int = 200
    seed: int = 0
    max_batch: int = 4
    stack: str = "memory"
    transient_rate: float = 0.05
    insert_ratio: float = 0.6
    read_fraction: float = 0.35
    key_space: int = 10_000
    op_timeout: Optional[float] = 30.0
    batch_timeout: float = 60.0
    check_contents_every: int = 8
    max_in_flight: Optional[int] = None
    shed_load: bool = False
    path: Optional[str] = None
    #: Rebuild the stack with the race sanitizer's instrumented store
    #: and lock (see :mod:`repro.sanitizer`); findings land in
    #: :attr:`StressReport.races`.  Off by default — the plain stack
    #: runs with zero instrumentation.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.stack not in STACKS:
            raise ConfigurationError(f"unknown stack {self.stack!r}; pick {STACKS}")
        if self.threads < 1:
            raise ConfigurationError("need at least one client thread")
        if not 1 <= self.max_batch:
            raise ConfigurationError("max_batch must be at least 1")


@dataclass
class StressReport:
    """What one torture run observed."""

    seed: int = 0
    threads: int = 0
    stack: str = ""
    batches: int = 0
    ops_executed: int = 0
    schedule_digest: str = ""
    violations: List[str] = field(default_factory=list)
    deadlocks: List[str] = field(default_factory=list)
    races: List[str] = field(default_factory=list)
    sanitizer_counters: Optional[Dict[str, int]] = None
    timeouts: int = 0
    overloads: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    retry_counters: Optional[dict] = None
    faults_injected: int = 0
    lock_stats: Optional[dict] = None
    gate_stats: Optional[dict] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Clean run: linearizable, no deadlock, no race, no corruption."""
        return (
            not self.violations and not self.deadlocks and not self.races
        )

    def summary(self) -> str:
        """Human-readable verdict with counters and the replay digest."""
        verdict = "CLEAN" if self.ok else "FAILED"
        lines = [
            f"stress[{self.stack}] seed={self.seed} threads={self.threads}: "
            f"{verdict} — {self.ops_executed} ops in {self.batches} batches "
            f"({self.elapsed:.2f}s), schedule {self.schedule_digest[:12]}",
        ]
        if self.timeouts or self.overloads:
            lines.append(
                f"  timeouts={self.timeouts} overloads={self.overloads}"
            )
        if self.retry_counters is not None:
            lines.append(
                f"  transients injected={self.faults_injected} "
                f"absorbed={self.retry_counters['retries']} "
                f"giveups={self.retry_counters['giveups']} "
                f"deadline_giveups={self.retry_counters['deadline_giveups']}"
            )
        if self.sanitizer_counters is not None:
            lines.append(
                f"  sanitizer: {self.sanitizer_counters['accesses']} "
                f"accesses / {self.sanitizer_counters['lock_events']} "
                f"lock events over "
                f"{self.sanitizer_counters['resources']} resources — "
                f"{self.sanitizer_counters['findings']} finding(s)"
            )
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        for deadlock in self.deadlocks:
            lines.append(f"  DEADLOCK: {deadlock}")
        for race in self.races:
            lines.append(f"  RACE: {race}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# sequential oracle
# ----------------------------------------------------------------------


class SequentialOracle:
    """A plain sorted-set model of the dense file's visible semantics.

    Results are encoded as small tuples so they compare ``==`` against
    what :func:`_execute` observed from the real file.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Optional[List] = None):
        self._keys: List = keys if keys is not None else []

    def copy(self) -> "SequentialOracle":
        """An independent snapshot (used to try batch permutations)."""
        return SequentialOracle(list(self._keys))

    def keys(self) -> List:
        """The current sorted key list (not a copy)."""
        return self._keys

    def apply(self, op: ClientOp) -> Tuple:
        """Run ``op`` sequentially and return its canonical outcome tuple."""
        keys = self._keys
        if op.kind == "insert":
            index = bisect.bisect_left(keys, op.key)
            if index < len(keys) and keys[index] == op.key:
                return ("error", "DuplicateKeyError")
            keys.insert(index, op.key)
            return ("ok",)
        if op.kind == "delete":
            index = bisect.bisect_left(keys, op.key)
            if index >= len(keys) or keys[index] != op.key:
                return ("error", "RecordNotFoundError")
            keys.pop(index)
            return ("ok",)
        if op.kind == "scan":
            index = bisect.bisect_left(keys, op.key)
            return ("scan", tuple(keys[index : index + op.arg]))
        if op.kind == "search":
            index = bisect.bisect_left(keys, op.key)
            found = index < len(keys) and keys[index] == op.key
            return ("hit",) if found else ("miss",)
        if op.kind == "count":
            lo = bisect.bisect_left(keys, op.key)
            hi = bisect.bisect_right(keys, op.key + op.arg)
            return ("count", hi - lo)
        raise AssertionError(f"unknown op kind {op.kind!r}")


def _execute(
    shared: ThreadSafeDenseFile, op: ClientOp, timeout: Optional[float]
) -> Tuple:
    """Issue one client operation; encode the outcome like the oracle."""
    try:
        if op.kind == "insert":
            shared.insert(op.key, timeout=timeout)
            return ("ok",)
        if op.kind == "delete":
            shared.delete(op.key, timeout=timeout)
            return ("ok",)
        if op.kind == "scan":
            records = shared.scan(op.key, op.arg, timeout=timeout)
            return ("scan", tuple(record.key for record in records))
        if op.kind == "search":
            record = shared.search(op.key, timeout=timeout)
            return ("hit",) if record is not None else ("miss",)
        if op.kind == "count":
            total = shared.count_range(op.key, op.key + op.arg, timeout=timeout)
            return ("count", total)
        raise AssertionError(f"unknown op kind {op.kind!r}")
    except OperationTimeout:  # lint: allow[errors] -- timeout is a recorded outcome here
        return ("timeout",)
    except OverloadError:
        return ("overload",)
    except ReproError as error:
        return ("error", type(error).__name__)
    except Exception as error:  # corruption shows up as arbitrary wreckage  # lint: allow[errors]
        return ("crash", f"{type(error).__name__}: {error}")


#: Outcomes that mean "the operation was rejected before touching the
#: file" — the oracle skips them when searching for a witness order.
_REJECTED = ("timeout", "overload")


def check_batch(
    oracle: SequentialOracle,
    executed: List[Tuple[ClientOp, Tuple]],
) -> Tuple[Optional[SequentialOracle], Optional[str]]:
    """Find a sequential witness order for one batch of outcomes.

    Returns ``(advanced_oracle, None)`` when some permutation of the
    batch explains every observed result, else ``(None, explanation)``.
    """
    for order in itertools.permutations(executed):
        candidate = oracle.copy()
        for op, observed in order:
            if observed[0] in _REJECTED or observed[0] == "crash":
                continue
            if candidate.apply(op) != observed:
                break
        else:
            return candidate, None
    detail = ", ".join(
        f"{op.describe()} -> {observed!r}" for op, observed in executed
    )
    return None, f"no sequential witness for batch [{detail}]"


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------


def build_streams(config: StressConfig) -> List[List[ClientOp]]:
    """Per-thread operation streams, a pure function of the config.

    Write traffic comes from :func:`~repro.workloads.generators.mixed_workload`
    split by key ownership (so each stream stays executable no matter
    how streams interleave); reads — scans, point lookups, range counts
    over the *whole* key space — are woven in between.
    """
    rng = random.Random(config.seed)
    writes = mixed_workload(
        config.total_ops,
        insert_ratio=config.insert_ratio,
        key_space=config.key_space,
        seed=config.seed,
    )
    streams = split_workload(writes, config.threads)
    client_streams: List[List[ClientOp]] = []
    for tid, stream in enumerate(streams):
        ops: List[ClientOp] = []
        for operation in stream:
            if rng.random() < config.read_fraction:
                kind = rng.choice(("scan", "search", "count"))
                key = rng.randrange(config.key_space)
                arg = rng.randrange(1, 24)
                ops.append(ClientOp(kind, key, arg, tid))
            kind = "insert" if operation.kind == INSERT else "delete"
            ops.append(ClientOp(kind, operation.key, 0, tid))
        client_streams.append(ops)
    return client_streams


def build_schedule(
    config: StressConfig, streams: List[List[ClientOp]]
) -> List[List[ClientOp]]:
    """Deterministic batches: seeded choice of who races whom, when."""
    rng = random.Random(config.seed ^ 0x5EED)
    cursors = [0] * len(streams)
    schedule: List[List[ClientOp]] = []
    while True:
        pending = [
            tid for tid, cursor in enumerate(cursors)
            if cursor < len(streams[tid])
        ]
        if not pending:
            break
        width = rng.randint(1, min(config.max_batch, len(pending)))
        chosen = rng.sample(pending, width)
        batch = []
        for tid in sorted(chosen):
            batch.append(streams[tid][cursors[tid]])
            cursors[tid] += 1
        schedule.append(batch)
    return schedule


def schedule_digest(schedule: List[List[ClientOp]]) -> str:
    """SHA-256 over the schedule's canonical description."""
    digest = hashlib.sha256()
    for batch in schedule:
        digest.update(
            ("|".join(op.describe() for op in batch) + "\n").encode()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# file construction
# ----------------------------------------------------------------------


def _geometry(config: StressConfig) -> Tuple[int, int, int]:
    """An (M, d, D) that can hold the worst-case live set with slack."""
    d = 8
    num_pages = max(16, -(-config.total_ops // d) * 2)
    D = d + 3 * ceil_log2(num_pages) + 4
    return num_pages, d, D


def build_file(
    config: StressConfig,
    runtime: Optional["SanitizerRuntime"] = None,
) -> Tuple[DenseSequentialFile, Optional[FaultPlan]]:
    """The dense file (and fault plan, for the ``faulty`` stack).

    With a :class:`~repro.sanitizer.SanitizerRuntime` the *outermost*
    store of whichever stack the config names is wrapped in a
    :class:`~repro.sanitizer.SanitizedStore`, so the sanitizer observes
    exactly the logical access sequence the engine issues.
    """

    def wrap(store: PageStore) -> PageStore:
        if runtime is None:
            return store
        from ..sanitizer import SanitizedStore

        return SanitizedStore(store, runtime)

    num_pages, d, D = _geometry(config)
    if config.stack == "memory":
        if runtime is None:
            return DenseSequentialFile(num_pages, d, D), None
        store: PageStore = wrap(MemoryStore(num_pages))
        return DenseSequentialFile(num_pages, d, D, store=store), None
    if config.stack == "faulty":
        plan = FaultPlan(seed=config.seed, transient_rate=config.transient_rate)
        stack = fault_tolerant_stack(
            MemoryStore(num_pages),
            plan,
            RetryPolicy(max_attempts=100),
        )
        return DenseSequentialFile(num_pages, d, D, store=wrap(stack)), plan
    if config.path is None:
        raise ConfigurationError(f"stack {config.stack!r} needs a path")
    disk = DiskStore.create(
        config.path, num_pages=num_pages, d=d, D=D, overwrite=True
    )
    store = disk
    if config.stack == "buffered":
        store = BufferedStore(disk, capacity=8)
    return DenseSequentialFile(num_pages, d, D, store=wrap(store)), None


# ----------------------------------------------------------------------
# the torture loop
# ----------------------------------------------------------------------


def _worker(
    shared: ThreadSafeDenseFile,
    inbox: "queue.Queue",
    outbox: "queue.Queue",
    timeout: Optional[float],
) -> None:
    while True:
        job = inbox.get()
        if job is None:
            return
        barrier, op = job
        try:
            barrier.wait(timeout=60.0)
            result = _execute(shared, op, timeout)
        except threading.BrokenBarrierError:
            result = ("crash", "start barrier broken")
        outbox.put((op, result))


def run_stress(
    config: StressConfig,
    shared: Optional[ThreadSafeDenseFile] = None,
) -> StressReport:
    """Run one seeded torture campaign and check it end to end.

    Pass ``shared`` to torture a pre-built front-end (the self-test
    uses this to run the identical schedule with the lock bypassed);
    by default the file and front-end come from the config.
    """
    streams = build_streams(config)
    schedule = build_schedule(config, streams)
    report = StressReport(
        seed=config.seed,
        threads=config.threads,
        stack=config.stack,
        schedule_digest=schedule_digest(schedule),
    )
    plan = None
    runtime: Optional["SanitizerRuntime"] = None
    owns_file = shared is None
    if owns_file:
        lock: Optional[FairRWLock] = None
        if config.sanitize:
            from ..sanitizer import SanitizedRWLock, SanitizerRuntime

            runtime = SanitizerRuntime()
            lock = SanitizedRWLock(runtime)
        dense, plan = build_file(config, runtime=runtime)
        shared = ThreadSafeDenseFile(
            dense,
            max_in_flight=config.max_in_flight,
            shed_load=config.shed_load,
            lock=lock,
        )
    inboxes = [queue.Queue() for _ in range(config.threads)]
    outbox: "queue.Queue" = queue.Queue()
    workers = [
        threading.Thread(
            target=_worker,
            args=(shared, inboxes[tid], outbox, config.op_timeout),
            daemon=True,
        )
        for tid in range(config.threads)
    ]
    for worker in workers:
        worker.start()

    oracle = SequentialOracle()
    start = time.monotonic()
    try:
        for index, batch in enumerate(schedule):
            barrier = threading.Barrier(len(batch))
            for op in batch:
                inboxes[op.thread].put((barrier, op))
            executed: List[Tuple[ClientOp, Tuple]] = []
            for _ in batch:
                try:
                    executed.append(outbox.get(timeout=config.batch_timeout))
                except queue.Empty:
                    report.deadlocks.append(
                        f"batch {index}: no result within "
                        f"{config.batch_timeout}s — workers stuck on "
                        f"[{', '.join(op.describe() for op in batch)}]"
                    )
                    return report
            report.batches += 1
            report.ops_executed += len(executed)
            for op, observed in executed:
                if observed[0] == "timeout":
                    report.timeouts += 1
                elif observed[0] == "overload":
                    report.overloads += 1
                elif observed[0] in ("error", "crash"):
                    label = observed[1].split(":")[0]
                    report.errors[label] = report.errors.get(label, 0) + 1
                if observed[0] == "crash":
                    report.violations.append(
                        f"batch {index}: {op.describe()} crashed: "
                        f"{observed[1]}"
                    )
            advanced, problem = check_batch(oracle, executed)
            if problem is not None:
                report.violations.append(f"batch {index}: {problem}")
                return report
            oracle = advanced
            if (index + 1) % config.check_contents_every == 0:
                mismatch = _contents_mismatch(shared, oracle, config)
                if mismatch:
                    report.violations.append(f"batch {index}: {mismatch}")
                    return report
        mismatch = _contents_mismatch(shared, oracle, config)
        if mismatch:
            report.violations.append(f"final: {mismatch}")
        try:
            shared.validate()
        except Exception as error:  # lint: allow[errors] -- recorded as a violation
            report.violations.append(
                f"final validate(): {type(error).__name__}: {error}"
            )
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for worker in workers:
            worker.join(timeout=10.0)
        report.elapsed = time.monotonic() - start
        report.lock_stats = shared.lock.stats()
        if shared.gate is not None:
            report.gate_stats = shared.gate.stats()
        stats = shared.concurrency_stats()
        layers = stats.get("retries")
        if layers:
            report.retry_counters = layers[0]
        if plan is not None:
            report.faults_injected = plan.transients_injected
        if runtime is not None:
            race_report = runtime.report()
            report.races = [
                finding.render() for finding in race_report.findings
            ]
            report.sanitizer_counters = race_report.counters()
        if owns_file:
            shared.inner.close()
    return report


def _contents_mismatch(
    shared: ThreadSafeDenseFile,
    oracle: SequentialOracle,
    config: StressConfig,
) -> Optional[str]:
    observed = [
        record.key
        for record in shared.range(-1, config.key_space + 1, timeout=None)
    ]
    if observed != oracle.keys():
        return (
            f"contents diverge from oracle: file has {len(observed)} "
            f"keys, oracle has {len(oracle.keys())} "
            f"(first difference at index "
            f"{_first_difference(observed, oracle.keys())})"
        )
    return None


def _first_difference(left: List, right: List) -> int:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    return min(len(left), len(right))


# ----------------------------------------------------------------------
# replica-reads schedule: writers on the primary, readers on the replica
# ----------------------------------------------------------------------


@dataclass
class ReplicaStressConfig:
    """A replica-reads torture run: writers on node A, readers on B."""

    path: Optional[str] = None
    threads: int = 2
    readers: int = 2
    total_ops: int = 120
    seed: int = 0
    insert_ratio: float = 0.7
    key_space: int = 10_000
    op_timeout: Optional[float] = 30.0
    sync_interval: float = 0.002

    def __post_init__(self) -> None:
        if self.threads < 1 or self.readers < 1:
            raise ConfigurationError(
                "replica stress needs at least one writer and one reader"
            )


@dataclass
class ReplicaStressReport:
    """What one replica-reads run observed."""

    seed: int = 0
    writers: int = 0
    readers: int = 0
    writes_applied: int = 0
    snapshots_checked: int = 0
    records_shipped: int = 0
    records_applied: int = 0
    final_sequence: int = 0
    final_lag: int = 0
    timeouts: int = 0
    violations: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Every snapshot was a committed prefix and lag drained to 0."""
        return not self.violations

    def summary(self) -> str:
        """Human-readable verdict with shipping and snapshot counters."""
        verdict = "CLEAN" if self.ok else "FAILED"
        lines = [
            f"replica-stress seed={self.seed} writers={self.writers} "
            f"readers={self.readers}: {verdict} — "
            f"{self.writes_applied} writes, {self.snapshots_checked} "
            f"prefix-consistent snapshots, shipped="
            f"{self.records_shipped} applied={self.records_applied}, "
            f"final LSN {self.final_sequence} (lag {self.final_lag}), "
            f"{self.elapsed:.2f}s",
        ]
        if self.timeouts:
            lines.append(f"  timeouts={self.timeouts}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def run_replica_stress(config: ReplicaStressConfig) -> ReplicaStressReport:
    """Writers on the primary, readers on the replica, digests between.

    Writer threads drive disjoint seeded insert/delete streams through
    a :class:`ThreadSafeDenseFile` over a journaled primary; an applier
    thread continuously drains the WAL shipper into the replica; reader
    threads take :meth:`~repro.replication.Replica.snapshot` pairs and
    check each snapshot's record digest against the digest the
    primary-side :class:`~repro.replication.StateRecorder` captured at
    exactly that committed sequence.  Any mismatch — a torn, reordered
    or mid-transaction replica state — is a violation, as is residual
    lag after the final drain.
    """
    # Imported here: the replication package layers on top of this
    # harness's package, and the base torture must import without it.
    from ..persistent import JournaledDenseFile
    from ..replication import Failover, QueueTransport, bootstrap_replica
    from ..replication.failover import records_digest

    if config.path is None:
        raise ConfigurationError("replica stress needs a path")
    report = ReplicaStressReport(
        seed=config.seed, writers=config.threads, readers=config.readers
    )
    num_pages, d, D = _geometry(
        StressConfig(total_ops=config.total_ops, seed=config.seed)
    )
    primary = JournaledDenseFile.create(
        config.path, num_pages=num_pages, d=d, D=D, overwrite=True
    )
    shared = ThreadSafeDenseFile(primary)
    replica = bootstrap_replica(primary, config.path + ".replica")
    pair = Failover(primary, replica, QueueTransport())

    streams = split_workload(
        mixed_workload(
            config.total_ops,
            insert_ratio=config.insert_ratio,
            key_space=config.key_space,
            seed=config.seed,
        ),
        config.threads,
    )
    stop = threading.Event()
    failures: "queue.Queue" = queue.Queue()

    def writer(stream: List) -> None:
        for operation in stream:
            try:
                if operation.kind == INSERT:
                    shared.insert(operation.key, timeout=config.op_timeout)
                else:
                    shared.delete(operation.key, timeout=config.op_timeout)
                report.writes_applied += 1
            except OperationTimeout:  # lint: allow[errors] -- counted, run continues
                report.timeouts += 1
            except ReproError:
                # Duplicate/missing keys can happen when streams race;
                # the digest check below is the correctness oracle.
                pass

    def applier() -> None:
        while not stop.is_set():
            try:
                pair.sync(timeout=config.op_timeout)
            except ReproError as error:
                failures.put(f"applier: {type(error).__name__}: {error}")
                return
            stop.wait(config.sync_interval)

    def reader() -> None:
        while not stop.is_set():
            try:
                sequence, records = replica.snapshot(
                    timeout=config.op_timeout
                )
            except OperationTimeout:  # lint: allow[errors] -- counted, run continues
                report.timeouts += 1
                continue
            except ReproError as error:
                failures.put(f"reader: {type(error).__name__}: {error}")
                return
            expected = pair.recorder.digest_at(sequence)
            if expected is None:
                failures.put(
                    f"snapshot at sequence {sequence} which the primary "
                    "never committed"
                )
                return
            if records_digest(records) != expected:
                failures.put(
                    f"snapshot at sequence {sequence} is not the "
                    "primary's committed state at that sequence"
                )
                return
            report.snapshots_checked += 1

    writer_threads = [
        threading.Thread(target=writer, args=(stream,), daemon=True)
        for stream in streams
    ]
    helper_threads = [
        threading.Thread(target=applier, daemon=True)
    ] + [
        threading.Thread(target=reader, daemon=True)
        for _ in range(config.readers)
    ]
    start = time.monotonic()
    for thread in helper_threads + writer_threads:
        thread.start()
    try:
        for thread in writer_threads:
            thread.join(timeout=120.0)
    finally:
        stop.set()
        for thread in helper_threads:
            thread.join(timeout=30.0)
        report.elapsed = time.monotonic() - start
    while not failures.empty():
        report.violations.append(failures.get())

    # Final drain: everything committed must reach the replica, and the
    # fully caught-up snapshot must equal the primary's final state.
    if not report.violations:
        pair.sync(timeout=config.op_timeout)
        report.final_lag = pair.lag()
        if report.final_lag:
            report.violations.append(
                f"replica still lags by {report.final_lag} after drain"
            )
        sequence, records = replica.snapshot(timeout=config.op_timeout)
        expected = pair.recorder.digest_at(sequence)
        if expected is None or records_digest(records) != expected:
            report.violations.append(
                f"final snapshot at sequence {sequence} diverges from "
                "the primary's committed state"
            )
    report.final_sequence = replica.applied_sequence
    report.records_shipped = pair.shipper.shipped
    report.records_applied = replica.records_applied
    replica.close()
    shared.inner.close()
    return report


# ----------------------------------------------------------------------
# negative controls: the harness proves its own teeth
# ----------------------------------------------------------------------


class _YieldingStore(PageStore):
    """Pass-through store that sleeps between page touches.

    Widens every window between a read and its dependent write, so a
    deliberately unlocked run interleaves destructively with near
    certainty.  ``move_records`` uses the inherited get/put default,
    planting a yield inside every SHIFT step.
    """

    name = "yielding"

    def __init__(self, inner: PageStore, delay: float = 0.0005):
        self.inner = inner
        self.num_pages = inner.num_pages
        self.delay = delay

    def peek(self, page_number: int) -> Page:
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        time.sleep(self.delay)
        return self.inner.get_page(page_number)

    def put_page(self, page_number: int) -> None:
        time.sleep(self.delay)
        self.inner.put_page(page_number)

    def flush(self) -> int:
        return self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def stats(self) -> Dict[str, object]:
        return {"backend": self.name, "inner": self.inner.stats()}


def negative_control_race(seed: int = 0, attempts: int = 3) -> bool:
    """Bypass the lock and check the harness catches the carnage.

    Returns ``True`` when a race was detected (contents diverged, an
    invariant broke, or an operation crashed outright) within
    ``attempts`` seeded rounds.  The hardened front-end runs the same
    pattern clean, so detection here is the harness's teeth, not noise.
    """
    for attempt in range(attempts):
        if _race_round(seed + attempt):
            return True
    return False


def _race_round(seed: int) -> bool:
    rng = random.Random(seed)
    num_pages, d = 16, 8
    D = d + 3 * ceil_log2(num_pages) + 4
    store = _YieldingStore(MemoryStore(num_pages))
    dense = DenseSequentialFile(num_pages, d, D, store=store)
    unlocked = ThreadSafeDenseFile(dense, bypass_lock=True)
    threads, per_thread = 4, 12
    # Interleaved key stripes: every thread hammers the same pages.
    keys = rng.sample(range(1000), threads * per_thread)
    start = threading.Barrier(threads)
    failures: List[str] = []

    def client(tid: int) -> None:
        try:
            start.wait(timeout=30.0)
            for key in keys[tid::threads]:
                unlocked.insert(key)
        except Exception as error:  # lint: allow[errors] -- wreckage is the expected outcome
            failures.append(f"{type(error).__name__}: {error}")

    clients = [
        threading.Thread(target=client, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60.0)
    if failures:
        return True
    try:
        stored = [record.key for record in dense.range(-1, 1001)]
        if stored != sorted(keys):
            return True
        dense.validate()
    except Exception:  # lint: allow[errors] -- any wreckage proves the negative control
        return True
    return False


def negative_control_deadlock(hold: float = 0.05, budget: float = 0.5) -> bool:
    """Two lock acquisitions in opposite orders, raced in one batch.

    A guaranteed lock-order inversion: each client takes its first lock,
    meets the other at a barrier, then requests the other's lock.  With
    unbounded waiting this hangs forever; with per-operation deadlines
    the harness observes :class:`~repro.core.errors.OperationTimeout`
    from both clients and reports the deadlock instead of wedging the
    build.  Returns ``True`` when the timeout path fired as designed.
    """
    lock_a, lock_b = FairRWLock(), FairRWLock()
    meet = threading.Barrier(2)
    outcomes: List[str] = []

    def client(first: FairRWLock, second: FairRWLock) -> None:
        with first.write_locked(Deadline.after(budget)):
            meet.wait(timeout=30.0)
            time.sleep(hold)
            try:
                # lint: allow[lock-order] -- deliberate ABBA deadlock for the negative control
                with second.write_locked(Deadline.after(budget)):
                    outcomes.append("acquired")
            except OperationTimeout:  # lint: allow[errors] -- timeout is the expected outcome
                outcomes.append("timeout")

    clients = [
        threading.Thread(target=client, args=pair, daemon=True)
        for pair in ((lock_a, lock_b), (lock_b, lock_a))
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60.0)
    return "timeout" in outcomes


@dataclass
class SelfTestReport:
    """Outcome of the harness's own positive + negative controls."""

    clean: StressReport
    race_detected: bool
    deadlock_detected: bool

    @property
    def ok(self) -> bool:
        return self.clean.ok and self.race_detected and self.deadlock_detected

    def summary(self) -> str:
        """One line per control, each with its own ok/FAILED mark."""

        def mark(value: bool) -> str:
            return "ok" if value else "FAILED"

        return "\n".join(
            [
                self.clean.summary(),
                f"negative control (seeded race, lock bypassed): "
                f"{mark(self.race_detected)} — corruption detected",
                f"negative control (lock-order deadlock): "
                f"{mark(self.deadlock_detected)} — deadline fired",
            ]
        )


def self_test(seed: int = 0, total_ops: int = 120) -> SelfTestReport:
    """Positive control plus both negative controls, in one verdict."""
    clean = run_stress(StressConfig(seed=seed, total_ops=total_ops))
    return SelfTestReport(
        clean=clean,
        race_detected=negative_control_race(seed),
        deadlock_detected=negative_control_deadlock(),
    )

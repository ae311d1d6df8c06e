"""Property tests for the fault-injection / self-healing storage stack.

Four contracts, each swept with Hypothesis-drawn fault schedules:

* **Transparency** — a *disabled* ``RetryingStore(FaultyStore(...))``
  is invisible: the wrapped backend sees a byte-identical operation
  stream on every backend (memory, disk, buffered).
* **Absorption** — every injected transient is retried away; the file
  always matches the model, and the retry counters account for every
  injected fault exactly.
* **Crash legality** — a :class:`FaultPlan` crash countdown driven
  through the journaled facade always recovers to the pre- or the
  post-command state, never anything in between.
* **Detection** — a bit-flipped or torn physical frame is either
  healed by a later write of the same page (in which case the file is
  simply healthy) or caught by its CRC, quarantined by ``scrub`` and
  survivable through the degraded read-only open.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile, JournaledDenseFile, PersistentDenseFile
from repro.concurrent.retry import RetryPolicy
from repro.core.errors import ReadOnlyError, TransientIOError
from repro.storage.backend import BufferedStore, DiskStore, MemoryStore
from repro.storage.faults import (
    FaultPlan,
    FaultyStore,
    RetryingStore,
    SimulatedCrash,
    fault_tolerant_stack,
)
from repro.storage.scrub import scrub

GEOMETRY = dict(num_pages=16, d=4, D=24)
BACKENDS = ["memory", "disk", "buffered"]

#: A drawn command script: (op selector, key, span) triples.
commands_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "delete_range", "scan"]),
        st.integers(0, 200),
        st.integers(0, 40),
    ),
    min_size=5,
    max_size=60,
)


def make_backend(name: str, directory: str):
    """A fresh inner store of the requested flavour."""
    if name == "memory":
        return MemoryStore(GEOMETRY["num_pages"]), None
    path = os.path.join(directory, "f.dsf")
    disk = DiskStore.create(path, **GEOMETRY)
    if name == "disk":
        return disk, path
    return BufferedStore(disk, capacity=4), path


def apply_commands(dense, model, commands):
    """Drive the drawn script against the file and a sorted-set model."""
    capacity = GEOMETRY["num_pages"] * GEOMETRY["d"]
    for op, key, span in commands:
        if op == "insert" and key not in model and len(model) < capacity:
            dense.insert(key)
            model.add(key)
        elif op == "delete" and model:
            victim = sorted(model)[key % len(model)]
            dense.delete(victim)
            model.remove(victim)
        elif op == "delete_range":
            removed = dense.delete_range(key, key + span)
            expected = {k for k in model if key <= k <= key + span}
            assert removed == len(expected)
            model -= expected
        elif op == "scan":
            window = [record.key for record in dense.range(key, key + span)]
            assert window == sorted(
                k for k in model if key <= k <= key + span
            )


class TestDisabledLayerIsTransparent:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(commands=commands_strategy)
    @settings(max_examples=15, deadline=None)
    def test_counter_parity(self, backend, commands):
        """Bare backend and disabled fault stack see identical traffic."""
        observed = []
        for decorate in (False, True):
            with tempfile.TemporaryDirectory() as directory:
                inner, _ = make_backend(backend, directory)
                store = (
                    fault_tolerant_stack(inner, FaultPlan(seed=0))
                    if decorate
                    else inner
                )
                dense = DenseSequentialFile(**GEOMETRY, store=store)
                apply_commands(dense, set(), commands)
                dense.flush()
                counters = dict(inner.stats())
                counters.pop("path", None)  # tempdir differs by run
                if "inner" in counters:  # buffered wraps disk: same path
                    counters["inner"] = dict(counters["inner"])
                    counters["inner"].pop("path", None)
                observed.append(counters)
                dense.close()
        assert observed[0] == observed[1]


class TestTransientAbsorption:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        seed=st.integers(0, 10_000),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
        commands=commands_strategy,
    )
    @settings(max_examples=15, deadline=None)
    def test_every_transient_retried_away(self, backend, seed, rate, commands):
        with tempfile.TemporaryDirectory() as directory:
            inner, _ = make_backend(backend, directory)
            plan = FaultPlan(seed=seed, transient_rate=rate)
            stack = fault_tolerant_stack(
                inner, plan, RetryPolicy(max_attempts=50)
            )
            dense = DenseSequentialFile(**GEOMETRY, store=stack)
            model = set()
            apply_commands(dense, model, commands)
            stored = [r.key for r in dense.engine.pagefile.iter_all()]
            assert stored == sorted(model)
            dense.validate()
            assert stack.giveups == 0
            assert stack.retries == plan.transients_injected
            dense.close()

    def test_bounded_budget_gives_up_loudly(self):
        """When the fault outlives the retry budget, the transient
        surfaces (it must never be swallowed into silent data loss)."""
        plan = FaultPlan(seed=3, transient_rate=1.0)
        stack = RetryingStore(
            FaultyStore(MemoryStore(4), plan), RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientIOError):
            stack.get_page(1)
        assert stack.giveups == 1
        assert stack.retries == 2  # max_attempts - 1
        assert plan.transients_injected == 3

    def test_backoff_delays_are_slept_deterministically(self):
        plan = FaultPlan(seed=5, transient_rate=1.0, max_transients=4)
        slept = []
        stack = RetryingStore(
            FaultyStore(MemoryStore(4), plan),
            RetryPolicy(max_attempts=10, base_delay=0.25, max_delay=1.0),
            sleep=slept.append,
        )
        stack.get_page(1)  # 4 transients then success
        assert slept == [0.25, 0.5, 1.0, 1.0]
        assert stack.backoff_total == pytest.approx(2.75)


class TestCrashSchedulesLandOnLegalStates:
    @given(crash_point=st.integers(1, 60), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_recovery_is_pre_or_post_state(self, crash_point, seed):
        """A FaultPlan countdown through the journaled facade is exactly
        the old wal.FaultInjector contract: atomic per command."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "crash.dsf")
            plan = FaultPlan(seed=seed)
            dense = JournaledDenseFile.create(
                path, num_pages=16, d=8, D=28, injector=plan
            )
            dense.insert_many(range(0, 60, 3))
            before = [r.key for r in dense.range(-1, 10**9)]
            batch = range(100, 160, 4)  # disjoint from the preload
            prospective = sorted(set(before) | set(batch))
            plan.arm(crash_point)
            crashed = False
            try:
                dense.insert_many(batch)
            except SimulatedCrash:
                crashed = True
            plan.disarm()
            dense._raw.close()
            reopened = JournaledDenseFile.open(path)
            state = [r.key for r in reopened.range(-1, 10**9)]
            assert state in (before, prospective)
            if not crashed:
                assert state == prospective
            reopened.validate()
            reopened.close()
            assert plan.crashes == (1 if crashed else 0)


class TestPhysicalCorruptionLadder:
    @given(
        flip_at=st.integers(0, 80),
        torn=st.booleans(),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_bitflip_or_torn_write_never_goes_unnoticed(
        self, flip_at, torn, seed
    ):
        """Corrupt one physical frame mid-workload; afterwards the file
        is either fully healthy (a later write of the same page healed
        it) or scrub quarantines exactly a corrupted page and the
        degraded open serves the surviving records read-only."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "flip.dsf")
            disk = DiskStore.create(path, **GEOMETRY)
            plan = FaultPlan(
                seed=seed,
                torn_write_at=flip_at if torn else None,
                bitflip_at=None if torn else flip_at,
            )
            dense = DenseSequentialFile(
                **GEOMETRY, store=FaultyStore(disk, plan)
            )
            model = set()
            rng_keys = [(seed * 7 + i * 13) % 300 for i in range(50)]
            for key in rng_keys:
                if key in model:
                    model.remove(key)
                    dense.delete(key)
                else:
                    model.add(key)
                    dense.insert(key)
            dense.close()

            injected = plan.torn_writes + plan.bitflips
            report = scrub(path)
            if not injected or not report.degraded:
                # Schedule never fired, or a later write healed the
                # frame, or the journal-less scrub found it intact.
                assert report.quarantined == ()
                if injected:
                    assert plan.corrupted_pages  # it DID corrupt a frame
                with PersistentDenseFile.open(path) as healthy:
                    stored = [r.key for r in healthy.range(-1, 10**9)]
                    assert stored == sorted(model)
                    healthy.validate()
                return

            # The quarantine names only pages the plan actually hit.
            assert set(report.quarantined) <= set(plan.corrupted_pages)
            degraded = PersistentDenseFile.open(
                path, on_corruption="degrade"
            )
            assert degraded.read_only
            assert degraded.quarantined == report.quarantined
            surviving = [r.key for r in degraded.range(-1, 10**9)]
            assert set(surviving) <= model
            for refused in (
                lambda: degraded.insert(10**6),
                lambda: degraded.delete(rng_keys[0]),
                lambda: degraded.compact(),
            ):
                with pytest.raises(ReadOnlyError):
                    refused()
            degraded.validate()
            degraded.close()


class TestGroupCommitBoundaryFaults:
    """Faults landing exactly at the group-commit record boundary of
    ``transaction()``: the group must commit whole or not at all."""

    PRELOAD = range(0, 40, 2)
    GROUP_INSERTS = (101, 103, 105)
    GROUP_DELETES = (0, 4)

    def _run_group(self, dense):
        with dense.transaction():
            for key in self.GROUP_INSERTS:
                dense.insert(key)
            for key in self.GROUP_DELETES:
                dense.delete(key)

    def _expected_after(self, before):
        return sorted(
            (set(before) | set(self.GROUP_INSERTS))
            - set(self.GROUP_DELETES)
        )

    @given(crash_point=st.integers(0, 40), seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_crash_inside_group_commit_is_all_or_nothing(
        self, crash_point, seed
    ):
        """A crash at any check boundary of the group's journal write or
        apply recovers to exactly the pre-group or post-group state —
        never a partial subset of the group's commands."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "group.dsf")
            plan = FaultPlan(seed=seed)
            dense = JournaledDenseFile.create(
                path, num_pages=16, d=8, D=28, injector=plan
            )
            dense.insert_many(self.PRELOAD)
            before = [r.key for r in dense.range(-1, 10**9)]
            plan.arm(crash_point)
            crashed = False
            try:
                self._run_group(dense)
            except SimulatedCrash:
                crashed = True
            plan.disarm()
            dense._raw.close()
            reopened = JournaledDenseFile.open(path)
            state = [r.key for r in reopened.range(-1, 10**9)]
            assert state in (before, self._expected_after(before))
            if not crashed:
                assert state == self._expected_after(before)
            reopened.validate()
            reopened.close()

    @given(
        offset=st.integers(0, 12),
        torn=st.booleans(),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=25, deadline=None)
    def test_torn_or_flipped_group_apply_heals_to_whole_group(
        self, offset, torn, seed
    ):
        """Tear (or bit-flip) the Nth physical frame of the group's
        apply phase — any page of the commit, including the first and
        last record boundary.  The journal retains the whole group's
        images, so scrub must heal back to the complete post-group
        state; the group is never observed partially applied."""
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "group.dsf")
            plan = FaultPlan(seed=seed)
            dense = JournaledDenseFile.create(
                path, num_pages=16, d=8, D=28, injector=plan
            )
            dense.insert_many(self.PRELOAD)
            before = [r.key for r in dense.range(-1, 10**9)]
            with dense.transaction():
                for key in self.GROUP_INSERTS:
                    dense.insert(key)
                for key in self.GROUP_DELETES:
                    dense.delete(key)
                # Arm now: the group's pages are written at block exit,
                # so this lands the corruption on the (offset mod n)-th
                # frame of the apply — a precise record boundary of the
                # group commit.
                group_pages = len(dense._dirty)
                target = plan.physical_writes + (offset % group_pages)
                if torn:
                    plan.torn_write_at = target
                else:
                    plan.bitflip_at = target
            assert plan.torn_writes + plan.bitflips == 1
            dense._raw.close()

            report = scrub(path)
            assert report.healthy, report.summary()
            healed = set(report.repaired) | set(report.healed)
            assert healed == set(plan.corrupted_pages)
            with JournaledDenseFile.open(path) as reopened:
                state = [r.key for r in reopened.range(-1, 10**9)]
                assert state == self._expected_after(before)
                reopened.validate()

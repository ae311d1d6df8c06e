"""Crash-consistency tests for the journaled dense file.

The central test sweeps the crash point across *every* physical write a
command performs (journal header, each journal entry, the commit
marker, the fsync slot, and each main-store page apply) and asserts
that reopening the file always lands on exactly the pre-command or the
post-command state — the atomicity contract.
"""

import os

import pytest

from repro import JournaledDenseFile
from repro.core.errors import InvariantViolationError
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.wal import TransactionJournal


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "atomic.dsf")


def contents(dense):
    return [(r.key, r.value) for r in dense.range(float("-inf"), float("inf"))]


class TestJournal:
    def test_roundtrip(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        pages = {3: b"three", 7: b"seven"}
        journal.write_transaction(pages)
        assert journal.read_committed() == pages
        journal.clear()
        assert journal.read_committed() is None

    def test_missing_journal_is_none(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        assert journal.read_committed() is None

    def test_torn_journal_discarded(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        journal.write_transaction({1: b"payload"})
        # Truncate the commit marker off.
        size = os.path.getsize(journal.path)
        with open(journal.path, "r+b") as handle:
            handle.truncate(size - 4)
        assert journal.read_committed() is None

    def test_corrupted_entry_discarded(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        journal.write_transaction({1: b"payload-bytes"})
        with open(journal.path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff")
        assert journal.read_committed() is None

    def test_bad_magic_discarded(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        with open(journal.path, "wb") as handle:
            handle.write(b"WHAT" + b"\x00" * 32)
        assert journal.read_committed() is None

    def test_clear_is_idempotent(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j"))
        journal.clear()
        journal.clear()


class TestFaultInjector:
    def test_disarmed_never_crashes(self):
        injector = FaultInjector()
        for _ in range(100):
            injector.check()

    def test_countdown(self):
        injector = FaultInjector()
        injector.arm(2)
        injector.check()
        injector.check()
        with pytest.raises(SimulatedCrash):
            injector.check()
        assert injector.crashes == 1


class TestBasicAtomicity:
    def test_normal_operation_matches_plain_persistent(self, path):
        with JournaledDenseFile.create(path, num_pages=64, d=8, D=40) as f:
            f.insert(1, "one")
            f.insert_many(range(10, 20))
            f.delete(1)
            f.delete_range(10, 14)
            f.validate()
            expected = contents(f)
        with JournaledDenseFile.open(path) as f:
            f.validate()
            assert contents(f) == expected
            assert not f.journal.exists()

    def test_committed_journal_replayed_on_open(self, path):
        f = JournaledDenseFile.create(path, num_pages=64, d=8, D=40)
        f.insert(1)
        # Simulate: journal written, apply never happened.
        from repro.storage.packed import encode_records_image

        f.journal.write_transaction({2: encode_records_image([])})
        target = f.engine.pagefile.nonempty_pages()[0]
        f.journal.write_transaction(
            {target: encode_records_image([])}
        )  # "delete everything on that page" as a fake committed txn
        f.close()
        with JournaledDenseFile.open(path) as g:
            # The redo applied: the page is now empty on disk and in core.
            assert len(g) == 0
            assert not g.journal.exists()

    def test_validate_rejects_uncommitted_state(self, path):
        f = JournaledDenseFile.create(path, num_pages=64, d=8, D=40)
        f.engine.insert(5)  # bypasses the transactional wrapper
        with pytest.raises(InvariantViolationError, match="uncommitted"):
            f.validate()
        f._commit()  # repair for teardown
        f.validate()
        f.close()


def run_command(dense, step: int):
    """The scripted command sequence for the crash sweep."""
    if step == 0:
        dense.insert_many(range(0, 600, 2))  # big multi-page transaction
    elif step == 1:
        dense.insert(99)  # triggers in-page insert (+ possible shifts)
    elif step == 2:
        dense.delete_range(100, 299)  # multi-page bulk delete
    elif step == 3:
        dense.compact()  # rewrites every page
    else:
        raise AssertionError(step)


class TestCrashPointSweep:
    @pytest.mark.parametrize("step", [0, 1, 2, 3])
    def test_every_crash_point_is_atomic(self, tmp_path, step):
        base = str(tmp_path / f"sweep{step}.dsf")

        # Golden run: state before and after the command, no faults.
        with JournaledDenseFile.create(base, num_pages=32, d=12, D=48,
                                       overwrite=True) as golden:
            for earlier in range(step):
                run_command(golden, earlier)
            before = contents(golden)
            run_command(golden, step)
            after = contents(golden)

        crash_point = 0
        exhausted = False
        while not exhausted:
            path = str(tmp_path / f"sweep{step}-{crash_point}.dsf")
            injector = FaultInjector()
            dense = JournaledDenseFile.create(
                path, num_pages=32, d=12, D=48, injector=injector
            )
            for earlier in range(step):
                run_command(dense, earlier)
            injector.arm(crash_point)
            try:
                run_command(dense, step)
                exhausted = True  # command completed: no write left to fail
            except SimulatedCrash:
                pass
            injector.disarm()
            dense._raw.close()

            reopened = JournaledDenseFile.open(path)
            state = contents(reopened)
            assert state in (before, after), (
                f"step {step}, crash point {crash_point}: neither the "
                "pre- nor the post-command state"
            )
            reopened.validate()
            reopened.close()
            crash_point += 1
            assert crash_point < 300, "sweep runaway"
        # The sweep must have exercised real crash points.
        assert crash_point > 3

"""Page images and the page's batch moves.

The in-core page is the record-list :class:`~repro.storage.page.Page`;
what reaches disk on version-2 files is the self-describing format-byte
image of :mod:`repro.storage.packed`.  These tests hold:

* **batch moves** — ``take_lowest_into`` / ``take_highest_into`` (the
  SHIFT step's slice moves) match a plain-list reference, key-order
  :class:`~repro.core.errors.UsageError` included;
* **image level** — the format-byte classifier packs exactly the
  homogeneous pages it documents (int64 / float64 / short-str keys,
  bytes-or-None values) and demotes everything else to the generic
  object codec, with every image round-tripping exactly and the image
  bytes pinned — including legacy version-1 files that predate the
  packed format.
"""

import os
import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dense_file import DenseSequentialFile
from repro.core.errors import UsageError
from repro.records import Record
from repro.storage.backend import DiskStore, move_between
from repro.storage.codec import CodecError
from repro.storage.packed import (
    PAGE_FORMAT_F64,
    PAGE_FORMAT_I64,
    PAGE_FORMAT_OBJECT,
    PAGE_FORMAT_STR,
    decode_page_image,
    encode_page_image,
    encode_records_image,
)
from repro.storage.page import Page

M, LOW_D, HIGH_D = 16, 4, 24

# ---------------------------------------------------------------------------
# batch moves: slice moves against a plain-list reference
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(), unique=True, min_size=0, max_size=20),
    st.lists(st.integers(), unique=True, min_size=0, max_size=20),
    st.integers(min_value=0, max_value=25),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_slice_moves_match_record_moves(source_keys, dest_keys, count, upward):
    """``take_*_into`` moves exactly the reference slice, or nothing."""
    source_records = [Record(key, key % 5) for key in sorted(source_keys)]
    dest_records = [Record(key, None) for key in sorted(dest_keys)]
    source, dest = Page(source_records), Page(dest_records)

    taken = min(count, len(source_records))
    if upward:
        moved = source_records[:taken]
        in_order = not dest_records or not moved or (
            moved[0].key > dest_records[-1].key
        )
        expected_source = source_records[taken:]
        expected_dest = dest_records + moved
        move = source.take_lowest_into
    else:
        moved = source_records[len(source_records) - taken:]
        in_order = not dest_records or not moved or (
            moved[-1].key < dest_records[0].key
        )
        expected_source = source_records[: len(source_records) - taken]
        expected_dest = moved + dest_records
        move = source.take_highest_into

    if in_order:
        assert move(dest, count) == taken
        assert source.records() == expected_source
        assert dest.records() == expected_dest
        assert dest._keys == [record.key for record in expected_dest]
        assert source._keys == [record.key for record in expected_source]
    else:
        with pytest.raises(UsageError):
            move(dest, count)
        assert source.records() == source_records
        assert dest.records() == dest_records


def test_move_between_moves_the_records_nearest_the_destination():
    low = Page([Record(k) for k in (1, 2, 3)])
    high = Page([Record(k) for k in (10, 11)])
    # dest above source: the highest records slide up.
    assert move_between(low, high, source=1, dest=2, count=2) == 2
    assert [r.key for r in low] == [1]
    assert [r.key for r in high] == [2, 3, 10, 11]
    # dest below source: the lowest records slide back down.
    assert move_between(high, low, source=2, dest=1, count=3) == 3
    assert [r.key for r in low] == [1, 2, 3, 10]
    assert [r.key for r in high] == [11]


def test_heterogeneous_keys_in_one_file_stay_identical(tmp_path):
    """Fraction keys demote every disk write to the object codec; the
    disk file still matches the memory file record for record and
    charge for charge."""
    memory_file = DenseSequentialFile(M, LOW_D, HIGH_D)
    disk_file = DenseSequentialFile(
        M, LOW_D, HIGH_D, backend="disk", path=str(tmp_path / "frac.dsf")
    )
    for dense in (memory_file, disk_file):
        for key in (Fraction(1, 3), Fraction(2, 3), Fraction(7, 2), Fraction(9)):
            dense.insert(key, str(key))
    assert memory_file.delete(Fraction(2, 3)) == disk_file.delete(
        Fraction(2, 3)
    )
    assert list(memory_file.items()) == list(disk_file.items())
    assert memory_file.occupancies() == disk_file.occupancies()
    for name in ("reads", "writes", "cost"):
        assert getattr(memory_file.stats, name) == getattr(
            disk_file.stats, name
        )
    memory_file.validate()
    disk_file.validate()
    disk_file.close()


# ---------------------------------------------------------------------------
# image level: the format byte packs exactly what it documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "records, expected_format",
    [
        ([Record(k) for k in (1, 5, 9)], PAGE_FORMAT_I64),
        ([Record(float(k), None) for k in range(4)], PAGE_FORMAT_F64),
        ([Record("a"), Record("bc"), Record("já")], PAGE_FORMAT_STR),
        ([Record(2, b"x"), Record(4, None)], PAGE_FORMAT_I64),
        # int64 overflow, bool contamination, mixed numeric types, long
        # strings, exotic keys, non-bytes values: all demote to the
        # generic object codec (format byte 0).
        ([Record(2**63)], PAGE_FORMAT_OBJECT),
        ([Record(-(2**63) - 1)], PAGE_FORMAT_OBJECT),
        ([Record(False), Record(2)], PAGE_FORMAT_OBJECT),
        ([Record(1), Record(2.5)], PAGE_FORMAT_OBJECT),
        ([Record("x" * 256)], PAGE_FORMAT_OBJECT),
        ([Record(Fraction(1, 3))], PAGE_FORMAT_OBJECT),
        ([Record((1, 2)), Record((3, 4))], PAGE_FORMAT_OBJECT),
        ([Record(1, "not-bytes")], PAGE_FORMAT_OBJECT),
        ([Record(1, 99)], PAGE_FORMAT_OBJECT),
        ([], PAGE_FORMAT_OBJECT),
    ],
)
def test_format_byte_classification(records, expected_format):
    image = encode_records_image(records)
    assert image[0] == expected_format
    assert decode_page_image(image) == records


def test_page_image_round_trip_is_exact():
    records = [Record(k, bytes([k % 251])) for k in range(0, 40, 3)]
    image = encode_page_image(Page(records))
    assert image == encode_records_image(records)
    assert image[0] == PAGE_FORMAT_I64
    assert decode_page_image(image) == records


#: Images as the format-2 codec has always written them: a file written
#: by any earlier release must decode, and a rewrite must not change a
#: byte of an unchanged page.
PINNED_IMAGES = [
    (
        [Record(-3, b"a"), Record(7, None), Record(2**40, b"")],
        "0101000003000000fdffffffffffffff0700000000000000"
        "000000000001000001000000ffffffff0000000061",
    ),
    (
        [Record(0.5), Record(2.25)],
        "0200000002000000000000000000e03f0000000000000240",
    ),
    (
        [Record("a"), Record("já", b"v")],
        "03010000020000000301610000036ac3a1ffffffff0100000076",
    ),
    (
        [Record(Fraction(1, 3), "x"), Record(Fraction(1, 2), (1, 2))],
        "00020000000703010000000103010000000305010000007807"
        "0301000000010301000000020802000000030100000001030100000002",
    ),
    ([], "0000000000"),
]


@pytest.mark.parametrize("records, image_hex", PINNED_IMAGES)
def test_image_bytes_are_pinned(records, image_hex):
    image = bytes.fromhex(image_hex)
    assert encode_page_image(Page(records)) == image
    assert encode_records_image(records) == image
    assert decode_page_image(image) == records


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=300),
                st.fractions(max_denominator=40),
            ),
            st.one_of(st.none(), st.binary(max_size=20), st.integers()),
        ),
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_every_image_round_trips(pairs):
    """Whatever the classifier picks, decoding restores exact records."""
    seen = set()
    records = []
    for key, value in pairs:
        marker = (type(key).__name__, key)
        if marker in seen:
            continue
        seen.add(marker)
        records.append(Record(key, value))
    records.sort(key=lambda record: (type(record.key).__name__, record.key))
    image = encode_records_image(records)
    decoded = decode_page_image(image)
    assert decoded == records
    for original, roundtripped in zip(records, decoded):
        assert type(roundtripped.key) is type(original.key)
        assert type(roundtripped.value) is type(original.value)


def test_mid_stream_demotion_and_repromotion():
    """A Fraction key demotes the *write*, not the page; removing it
    restores the packed format on the next write."""
    page = Page([Record(k) for k in (10, 20, 30)])
    assert encode_page_image(page)[0] == PAGE_FORMAT_I64
    page.insert_kv(Fraction(25, 1))
    demoted = encode_page_image(page)
    assert demoted[0] == PAGE_FORMAT_OBJECT
    assert decode_page_image(demoted) == page.records()
    page.remove(Fraction(25, 1))
    assert encode_page_image(page)[0] == PAGE_FORMAT_I64


def test_corrupt_images_raise_codec_errors():
    image = encode_records_image([Record(k, b"pay") for k in (1, 2, 3)])
    with pytest.raises(CodecError):
        decode_page_image(b"")
    with pytest.raises(CodecError):
        decode_page_image(bytes([77]) + image[1:])  # unknown format byte
    with pytest.raises(CodecError):
        decode_page_image(image[:-2])  # truncated value bytes
    with pytest.raises(CodecError):
        decode_page_image(image + b"\x00")  # trailing garbage


# ---------------------------------------------------------------------------
# on-disk compatibility: version-1 files predate the packed format
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="packed-parity-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _disk_file(workdir, name, version):
    store = DiskStore.create(
        os.path.join(workdir, name),
        num_pages=M,
        d=LOW_D,
        D=HIGH_D,
        version=version,
    )
    return DenseSequentialFile(M, LOW_D, HIGH_D, store=store)


@pytest.mark.parametrize("version", [1, 2])
def test_old_and_new_files_reopen_and_scrub(workdir, version):
    """Both on-disk versions round trip through a close and reopen."""
    name = f"v{version}.dsf"
    dense = _disk_file(workdir, name, version)
    for key in range(0, 120, 2):
        dense.insert(key, f"value-{key}")
    for key in range(0, 120, 10):
        dense.delete(key)
    expected = list(dense.items())
    dense.close()

    store = DiskStore.open(os.path.join(workdir, name))
    assert store.raw.version == version
    reopened = DenseSequentialFile(M, LOW_D, HIGH_D, store=store)
    reopened.engine.restore_from_store()
    assert list(reopened.items()) == expected
    reopened.validate()
    reopened.close()

    # Both format versions also pass the scrub ladder untouched.
    from repro.storage.scrub import scrub

    report = scrub(os.path.join(workdir, name))
    assert report.healthy, report.summary()
    assert not report.corrupt


def test_format_byte_round_trips_through_journal_replay(workdir):
    """Journaled payloads are format-byte images; replay restores both
    the packed images and the demoted (object-codec) ones exactly."""
    from repro.persistent import JournaledDenseFile

    path = os.path.join(workdir, "journaled.dsf")
    dense = JournaledDenseFile.create(path, num_pages=16, d=8, D=28)
    for key in range(0, 30, 2):
        dense.insert(key, bytes([key]))  # packed int64 pages
    dense.insert(Fraction(7, 2), "demoted")  # object-codec page
    dense.insert(Fraction(31, 3), (1, "tuple-value"))
    expected = dense.scan(0, 100)
    dense.close()

    reopened = JournaledDenseFile.open(path)
    assert reopened.scan(0, 100) == expected
    assert reopened.search(Fraction(7, 2)).value == "demoted"
    reopened.validate()
    reopened.close()


def test_format_byte_round_trips_through_replication(workdir):
    """Shipped WAL records carry page images verbatim; a replica
    reconstructs packed and demoted pages bit-exactly."""
    from repro.persistent import JournaledDenseFile
    from repro.replication import Failover, QueueTransport, bootstrap_replica

    primary = JournaledDenseFile.create(
        os.path.join(workdir, "primary.dsf"), num_pages=16, d=8, D=28
    )
    primary.insert_many(range(0, 40, 2))
    replica = bootstrap_replica(
        primary, os.path.join(workdir, "replica.dsf")
    )
    pair = Failover(primary, replica, QueueTransport())
    primary.insert(101, b"packed-value")
    primary.insert(Fraction(5, 3), "demoted-value")
    pair.sync()
    assert replica.search(101).value == b"packed-value"
    assert replica.search(Fraction(5, 3)).value == "demoted-value"
    _, records = replica.snapshot()
    assert dict(records) == {r.key: r.value for r in primary.scan(0, 200)}
    replica.close()
    primary.close()


def test_v1_and_v2_files_hold_identical_logical_state(workdir):
    """The format version changes slot bytes, never logical contents."""
    v1 = _disk_file(workdir, "old.dsf", 1)
    v2 = _disk_file(workdir, "new.dsf", 2)
    for dense in (v1, v2):
        for key in range(60):
            dense.insert(key, bytes([key]))
        for key in range(0, 60, 7):
            dense.delete(key)
    assert list(v1.items()) == list(v2.items())
    assert v1.stats.reads == v2.stats.reads
    assert v1.stats.writes == v2.stats.writes
    v1.close()
    v2.close()

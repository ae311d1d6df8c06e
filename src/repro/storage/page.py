"""An in-memory page: a key-sorted slice of a sequential file.

Pages hold :class:`~repro.records.Record` objects sorted by key.  The
capacity ``D`` of the paper is enforced *softly*: the structures above
may let a page transiently exceed ``D`` records within a command, because
the paper's guarantee (``BALANCE(d, D)``) only binds at the end of each
insertion/deletion command.  The invariant checkers assert the hard bound
at those points.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, List, Optional

from ..core.errors import DuplicateKeyError, RecordNotFoundError, UsageError
from ..records import Record


class Page:
    """A sorted, soft-capacity container of records."""

    __slots__ = ("_keys", "_records")

    def __init__(self, records: Optional[Iterable[Record]] = None):
        self._keys: List = []
        self._records: List[Record] = []
        if records:
            for record in records:
                self.insert(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Page({len(self)} records)"

    @property
    def is_empty(self) -> bool:
        return not self._records

    @property
    def min_key(self) -> Any:
        """Smallest key on the page (raises on an empty page)."""
        return self._keys[0]

    @property
    def max_key(self) -> Any:
        """Largest key on the page (raises on an empty page)."""
        return self._keys[-1]

    def records(self) -> List[Record]:
        """Return a copy of the records in key order."""
        return list(self._records)

    def contains(self, key: Any) -> bool:
        """Whether a record with ``key`` is on the page."""
        index = bisect.bisect_left(self._keys, key)
        return index < len(self._keys) and self._keys[index] == key

    def get(self, key: Any) -> Optional[Record]:
        """Return the record with ``key`` or ``None``."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._records[index]
        return None

    def insert(self, record: Record) -> int:
        """Insert ``record`` preserving key order; return its position.

        The returned index lets the page file skip its directory resync
        when the insert did not change the page minimum (index > 0).

        Raises
        ------
        DuplicateKeyError
            If a record with the same key is already on the page.
        """
        return self.insert_kv(record.key, record.value)

    def insert_kv(self, key: Any, value: Any = None) -> int:
        """Insert a record given as its fields; return its position.

        The hot-path form of :meth:`insert`: callers holding a key and a
        value skip building the :class:`Record` themselves.
        """
        keys = self._keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            raise DuplicateKeyError(key)
        keys.insert(index, key)
        self._records.insert(index, Record(key, value))
        return index

    def remove(self, key: Any) -> Record:
        """Remove and return the record with ``key``.

        Raises
        ------
        RecordNotFoundError
            If no record with ``key`` is on the page.
        """
        index = bisect.bisect_left(self._keys, key)
        if index >= len(self._keys) or self._keys[index] != key:
            raise RecordNotFoundError(key)
        del self._keys[index]
        return self._records.pop(index)

    def replace(self, record: Record) -> Record:
        """Swap in ``record`` for the existing record with the same key."""
        index = bisect.bisect_left(self._keys, record.key)
        if index >= len(self._keys) or self._keys[index] != record.key:
            raise RecordNotFoundError(record.key)
        old = self._records[index]
        self._records[index] = record
        return old

    def take_lowest_into(self, dest: "Page", count: int) -> int:
        """Move the ``count`` lowest records onto the top of ``dest``.

        The SHIFT step's batch move: the moved keys must all follow
        ``dest``'s keys (else :class:`UsageError` and nothing moves),
        and both lists travel as slices.  Returns the number moved.
        """
        count = min(count, len(self._keys))
        if count == 0:
            return 0
        keys = self._keys[:count]
        if dest._keys and keys[0] <= dest._keys[-1]:
            raise UsageError("extend_high would break key order")
        dest._keys += keys
        dest._records += self._records[:count]
        del self._keys[:count]
        del self._records[:count]
        return count

    def take_highest_into(self, dest: "Page", count: int) -> int:
        """Move the ``count`` highest records under the bottom of ``dest``."""
        count = min(count, len(self._keys))
        if count == 0:
            return 0
        keys = self._keys[-count:]
        if dest._keys and keys[-1] >= dest._keys[0]:
            raise UsageError("extend_low would break key order")
        dest._keys[:0] = keys
        dest._records[:0] = self._records[-count:]
        del self._keys[-count:]
        del self._records[-count:]
        return count

    def extend_low(self, records: List[Record]) -> None:
        """Prepend records whose keys all precede the page's current keys."""
        if not records:
            return
        if self._keys and records[-1].key >= self._keys[0]:
            raise UsageError("extend_low would break key order")
        self._records[:0] = records
        self._keys[:0] = [record.key for record in records]

    def extend_high(self, records: List[Record]) -> None:
        """Append records whose keys all follow the page's current keys."""
        if not records:
            return
        if self._keys and records[0].key <= self._keys[-1]:
            raise UsageError("extend_high would break key order")
        self._records.extend(records)
        self._keys.extend(record.key for record in records)

    def clear(self) -> List[Record]:
        """Remove and return every record on the page."""
        taken = self._records
        self._records = []
        self._keys = []
        return taken

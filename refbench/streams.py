"""Seeded operation streams, generated in full before any timing.

Every stream is a list of ``(kind, key, value)`` tuples computed from
the seed alone, with a model of the live key set so that no operation
can fail on a correct program: inserts always pick a key that is not
live, deletes and searches a key that is.  Keys of the preloaded
records are spaced ``SPACING`` apart, so fresh keys fit between them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

INSERT, DELETE, SEARCH, SCAN = "insert", "delete", "search", "scan"
SPACING = 1024
#: Hot inserts the churn stream keeps live before it starts retiring them.
HOT_BACKLOG = 2048
#: The churn window's walk over the aligned positions (coprime with their count).
WINDOW_STRIDE = 37

Op = Tuple[str, int, object]


def value_for(index: int) -> str:
    """The short string value the ``index``-th inserted record carries."""
    return f"v{index:x}"


def preload_keys(count: int) -> List[int]:
    """``count`` keys ``0, SPACING, 2*SPACING, ...``."""
    return [index * SPACING for index in range(count)]


class LiveSet:
    """A key set with O(1) insert, delete and uniform random choice."""

    def __init__(self, keys):
        self.keys: List[int] = list(keys)
        self.slot: Dict[int, int] = {key: i for i, key in enumerate(self.keys)}

    def __contains__(self, key: int) -> bool:
        return key in self.slot

    def add(self, key: int) -> None:
        self.slot[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        index = self.slot.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[index] = last
            self.slot[last] = index

    def choice(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]


def _fresh_key(rng: random.Random, live: LiveSet, lo: int, hi: int) -> int:
    while True:
        key = rng.randrange(lo, hi)
        if key not in live:
            return key


def churn_stream(seed: int, count: int, preloaded: int) -> List[Op]:
    """40% inserts / 40% deletes in a jumping 64-page hot window, 20%
    uniform point searches of preloaded keys.

    The window spans 256 preloaded keys: 64 pages at the standard
    geometry, aligned to a 64-page subtree of the calibrator.  Every
    4096 ops it jumps ``WINDOW_STRIDE`` positions along the aligned
    positions.  The walk is the same for every seed, which draws only
    the keys: how much SHIFT work a window causes depends on where it
    sits in the tree, and a seeded walk made the write tail differ from
    seed to seed.  Deletes retire the oldest hot insert (FIFO), and
    about ``HOT_BACKLOG`` hot inserts stay live, so the file's size
    stays level while the window's density climbs far enough above
    ``d`` to raise CONTROL 2's WARNING flags.
    """
    rng = random.Random(seed)
    live = LiveSet(preload_keys(preloaded))
    width = 256 * SPACING
    slots = preloaded * SPACING // width
    fifo: List[int] = []
    head = 0
    ops: List[Op] = []
    for index in range(count):
        if index % 4096 == 0:
            window = (index // 4096 * WINDOW_STRIDE) % slots * width
        roll = rng.random()
        pending = len(fifo) - head
        if roll < 0.2:
            ops.append((SEARCH, rng.randrange(preloaded) * SPACING, None))
        elif pending >= HOT_BACKLOG + 64 or (roll >= 0.6 and pending > HOT_BACKLOG):
            key = fifo[head]
            head += 1
            live.remove(key)
            ops.append((DELETE, key, None))
        else:
            key = _fresh_key(rng, live, window, window + width)
            live.add(key)
            fifo.append(key)
            ops.append((INSERT, key, value_for(index)))
    return ops


def uniform_stream(
    seed: int,
    count: int,
    preloaded: int,
    insert_share: float,
    delete_share: float,
    scan_width: int = 0,
) -> List[Op]:
    """Uniform inserts/deletes; the rest are reads.

    Reads are point searches of live keys, or (``scan_width > 0``)
    range scans whose start key is uniform over the key space and
    whose key span covers ``scan_width`` preloaded spacings.
    """
    rng = random.Random(seed)
    live = LiveSet(preload_keys(preloaded))
    key_space = preloaded * SPACING
    span = scan_width * SPACING
    ops: List[Op] = []
    for index in range(count):
        roll = rng.random()
        if roll < insert_share:
            key = _fresh_key(rng, live, 0, key_space)
            live.add(key)
            ops.append((INSERT, key, value_for(index)))
        elif roll < insert_share + delete_share:
            key = live.choice(rng)
            live.remove(key)
            ops.append((DELETE, key, None))
        elif scan_width:
            lo = rng.randrange(0, key_space - span)
            ops.append((SCAN, lo, lo + span - 1))
        else:
            ops.append((SEARCH, live.choice(rng), None))
    return ops

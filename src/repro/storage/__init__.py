"""Simulated auxiliary-memory substrate: pages, page files, disks, costs.

This subpackage is the "hardware" under every file structure in the
repository.  It implements the paper's cost model (page accesses) plus a
parametric disk-arm model used by the stream-retrieval benchmarks.
"""

from .backend import (
    BACKENDS,
    BufferedStore,
    DEFAULT_CACHE_PAGES,
    DiskStore,
    MemoryStore,
    PageStore,
    StoreStats,
    make_store,
)
from .bufferpool import BufferPool, PoolStats, replay
from .codec import CodecError, decode_page, encode_page
from .cost import AccessStats, CostModel, DISK_ARM_MODEL, PAGE_ACCESS_MODEL
from .disk import SimulatedDisk
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultyStore,
    RetryingStore,
    SimulatedCrash,
    fault_tolerant_stack,
)
from .ondisk import (
    CorruptPageError,
    DiskPagedStore,
    PageOverflowError,
    StorageError,
)
from .page import Page
from .pagefile import PageFile
from .scrub import ScrubReport, scrub
from .tracing import AccessEvent, AccessTrace, READ, WRITE

__all__ = [
    "AccessEvent",
    "AccessStats",
    "AccessTrace",
    "BACKENDS",
    "BufferPool",
    "BufferedStore",
    "CodecError",
    "CorruptPageError",
    "CostModel",
    "DEFAULT_CACHE_PAGES",
    "DISK_ARM_MODEL",
    "DiskPagedStore",
    "DiskStore",
    "FaultInjector",
    "FaultPlan",
    "FaultyStore",
    "MemoryStore",
    "PAGE_ACCESS_MODEL",
    "Page",
    "PageFile",
    "PageOverflowError",
    "PageStore",
    "PoolStats",
    "READ",
    "RetryingStore",
    "ScrubReport",
    "SimulatedCrash",
    "SimulatedDisk",
    "StorageError",
    "StoreStats",
    "WRITE",
    "decode_page",
    "encode_page",
    "fault_tolerant_stack",
    "make_store",
    "replay",
    "scrub",
]

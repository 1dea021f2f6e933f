"""Shared fixtures, and the ``fuzz-nightly`` hypothesis profile.

``small_trace`` is a fast, deterministic synthetic trace shared by the
analysis/cache/experiment test modules (session-scoped: generation costs
a few hundred milliseconds and many modules want the same trace).
``count_block_accesses`` is the cache tests' no-cache oracle, and
``append_rows`` feeds a log to a row sink the way the kernel tracer does.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.analysis.accesses import Transfer
from repro.clock import Clock
from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    OpenEvent,
    SeekEvent,
    UnlinkEvent,
)
from repro.unixfs.content import MemoryContentStore
from repro.unixfs.filesystem import FileSystem
from repro.unixfs.tracer import KernelTracer
from repro.workload.generator import generate
from repro.workload.profiles import UCBARPA

#: The deep run of the fuzz pillars (``tests/test_fuzz.py``):
#: ``--hypothesis-profile=fuzz-nightly --hypothesis-seed=N``.  A property
#: draws ~46 syscalls or 51-67 trace events per example, so 12,000
#: examples give each pillar over 540k syscalls or 600k events.
settings.register_profile(
    "fuzz-nightly", max_examples=12_000, deadline=None, derandomize=False
)


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def fs(clock: Clock) -> FileSystem:
    """A plain file system with a memory content store (no tracing)."""
    return FileSystem(clock=clock, content=MemoryContentStore())


@pytest.fixture
def traced_fs(clock: Clock):
    """A (FileSystem, KernelTracer) pair."""
    tracer = KernelTracer(name="test")
    return FileSystem(clock=clock, tracer=tracer), tracer


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture(scope="session")
def small_trace() -> TraceLog:
    """A 20-minute A5 synthetic trace (deterministic, ~2k events)."""
    return generate(UCBARPA, seed=42, duration=1200.0).trace


@pytest.fixture(scope="session")
def medium_trace() -> TraceLog:
    """A 2-hour A5 synthetic trace for shape assertions."""
    return generate(UCBARPA, seed=7, duration=7200.0).trace


def make_simple_trace() -> TraceLog:
    """A tiny hand-built trace with one whole-file read, one seek-then-read
    and one created-then-unlinked file.  Used by several test modules."""
    events = [
        OpenEvent(time=0.0, open_id=1, file_id=10, user_id=1, size=8192,
                  mode=AccessMode.READ),
        CloseEvent(time=0.5, open_id=1, final_pos=8192),
        OpenEvent(time=1.0, open_id=2, file_id=11, user_id=2, size=100_000,
                  mode=AccessMode.READ),
        SeekEvent(time=1.1, open_id=2, prev_pos=0, new_pos=50_000),
        CloseEvent(time=1.5, open_id=2, final_pos=52_048),
        OpenEvent(time=2.0, open_id=3, file_id=12, user_id=1, size=0,
                  mode=AccessMode.WRITE, created=True, new_file=True),
        CloseEvent(time=2.4, open_id=3, final_pos=4096),
        UnlinkEvent(time=30.0, file_id=12),
    ]
    return TraceLog(name="simple", events=events)


@pytest.fixture
def simple_trace() -> TraceLog:
    return make_simple_trace()


def count_block_accesses(stream, block_size: int) -> int:
    """Total logical block accesses — the paper's "no cache" column in
    Table VII (with no cache every access is a disk I/O)."""
    total = 0
    for item in stream:
        if isinstance(item, Transfer):
            total += (item.end - 1) // block_size - item.start // block_size + 1
    return total


def append_rows(sink, log: TraceLog) -> None:
    """Hand *log*'s rows (``TraceColumns.from_log``) to ``sink.append_row``
    one at a time, as the kernel tracer hands a spool its rows."""
    cols = TraceColumns.from_log(log)
    for row in zip(
        cols.kinds,
        cols.times,
        cols.open_ids,
        cols.file_ids,
        cols.user_ids,
        cols.sizes,
        cols.positions,
        cols.flags,
    ):
        sink.append_row(*row)

"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* both trace serializations round-trip arbitrary well-formed events;
* the CDF is a proper distribution function (monotone, bounded, consistent
  between ``percentile`` and ``fraction_at_or_below``);
* the allocator conserves space and never exceeds the device under any
  resize sequence, with waste bounded by one fragment per file;
* the cache simulator's miss ratio stays in [0, 1], a larger cache never
  does worse under pure-LRU reads, and disk reads never exceed read misses'
  upper bound;
* access reconstruction conserves bytes against the position arithmetic;
* the fuzz input model's traces (:func:`repro.fuzz.gen.trace_strategy`)
  validate and round-trip through a corpus; the fuzz pillars themselves
  are properties in ``tests/test_fuzz.py``.
"""

from __future__ import annotations

import io
from array import array

from hypothesis import given, settings, strategies as st

from repro.analysis.accesses import reconstruct_accesses
from repro.analysis.cdf import Cdf
from repro.fuzz.gen import trace_strategy
from repro.cache.policies import DELAYED_WRITE
from repro.cache.replacement import REPLACEMENT_NAMES
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import build_stream
from repro.corpus import pack_trace, read_corpus_columns
from repro.parallel.packed import (
    OP_READ,
    PackedStream,
    pack_stream,
    simulate_packed,
)
from repro.trace.io_text import format_event, parse_event_line
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)
from repro.trace.stats import total_bytes_transferred
from repro.unixfs.allocator import BlockAllocator, Extent
from repro.unixfs.errors import ENOSPC
from repro.unixfs.geometry import Geometry

# --- strategies -------------------------------------------------------------

times = st.integers(min_value=0, max_value=10_000_000).map(lambda cs: cs / 100.0)
ids = st.integers(min_value=0, max_value=2**31 - 1)
uids = st.integers(min_value=0, max_value=60_000)
sizes = st.integers(min_value=0, max_value=2**40)
modes = st.sampled_from(list(AccessMode))


@st.composite
def open_events(draw):
    size = draw(sizes)
    return OpenEvent(
        time=draw(times),
        open_id=draw(ids),
        file_id=draw(ids),
        user_id=draw(uids),
        size=size,
        mode=draw(modes),
        created=draw(st.booleans()),
        new_file=draw(st.booleans()),
        initial_pos=draw(st.integers(min_value=0, max_value=size)),
    )


events = st.one_of(
    open_events(),
    st.builds(CloseEvent, time=times, open_id=ids, final_pos=sizes),
    st.builds(SeekEvent, time=times, open_id=ids, prev_pos=sizes, new_pos=sizes),
    st.builds(UnlinkEvent, time=times, file_id=ids),
    st.builds(TruncateEvent, time=times, file_id=ids, new_length=sizes),
    st.builds(ExecEvent, time=times, file_id=ids, user_id=uids, size=sizes),
)


class TestSerializationRoundTrips:
    @given(events)
    def test_text_round_trip(self, event):
        assert parse_event_line(format_event(event)) == event

    @given(st.lists(events, max_size=40))
    @settings(max_examples=50)
    def test_binary_round_trip(self, event_list):
        log = TraceLog.from_events(event_list)
        buf = io.BytesIO()
        pack_trace(log, buf, segment_events=7)
        assert read_corpus_columns(buf.getvalue()).to_log().events == log.events


class TestCdfProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=100))
    def test_monotone_and_bounded(self, values):
        cdf = Cdf.from_samples(values)
        grid = sorted({0.0, min(values), max(values), max(values) * 2})
        fracs = [cdf.fraction_at_or_below(x) for x in grid]
        assert fracs == sorted(fracs)
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert cdf.fraction_at_or_below(max(values)) == 1.0

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_percentile_consistent_with_fraction(self, values, p):
        cdf = Cdf.from_samples(values)
        x = cdf.percentile(p)
        assert cdf.fraction_at_or_below(x) >= p - 1e-9


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200_000), max_size=40))
    @settings(max_examples=60)
    def test_resize_sequence_conserves_space(self, sequence):
        geometry = Geometry(block_size=4096, frag_size=1024,
                            total_bytes=128 * 4096)
        alloc = BlockAllocator(geometry)
        extent = Extent()
        last_ok = 0
        for size in sequence:
            try:
                alloc.resize(extent, size)
                last_ok = size
            except ENOSPC:
                pass  # resize rolls back; the old size still holds
            held = geometry.allocated_bytes(last_ok)
            assert alloc.allocated_bytes == held
            assert 0 <= alloc.free_bytes <= geometry.total_bytes
        alloc.release(extent)
        assert alloc.allocated_bytes == 0


@st.composite
def access_traces(draw):
    """Well-formed single-user traces: opens with matched seeks/closes."""
    trace_events = []
    t = 0.0
    for open_id in range(draw(st.integers(min_value=1, max_value=8))):
        size = draw(st.integers(min_value=0, max_value=200_000))
        mode = draw(modes)
        trace_events.append(
            OpenEvent(time=t, open_id=open_id, file_id=draw(st.integers(0, 5)),
                      user_id=1, size=size, mode=mode,
                      created=mode is not AccessMode.READ and draw(st.booleans()))
        )
        pos = 0
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            t += 0.25
            advance = draw(st.integers(min_value=0, max_value=65_536))
            new_pos = draw(st.integers(min_value=0, max_value=200_000))
            trace_events.append(
                SeekEvent(time=t, open_id=open_id, prev_pos=pos + advance,
                          new_pos=new_pos)
            )
            pos = new_pos
        t += 0.25
        advance = draw(st.integers(min_value=0, max_value=65_536))
        trace_events.append(
            CloseEvent(time=t, open_id=open_id, final_pos=pos + advance)
        )
        t += 0.25
    return TraceLog.from_events(trace_events)


class TestReconstructionProperties:
    @given(access_traces())
    @settings(max_examples=60)
    def test_bytes_conserved(self, log):
        accesses = reconstruct_accesses(log)
        assert sum(a.bytes_transferred for a in accesses) == (
            total_bytes_transferred(log)
        )

    @given(access_traces())
    @settings(max_examples=60)
    def test_runs_are_positive_and_ordered_within_access(self, log):
        for access in reconstruct_accesses(log):
            for run in access.runs:
                assert run.length > 0
            times = [run.time for run in access.runs]
            assert times == sorted(times)


class TestCacheSimProperties:
    @given(access_traces(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40)
    def test_miss_ratio_bounded(self, log, cache_blocks):
        sim = BlockCacheSimulator(
            cache_bytes=cache_blocks * 4096, block_size=4096,
            policy=DELAYED_WRITE,
        )
        metrics = sim.run(build_stream(log))
        assert 0.0 <= metrics.miss_ratio <= 2.0  # writes can add I/Os
        assert metrics.disk_reads <= metrics.block_accesses
        assert metrics.read_accesses + metrics.write_accesses == (
            metrics.block_accesses
        )

    @given(access_traces())
    @settings(max_examples=40)
    def test_larger_cache_never_more_disk_reads(self, log):
        stream = build_stream(log)
        small = BlockCacheSimulator(cache_bytes=2 * 4096, block_size=4096)
        big = BlockCacheSimulator(cache_bytes=256 * 4096, block_size=4096)
        m_small = small.run(stream)
        m_big = big.run(stream)
        # LRU inclusion property: a larger LRU cache contains the smaller's
        # contents, so it cannot read more from disk.
        assert m_big.disk_reads <= m_small.disk_reads


class _ReferenceLru:
    """An obviously correct LRU used to cross-check BufferCache."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.order: list[tuple[int, int]] = []  # LRU first

    def access(self, key: tuple[int, int]) -> bool:
        hit = key in self.order
        if hit:
            self.order.remove(key)
        self.order.append(key)
        while len(self.order) > self.capacity:
            self.order.pop(0)
        return hit


@st.composite
def buffer_ops(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=120))):
        kind = draw(st.sampled_from(["read", "write", "invalidate"]))
        fid = draw(st.integers(min_value=1, max_value=5))
        if kind == "invalidate":
            ops.append(("invalidate", fid, draw(st.integers(0, 3))))
        else:
            block = draw(st.integers(min_value=0, max_value=7))
            ops.append((kind, fid, block))
    return ops


class TestBufferCacheModel:
    @given(buffer_ops(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=80)
    def test_matches_reference_lru(self, ops, capacity):
        from repro.unixfs.buffercache import BufferCache

        cache = BufferCache(capacity_bytes=capacity * 4096, block_size=4096)
        model = _ReferenceLru(capacity)
        for op in ops:
            if op[0] == "invalidate":
                _kind, fid, from_block = op
                cache.invalidate_file(fid, from_block=from_block)
                model.order = [
                    k for k in model.order
                    if not (k[0] == fid and k[1] >= from_block)
                ]
            else:
                kind, fid, block = op
                expected_hit = model.access((fid, block))
                before = cache.stats.read_hits + cache.stats.write_hits
                cache.access(fid, block * 4096, 4096, write=kind == "write")
                after = cache.stats.read_hits + cache.stats.write_hits
                assert (after - before == 1) == expected_hit
        assert len(cache) == len(model.order)


class TestTraceOpsProperties:
    @given(access_traces(), access_traces())
    @settings(max_examples=30)
    def test_merge_validates_and_preserves_counts(self, a, b):
        from repro.trace.ops import merge
        from repro.trace.validate import validate

        merged = merge([a, b])
        assert len(merged) == len(a) + len(b)
        assert validate(merged).ok

    @given(access_traces())
    @settings(max_examples=30)
    def test_filter_users_is_a_valid_subset(self, log):
        from repro.trace.ops import filter_users
        from repro.trace.validate import validate

        users = sorted(log.user_ids())
        if not users:
            return
        out = filter_users(log, users[:1])
        assert len(out) <= len(log)
        assert validate(out).ok

    @given(access_traces())
    @settings(max_examples=30)
    def test_renumber_preserves_structure(self, log):
        from repro.trace.ops import renumber_opens
        from repro.trace.stats import total_bytes_transferred

        out = renumber_opens(log, open_id_base=1000)
        assert len(out) == len(log)
        assert total_bytes_transferred(out) == total_bytes_transferred(log)


class TestFuzzInputModel:
    """The fuzz input model's traces, driven as a hypothesis property."""

    @given(trace_strategy(max_events=60))
    @settings(max_examples=40, deadline=None)
    def test_generated_traces_validate_and_round_trip(self, log):
        from repro.corpus import CorpusReader
        from repro.trace.validate import validate

        assert validate(log).ok
        buf = io.BytesIO()
        pack_trace(log, buf, segment_events=16)
        with CorpusReader(buf.getvalue()) as reader:
            assert list(reader.iter_events()) == log.events
            assert reader.to_columns().to_log().events == log.events


# --- the replacement-policy zoo ---------------------------------------------

#: The classic Belady sequence: FIFO takes 9 faults at 3 frames but 10
#: at 4 (the anomaly); any stack algorithm is monotone on it.
_BELADY_PAGES = (1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5)


def _read_only_stream(pages) -> PackedStream:
    return PackedStream(
        block_size=4096,
        start_time=0.0,
        ops=bytes([OP_READ]) * len(pages),
        keys=array("q", pages),
        times=array("d", [float(i) for i in range(len(pages))]),
        n_accesses=len(pages),
    )


class TestPolicyZooProperties:
    @given(access_traces(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=15, deadline=None)
    def test_access_conservation_under_every_policy(self, log, cache_blocks):
        packed = pack_stream(build_stream(log), 4096, start_time=log.start_time)
        for name in REPLACEMENT_NAMES:
            metrics = simulate_packed(
                packed, cache_blocks * 4096, DELAYED_WRITE, replacement=name
            ).metrics
            # Every block access is billed exactly once, as a read or a
            # write, no matter who picks the victims.
            assert (
                metrics.read_accesses + metrics.write_accesses
                == packed.n_accesses
            )
            assert metrics.disk_reads + metrics.read_elisions <= (
                metrics.block_accesses
            )

    @given(access_traces())
    @settings(max_examples=15, deadline=None)
    def test_unbounded_cache_sees_only_cold_misses(self, log):
        packed = pack_stream(build_stream(log), 4096, start_time=log.start_time)
        runs = {
            name: simulate_packed(
                packed, 1 << 40, DELAYED_WRITE, replacement=name
            ).metrics
            for name in REPLACEMENT_NAMES
        }
        baseline = runs["lru"]
        assert baseline.evictions == 0
        for name, metrics in runs.items():
            # A cache nothing is ever evicted from misses each block
            # once; the replacement policy never gets to act, so every
            # policy must report the same numbers.
            assert metrics == baseline, name

    @given(access_traces())
    @settings(max_examples=15, deadline=None)
    def test_stack_policies_have_the_inclusion_property(self, log):
        packed = pack_stream(build_stream(log), 4096, start_time=log.start_time)
        for name in ("lru", "lfu"):
            misses = [
                (lambda m: m.disk_reads + m.read_elisions)(
                    simulate_packed(
                        packed, blocks * 4096, DELAYED_WRITE, replacement=name
                    ).metrics
                )
                for blocks in (2, 8, 64, 256)
            ]
            # Stack algorithms: the bigger cache's contents include the
            # smaller's, so misses never increase with capacity.
            assert misses == sorted(misses, reverse=True), name

    def test_battery_detects_belady_anomaly_in_fifo(self):
        stream = _read_only_stream(_BELADY_PAGES)

        def faults(name: str, frames: int) -> int:
            return simulate_packed(
                stream, frames * 4096, DELAYED_WRITE, replacement=name
            ).metrics.disk_reads

        # FIFO is not a stack algorithm: the constructed sequence must
        # show *more* faults with *more* memory, and the battery's
        # monotonicity check is exactly what flags it.
        assert faults("fifo", 3) == 9
        assert faults("fifo", 4) == 10
        assert faults("fifo", 4) > faults("fifo", 3)
        # LRU on the same sequence stays monotone (inclusion property).
        assert faults("lru", 4) <= faults("lru", 3)

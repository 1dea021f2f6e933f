"""Pre-decoded block-access streams (the sweep fast path's input).

:meth:`~repro.cache.simulator.BlockCacheSimulator.run` pays, for every
item of every configuration of every sweep, the same decode work: split
the byte range into blocks, build a ``(file_id, block)`` tuple key, and
evaluate the whole-block-overwrite / beyond-EOF coverage test against the
evolving known file size.  None of that depends on the cache
configuration — only on the stream and the block size — so
:func:`pack_stream` does it once, compiling the item stream into three
flat arrays (op code, packed 64-bit key, timestamp) that
:func:`simulate_packed` replays with a tight single loop.  That one
loop serves every replacement policy: it drives the same
:class:`~repro.cache.replacement.ReplacementPolicy` objects as the full
simulator, LRU and FIFO included.

The coverage test can be hoisted out of the simulator because the known
file size evolves deterministically from the stream alone (transfers
extend it, invalidations shrink it), independent of cache contents or
policy.  The packed key is ``(file_id << KEY_SHIFT) | block``, which
keeps per-access hashing to a single int and turns the "drop blocks at
or past the truncation point" scan into a plain integer comparison.

:func:`simulate_packed` is differentially tested to produce *bit-identical*
:class:`~repro.cache.metrics.CacheMetrics` against the reference
simulator (``tests/test_parallel.py``), which stays the specification.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

from ..cache.metrics import CacheMetrics
from ..cache.policies import DELAYED_WRITE, PolicySpec, WritePolicy
from ..cache.replacement import make_replacement
from ..cache.stream import Invalidation, StreamArrays, StreamItem, cached_stream
from ..trace.log import TraceLog
from ..trace.memo import memoize_per_log

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "OP_WRITE_COVERED",
    "OP_INVALIDATE",
    "KEY_SHIFT",
    "PackedStream",
    "PackedRun",
    "pack_stream",
    "pack_stream_python",
    "cached_packed_stream",
    "simulate_packed",
]

OP_READ = 0
OP_WRITE = 1  # write whose miss would need a read-modify-write
OP_WRITE_COVERED = 2  # write covering the whole block (or beyond EOF)
OP_INVALIDATE = 3

#: Bits reserved for the block index inside a packed key.
KEY_SHIFT = 30
_BLOCK_LIMIT = 1 << KEY_SHIFT


@dataclass(frozen=True, slots=True)
class PackedStream:
    """One item stream compiled for one block size.

    ``ops``/``keys``/``times`` are parallel arrays, one row per block
    access or invalidation.  The whole object pickles compactly (flat
    buffers, no per-item Python objects), which is what lets the sweep
    executor ship it to worker processes once instead of per job.
    """

    block_size: int
    #: Trace start time — the flush-epoch anchor for flush-back policies
    #: (the first row's time unless the packer was given one).
    start_time: float
    ops: bytes
    keys: array  # 'q': (file_id << KEY_SHIFT) | block
    times: array  # 'd': item timestamps (every row of an item shares one)
    #: Block-access rows: the blocks every transfer spans, the paper's
    #: "no cache" disk I/Os (invalidation rows are not counted).
    n_accesses: int

    def __len__(self) -> int:
        return len(self.ops)


def pack_stream(
    stream: Iterable[StreamItem],
    block_size: int,
    start_time: float | None = None,
) -> PackedStream:
    """Compile *stream* (from ``build_stream`` or ``cached_stream``) for
    *block_size*.

    *start_time* anchors the flush-back scans of every replay of the
    result; ``None`` means the first row's time (0.0 for an empty
    stream), the same default as ``BlockCacheSimulator.run``.  The numpy
    kernel expands the blocks; :func:`pack_stream_python` reruns the
    compile only when the kernel declines the input (the packed streams
    are bit-identical; fuzz pillar 5 checks this).
    """
    from ..analysis.vectorized import VectorFallback, pack_stream_numpy

    if not isinstance(stream, (list, StreamArrays)):
        stream = list(stream)  # the kernel may decline after reading it
    try:
        return pack_stream_numpy(stream, block_size, start_time)
    except VectorFallback:
        return pack_stream_python(stream, block_size, start_time)


def pack_stream_python(
    stream: Iterable[StreamItem],
    block_size: int,
    start_time: float | None = None,
) -> PackedStream:
    """The pure-Python reference of
    :func:`~repro.analysis.vectorized.pack_stream_numpy`."""
    if block_size <= 0:
        raise ValueError(f"block size must be positive, got {block_size}")
    bs = block_size
    ops = bytearray()
    keys = array("q")
    times = array("d")
    known: dict[int, int] = {}
    n_accesses = 0
    ops_append = ops.append
    keys_append = keys.append
    times_append = times.append

    for item in stream:
        if isinstance(item, Invalidation):
            fid = item.file_id
            k = known.get(fid, 0)
            known[fid] = k if k < item.from_byte else item.from_byte
            first_dead = -(-item.from_byte // bs)
            if first_dead > _BLOCK_LIMIT:
                # No real block index can reach this, so the comparison
                # below already drops nothing; clamp to keep fid bits clean.
                first_dead = _BLOCK_LIMIT
            ops_append(OP_INVALIDATE)
            keys_append((fid << KEY_SHIFT) + first_dead)
            times_append(item.time)
            continue
        fid = item.file_id
        start = item.start
        end = item.end
        k = known.get(fid, 0)
        first = start // bs
        last = (end - 1) // bs
        if last >= _BLOCK_LIMIT:
            raise ValueError(
                f"block index {last} does not fit a packed key "
                f"(file {fid}, {bs}-byte blocks); use the item-stream path"
            )
        base = fid << KEY_SHIFT
        t = item.time
        if item.is_write:
            for block in range(first, last + 1):
                bstart = block * bs
                covered = (start <= bstart and end >= bstart + bs) or bstart >= k
                ops_append(OP_WRITE_COVERED if covered else OP_WRITE)
                keys_append(base + block)
                times_append(t)
        else:
            for block in range(first, last + 1):
                ops_append(OP_READ)
                keys_append(base + block)
                times_append(t)
        n_accesses += last - first + 1
        if end > k:
            known[fid] = end
    if start_time is None:
        start_time = times[0] if times else 0.0
    return PackedStream(
        block_size=bs,
        start_time=start_time,
        ops=bytes(ops),
        keys=keys,
        times=times,
        n_accesses=n_accesses,
    )


def cached_packed_stream(
    log: TraceLog,
    block_size: int,
    include_paging: bool = False,
) -> PackedStream:
    """Memoized :func:`pack_stream` per ``(log, block_size, paging)``.

    It packs the memoized :func:`~repro.cache.stream.cached_stream`, so
    the stream kernel runs once per log and paging flag, whatever the
    block sizes, and packing its arrays builds no stream object.
    """
    return memoize_per_log(
        log,
        ("packed", block_size, include_paging),
        lambda: pack_stream(
            cached_stream(log, include_paging),
            block_size,
            start_time=log.start_time,
        ),
    )


@dataclass(frozen=True, slots=True)
class PackedRun:
    """Result of one packed replay."""

    metrics: CacheMetrics


def simulate_packed(
    packed: PackedStream,
    cache_bytes: int,
    policy: PolicySpec = DELAYED_WRITE,
    *,
    replacement: str = "lru",
    flush_epoch: float | None = None,
) -> PackedRun:
    """Replay *packed* through one cache configuration.

    One loop around a :class:`~repro.cache.replacement.ReplacementPolicy`
    driven through the exact operation sequence the full simulator uses
    (touch on hit, insert on fill, victim/remove on eviction, remove on
    invalidation), so every policy makes the same victim choices there
    and here.  Semantically identical to ``BlockCacheSimulator(...).run(
    stream, flush_epoch)`` with the same replacement policy (the
    differential suite asserts equality field by field), minus the
    residency/exposure trackers, which need per-event hooks the tight
    loop does not pay for.
    """
    capacity = cache_bytes // packed.block_size
    if capacity < 1:
        raise ValueError("cache smaller than one block")
    replacer = make_replacement(replacement, capacity)
    touch = replacer.touch
    admit = replacer.insert
    choose = replacer.victim
    expel = replacer.remove

    write_through = policy.policy is WritePolicy.WRITE_THROUGH
    flushing = policy.policy is WritePolicy.FLUSH_BACK

    # Dirtiness lives in its own set, which makes a flush scan O(dirty
    # blocks) instead of O(cache) — the scans at 30 s intervals over a
    # 16 MB cache otherwise dominate the whole replay.
    resident: set[int] = set()  # membership only; ordering is the policy's
    dirty_set: set[int] = set()
    by_file: dict[int, set[int]] = {}
    reads = writes = disk_reads = disk_writes = 0
    evictions = invalidated = 0
    dirty_created = dirty_discarded = elisions = 0

    dirty_add = dirty_set.add
    dirty_has = dirty_set.__contains__
    dirty_drop = dirty_set.discard

    inf = float("inf")
    interval = policy.flush_interval or 0.0
    if flushing:
        if flush_epoch is not None:
            next_flush = flush_epoch + interval
        elif len(packed.times):
            next_flush = packed.times[0] + interval
        else:
            next_flush = inf
    else:
        next_flush = inf

    # With no flush the clock stays at infinity.
    for op, key, t in zip(packed.ops, packed.keys.tolist(), packed.times.tolist()):
        while t >= next_flush:
            if dirty_set:
                disk_writes += len(dirty_set)
                dirty_set.clear()
            next_flush += interval
        if op == OP_INVALIDATE:
            fid = key >> KEY_SHIFT
            s = by_file.get(fid)
            if s:
                doomed = sorted(k for k in s if k >= key)
                if doomed:
                    for k in doomed:
                        resident.discard(k)
                        expel(k)
                        if dirty_has(k):
                            dirty_drop(k)
                            dirty_discarded += 1
                        s.discard(k)
                    invalidated += len(doomed)
                    if not s:
                        del by_file[fid]
            continue
        if key in resident:
            # Hit.
            touch(key)
            if op:
                writes += 1
                if write_through:
                    disk_writes += 1
                elif not dirty_has(key):
                    dirty_add(key)
                    dirty_created += 1
            else:
                reads += 1
            continue
        # Miss.
        if op:
            writes += 1
            if op == OP_WRITE_COVERED:
                elisions += 1
            else:
                disk_reads += 1
            if write_through:
                disk_writes += 1
            else:
                dirty_created += 1
                dirty_add(key)
        else:
            reads += 1
            disk_reads += 1
        resident.add(key)
        admit(key)
        fid = key >> KEY_SHIFT
        s = by_file.get(fid)
        if s is None:
            s = by_file[fid] = set()
        s.add(key)
        if len(resident) > capacity:
            vkey = choose()
            resident.discard(vkey)
            expel(vkey, True)
            evictions += 1
            if dirty_has(vkey):
                dirty_drop(vkey)
                disk_writes += 1
            vfid = vkey >> KEY_SHIFT
            vs = by_file[vfid]
            vs.discard(vkey)
            if not vs:
                del by_file[vfid]

    metrics = CacheMetrics(
        read_accesses=reads,
        write_accesses=writes,
        disk_reads=disk_reads,
        disk_writes=disk_writes,
        evictions=evictions,
        invalidated_blocks=invalidated,
        dirty_blocks_created=dirty_created,
        dirty_blocks_discarded=dirty_discarded,
        read_elisions=elisions,
    )
    return PackedRun(metrics=metrics)

"""Parameter sweeps over the cache simulator (Figures 5–7, Tables VI–VII).

Each sweep decomposes into independent (stream, configuration) jobs.
The stream is compiled once per block size into a
:class:`~repro.parallel.packed.PackedStream`; write-through LRU columns
collapse into a single one-pass curve
(:func:`~repro.parallel.veccache.stack_curve`), and the remaining
configurations replay the packed stream
(:func:`~repro.parallel.veccache.replay_packed`).
:func:`~repro.parallel.executor.run_jobs` runs the jobs in-process at
``jobs=1`` and on a process pool otherwise — ``jobs`` sets parallelism
only, never which code computes a cell.  Every cell is bit-identical to
a :class:`~repro.cache.simulator.BlockCacheSimulator` run of the same
configuration (asserted by ``tests/test_parallel.py``); results come
back as small dataclasses with ``render()`` methods that print the
paper's table layouts.

*pack_dir* spills each compiled stream to a shared ``.bpack`` file so
the payload workers receive is a path, not pickled arrays — every
process maps the same page-cache copy (see :mod:`repro.parallel.bpack`).

Flush-back scans are anchored at the trace start (see
``BlockCacheSimulator.run`` on why).
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..parallel.bpack import cached_bpack, write_bpack
from ..parallel.executor import run_jobs
from ..parallel.packed import PackedStream, cached_packed_stream
from ..parallel.veccache import replay_packed, stack_curve
from ..trace.log import TraceLog
from .metrics import CacheMetrics
from .policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
    PolicySpec,
    WritePolicy,
)
from .replacement import current_replacement, validate_replacement
from .stream import StreamItem, Transfer

__all__ = [
    "PAPER_CACHE_SIZES",
    "PAPER_POLICIES",
    "PAPER_BLOCK_SIZES",
    "PAPER_BLOCK_SWEEP_CACHES",
    "CachePolicySweep",
    "BlockSizeSweep",
    "PagingComparison",
    "cache_size_policy_sweep",
    "block_size_sweep",
    "paging_comparison",
    "count_block_accesses",
]

#: Cache sizes of Figure 5 / Table VI (first entry is the UNIX default).
PAPER_CACHE_SIZES = (
    390 * 1024,
    1 * 1024 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
    16 * 1024 * 1024,
)

#: Write policies of Figure 5 / Table VI, in column order.
PAPER_POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)

#: Block sizes of Figure 6 / Table VII.
PAPER_BLOCK_SIZES = (1024, 2048, 4096, 8192, 16384, 32768)

#: Cache sizes of Figure 6 / Table VII.
PAPER_BLOCK_SWEEP_CACHES = (
    400 * 1024,
    2 * 1024 * 1024,
    4 * 1024 * 1024,
    8 * 1024 * 1024,
)


def _size_label(nbytes: int) -> str:
    if nbytes >= 1024 * 1024:
        value = nbytes / (1024 * 1024)
        return f"{value:g} Mbyte" + ("s" if value != 1 else "")
    return f"{nbytes // 1024} kbytes"


def _sweep_worker(payload, job):
    """One sweep job: a packed replay or a whole stack curve.

    Module-level so the executor can ship it to worker processes.  Jobs
    are ``("sim", packkey, cache_bytes, policy, replacement)`` returning
    one :class:`CacheMetrics`, or ``("stack", packkey, sizes)`` returning
    one metrics object per size (write-through LRU only — the one
    configuration family the Mattson curve answers).
    """
    packed = payload[job[1]]
    if job[0] == "stack":
        sizes = job[2]
        curve = stack_curve(packed, sizes)
        return [curve.metrics(size) for size in sizes]
    _, _, cache_bytes, policy, replacement = job
    return replay_packed(
        packed,
        cache_bytes,
        policy,
        replacement=replacement,
        flush_epoch=packed.start_time,
    ).metrics


class _SweepPayload:
    """The shared sweep payload: streams by key, or ``.bpack`` paths.

    Implements the executor's ``__payload_resolve__`` protocol: path
    entries are opened worker-side via the per-process
    :func:`~repro.parallel.bpack.cached_bpack`, so what crosses the
    process boundary is a few strings and every worker reads the same
    page-cache bytes.  Resolution is memoized per process (and dropped
    from the pickled state, so ``spawn`` workers resolve their own).
    """

    __slots__ = ("packed", "_resolved")

    def __init__(self, packed: dict):
        self.packed = packed
        self._resolved = None

    def __getstate__(self):
        return self.packed

    def __setstate__(self, state):
        self.packed = state
        self._resolved = None

    def __payload_resolve__(self):
        if self._resolved is None:
            self._resolved = {
                key: value if isinstance(value, PackedStream) else cached_bpack(value)
                for key, value in self.packed.items()
            }
        return self._resolved


def _pack_ref(packed: PackedStream, pack_dir, trace_name: str):
    """*packed* itself, or its path inside the shared ``.bpack`` cache.

    Filenames carry the trace name, the block size, the row count and a
    crc over every column and the start time (the flush-epoch anchor),
    so a stale or colliding cache entry can never be mistaken for this
    stream — a miss writes the file (atomically), a hit reuses it
    byte-for-byte.
    """
    if pack_dir is None:
        return packed
    os.makedirs(pack_dir, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", trace_name) or "trace"
    fp = zlib.crc32(struct.pack("<d", packed.start_time))
    for column in (packed.ops, packed.keys, packed.times):
        fp = zlib.crc32(bytes(column), fp)
    name = (
        f"{safe}-bs{packed.block_size}-{len(packed)}r-{fp:08x}.bpack"
    )
    path = os.path.join(os.fspath(pack_dir), name)
    if not os.path.exists(path):
        write_bpack(packed, path)
    return path


def _resolve_replacement(replacement: str | None) -> str:
    """*replacement*, or the ambient default (``repro-fs ... --policy``)."""
    if replacement is None:
        return current_replacement()
    return validate_replacement(replacement)


@dataclass
class CachePolicySweep:
    """Miss ratio as a function of cache size and write policy
    (Figure 5 / Table VI)."""

    trace_name: str
    block_size: int
    cache_sizes: tuple[int, ...]
    policies: tuple[PolicySpec, ...]
    replacement: str = "lru"
    results: dict[tuple[int, str], CacheMetrics] = field(default_factory=dict)

    def miss_ratio(self, cache_bytes: int, policy: PolicySpec) -> float:
        return self.results[(cache_bytes, policy.label)].miss_ratio

    def render(self) -> str:
        headers = ["Cache Size"] + [p.label for p in self.policies]
        rows = []
        for size in self.cache_sizes:
            row = [_size_label(size)]
            for policy in self.policies:
                row.append(f"{100 * self.miss_ratio(size, policy):.1f}%")
            rows.append(row)
        extra = "" if self.replacement == "lru" else f", {self.replacement}"
        return render_table(
            headers,
            rows,
            title=(
                f"Table VI: miss ratio vs cache size and write policy "
                f"({self.trace_name}, {self.block_size}-byte blocks{extra})"
            ),
        )


def cache_size_policy_sweep(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    policies: tuple[PolicySpec, ...] = PAPER_POLICIES,
    block_size: int = 4096,
    jobs: int | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> CachePolicySweep:
    """Reproduce Figure 5 / Table VI on *log*.

    *replacement* selects the block-replacement policy (any name in
    :data:`~repro.cache.replacement.REPLACEMENT_NAMES`; ``None`` defers
    to the ambient :func:`~repro.cache.replacement.replacement_context`,
    default LRU — the paper's policy).
    """
    repl = _resolve_replacement(replacement)
    sweep = CachePolicySweep(
        trace_name=log.name,
        block_size=block_size,
        cache_sizes=tuple(cache_sizes),
        policies=tuple(policies),
        replacement=repl,
    )
    packed = cached_packed_stream(log, block_size)
    payload = _SweepPayload({block_size: _pack_ref(packed, pack_dir, log.name)})
    stack_policies = [
        p
        for p in policies
        if p.policy is WritePolicy.WRITE_THROUGH and repl == "lru"
    ]
    jobs_list: list[tuple] = []
    if stack_policies:
        jobs_list.append(("stack", block_size, tuple(cache_sizes)))
    for size in cache_sizes:
        for policy in policies:
            if policy.policy is WritePolicy.WRITE_THROUGH and repl == "lru":
                continue
            jobs_list.append(("sim", block_size, size, policy, repl))
    for job, result in zip(
        jobs_list, run_jobs(_sweep_worker, jobs_list, payload=payload, jobs=jobs)
    ):
        if job[0] == "stack":
            for size, metrics in zip(job[2], result):
                for policy in stack_policies:
                    sweep.results[(size, policy.label)] = metrics
        else:
            _, _, size, policy, _ = job
            sweep.results[(size, policy.label)] = result
    return sweep


def count_block_accesses(stream: list[StreamItem], block_size: int) -> int:
    """Total logical block accesses — the paper's "no cache" column in
    Table VII (with no cache every access is a disk I/O)."""
    total = 0
    for item in stream:
        if isinstance(item, Transfer):
            total += (item.end - 1) // block_size - item.start // block_size + 1
    return total


@dataclass
class BlockSizeSweep:
    """Disk I/Os as a function of block size and cache size
    (Figure 6 / Table VII, delayed-write policy)."""

    trace_name: str
    block_sizes: tuple[int, ...]
    cache_sizes: tuple[int, ...]
    no_cache: dict[int, int] = field(default_factory=dict)
    results: dict[tuple[int, int], CacheMetrics] = field(default_factory=dict)

    def disk_ios(self, block_size: int, cache_bytes: int) -> int:
        return self.results[(block_size, cache_bytes)].disk_ios

    def best_block_size(self, cache_bytes: int) -> int:
        """The block size minimizing disk I/O for a given cache size."""
        return min(
            self.block_sizes, key=lambda bs: self.disk_ios(bs, cache_bytes)
        )

    def render(self) -> str:
        headers = ["Block Size", "No Cache"] + [
            _size_label(c) + " Cache" for c in self.cache_sizes
        ]
        rows = []
        for bs in self.block_sizes:
            row = [f"{bs // 1024} kbytes", f"{self.no_cache[bs]:,}"]
            for cache in self.cache_sizes:
                row.append(f"{self.disk_ios(bs, cache):,}")
            rows.append(row)
        return render_table(
            headers,
            rows,
            title=(
                f"Table VII: disk I/Os vs block size and cache size "
                f"({self.trace_name}, delayed-write)"
            ),
        )


def block_size_sweep(
    log: TraceLog,
    block_sizes: tuple[int, ...] = PAPER_BLOCK_SIZES,
    cache_sizes: tuple[int, ...] = PAPER_BLOCK_SWEEP_CACHES,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> BlockSizeSweep:
    """Reproduce Figure 6 / Table VII on *log*."""
    repl = _resolve_replacement(replacement)
    sweep = BlockSizeSweep(
        trace_name=log.name,
        block_sizes=tuple(block_sizes),
        cache_sizes=tuple(cache_sizes),
    )
    packed = {bs: cached_packed_stream(log, bs) for bs in block_sizes}
    payload = _SweepPayload(
        {bs: _pack_ref(p, pack_dir, log.name) for bs, p in packed.items()}
    )
    use_stack = policy.policy is WritePolicy.WRITE_THROUGH and repl == "lru"
    jobs_list: list[tuple] = []
    for bs in block_sizes:
        sweep.no_cache[bs] = packed[bs].n_accesses
        if use_stack:
            jobs_list.append(("stack", bs, tuple(cache_sizes)))
        else:
            for cache in cache_sizes:
                jobs_list.append(("sim", bs, cache, policy, repl))
    for job, result in zip(
        jobs_list,
        run_jobs(_sweep_worker, jobs_list, payload=payload, jobs=jobs),
    ):
        if job[0] == "stack":
            for cache, metrics in zip(job[2], result):
                sweep.results[(job[1], cache)] = metrics
        else:
            _, bs, cache, _, _ = job
            sweep.results[(bs, cache)] = result
    return sweep


@dataclass
class PagingComparison:
    """Miss ratios with and without the execve paging approximation
    (Figure 7: delayed-write, 4096-byte blocks)."""

    trace_name: str
    cache_sizes: tuple[int, ...]
    ignored: dict[int, CacheMetrics] = field(default_factory=dict)
    simulated: dict[int, CacheMetrics] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Cache Size", "Page-in ignored", "Page-in simulated"]
        rows = []
        for size in self.cache_sizes:
            rows.append(
                [
                    _size_label(size),
                    f"{100 * self.ignored[size].miss_ratio:.1f}%",
                    f"{100 * self.simulated[size].miss_ratio:.1f}%",
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 7: miss ratio with paging approximated "
                f"({self.trace_name}, delayed-write, 4096-byte blocks)"
            ),
        )


def paging_comparison(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    block_size: int = 4096,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    pack_dir=None,
    replacement: str | None = None,
) -> PagingComparison:
    """Reproduce Figure 7 on *log*."""
    repl = _resolve_replacement(replacement)
    comparison = PagingComparison(
        trace_name=log.name, cache_sizes=tuple(cache_sizes)
    )
    payload = _SweepPayload(
        {
            "plain": _pack_ref(
                cached_packed_stream(log, block_size, include_paging=False),
                pack_dir,
                f"{log.name}-plain",
            ),
            "paged": _pack_ref(
                cached_packed_stream(log, block_size, include_paging=True),
                pack_dir,
                f"{log.name}-paged",
            ),
        }
    )
    jobs_list: list[tuple] = []
    for size in cache_sizes:
        jobs_list.append(("sim", "plain", size, policy, repl))
        jobs_list.append(("sim", "paged", size, policy, repl))
    for job, result in zip(
        jobs_list, run_jobs(_sweep_worker, jobs_list, payload=payload, jobs=jobs)
    ):
        _, variant, size, _, _ = job
        table = comparison.ignored if variant == "plain" else comparison.simulated
        table[size] = result
    return comparison

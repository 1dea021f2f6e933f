"""Parameter sweeps over the cache simulator (Figures 5–7, Tables VI–VII).

Each sweep decomposes into independent (stream, configuration) jobs.
The stream is compiled once per block size into a
:class:`~repro.parallel.packed.PackedStream`.  Every LRU cell comes
from a one-pass curve (:func:`~repro.parallel.veccache.stack_curve`),
which gives all sizes under all write policies at once: Table VI is one
job for all 24 cells, Table VII one per block size and Figure 7 one per
variant.  The other replacement policies keep one packed replay per
cell (:func:`~repro.parallel.packed.simulate_packed`).
:func:`~repro.parallel.executor.run_jobs` runs the jobs in-process at
``jobs=1`` or when there is one job, and on a process pool otherwise —
``jobs`` sets parallelism only, never which code computes a cell.
Every cell is bit-identical to a
:class:`~repro.cache.simulator.BlockCacheSimulator` run of the same
configuration (asserted by ``tests/test_parallel.py``); results come
back as small dataclasses with ``render()`` methods that print the
paper's table layouts.

Flush-back scans are anchored at the trace start (see
``BlockCacheSimulator.run`` on why).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..parallel.executor import run_jobs
from ..parallel.packed import PackedStream, cached_packed_stream, simulate_packed
from ..parallel.veccache import stack_curve
from ..trace.log import TraceLog
from .metrics import CacheMetrics
from .policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
    PolicySpec,
)
from .replacement import validate_replacement

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


def _replacement_suffix(replacement: str) -> str:
    """A title's policy suffix: none for the paper's LRU."""
    return "" if replacement == "lru" else f", {replacement}"


def _size_label(nbytes: int) -> str:
    if nbytes >= 1024 * 1024:
        value = nbytes / (1024 * 1024)
        return f"{value:g} Mbyte" + ("s" if value != 1 else "")
    return f"{nbytes // 1024} kbytes"


def _sweep_worker(payload, job):
    """One sweep job: an LRU curve or a single packed replay.

    Module-level so the executor can ship it to worker processes.  Jobs
    are ``("curve", packkey, sizes, policies)``, returning per policy a
    list of metrics, one per size, or ``("sim", packkey, cache_bytes,
    policy, replacement)``, returning one :class:`CacheMetrics`.
    """
    packed = payload[job[1]]
    if job[0] == "curve":
        _, _, sizes, policies = job
        curve = stack_curve(packed, sizes, policies)
        return [[curve.metrics(size, p) for size in sizes] for p in policies]
    _, _, cache_bytes, policy, replacement = job
    return simulate_packed(
        packed,
        cache_bytes,
        policy,
        replacement=replacement,
        flush_epoch=packed.start_time,
    ).metrics


def _cell_jobs(packkey, cache_sizes, policies, replacement: str) -> list[tuple]:
    """The jobs for every (size, policy) cell of one packed stream: one
    curve under LRU, one replay per cell otherwise."""
    if replacement == "lru":
        return [("curve", packkey, tuple(cache_sizes), tuple(policies))]
    return [
        ("sim", packkey, size, policy, replacement)
        for size in cache_sizes
        for policy in policies
    ]


def _run_cells(
    jobs_list: list[tuple], payload: dict[object, PackedStream], jobs: int | None
):
    """Run *jobs_list* against the streams in *payload*, keyed by each
    job's packkey; yield ``(packkey, cache_bytes, policy, metrics)`` for
    every cell."""
    results = run_jobs(_sweep_worker, jobs_list, payload=payload, jobs=jobs)
    for job, result in zip(jobs_list, results):
        if job[0] == "curve":
            _, key, sizes, policies = job
            for policy, column in zip(policies, result):
                for size, metrics in zip(sizes, column):
                    yield key, size, policy, metrics
        else:
            _, key, size, policy, _ = job
            yield key, size, policy, result


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
        return render_table(
            headers,
            rows,
            title=(
                f"Table VI: miss ratio vs cache size and write policy "
                f"({self.trace_name}, {self.block_size}-byte blocks"
                f"{_replacement_suffix(self.replacement)})"
            ),
        )


def cache_size_policy_sweep(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    policies: tuple[PolicySpec, ...] = PAPER_POLICIES,
    block_size: int = 4096,
    jobs: int | None = None,
    replacement: str = "lru",
) -> CachePolicySweep:
    """Reproduce Figure 5 / Table VI on *log*.

    *replacement* selects the block-replacement policy (any name in
    :data:`~repro.cache.replacement.REPLACEMENT_NAMES`; the default,
    LRU, is the paper's policy).
    """
    repl = validate_replacement(replacement)
    sweep = CachePolicySweep(
        trace_name=log.name,
        block_size=block_size,
        cache_sizes=tuple(cache_sizes),
        policies=tuple(policies),
        replacement=repl,
    )
    payload = {block_size: cached_packed_stream(log, block_size)}
    jobs_list = _cell_jobs(block_size, cache_sizes, policies, repl)
    for _, size, policy, metrics in _run_cells(jobs_list, payload, jobs):
        sweep.results[(size, policy.label)] = metrics
    return sweep


@dataclass
class BlockSizeSweep:
    """Disk I/Os as a function of block size and cache size
    (Figure 6 / Table VII, delayed-write policy)."""

    trace_name: str
    block_sizes: tuple[int, ...]
    cache_sizes: tuple[int, ...]
    replacement: str = "lru"
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
                f"({self.trace_name}, delayed-write"
                f"{_replacement_suffix(self.replacement)})"
            ),
        )


def block_size_sweep(
    log: TraceLog,
    block_sizes: tuple[int, ...] = PAPER_BLOCK_SIZES,
    cache_sizes: tuple[int, ...] = PAPER_BLOCK_SWEEP_CACHES,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    replacement: str = "lru",
) -> BlockSizeSweep:
    """Reproduce Figure 6 / Table VII on *log*."""
    repl = validate_replacement(replacement)
    sweep = BlockSizeSweep(
        trace_name=log.name,
        block_sizes=tuple(block_sizes),
        cache_sizes=tuple(cache_sizes),
        replacement=repl,
    )
    payload = {bs: cached_packed_stream(log, bs) for bs in block_sizes}
    jobs_list: list[tuple] = []
    for bs in block_sizes:
        sweep.no_cache[bs] = payload[bs].n_accesses
        jobs_list += _cell_jobs(bs, cache_sizes, (policy,), repl)
    for bs, cache, _, metrics in _run_cells(jobs_list, payload, jobs):
        sweep.results[(bs, cache)] = metrics
    return sweep


@dataclass
class PagingComparison:
    """Miss ratios with and without the execve paging approximation
    (Figure 7: delayed-write, 4096-byte blocks)."""

    trace_name: str
    cache_sizes: tuple[int, ...]
    replacement: str = "lru"
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
                f"({self.trace_name}, delayed-write, 4096-byte blocks"
                f"{_replacement_suffix(self.replacement)})"
            ),
        )


def paging_comparison(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = PAPER_CACHE_SIZES,
    block_size: int = 4096,
    policy: PolicySpec = DELAYED_WRITE,
    jobs: int | None = None,
    replacement: str = "lru",
) -> PagingComparison:
    """Reproduce Figure 7 on *log*."""
    repl = validate_replacement(replacement)
    comparison = PagingComparison(
        trace_name=log.name, cache_sizes=tuple(cache_sizes), replacement=repl
    )
    payload = {
        "plain": cached_packed_stream(log, block_size, include_paging=False),
        "paged": cached_packed_stream(log, block_size, include_paging=True),
    }
    jobs_list = [
        job
        for variant in ("plain", "paged")
        for job in _cell_jobs(variant, cache_sizes, (policy,), repl)
    ]
    for variant, size, _, metrics in _run_cells(jobs_list, payload, jobs):
        table = comparison.ignored if variant == "plain" else comparison.simulated
        table[size] = metrics
    return comparison

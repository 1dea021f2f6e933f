"""The trace-driven disk-block-cache simulator.

The paper's second trace-processing program: replays a trace's transfers
through a cache of fixed-size blocks (LRU by default; see
:mod:`repro.cache.replacement` for the policy zoo) under four write
policies,
sweeping cache size (Figure 5 / Table VI), block size (Figure 6 /
Table VII), and — Figure 7 — an execve-driven paging approximation.
"""

from .metrics import CacheMetrics, ResidencyTracker
from .replacement import (
    REPLACEMENT_NAMES,
    REPLACEMENT_POLICIES,
    ReplacementPolicy,
    make_replacement,
    validate_replacement,
)
from .policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
    PolicySpec,
    WritePolicy,
)
from .simulator import BlockCacheSimulator, simulate_cache
from .twolevel import TwoLevelResult, simulate_two_level
from .stream import Invalidation, StreamItem, build_stream
from .sweep import (
    PAPER_BLOCK_SIZES,
    PAPER_BLOCK_SWEEP_CACHES,
    PAPER_CACHE_SIZES,
    PAPER_POLICIES,
    BlockSizeSweep,
    CachePolicySweep,
    PagingComparison,
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)

__all__ = [
    "BlockCacheSimulator",
    "simulate_cache",
    "simulate_two_level",
    "TwoLevelResult",
    "CacheMetrics",
    "ResidencyTracker",
    "PolicySpec",
    "WritePolicy",
    "WRITE_THROUGH",
    "FLUSH_30S",
    "FLUSH_5MIN",
    "DELAYED_WRITE",
    "ReplacementPolicy",
    "REPLACEMENT_POLICIES",
    "REPLACEMENT_NAMES",
    "make_replacement",
    "validate_replacement",
    "build_stream",
    "StreamItem",
    "Invalidation",
    "cache_size_policy_sweep",
    "block_size_sweep",
    "paging_comparison",
    "CachePolicySweep",
    "BlockSizeSweep",
    "PagingComparison",
    "PAPER_CACHE_SIZES",
    "PAPER_POLICIES",
    "PAPER_BLOCK_SIZES",
    "PAPER_BLOCK_SWEEP_CACHES",
]

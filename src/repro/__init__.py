"""repro — a reproduction of Ousterhout et al., "A Trace-Driven Analysis
of the UNIX 4.2 BSD File System" (SOSP 1985).

The package rebuilds the paper's whole measurement stack:

* :mod:`repro.unixfs` — a simulated 4.2 BSD file system with the kernel
  trace hook (inodes, directories + name cache, FFS block/fragment
  allocator, buffer cache, syscall layer);
* :mod:`repro.trace` — the Table II logical trace format, serializations,
  validation and first-order statistics;
* :mod:`repro.workload` — calibrated synthetic workloads standing in for
  the three traced Berkeley VAXes (profiles A5 / E3 / C4);
* :mod:`repro.analysis` — the reference-pattern analyzer (Tables IV-V,
  Figures 1-4);
* :mod:`repro.cache` — the trace-driven block-cache simulator (Figures
  5-7, Tables VI-VII);
* :mod:`repro.strace` — conversion of real ``strace`` logs into the trace
  format;
* :mod:`repro.experiments` — one reproduction driver per paper exhibit;
* :mod:`repro.netfs` — a discrete-event network file service (client
  caches, shared Ethernet, RPC with retry, server queue + disk, cache
  consistency) answering the diskless-workstation question in *time*.

Quickstart::

    from repro import generate_trace, UCBARPA, analyze_sequentiality, simulate_cache

    trace = generate_trace(UCBARPA, seed=1, duration=3600)
    print(analyze_sequentiality(trace).render())
    print(simulate_cache(trace, cache_bytes=4 * 1024 * 1024).summary())
"""

from .analysis import (
    analyze_activity,
    analyze_sequentiality,
    file_size_cdfs,
    lifetime_cdfs,
    open_time_cdf,
    reconstruct_accesses,
    run_length_cdfs,
)
from .cache import (
    DELAYED_WRITE,
    FLUSH_30S,
    FLUSH_5MIN,
    WRITE_THROUGH,
    BlockCacheSimulator,
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
    simulate_cache,
)
from .clock import Clock
from .netfs import NetfsResult, simulate_netfs
from .trace import (
    AccessMode,
    TraceLog,
    compute_stats,
    read_text,
    validate,
    validate_columns,
    write_text,
)
from .unixfs import FileSystem, KernelTracer, MemoryContentStore
from .workload import (
    PROFILES,
    UCBARPA,
    UCBCAD,
    UCBERNIE,
    MachineProfile,
    generate,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "FileSystem",
    "KernelTracer",
    "MemoryContentStore",
    "Clock",
    # trace
    "TraceLog",
    "AccessMode",
    "read_text",
    "write_text",
    "validate",
    "validate_columns",
    "compute_stats",
    # workload
    "generate",
    "generate_trace",
    "MachineProfile",
    "UCBARPA",
    "UCBERNIE",
    "UCBCAD",
    "PROFILES",
    # analysis
    "reconstruct_accesses",
    "analyze_activity",
    "analyze_sequentiality",
    "run_length_cdfs",
    "file_size_cdfs",
    "open_time_cdf",
    "lifetime_cdfs",
    # cache
    "BlockCacheSimulator",
    "simulate_cache",
    "cache_size_policy_sweep",
    "block_size_sweep",
    "paging_comparison",
    "WRITE_THROUGH",
    "FLUSH_30S",
    "FLUSH_5MIN",
    "DELAYED_WRITE",
    # network file service
    "simulate_netfs",
    "NetfsResult",
]

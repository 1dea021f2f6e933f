"""Fast paths for parameter sweeps.

Three layers, composable but independent:

* :mod:`.packed` — compile a trace's item stream once per block size
  into flat arrays and replay them through a tight single-loop simulator
  (bit-identical metrics to the reference
  :class:`~repro.cache.simulator.BlockCacheSimulator`);
* :mod:`.veccache` — the whole LRU cache-size curve under every write
  policy from one pass (Mattson stack analysis extended with deletion
  holes and the write-back rules of Thompson & Smith), as a numpy
  kernel with a per-size, per-policy :func:`simulate_packed`
  specification;
* :mod:`.executor` — fan independent (payload, job) pairs out to a
  process pool, payload shipped once, results in deterministic order,
  in-process when ``jobs=1`` or the pool dies.

The sweeps in :mod:`repro.cache.sweep` run these paths at every
``jobs`` value; ``jobs`` sets parallelism only.  The reference
simulator stays the specification the tests compare them with.
"""

from .executor import auto_jobs, jobs_context, resolve_jobs, run_jobs
from .packed import (
    PackedRun,
    PackedStream,
    cached_packed_stream,
    pack_stream,
    simulate_packed,
)
from .veccache import StackCurve, stack_curve

__all__ = [
    "auto_jobs",
    "jobs_context",
    "resolve_jobs",
    "run_jobs",
    "PackedRun",
    "PackedStream",
    "cached_packed_stream",
    "pack_stream",
    "simulate_packed",
    "StackCurve",
    "stack_curve",
]

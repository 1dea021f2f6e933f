"""Pillar 6: the replacement-policy zoo differential.

The policy objects in :mod:`repro.cache.replacement` are driven by two
independent hosts — the full :class:`~repro.cache.simulator.BlockCacheSimulator`
(tuple keys, entry records, residency hooks) and the packed replayer
(:func:`~repro.parallel.packed.simulate_packed`, int keys, flat
bookkeeping).  Their contract is bit-identical
:class:`~repro.cache.metrics.CacheMetrics` for *every* zoo policy, not
just the paper's LRU.  This pillar is the machine check:

* for each registered policy, replay the seeded trace through both
  hosts at seed-chosen capacities and write policies — metrics must
  match field for field;
* a three-way sanity oracle: on a no-reuse workload (every key touched
  once) ARC, LRU and 2Q must produce *identical* metrics — with no
  reuse there is nothing for adaptivity or ghost lists to exploit, so
  any difference is a bookkeeping bug in one of the fancier policies.
"""

from __future__ import annotations

import random
from array import array

from ..cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from ..cache.replacement import REPLACEMENT_NAMES
from ..cache.simulator import BlockCacheSimulator
from ..cache.stream import build_stream
from ..parallel.packed import OP_READ, PackedStream, pack_stream, simulate_packed
from ..trace.log import TraceLog

__all__ = ["check_policies"]

_WRITE_POLICIES = (WRITE_THROUGH, FLUSH_30S, DELAYED_WRITE)

_BLOCK_SIZE = 4096

#: The no-reuse oracle's policy trio (adaptive vs plain vs scan-resistant).
_TRIO = ("arc", "lru", "2q")


def _no_reuse_stream(rng: random.Random) -> PackedStream:
    """A packed stream of distinct single-read keys (no reuse at all)."""
    n = 48 + rng.randrange(48)
    keys = array("q", [(i << 8) | (i % 7) for i in range(n)])
    times = array("d", [float(i) for i in range(n)])
    return PackedStream(
        block_size=_BLOCK_SIZE,
        start_time=0.0,
        ops=bytes([OP_READ]) * n,
        keys=keys,
        times=times,
        n_accesses=n,
    )


def check_policies(log: TraceLog, seed: int | str = 0) -> str | None:
    """Differential-test every replacement policy on *log*.

    Returns ``None`` or a first-divergence description.  Deterministic
    per ``(log, seed)``.
    """
    rng = random.Random(f"policies:{seed}")
    stream = build_stream(log)
    packed = pack_stream(stream, _BLOCK_SIZE, start_time=log.start_time)
    # Seed-chosen capacities, tiny ones first: a 1-2 block cache keeps
    # every policy's victim logic (CLOCK's hand, ARC's REPLACE, 2Q's
    # A1in drain) under constant pressure.
    caps = sorted({1, 2, rng.randrange(1, 64), rng.randrange(1, 512)})
    for name in REPLACEMENT_NAMES:
        for cap in caps:
            cache_bytes = cap * _BLOCK_SIZE
            write_policy = _WRITE_POLICIES[rng.randrange(len(_WRITE_POLICIES))]
            label = f"policy[{name},{write_policy.label},cap={cap}]"
            sim = BlockCacheSimulator(
                cache_bytes, _BLOCK_SIZE, write_policy, replacement=name
            )
            sim.run(stream, flush_epoch=log.start_time)
            run = simulate_packed(
                packed,
                cache_bytes,
                write_policy,
                replacement=name,
                flush_epoch=log.start_time,
            )
            if run.metrics != sim.metrics:
                return f"{label}: packed replay diverges from the full simulator"
    # Three-way no-reuse oracle: nothing to adapt to, so the adaptive
    # policies must collapse onto plain LRU's numbers exactly.
    no_reuse = _no_reuse_stream(rng)
    cache_bytes = (1 + rng.randrange(16)) * _BLOCK_SIZE
    runs = {
        name: simulate_packed(
            no_reuse, cache_bytes, WRITE_THROUGH, replacement=name
        ).metrics
        for name in _TRIO
    }
    if not (runs["arc"] == runs["lru"] == runs["2q"]):
        return (
            f"policy[no-reuse,cap={cache_bytes // _BLOCK_SIZE}]: "
            "arc/lru/2q metrics differ on a reuse-free workload"
        )
    return None

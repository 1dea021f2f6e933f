"""Golden regression tests for trace generation.

``repro.workload.generator.generate`` stands in for the paper's
instrumented kernel, and its hot path is deliberately flattened for
speed.  These digests and counters were captured before that
flattening: for each traced machine at seed 7 over two simulated hours
they pin the spooled ``.bcorpus`` bytes, the in-memory event sequence
and every kernel counter the simulation keeps.  Any change to the RNG
draw order, the clock reads, the engine's resumption order or a cache's
bookkeeping moves at least one of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.workload.generator import generate
from repro.workload.profiles import PROFILES

SEED = 7
DURATION = 2 * 3600.0

#: trace name -> (sha256 of the .bcorpus bytes, sha256 of repr(events))
DIGESTS = {
    "A5": (
        "d2c8e1f53c0c7638d12f029b08a2edbaa8367bde96d2c846d41baefa6f32cd9a",
        "767b29aef186ac7f6ae3ff83a26e2521216ae4d504c236920bae8347badb5b02",
    ),
    "E3": (
        "bf378dea257e91ddd2238aca42cf3fb39d61d62e4506f110311b065ee4cd74bd",
        "04b253da97cf0f002c0af5db688c505f590ff92fc25823cb3dc2f468179ae53b",
    ),
    "C4": (
        "cdf9eb2094d16a2b2c12eed32f97364b6f88fe90cf8f702799340110a0a4dcfd",
        "e7ef59f6ba9cc778e13063fbfdcccd66918ecc17279163e9da7e25ebb4157cf4",
    ),
}

#: trace name -> kernel counters after the run.  ``bcache`` is
#: astuple(BufferCacheStats): (read_hits, read_misses, write_hits,
#: write_misses, writebacks, invalidations); ``dnlc`` and
#: ``inode_cache`` are (hits, misses).
COUNTERS = {
    "A5": {
        "syscall_counts": {
            "close": 5126, "execve": 1165, "lseek": 2004, "open": 5126,
            "read": 7080, "stat": 1851, "truncate": 6, "unlink": 314,
            "write": 3448,
        },
        "bcache": (4177, 4876, 695, 2938, 2823, 1499),
        "dnlc": (26272, 2034),
        "directory_reads": 2034,
        "inode_cache": (7212, 2005),
        "allocated_bytes": 24821760,
        "resumptions": 15108,
    },
    "E3": {
        "syscall_counts": {
            "close": 7263, "execve": 1761, "lseek": 3846, "open": 7263,
            "read": 13363, "stat": 2858, "truncate": 15, "unlink": 496,
            "write": 5664,
        },
        "bcache": (8972, 6561, 1722, 4404, 4811, 2661),
        "dnlc": (37604, 2951),
        "directory_reads": 2951,
        "inode_cache": (10441, 2962),
        "allocated_bytes": 31986688,
        "resumptions": 25088,
    },
    "C4": {
        "syscall_counts": {
            "close": 2590, "execve": 505, "lseek": 946, "open": 2590,
            "read": 7541, "stat": 806, "truncate": 1, "unlink": 180,
            "write": 5001,
        },
        "bcache": (4437, 3613, 360, 4709, 5010, 4312),
        "dnlc": (13032, 898),
        "directory_reads": 898,
        "inode_cache": (3537, 977),
        "allocated_bytes": 16345088,
        "resumptions": 15038,
    },
}


def _counters(result) -> dict:
    fs = result.fs
    return {
        "syscall_counts": dict(sorted(fs.syscall_counts.items())),
        "bcache": astuple(fs.buffer_cache.stats),
        "dnlc": (fs.resolver.dnlc.counters.hits, fs.resolver.dnlc.counters.misses),
        "directory_reads": fs.resolver.directory_reads,
        "inode_cache": (
            fs.inode_cache.counters.hits,
            fs.inode_cache.counters.misses,
        ),
        "allocated_bytes": fs.allocator.allocated_bytes,
        "resumptions": result.engine_resumptions,
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_spooled_corpus_and_counters(name, tmp_path):
    path = tmp_path / f"{name}.bcorpus"
    result = generate(PROFILES[name], seed=SEED, duration=DURATION, spool=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name][0]
    assert _counters(result) == COUNTERS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_in_memory_events_and_counters(name):
    result = generate(PROFILES[name], seed=SEED, duration=DURATION)
    digest = hashlib.sha256(repr(result.trace.events).encode()).hexdigest()
    assert digest == DIGESTS[name][1]
    assert _counters(result) == COUNTERS[name]

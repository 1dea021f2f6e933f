"""Golden regression tests for the replacement-policy refactor.

The simulator core was refactored from a hard-coded LRU OrderedDict to
the pluggable :mod:`repro.cache.replacement` interface.  The numbers
below were captured from the *pre-refactor* simulator on the shared
``small_trace`` fixture (A5, seed 42, 1200 s): ``policy="lru"`` must
keep reproducing them bit for bit, forever — they are this repo's
Table VI.  The FIFO grid pins the other pre-existing policy the same
way, and the zoo grid pins CLOCK, LFU, 2Q, ARC and the ensemble.  A
drift in any counter means the refactor changed semantics, not just
structure.
"""

from __future__ import annotations

from dataclasses import astuple

from repro.cache.policies import DELAYED_WRITE, WRITE_THROUGH
from repro.cache.simulator import simulate_cache
from repro.cache.sweep import cache_size_policy_sweep

# (cache_bytes, write-policy label) -> astuple(CacheMetrics):
# (read_accesses, write_accesses, disk_reads, disk_writes, evictions,
#  invalidated_blocks, dirty_blocks_created, dirty_blocks_discarded,
#  read_elisions)
GOLDEN = {
    (399360, "write-through"): (2738, 1661, 1503, 1661, 2113, 408, 0, 0, 1109),
    (399360, "30 sec flush"): (2738, 1661, 1503, 1089, 2113, 408, 1310, 218, 1109),
    (399360, "5 min flush"): (2738, 1661, 1503, 879, 2113, 408, 1212, 288, 1109),
    (399360, "delayed-write"): (2738, 1661, 1503, 839, 2113, 408, 1205, 321, 1109),
    (1048576, "write-through"): (2738, 1661, 1025, 1661, 1308, 539, 0, 0, 1072),
    (1048576, "30 sec flush"): (2738, 1661, 1025, 1068, 1308, 539, 1295, 224, 1072),
    (1048576, "5 min flush"): (2738, 1661, 1025, 751, 1308, 539, 1151, 355, 1072),
    (1048576, "delayed-write"): (2738, 1661, 1025, 565, 1308, 539, 1133, 413, 1072),
    (2097152, "write-through"): (2738, 1661, 784, 1661, 745, 557, 0, 0, 1024),
    (2097152, "30 sec flush"): (2738, 1661, 784, 1068, 745, 557, 1295, 224, 1024),
    (2097152, "5 min flush"): (2738, 1661, 784, 701, 745, 557, 1148, 402, 1024),
    (2097152, "delayed-write"): (2738, 1661, 784, 295, 745, 557, 1078, 473, 1024),
    (4194304, "write-through"): (2738, 1661, 654, 1661, 73, 582, 0, 0, 1019),
    (4194304, "30 sec flush"): (2738, 1661, 654, 1068, 73, 582, 1295, 224, 1019),
    (4194304, "5 min flush"): (2738, 1661, 654, 688, 73, 582, 1148, 415, 1019),
    (4194304, "delayed-write"): (2738, 1661, 654, 37, 73, 582, 1070, 503, 1019),
    (8388608, "write-through"): (2738, 1661, 652, 1661, 0, 582, 0, 0, 1019),
    (8388608, "30 sec flush"): (2738, 1661, 652, 1068, 0, 582, 1295, 224, 1019),
    (8388608, "5 min flush"): (2738, 1661, 652, 688, 0, 582, 1148, 415, 1019),
    (8388608, "delayed-write"): (2738, 1661, 652, 0, 0, 582, 1070, 503, 1019),
    (16777216, "write-through"): (2738, 1661, 652, 1661, 0, 582, 0, 0, 1019),
    (16777216, "30 sec flush"): (2738, 1661, 652, 1068, 0, 582, 1295, 224, 1019),
    (16777216, "5 min flush"): (2738, 1661, 652, 688, 0, 582, 1148, 415, 1019),
    (16777216, "delayed-write"): (2738, 1661, 652, 0, 0, 582, 1070, 503, 1019),
}

# FIFO spot checks (pre-refactor replacement="fifo" path).
FIFO_GOLDEN = {
    (399360, "write-through"): (2738, 1661, 1590, 1661, 2179, 405, 0, 0, 1085),
    (399360, "delayed-write"): (2738, 1661, 1590, 848, 2179, 405, 1202, 310, 1085),
    (2097152, "write-through"): (2738, 1661, 884, 1661, 849, 559, 0, 0, 1030),
    (2097152, "delayed-write"): (2738, 1661, 884, 291, 849, 559, 1081, 464, 1030),
}

# Spot checks for the other five zoo policies, captured the same way
# before the LFU and ensemble rewrites (bucketed LFU, lazily replayed
# ensemble arms): key (policy, cache_bytes, write-policy label).
ZOO_GOLDEN = {
    ("clock", 399360, "write-through"): (2738, 1661, 1539, 1661, 2127, 407, 0, 0, 1086),
    ("clock", 399360, "delayed-write"): (2738, 1661, 1539, 833, 2127, 407, 1190, 311, 1086),
    ("clock", 2097152, "write-through"): (2738, 1661, 818, 1661, 780, 559, 0, 0, 1027),
    ("clock", 2097152, "delayed-write"): (2738, 1661, 818, 292, 780, 559, 1078, 474, 1027),
    ("lfu", 399360, "write-through"): (2738, 1661, 1893, 1661, 2791, 188, 0, 0, 1183),
    ("lfu", 399360, "delayed-write"): (2738, 1661, 1893, 1239, 2791, 188, 1402, 126, 1183),
    ("lfu", 2097152, "write-through"): (2738, 1661, 877, 1661, 916, 520, 0, 0, 1066),
    ("lfu", 2097152, "delayed-write"): (2738, 1661, 877, 507, 916, 520, 1148, 367, 1066),
    ("2q", 399360, "write-through"): (2738, 1661, 1431, 1661, 2080, 409, 0, 0, 1149),
    ("2q", 399360, "delayed-write"): (2738, 1661, 1431, 908, 2080, 409, 1268, 288, 1149),
    ("2q", 2097152, "write-through"): (2738, 1661, 843, 1661, 807, 559, 0, 0, 1029),
    ("2q", 2097152, "delayed-write"): (2738, 1661, 843, 337, 807, 559, 1081, 464, 1029),
    ("arc", 399360, "write-through"): (2738, 1661, 1466, 1661, 2097, 417, 0, 0, 1139),
    ("arc", 399360, "delayed-write"): (2738, 1661, 1466, 850, 2097, 417, 1219, 324, 1139),
    ("arc", 2097152, "write-through"): (2738, 1661, 774, 1661, 783, 547, 0, 0, 1062),
    ("arc", 2097152, "delayed-write"): (2738, 1661, 774, 398, 783, 547, 1122, 432, 1062),
    ("ensemble", 399360, "write-through"): (2738, 1661, 1537, 1661, 2145, 408, 0, 0, 1107),
    ("ensemble", 399360, "delayed-write"): (2738, 1661, 1537, 872, 2145, 408, 1205, 287, 1107),
    ("ensemble", 2097152, "write-through"): (2738, 1661, 828, 1661, 798, 551, 0, 0, 1027),
    ("ensemble", 2097152, "delayed-write"): (2738, 1661, 828, 302, 798, 551, 1080, 447, 1027),
}

_SPOT_POLICIES = {"write-through": WRITE_THROUGH, "delayed-write": DELAYED_WRITE}


def test_lru_sweep_matches_pre_refactor_goldens(small_trace):
    sweep = cache_size_policy_sweep(small_trace, jobs=1)
    assert sweep.replacement == "lru"
    got = {key: astuple(metrics) for key, metrics in sweep.results.items()}
    assert got == GOLDEN


def test_lru_sweep_goldens_survive_the_parallel_path(small_trace):
    sweep = cache_size_policy_sweep(small_trace, jobs=2)
    got = {key: astuple(metrics) for key, metrics in sweep.results.items()}
    assert got == GOLDEN


def test_explicit_lru_equals_default(small_trace):
    default = cache_size_policy_sweep(small_trace, jobs=1)
    explicit = cache_size_policy_sweep(small_trace, jobs=1, replacement="lru")
    assert default.results == explicit.results


def test_fifo_spot_goldens(small_trace):
    for (cache_bytes, label), expected in FIFO_GOLDEN.items():
        metrics = simulate_cache(
            small_trace,
            cache_bytes,
            policy=_SPOT_POLICIES[label],
            replacement="fifo",
        )
        assert astuple(metrics) == expected, (cache_bytes, label)


def test_zoo_spot_goldens(small_trace):
    for (name, cache_bytes, label), expected in ZOO_GOLDEN.items():
        metrics = simulate_cache(
            small_trace,
            cache_bytes,
            policy=_SPOT_POLICIES[label],
            replacement=name,
        )
        assert astuple(metrics) == expected, (name, cache_bytes, label)

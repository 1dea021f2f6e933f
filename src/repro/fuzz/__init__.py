"""Differential fuzzing and fault injection for the whole pipeline.

The repo's correctness story is a chain of bit-identical pairs: the
per-module analyzers versus
:func:`~repro.analysis.onepass.analyze_onepass`,
:class:`~repro.cache.simulator.BlockCacheSimulator` versus the packed
replayer and the all-size LRU curve
(:func:`~repro.parallel.veccache.stack_curve`), each numpy kernel
versus its Python specification, and a corpus versus the trace it was
written from.  This package turns each asserted pair into a check
function over *generated* inputs; ``tests/test_fuzz.py`` drives each
pillar as one hypothesis property, whose shrinker, example database
and seeding replay any failure:

* :mod:`repro.fuzz.gen` — one seeded input model (random well-formed
  traces and random-but-valid syscall sequences) and the hypothesis
  strategies over it;
* :mod:`repro.fuzz.replay` — pillar 1, the kernel oracle: after every
  fuzzed syscall the emitted Table II records must replay to the
  kernel's own logical state, and ``fsck`` must stay clean;
* :mod:`repro.fuzz.oracles` — pillar 2, the text-format round trip and
  the differential oracles over analysis and cache simulation;
* :mod:`repro.fuzz.faults` — pillar 3, netfs fault injection
  (dropped/duplicated RPCs, disk stalls) with a convergence check;
* :mod:`repro.fuzz.corpus` — pillar 4, the out-of-core corpus codec:
  bit-exact segment round-trips, corpus-vs-in-RAM analyze/validate
  differentials, and
  :class:`CorpusFaultPlan` corruption schedules;
* :mod:`repro.fuzz.engines` — pillar 5, the numpy kernels of
  :mod:`repro.analysis.vectorized` and :mod:`repro.parallel.veccache`
  versus their pure-Python specifications, required bit-identical;
* :mod:`repro.fuzz.policies` — pillar 6, the replacement-policy zoo:
  every policy (:mod:`repro.cache.replacement`) replayed through the
  full simulator and the packed replayer, plus a three-way
  arc/lru/2q no-reuse oracle, all bit-identical.

Every check returns ``None`` or a one-line description of the first
divergence.
"""

from .corpus import (
    CorpusFaultPlan,
    check_corpus_corruption,
    check_corpus_roundtrip,
    check_corpus_streaming,
)
from .engines import check_engines
from .faults import NetfsFaults, check_netfs_convergence
from .gen import SyscallOp, random_ops, random_trace
from .oracles import check_all
from .policies import check_policies
from .replay import check_ops

__all__ = [
    "CorpusFaultPlan",
    "NetfsFaults",
    "SyscallOp",
    "check_all",
    "check_corpus_corruption",
    "check_corpus_roundtrip",
    "check_corpus_streaming",
    "check_engines",
    "check_netfs_convergence",
    "check_ops",
    "check_policies",
    "random_ops",
    "random_trace",
]

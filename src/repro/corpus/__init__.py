"""Out-of-core trace corpora: segmented columnar storage with a stats index.

The paper's traces fit in RAM; the scaled synthetic workloads this repo
aims at do not.  A *corpus* (``.bcorpus``) stores one trace as a run of
fixed-width columnar segments — the exact ``TraceColumns`` buffer
layouts — plus a footer index carrying per-segment statistics, so
readers can seek, skip, shard, and verify without materializing events:

- :class:`CorpusWriter` / :class:`CorpusSpool` build corpora append-only
  with bounded memory (``generate_many`` spools straight into one when
  the output path ends in ``.bcorpus``).
- :class:`CorpusReader` mmaps a corpus and serves zero-copy
  ``TraceColumns`` views of individual segments; its
  :meth:`~CorpusReader.verify` re-derives every segment's footer
  statistics in one pass (``repro-fs corpus verify``).
- :func:`validate_corpus` streams segments through the validator in
  O(segment) memory; :func:`analyze_corpus` loads the corpus whole and
  runs the one-pass analyzer, whose report is O(events) however the
  trace is fed.  Both are bit-identical to the in-RAM paths.

Format spec: ``DESIGN.md`` §11 and :mod:`repro.corpus.format`.
"""

from .format import (
    DEFAULT_SEGMENT_EVENTS,
    FORMAT_VERSION,
    SCHEMA_DIGESTS,
    CorpusError,
    SegmentStat,
    schema_digest,
)
from .reader import CorpusReader, read_corpus_columns
from .stream import analyze_corpus, validate_corpus
from .writer import CorpusSpool, CorpusWriter, pack_columns, pack_trace

__all__ = [
    "CorpusError",
    "CorpusReader",
    "CorpusSpool",
    "CorpusWriter",
    "DEFAULT_SEGMENT_EVENTS",
    "FORMAT_VERSION",
    "SCHEMA_DIGESTS",
    "SegmentStat",
    "analyze_corpus",
    "pack_columns",
    "pack_trace",
    "read_corpus_columns",
    "schema_digest",
    "validate_corpus",
]

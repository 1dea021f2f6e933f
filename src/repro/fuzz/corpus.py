"""Pillar 4: the out-of-core corpus codec under differential fire.

Three oracles, mirroring the standing claims of ``repro.corpus``:

* :func:`check_corpus_roundtrip` — the event-append and bulk-column
  write paths must emit byte-identical files, and reading back through
  zero-copy segment views must reproduce the original columns bit for
  bit (including event materialization straight off the mmap-style
  views);
* :func:`check_corpus_streaming` — :func:`~repro.corpus.analyze_corpus`
  (which loads the corpus whole) and the segment-streamed
  :func:`~repro.corpus.validate_corpus` must agree field-for-field with
  the in-RAM Python specifications on the same data;
* :func:`check_corpus_corruption` — a :class:`CorpusFaultPlan` damages a
  pristine corpus.  Guaranteed-detection corruptions (truncation
  anywhere, bad magics, index lies) must raise a
  :class:`~repro.corpus.CorpusError`; and because every non-padding byte
  of the format is covered by some crc32 (header crc, per-segment crc,
  footer crc), a **single bit flip anywhere outside padding** must also
  be detected by open plus a read of every segment — a damaged file
  never reads back as a well-formed different trace.
"""

from __future__ import annotations

import dataclasses
import io
import random
import struct

from ..analysis.onepass import analyze_columns_python
from ..corpus.format import CorpusError
from ..corpus.reader import CorpusReader
from ..corpus.stream import analyze_corpus, validate_corpus
from ..corpus.writer import CorpusWriter
from ..trace.columns import TraceColumns
from ..trace.log import TraceLog
from ..trace.validate import validate_columns_python

__all__ = [
    "CORPUS_SEGMENT_EVENTS",
    "CorpusFaultPlan",
    "check_corpus_corruption",
    "check_corpus_roundtrip",
    "check_corpus_streaming",
]

#: Deliberately tiny, so every fuzzed trace spans several segments and
#: every segment boundary is a potential off-by-one.
CORPUS_SEGMENT_EVENTS = 32

_TRAILER_SIZE = struct.calcsize("<QQII8s")


def _pack_via_columns(cols: TraceColumns, segment_events: int) -> bytes:
    buf = io.BytesIO()
    with CorpusWriter(
        buf, name=cols.name, description=cols.description,
        segment_events=segment_events,
    ) as writer:
        writer.append_columns(cols)
    return buf.getvalue()


def _pack_via_events(log: TraceLog, segment_events: int) -> bytes:
    buf = io.BytesIO()
    with CorpusWriter(
        buf, name=log.name, description=log.description,
        segment_events=segment_events,
    ) as writer:
        writer.extend(log.events)
    return buf.getvalue()


def check_corpus_roundtrip(
    log: TraceLog, segment_events: int = CORPUS_SEGMENT_EVENTS
) -> str | None:
    """Write-path equivalence and bit-exact read-back (see module doc)."""
    cols = TraceColumns.from_log(log)
    by_columns = _pack_via_columns(cols, segment_events)
    by_events = _pack_via_events(log, segment_events)
    if by_columns != by_events:
        return (
            "CorpusWriter.append_columns and per-event append produced "
            "different bytes for the same trace"
        )
    with CorpusReader(by_columns) as reader:
        if (reader.name, reader.description) != (cols.name, cols.description):
            return "corpus round-trip lost the trace name/description"
        back = reader.to_columns()
        for column in ("kinds", "flags"):
            if getattr(back, column) != getattr(cols, column):
                return f"corpus round-trip changed the {column} column"
        for column in (
            "times", "open_ids", "file_ids", "user_ids", "sizes", "positions"
        ):
            if list(getattr(back, column)) != list(getattr(cols, column)):
                return f"corpus round-trip changed the {column} column"
        # Event materialization straight off the zero-copy segment views.
        streamed = list(reader.iter_events())
        if streamed != log.events:
            return (
                "events materialized from corpus segment views differ "
                "from the originals"
            )
        try:
            reader.verify()
        except CorpusError as exc:
            return f"freshly written corpus failed verify(): {exc}"
    return None


def check_corpus_streaming(
    log: TraceLog, segment_events: int = CORPUS_SEGMENT_EVENTS
) -> str | None:
    """Corpus analyze and segment-streamed validate vs the in-RAM Python
    references."""
    cols = TraceColumns.from_log(log)
    data = _pack_via_columns(cols, segment_events)
    with CorpusReader(data) as reader:
        streamed = analyze_corpus(reader)
        in_ram = analyze_columns_python(cols)
        for f in dataclasses.fields(in_ram):
            if getattr(streamed, f.name) != getattr(in_ram, f.name):
                return (
                    f"analyze_corpus disagrees with the in-RAM reference "
                    f"on {f.name}"
                )
        streamed_v = validate_corpus(reader)
        in_ram_v = validate_columns_python(cols)
        if (
            streamed_v.problems != in_ram_v.problems
            or streamed_v.event_count != in_ram_v.event_count
            or streamed_v.open_count != in_ram_v.open_count
            or streamed_v.unmatched_opens != in_ram_v.unmatched_opens
        ):
            return "validate_corpus disagrees with the in-RAM reference"
    return None


# -- corruption ----------------------------------------------------------------


def _covered_intervals(data: bytes) -> list[tuple[int, int]]:
    """Byte ranges of *data* covered by some crc32 (everything but padding
    and the trailer's self-describing fields)."""
    with CorpusReader(data) as reader:
        # header crc covers [0, first segment offset), padding included
        header_end = (
            reader.stats[0].offset if reader.stats else reader.footer_offset
        )
        intervals = [(0, header_end)]
        for stat in reader.stats:
            intervals.append((stat.offset, stat.offset + stat.data_bytes))
        # footer (crc-covered) + the trailer fields whose damage the
        # bounds/magic/sum checks catch deterministically
        intervals.append((reader.footer_offset, len(data)))
    return intervals


class CorpusFaultPlan:
    """A deterministic schedule of corruptions for one serialized corpus."""

    def __init__(self, seed: int | str, cases: int = 16):
        self.seed = seed
        self.cases = cases

    def corruptions(self, data: bytes):
        """Yield ``(label, corrupted_bytes)`` tuples.

        Every yielded corruption must be detected: the corpus format has
        no undetectable single-bit damage outside padding.
        """
        rng = random.Random(f"corpus-faults:{self.seed}")
        yield "empty file", b""
        yield "header magic damaged", bytes([data[0] ^ 0x40]) + data[1:]
        yield "end magic damaged", data[:-1] + bytes([data[-1] ^ 0x40])
        cut = rng.randint(1, len(data) - 1)
        yield f"truncated at byte {cut}", data[:cut]
        yield "trailer cut off", data[: len(data) - _TRAILER_SIZE]
        intervals = _covered_intervals(data)
        spans = [hi - lo for lo, hi in intervals]
        total = sum(spans)
        emitted = 5
        while emitted < self.cases and total:
            pick = rng.randrange(total)
            for (lo, hi), span in zip(intervals, spans):
                if pick < span:
                    at = lo + pick
                    break
                pick -= span
            bit = 1 << rng.randint(0, 7)
            flipped = bytearray(data)
            flipped[at] ^= bit
            yield f"bit {bit:#04x} flipped at byte {at}", bytes(flipped)
            emitted += 1


def check_corpus_corruption(
    log: TraceLog,
    plan: CorpusFaultPlan,
    segment_events: int = CORPUS_SEGMENT_EVENTS,
) -> tuple[str | None, int]:
    """Apply *plan* to *log*'s corpus serialization; (divergence, cases)."""
    pristine = _pack_via_columns(TraceColumns.from_log(log), segment_events)
    cases = 0
    for label, corrupted in plan.corruptions(pristine):
        cases += 1
        try:
            with CorpusReader(corrupted) as reader:
                reader.verify()
                reader.to_columns()
        except CorpusError:
            continue  # rejected with a diagnostic: the contract
        except Exception as exc:  # noqa: BLE001 - any crash is the finding
            return (
                f"reading a corrupted corpus ({label}) crashed with "
                f"{type(exc).__name__}: {exc}",
                cases,
            )
        return (
            f"CorpusReader accepted a corrupted corpus ({label}) that "
            "must be rejected",
            cases,
        )
    return None, cases

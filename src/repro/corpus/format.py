"""The on-disk corpus format: constants, structs, and schema versioning.

A *corpus* is a segmented, mmap-friendly container for one trace too
large to hold in RAM: fixed-width columnar segments (the exact
``TraceColumns`` buffer layouts) followed by a footer index carrying
per-segment statistics, so readers can seek, skip, shard and verify
without materializing a single event.  See ``DESIGN.md`` §11 for the
narrative spec; this module is the normative one.

File layout (every multi-byte field little-endian, ``<`` structs)::

    header   magic           8 bytes  b"BSDCORP" + version byte
             name            u16 length + utf-8 bytes
             desc            u16 length + utf-8 bytes
             segment_events  u32 (writer's nominal segment size)
             padding         zero bytes to the next 8-byte boundary
    segment* each segment, starting on an 8-byte boundary:
             times           f64 x count   (exact floats, no quantizing)
             open_ids        i64 x count
             file_ids        i64 x count
             user_ids        i64 x count
             sizes           i64 x count
             positions       i64 x count
             kinds           u8  x count
             flags           u8  x count
             padding         zero bytes to the next 8-byte boundary
    footer   magic           8 bytes  b"BSDCIDX" + version byte
             header_crc      u32 crc32 of the header bytes (padding included)
             reserved        u32 zero
             record*         one 200-byte SEGMENT_STAT_STRUCT per segment
    trailer  footer_offset   u64 absolute byte offset of the footer
             total_events    u64 (must equal the sum of segment counts)
             segment_count   u32
             footer_crc      u32 crc32 of the footer bytes
             end magic       8 bytes  b"BSDCEND" + version byte

The numeric columns come first inside a segment and segments start
8-aligned, so a reader can ``memoryview.cast`` them straight out of an
``mmap`` with zero copies.  Column buffers are stored little-endian;
on a big-endian host the codec byteswaps on the way in and out (the
file format never changes with the host).

Versioning: the format version appears as the final byte of all three
magics and as :data:`FORMAT_VERSION`.  Any change to the segment layout,
the stat record, or the magics MUST bump the version and register the
new schema digest in :data:`SCHEMA_DIGESTS`.  The writer and the reader
both lay segments out by iterating :data:`COLUMN_LAYOUT`, so a layout
edit changes the bytes on disk: ``TestFormat`` in ``tests/test_corpus.py``
fails on the unregistered digest and ``TestGoldenEncodings`` in
``tests/test_fuzz.py`` on the changed encodings.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "FOOTER_MAGIC",
    "END_MAGIC",
    "COLUMN_LAYOUT",
    "SEGMENT_STAT_FIELDS",
    "SEGMENT_STAT_STRUCT",
    "FLAG_HIST_BINS",
    "BYTES_PER_EVENT",
    "DEFAULT_SEGMENT_EVENTS",
    "CorpusError",
    "SegmentStat",
    "SCHEMA_DIGESTS",
    "schema_digest",
]


class CorpusError(ValueError):
    """A corpus file is corrupt, truncated, or unrecognized.

    Messages name the byte offset that disappointed the reader.
    """


#: Bump on ANY layout change, together with a new SCHEMA_DIGESTS entry.
FORMAT_VERSION = 1

MAGIC = b"BSDCORP\x01"
FOOTER_MAGIC = b"BSDCIDX\x01"
END_MAGIC = b"BSDCEND\x01"

#: Column order inside one segment (numeric 8-byte columns first, so an
#: 8-aligned segment start keeps them castable; the two byte columns
#: trail).  Typecodes match TraceColumns exactly.  The writer and the
#: reader both iterate this tuple, so it alone sets the order on disk.
COLUMN_LAYOUT = (
    ("times", "d"),
    ("open_ids", "q"),
    ("file_ids", "q"),
    ("user_ids", "q"),
    ("sizes", "q"),
    ("positions", "q"),
    ("kinds", "B"),
    ("flags", "B"),
)

#: Fields of one footer stat record, in struct order.
SEGMENT_STAT_FIELDS = (
    "offset",
    "count",
    "time_first",
    "time_last",
    "user_lo",
    "user_hi",
    "file_lo",
    "file_hi",
    "crc32",
    "flag_hist",
)

#: Histogram bins: exact counts of flag byte values 0..15 (every defined
#: flag combination).  Bytes outside 0..15 fall in no bin, so a hist
#: summing short of ``count`` is itself a corruption signal.
FLAG_HIST_BINS = 16

SEGMENT_STAT_STRUCT = "<QQddqqqqQ16Q"

#: Storage cost of one event inside a segment (6 x 8-byte + 2 x 1-byte).
BYTES_PER_EVENT = struct.calcsize("<" + "".join(code for _, code in COLUMN_LAYOUT))

#: Writer default: ~3.2 MB of segment data, small enough that dozens of
#: segments stream through a worker without memory pressure, large
#: enough that footer overhead (200 bytes/segment) is noise.
DEFAULT_SEGMENT_EVENTS = 65536

_SCHEMA_DIGEST_V1 = "40178e9a0265"

#: version -> expected schema digest; ``TestFormat`` compares it with
#: :func:`schema_digest`.
SCHEMA_DIGESTS = {1: _SCHEMA_DIGEST_V1}

HEADER_STR = struct.Struct("<H")
HEADER_SEGEVENTS = struct.Struct("<I")
FOOTER_HEAD = struct.Struct("<II")  # header_crc, reserved
SEGMENT_REC = struct.Struct(SEGMENT_STAT_STRUCT)
TRAILER = struct.Struct("<QQII8s")  # footer_offset total_events nseg footer_crc end_magic


class SegmentStat:
    """One footer index record: where a segment lives and what is in it."""

    __slots__ = SEGMENT_STAT_FIELDS

    def __init__(
        self,
        offset: int,
        count: int,
        time_first: float,
        time_last: float,
        user_lo: int,
        user_hi: int,
        file_lo: int,
        file_hi: int,
        crc32: int,
        flag_hist: tuple[int, ...],
    ):
        self.offset = offset
        self.count = count
        self.time_first = time_first
        self.time_last = time_last
        self.user_lo = user_lo
        self.user_hi = user_hi
        self.file_lo = file_lo
        self.file_hi = file_hi
        self.crc32 = crc32
        self.flag_hist = flag_hist

    @property
    def data_bytes(self) -> int:
        """Unpadded byte length of the segment's column data."""
        return self.count * BYTES_PER_EVENT

    def pack(self) -> bytes:
        return SEGMENT_REC.pack(
            self.offset,
            self.count,
            self.time_first,
            self.time_last,
            self.user_lo,
            self.user_hi,
            self.file_lo,
            self.file_hi,
            self.crc32,
            *self.flag_hist,
        )

    @classmethod
    def unpack_from(cls, buf, offset: int) -> "SegmentStat":
        values = SEGMENT_REC.unpack_from(buf, offset)
        return cls(*values[:9], flag_hist=values[9:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentStat):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in SEGMENT_STAT_FIELDS
        )

    def __repr__(self) -> str:
        return (
            f"SegmentStat(offset={self.offset}, count={self.count}, "
            f"t=[{self.time_first}, {self.time_last}])"
        )

    def summary_line(self) -> str:
        return (
            f"{self.count} events, t [{self.time_first:.2f}, "
            f"{self.time_last:.2f}], users <= {self.user_hi}, "
            f"files <= {self.file_hi}, crc {self.crc32:#010x}"
        )


def schema_digest() -> str:
    """Digest of everything that defines the on-disk layout.

    Changing any input without bumping :data:`FORMAT_VERSION` (and
    recording the new digest) fails ``TestFormat``; changing the layout
    the writer and reader share fails ``TestGoldenEncodings`` as well.
    """
    canonical = repr(
        {
            "version": FORMAT_VERSION,
            "magic": MAGIC,
            "footer_magic": FOOTER_MAGIC,
            "end_magic": END_MAGIC,
            "column_layout": COLUMN_LAYOUT,
            "stat_fields": SEGMENT_STAT_FIELDS,
            "stat_struct": SEGMENT_STAT_STRUCT,
            "flag_hist_bins": FLAG_HIST_BINS,
            "bytes_per_event": BYTES_PER_EVENT,
        }
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def pad_to_8(n: int) -> int:
    """Bytes of zero padding needed to align *n* up to an 8-byte boundary."""
    return -n % 8

"""Bit-exact binary decoding/encoding of event recordings and annotations.

Two event containers are supported:

* EVS, the toolkit's canonical container: ASCII magic ``EVS1``, little-endian
  u32 width, u32 height, u64 event count, then one 14-byte record per event
  (u64 t in microseconds, u16 x, u16 y, u8 p, u8 reserved=0).  Fixed stride,
  no bitfield ambiguity; decode(encode(s)) is the identity, and decode
  rejects a nonzero reserved byte, so encode(decode(b)) == b for every b it
  accepts.
* DAT 2.0, the common automotive recording layout: optional ASCII header
  lines starting with ``%`` and ending ``\\n``, one byte event type (0x00
  for 2D or 0x0C for CD events; any other is a BadHeader), one byte event
  size (must be 8), then per event two little-endian u32 words: the first
  is the timestamp in microseconds, the second packs x in bits 0-13, y in
  bits 14-27 and polarity in bits 28-31 (nonzero means positive).

Both containers have fixed-size records after their header, so one chunk
reader decodes and checks CHUNK_BYTES of records at a time (149,796 EVS or
262,144 DAT records), from a `Recording`'s file or from the byte buffer that
`decode_evs` / `decode_dat` are given.

Annotations use a line-delimited text format (one ``key=value`` record per
line) so golden files stay diffable.
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BadHeader,
    BadMagic,
    ParseError,
    ReservedByteSet,
    TruncatedFile,
    VersionUnsupported,
)
from .event_core import EventStream, SensorGeometry, _check_invariants

EVS_MAGIC = b"EVS1"
EVS_HEADER_DTYPE = np.dtype([("magic", "S4"), ("width", "<u4"), ("height", "<u4"),
                             ("count", "<u8")])
EVS_HEADER_SIZE = EVS_HEADER_DTYPE.itemsize  # 20 bytes
EVS_RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("reserved", "u1")]
)
EVS_RECORD_SIZE = EVS_RECORD_DTYPE.itemsize  # 14 bytes

DAT_RECORD_SIZE = 8
DAT_EVENT_TYPES = (0x00, 0x0C)  # 2D and CD events share the record layout

# Bytes of records read, decoded and checked at a time: CHUNK_BYTES // itemsize
# records, so an EVS chunk of 14-byte records costs what a DAT chunk of 8 does.
CHUNK_BYTES = 2**21

# The decoders read p and the EVS reserved byte as one little-endian u16
# (p is the low byte), and a DAT record as its timestamp and the packed
# word's two 16-bit halves.
_EVS_READ_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("pr", "<u2")])
_DAT_READ_DTYPE = np.dtype([("t", "<u4"), ("lo", "<u2"), ("hi", "<u2")])


@dataclass(frozen=True)
class _Body:
    """Where a container's records start, how many there are and how to read them.

    `fields` turns an array of `dtype` records into (t, x, y, pr) columns,
    where pr holds p in its low byte and, for EVS, the reserved byte above it.
    """

    geometry: SensorGeometry
    offset: int
    count: int
    dtype: np.dtype
    fields: Callable[[np.ndarray], tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class AnnotatedBox:
    """Ground-truth or predicted bounding box at a point in time.

    (x, y) is the top-left corner; score is 1.0 for ground truth.
    """

    t: int
    x: float
    y: float
    w: float
    h: float
    class_id: int
    score: float = 1.0
    track_id: int | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.w, self.h))):
            raise ValueError(
                f"x, y, w and h must be finite, got {self.x}, {self.y}, {self.w}, {self.h}"
            )
        # IoU adds w to x and sums two areas: an area that underflows to 0 (IoU
        # would be 0/0), an edge or twice an area that overflows is rejected.
        area = self.w * self.h
        if self.w <= 0 or self.h <= 0 or not 0 < area or not math.isfinite(2 * area):
            raise ValueError(f"box size must be positive with a finite nonzero area "
                             f"(twice it finite too), got {self.w}x{self.h}")
        if not math.isfinite(self.x + self.w) or not math.isfinite(self.y + self.h):
            raise ValueError(f"box edges x + w and y + h must be finite, got "
                             f"{self.x} + {self.w} and {self.y} + {self.h}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {self.score}")


# --- EVS container -------------------------------------------------------------


def encode_evs(stream: EventStream) -> bytes:
    records = np.zeros(len(stream), dtype=EVS_RECORD_DTYPE)  # reserved bytes are 0
    for f in "txyp":
        records[f] = getattr(stream, f)
    header = np.array((EVS_MAGIC, stream.geometry.width, stream.geometry.height, len(stream)),
                      dtype=EVS_HEADER_DTYPE)
    return header.tobytes() + records.tobytes()


def _header_geometry(width: int, height: int) -> SensorGeometry:
    """SensorGeometry from header fields; out-of-range sizes are a BadHeader."""
    try:
        return SensorGeometry(width, height)
    except ValueError as exc:
        raise BadHeader(str(exc)) from exc


def _evs_body(fh: BinaryIO, size: int) -> _Body:
    header = fh.read(EVS_HEADER_SIZE)
    if len(header) < 4:
        raise TruncatedFile(f"need at least 4 bytes for magic, got {len(header)}")
    magic = header[:4]
    if magic != EVS_MAGIC:
        if magic[:3] == EVS_MAGIC[:3]:
            raise VersionUnsupported(f"unsupported EVS version byte {magic[3:4]!r}")
        raise BadMagic(f"expected {EVS_MAGIC!r}, got {magic!r}")
    if len(header) < EVS_HEADER_SIZE:
        raise TruncatedFile(f"EVS header is {EVS_HEADER_SIZE} bytes, got {len(header)}")
    # Python ints, so the size arithmetic below cannot wrap.
    _, width, height, count = np.frombuffer(header, EVS_HEADER_DTYPE)[0].tolist()
    geometry = _header_geometry(width, height)
    body = size - EVS_HEADER_SIZE
    expected = count * EVS_RECORD_SIZE
    if body != expected:
        raise TruncatedFile(
            f"body is {body} bytes, header declares {count} events ({expected} bytes)"
        )
    return _Body(geometry, EVS_HEADER_SIZE, count, _EVS_READ_DTYPE, _evs_fields)


def _evs_fields(records: np.ndarray) -> tuple[np.ndarray, ...]:
    return records["t"].astype(np.int64), records["x"], records["y"], records["pr"]


def decode_evs(data: bytes) -> EventStream:
    return _decode_buffer(data, _evs_body(io.BytesIO(data), len(data)))


# --- DAT 2.0 reader ----------------------------------------------------------


def decode_dat(data: bytes, geometry: SensorGeometry | None = None) -> EventStream:
    """Decode a DAT 2.0 recording.

    Geometry is taken from ``% Width N`` / ``% Height N`` (or
    ``% geometry WxH``) header comments when present, else from the caller;
    a header that gives only one dimension is a BadHeader.
    Timestamps are 32-bit and are not unwrapped: a recording longer than
    2**32 us (about 71.6 minutes) wraps to a smaller timestamp, which is a
    NonMonotoneTimestamp at the wrapped record's index.
    """
    return _decode_buffer(data, _dat_body(io.BytesIO(data), len(data), geometry))


def _dat_body(fh: BinaryIO, size: int, geometry: SensorGeometry | None) -> _Body:
    found: dict[str, int] = {}
    while True:
        pos = fh.tell()
        if fh.read(1) != b"%":
            break
        fh.seek(pos)
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise TruncatedFile("unterminated '%' header line")
        _parse_dat_header_line(line[:-1], found)
    fh.seek(pos)
    kind = fh.read(2)
    if len(kind) < 2:
        raise TruncatedFile("missing event_type/event_size bytes")
    event_type, event_size = kind
    if event_type not in DAT_EVENT_TYPES:
        raise BadHeader(f"event_type must be 0x00 or 0x0C, got {event_type:#04x}")
    if event_size != DAT_RECORD_SIZE:
        raise BadHeader(f"event_size must be {DAT_RECORD_SIZE}, got {event_size}")
    body = size - pos - 2
    if body % DAT_RECORD_SIZE:
        raise TruncatedFile(f"body of {body} bytes is not a multiple of {DAT_RECORD_SIZE}")
    if found:
        geometry = _header_geometry(found.get("width", 0), found.get("height", 0))
    elif geometry is None:
        raise BadHeader("no geometry in header and none supplied")
    return _Body(geometry, pos + 2, body // DAT_RECORD_SIZE, _DAT_READ_DTYPE, _dat_fields)


def _dat_fields(records: np.ndarray) -> tuple[np.ndarray, ...]:
    # The packed word's 16-bit halves: x is bits 0-13, y bits 14-27, p bits 28-31.
    lo, hi = records["lo"], records["hi"]
    return (records["t"].astype(np.int64), lo & 0x3FFF, ((lo >> 14) | (hi << 2)) & 0x3FFF,
            (hi >> 12 != 0).view(np.uint8))


def _parse_dat_header_line(line: bytes, found: dict[str, int]) -> None:
    m = re.match(rb"%\s*geometry\s*:?\s*(\d+)\s*x\s*(\d+)", line, re.IGNORECASE)
    if m:
        found["width"], found["height"] = int(m.group(1)), int(m.group(2))
        return
    m = re.match(rb"%\s*(width|height)\s*:?\s*(\d+)", line, re.IGNORECASE)
    if m:
        found[m.group(1).lower().decode()] = int(m.group(2))


# --- decoding records, in chunks or whole ----------------------------------------


def _decode(records: np.ndarray, body: _Body, origin: int = 0, offset: int = 0) -> EventStream:
    """Decode and check records `offset`, `offset + 1`, ... of `body`.

    `origin` is the previous record's timestamp (0 for the first record).
    The fault with the smallest record index is raised, at its index in the
    file; a nonzero EVS reserved byte wins over other faults of its record.
    """
    t, x, y, pr = body.fields(records)
    reserved = np.flatnonzero(pr > 0xFF)
    n = int(reserved[0]) if reserved.size else len(t)
    _check_invariants(t[:n], x[:n], y[:n], pr[:n], body.geometry, origin, offset)
    if reserved.size:
        # A nonzero reserved byte would not survive a re-encode.
        raise ReservedByteSet(offset + n, f"reserved byte is {pr[n] >> 8}, not 0")
    return EventStream(body.geometry, t, x, y, pr, validate=False)


def _read_chunks(fh: BinaryIO, body: _Body) -> Iterator[EventStream]:
    """Decode and check `body`'s records, CHUNK_BYTES of them at a time, each
    chunk against the one before it; a fault is raised at its record's index in
    the file.  `fh` is a file or an `io.BytesIO`, and may be moved between chunks."""
    # Chunk-sized temporaries beat whole-body ones: on a 2-core Xeon VM, 5 M
    # random gen1 EVS events decoded in 0.053-0.060 s this way against
    # 0.078-0.088 s with one `_decode` call over the whole body (median of 7,
    # alternating, in each of six runs).
    size = body.dtype.itemsize
    per_chunk = CHUNK_BYTES // size
    origin = 0
    for lo in range(0, body.count, per_chunk):
        want = min(per_chunk, body.count - lo)
        fh.seek(body.offset + lo * size)
        raw = fh.read(want * size)
        if len(raw) < want * size:
            raise TruncatedFile(f"file ended after {lo + len(raw) // size} of "
                                f"{body.count} records")
        chunk = _decode(np.frombuffer(raw, body.dtype), body, origin, lo)
        del raw  # no raw records are held across the yield
        origin = int(chunk.t[-1])
        yield chunk
        del chunk  # released before the next chunk is read


def _decode_buffer(data: bytes, body: _Body) -> EventStream:
    """Decode a whole body held in memory into one stream."""
    columns = [np.empty(body.count, dtype) for dtype in (np.int64, np.uint16, np.uint16, np.uint8)]
    lo = 0
    for chunk in _read_chunks(io.BytesIO(data), body):
        for column, values in zip(columns, (chunk.t, chunk.x, chunk.y, chunk.p)):
            column[lo:lo + len(chunk)] = values
        lo += len(chunk)
    return EventStream(body.geometry, *columns, validate=False)


class Recording:
    """An EVS or DAT file, read CHUNK_BYTES of records at a time.

    Opening it reads the header (the magic picks the container), the first
    chunk (149,796 EVS or 262,144 DAT records) and the last record's
    timestamp, so a fault in the header or the first chunk is raised before a
    caller writes anything.  `chunks()` then yields every chunk once, in file
    order, each decoded and checked against the one before it; a fault is
    raised at its record's index in the file.  Use it as a context manager to
    close the file.
    """

    def __init__(self, path: str | PathLike, geometry: SensorGeometry | None = None):
        self._fh = open(path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            evs = self._fh.read(3) == EVS_MAGIC[:3]
            self._fh.seek(0)
            self._body = (_evs_body(self._fh, size) if evs
                          else _dat_body(self._fh, size, geometry))
            self._chunks = _read_chunks(self._fh, self._body)
            self._head = next(self._chunks, None)
            # First and last timestamp, None for an empty recording.  The last
            # is not checked until its chunk is read.
            self.first_t = self.last_t = None
            if self._head is not None:
                self.first_t = int(self._head.t[0])
                self._fh.seek(self._body.offset + (self.count - 1) * self._body.dtype.itemsize)
                last = np.fromfile(self._fh, self._body.dtype, count=1)
                self.last_t = int(self._body.fields(last)[0][0])
        except BaseException:
            self._fh.close()
            raise

    @property
    def geometry(self) -> SensorGeometry:
        return self._body.geometry

    @property
    def count(self) -> int:
        """Number of records the header and the file size give."""
        return self._body.count

    def chunks(self) -> Iterator[EventStream]:
        """The recording's events, a chunk at a time; may be iterated once."""
        if self._head is not None:
            yield self._head
            self._head = None  # released before the next chunk is read
            yield from self._chunks

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> Recording:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- annotation text format -----------------------------------------------------

_ANN_KEYS = ("t", "x", "y", "w", "h", "class", "score", "track")


def format_box(box: AnnotatedBox) -> str:
    track = "-" if box.track_id is None else str(box.track_id)
    x, y, w, h, score = (repr(float(v)) for v in (box.x, box.y, box.w, box.h, box.score))
    return f"t={box.t} x={x} y={y} w={w} h={h} class={box.class_id} score={score} track={track}"


def parse_fields(line: str, lineno: int, required: Sequence[str]) -> dict[str, str]:
    """Split key=value tokens; ParseError on a bare token or a missing key."""
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(lineno, f"token {token!r} is not key=value")
        fields[key] = value
    missing = [k for k in required if k not in fields]
    if missing:
        raise ParseError(lineno, f"missing fields {missing}")
    return fields


def ascii_lines(fh: BinaryIO) -> Iterator[str]:
    """Each line of a binary file, decoded; a non-ASCII byte is a ParseError."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(lineno, f"non-ASCII byte at column {exc.start + 1}") from exc


def read_lines(path: str | PathLike) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of an ASCII file."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(ascii_lines(fh), start=1):
            if line.strip():
                yield lineno, line.strip()


def parse_box(line: str, lineno: int = 0) -> AnnotatedBox:
    fields = parse_fields(line, lineno, _ANN_KEYS)
    try:
        track = None if fields["track"] == "-" else int(fields["track"])
        x, y, w, h, score = (float(fields[k]) for k in ("x", "y", "w", "h", "score"))
        t, class_id = int(fields["t"]), int(fields["class"])
        # The commands put boxes' t and class in int64 arrays.
        for key, value in (("t", t), ("class", class_id)):
            if not -2**63 <= value < 2**63:
                raise ValueError(f"{key}={value} does not fit in 64 bits")
        return AnnotatedBox(
            t=t, x=x, y=y, w=w, h=h, class_id=class_id, score=score, track_id=track,
        )
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc


def read_annotations(path: str | PathLike) -> list[AnnotatedBox]:
    """Read boxes from a text file; returned sorted by timestamp (stable)."""
    boxes = [parse_box(line, lineno) for lineno, line in read_lines(path)]
    boxes.sort(key=lambda b: b.t)
    return boxes


def write_annotations(path: str | PathLike, boxes: Sequence[AnnotatedBox]) -> None:
    text = "".join(format_box(b) + "\n" for b in boxes)
    Path(path).write_text(text, encoding="ascii")

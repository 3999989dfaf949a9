"""Bit-exact binary decoding/encoding of event recordings and annotations.

Two event containers are supported:

* EVS, the toolkit's canonical container: ASCII magic ``EVS1``, little-endian
  u32 width, u32 height, u64 event count, then one 14-byte record per event
  (u64 t in microseconds, u16 x, u16 y, u8 p, u8 reserved=0).  Fixed stride,
  no bitfield ambiguity; decode(encode(s)) is the identity.
* DAT 2.0, the common automotive recording layout: optional ASCII header
  lines starting with ``%`` and ending ``\\n``, one byte event type, one byte
  event size (must be 8), then per event two little-endian u32 words: the
  first is the timestamp in microseconds, the second packs x in bits 0-13,
  y in bits 14-27 and polarity in bits 28-31 (nonzero means positive).

Annotations use a line-delimited text format (one ``key=value`` record per
line) so golden files stay diffable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from os import PathLike
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadHeader,
    BadMagic,
    ParseError,
    TruncatedFile,
    VersionUnsupported,
)
from .event_core import EventStream, SensorGeometry

EVS_MAGIC = b"EVS1"
EVS_HEADER_SIZE = 20
EVS_RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("reserved", "u1")]
)
EVS_RECORD_SIZE = EVS_RECORD_DTYPE.itemsize  # 14 bytes

DAT_RECORD_SIZE = 8


@dataclass(frozen=True)
class RecordingHeader:
    """Metadata decoded from a container header."""

    geometry: SensorGeometry
    event_count: int
    format_version: int

    def __post_init__(self):
        if self.event_count < 0:
            raise ValueError("event_count must be non-negative")


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
        # The area bounds both an underflow to 0 (IoU would be 0/0) and an overflow.
        if self.w <= 0 or self.h <= 0 or not 0 < self.w * self.h < math.inf:
            raise ValueError(
                f"box size must be positive with a finite nonzero area, got {self.w}x{self.h}"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {self.score}")


# --- EVS container -------------------------------------------------------------


def encode_evs(stream: EventStream) -> bytes:
    records = np.empty(len(stream), dtype=EVS_RECORD_DTYPE)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = stream.p
    records["reserved"] = 0
    header = EVS_MAGIC + _pack_u32(stream.geometry.width) + _pack_u32(
        stream.geometry.height
    ) + _pack_u64(len(stream))
    return header + records.tobytes()


def evs_header(data: bytes) -> RecordingHeader:
    """Decode the fixed EVS header without touching the event body."""
    if len(data) < 4:
        raise TruncatedFile(f"need at least 4 bytes for magic, got {len(data)}")
    magic = bytes(data[:4])
    if magic != EVS_MAGIC:
        if magic[:3] == EVS_MAGIC[:3]:
            raise VersionUnsupported(f"unsupported EVS version byte {magic[3:4]!r}")
        raise BadMagic(f"expected {EVS_MAGIC!r}, got {magic!r}")
    if len(data) < EVS_HEADER_SIZE:
        raise TruncatedFile(f"EVS header is {EVS_HEADER_SIZE} bytes, got {len(data)}")
    width = int(np.frombuffer(data, "<u4", count=1, offset=4)[0])
    height = int(np.frombuffer(data, "<u4", count=1, offset=8)[0])
    count = int(np.frombuffer(data, "<u8", count=1, offset=12)[0])
    return RecordingHeader(_header_geometry(width, height), count, format_version=1)


def _header_geometry(width: int, height: int) -> SensorGeometry:
    """SensorGeometry from header fields; out-of-range sizes are a BadHeader."""
    try:
        return SensorGeometry(width, height)
    except ValueError as exc:
        raise BadHeader(str(exc)) from exc


def decode_evs(data: bytes) -> EventStream:
    header = evs_header(data)
    body = len(data) - EVS_HEADER_SIZE
    expected = header.event_count * EVS_RECORD_SIZE
    if body != expected:
        raise TruncatedFile(
            f"body is {body} bytes, header declares {header.event_count} "
            f"events ({expected} bytes)"
        )
    records = np.frombuffer(data, EVS_RECORD_DTYPE, offset=EVS_HEADER_SIZE)
    return EventStream(
        header.geometry, records["t"].astype(np.int64), records["x"],
        records["y"], records["p"],
    )


# --- DAT 2.0 reader ----------------------------------------------------------


def decode_dat(data: bytes, geometry: SensorGeometry | None = None) -> EventStream:
    """Decode a DAT 2.0 recording.

    Geometry is taken from ``% Width N`` / ``% Height N`` (or
    ``% geometry WxH``) header comments when present, else from the caller;
    a header that gives only one dimension is a BadHeader.
    Timestamps are 32-bit and are not unwrapped; the recordings this targets
    are far shorter than the ~71-minute wrap period.
    """
    pos = 0
    found: dict[str, int] = {}
    while pos < len(data) and data[pos : pos + 1] == b"%":
        end = data.find(b"\n", pos)
        if end < 0:
            raise TruncatedFile("unterminated '%' header line")
        _parse_dat_header_line(data[pos:end], found)
        pos = end + 1
    if len(data) - pos < 2:
        raise TruncatedFile("missing event_type/event_size bytes")
    event_size = data[pos + 1]
    pos += 2
    if event_size != DAT_RECORD_SIZE:
        raise BadHeader(f"event_size must be {DAT_RECORD_SIZE}, got {event_size}")
    body = len(data) - pos
    if body % DAT_RECORD_SIZE:
        raise TruncatedFile(f"body of {body} bytes is not a multiple of {DAT_RECORD_SIZE}")
    if found:
        geometry = _header_geometry(found.get("width", 0), found.get("height", 0))
    elif geometry is None:
        raise BadHeader("no geometry in header and none supplied")
    words = np.frombuffer(data, "<u4", offset=pos).reshape(-1, 2)
    t = words[:, 0].astype(np.int64)
    packed = words[:, 1]
    x = (packed & 0x3FFF).astype(np.uint16)
    y = ((packed >> 14) & 0x3FFF).astype(np.uint16)
    p = ((packed >> 28) != 0).astype(np.uint8)
    return EventStream(geometry, t, x, y, p)


def _parse_dat_header_line(line: bytes, found: dict[str, int]) -> None:
    m = re.match(rb"%\s*geometry\s*:?\s*(\d+)\s*x\s*(\d+)", line, re.IGNORECASE)
    if m:
        found["width"], found["height"] = int(m.group(1)), int(m.group(2))
        return
    m = re.match(rb"%\s*(width|height)\s*:?\s*(\d+)", line, re.IGNORECASE)
    if m:
        found[m.group(1).lower().decode()] = int(m.group(2))


# --- annotation text format -----------------------------------------------------

_ANN_KEYS = ("t", "x", "y", "w", "h", "class", "score", "track")


def format_box(box: AnnotatedBox) -> str:
    track = "-" if box.track_id is None else str(box.track_id)
    return (
        f"t={box.t} x={box.x!r} y={box.y!r} w={box.w!r} h={box.h!r} "
        f"class={box.class_id} score={box.score!r} track={track}"
    )


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


def read_lines(path: str | PathLike) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of an ASCII file."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(lineno, f"non-ASCII byte at column {exc.start + 1}") from exc
            if line:
                yield lineno, line


def parse_box(line: str, lineno: int = 0) -> AnnotatedBox:
    fields = parse_fields(line, lineno, _ANN_KEYS)
    try:
        track = None if fields["track"] == "-" else int(fields["track"])
        x, y, w, h, score = (float(fields[k]) for k in ("x", "y", "w", "h", "score"))
        return AnnotatedBox(
            t=int(fields["t"]), x=x, y=y, w=w, h=h,
            class_id=int(fields["class"]), score=score, track_id=track,
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


def _pack_u32(v: int) -> bytes:
    return int(v).to_bytes(4, "little")


def _pack_u64(v: int) -> bytes:
    return int(v).to_bytes(8, "little")

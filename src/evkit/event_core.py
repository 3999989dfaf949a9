"""Core event-stream types, validation, and fixed-window partitioning.

Timestamps are integer microseconds everywhere; no floating-point time is
used in core types, so a 60-second recording accumulates zero drift.
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadPolarity,
    NonMonotoneTimestamp,
    OutOfBounds,
    ZeroWindow,
)


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel dimensions of the sensor array."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.width}x{self.height}")
        # coordinates are stored as uint16
        if self.width > 65536 or self.height > 65536:
            raise ValueError(f"geometry {self.width}x{self.height} exceeds 65536")


@dataclass(frozen=True)
class Event:
    """One camera event: timestamp (us), pixel column/row, polarity (0 or 1)."""

    t: int
    x: int
    y: int
    p: int


@dataclass(frozen=True)
class TimeWindow:
    """Half-open time interval [t0, t1) in microseconds."""

    t0: int
    t1: int

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError(f"window end {self.t1} must exceed start {self.t0}")

    @property
    def length(self) -> int:
        return self.t1 - self.t0


class EventStream:
    """Validated, time-ordered event sequence bound to a sensor geometry.

    Events are stored as parallel numpy arrays (t: int64, x/y: uint16,
    p: uint8) marked read-only; operations on streams are pure functions.
    With `validate`, a column of a non-integer dtype is a ValueError.
    """

    __slots__ = ("geometry", "_t", "_x", "_y", "_p")

    def __init__(
        self,
        geometry: SensorGeometry,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        validate: bool = True,
    ):
        t, x, y, p = columns = [np.asarray(v) for v in (t, x, y, p)]
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise ValueError("event arrays must be 1-D and equal length")
        # The casts below would truncate or wrap a non-integer value unseen.
        if validate and any(v.dtype.kind not in "biu" for v in columns):
            raise ValueError("event columns t, x, y, p must be integer, got "
                             + ", ".join(v.dtype.name for v in columns))
        t = np.ascontiguousarray(t, dtype=np.int64)
        if validate:
            # Checked as given, before the storage casts can wrap a value into range.
            _check_invariants(t, *(v.view(v.dtype.str.replace("i", "u")) if v.dtype.kind == "i"
                                   else v for v in (x, y, p)), geometry)
        x = np.ascontiguousarray(x, dtype=np.uint16)
        y = np.ascontiguousarray(y, dtype=np.uint16)
        p = np.ascontiguousarray(p, dtype=np.uint8)
        for arr in (t, x, y, p):
            arr.flags.writeable = False
        self.geometry = geometry
        self._t, self._x, self._y, self._p = t, x, y, p

    @property
    def t(self) -> np.ndarray:
        return self._t

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def p(self) -> np.ndarray:
        return self._p

    def __len__(self) -> int:
        return self._t.shape[0]

    def __getitem__(self, i: int | slice) -> Event | EventStream:
        if isinstance(i, slice):
            # Only a reversing step can break the time order.
            return EventStream(self.geometry, self._t[i], self._x[i], self._y[i],
                               self._p[i], validate=(i.step or 1) < 0)
        return Event(int(self._t[i]), int(self._x[i]), int(self._y[i]), int(self._p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self._t, other._t)
            and np.array_equal(self._x, other._x)
            and np.array_equal(self._y, other._y)
            and np.array_equal(self._p, other._p)
        )

    def __repr__(self) -> str:
        return (
            f"EventStream({len(self)} events, "
            f"{self.geometry.width}x{self.geometry.height})"
        )


def _check_invariants(t, x, y, p, geometry: SensorGeometry, origin: int = 0,
                      offset: int = 0) -> None:
    """Raise the violation with the smallest event index, if any.

    Indices count from `offset`, and the first timestamp must not be below
    `origin`: a chunk of a recording passes the previous chunk's last
    timestamp, a whole stream the time origin 0, so a negative first
    timestamp is non-monotone.  x, y and p must be unsigned; `EventStream`
    views a signed column as the unsigned type of its width, so a negative
    value fails its upper bound at its index.
    """
    n = t.shape[0]
    if n == 0:
        return
    first = {}
    bad_t = np.flatnonzero(t[1:] < t[:-1])
    if t[0] < origin:
        first[NonMonotoneTimestamp] = 0
    elif bad_t.size:
        first[NonMonotoneTimestamp] = int(bad_t[0]) + 1
    bad_xy = np.flatnonzero((x >= geometry.width) | (y >= geometry.height))
    if bad_xy.size:
        first[OutOfBounds] = int(bad_xy[0])
    bad_p = np.flatnonzero(p > 1)
    if bad_p.size:
        first[BadPolarity] = int(bad_p[0])
    if first:
        err = min(first, key=first.get)
        raise err(offset + first[err])


def validate_stream(raw: Iterable[Event | tuple], geometry: SensorGeometry) -> EventStream:
    """Build a validated EventStream from a sequence of events.

    Accepts Event objects or (t, x, y, p) tuples.  Reports the first
    violating index via NonMonotoneTimestamp / OutOfBounds / BadPolarity.
    """
    rows = [(e.t, e.x, e.y, e.p) if isinstance(e, Event) else tuple(e) for e in raw]
    return EventStream(geometry, *np.asarray(rows, dtype=np.int64).reshape(len(rows), 4).T)


@dataclass(frozen=True)
class WindowSlice:
    """One partition window with the index range of the events it holds.

    `partial` flags a trailing window that the recording only partially
    covers (the stream's data extent ends before the window does);
    downstream code decides whether to keep or drop it.
    """

    window: TimeWindow
    start: int
    stop: int
    partial: bool


def window_count(first_t: int, last_t: int, t_frame: int, t_start: int = 0) -> int:
    """Number of t_frame windows from t_start through the one holding last_t.

    Raises ZeroWindow for a non-positive t_frame, and ValueError when t_start
    is after first_t or when a window edge, from t_start to the end of the
    last window, or t_frame itself does not fit in int64.  A last_t before
    t_start gives no windows.
    """
    if t_frame <= 0:
        raise ZeroWindow(f"t_frame must be positive, got {t_frame}")
    if t_start > first_t:
        raise ValueError(f"t_start {t_start} is after the first event at {first_t}")
    n = max((last_t - t_start) // t_frame + 1, 0)
    end = t_start + n * t_frame
    bounds = np.iinfo(np.int64)
    if t_start < bounds.min or max(end, t_frame) > bounds.max:
        raise ValueError(f"windows of {t_frame} us from {t_start} to {end} do not fit in int64")
    return n


def stream_windows(
    chunks: Iterable[EventStream], t_frame: int, first_t: int, last_t: int,
    t_start: int = 0,
) -> Iterator[tuple[WindowSlice, EventStream]]:
    """Partition a stream, given as consecutive chunks, into t_frame windows.

    `first_t` and `last_t` are the stream's first and last timestamps.  Each
    window of `window_count(first_t, last_t, t_frame, t_start)` is yielded with
    its events as soon as a later event, or the end of the stream, closes it;
    the pieces of the chunks it spans are joined once and released before the
    yield.  Events after the window holding last_t, which a monotone stream
    does not have, are never held.  Chunks must share one geometry, and a
    chunk starting before the previous one's last timestamp raises
    NonMonotoneTimestamp at its first event's index in the stream.
    """
    n_windows = window_count(first_t, last_t, t_frame, t_start)
    pieces: list[EventStream] = []
    k = seen = 0
    geometry = prev_t = None

    def close(stop: int) -> tuple[WindowSlice, EventStream]:
        nonlocal k
        t0 = t_start + k * t_frame
        # Data extent [t_start, last_t + 1) only partially covers the last
        # window unless it ends exactly on the window edge.
        partial = k == n_windows - 1 and last_t + 1 < t0 + t_frame
        # Each piece was checked with its chunk, and each chunk's first
        # timestamp and geometry against the chunk before, so the join is not.
        events = pieces[0] if len(pieces) == 1 else EventStream(
            geometry, *(np.concatenate([getattr(s, f) for s in pieces]) for f in "txyp"),
            validate=False)
        pieces.clear()
        k += 1
        return WindowSlice(TimeWindow(t0, t0 + t_frame), stop - len(events), stop, partial), events

    for chunk in chunks:
        if not len(chunk):
            continue
        t = chunk.t
        if geometry is None:
            geometry = chunk.geometry
        elif chunk.geometry != geometry:
            raise ValueError(f"chunk geometry {chunk.geometry} differs from {geometry}")
        elif t[0] < prev_t:
            raise NonMonotoneTimestamp(seen)
        prev_t = t[-1]
        # The window of the chunk's last event may go on in the next chunk;
        # every window before it is complete.
        last = min((int(t[-1]) - t_start) // t_frame, n_windows - 1)
        ends = np.searchsorted(t, t_start + t_frame * np.arange(k + 1, last + 2, dtype=np.int64))
        lo = 0
        for stop in ends[:-1].tolist():
            pieces.append(chunk[lo:stop])
            yield close(seen + stop)
            lo = stop
        if ends.size:
            pieces.append(chunk[lo:int(ends[-1])])
        seen += len(chunk)
    if k < n_windows:
        yield close(seen)


def partition_windows(
    stream: EventStream, t_frame: int, t_start: int = 0
) -> list[WindowSlice]:
    """Partition a stream into consecutive windows of t_frame microseconds.

    Windows are [t_start + k*t_frame, t_start + (k+1)*t_frame); every event
    falls in exactly one window (half-open boundaries).  The window origin
    defaults to 0 rather than the first event so frame indices are stable
    across runs; pass t_start for recordings with offset clocks.
    """
    # An empty stream spans no time: a last_t before t_start gives it no windows.
    first_t, last_t = ((int(stream.t[0]), int(stream.t[-1])) if len(stream)
                       else (t_start, t_start - 1))
    return [w for w, _ in stream_windows([stream], t_frame, first_t, last_t, t_start)]


def slice_window(stream: EventStream, window: TimeWindow) -> EventStream:
    """Events with window.t0 <= t < window.t1, in original order.

    Binary search on the (sorted) timestamps: O(log n + k).
    """
    lo, hi = np.searchsorted(stream.t, [window.t0, window.t1], side="left")
    return stream[lo:hi]

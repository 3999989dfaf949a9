"""Core event-stream types, validation, and fixed-window partitioning.

Timestamps are integer microseconds everywhere; no floating-point time is
used in core types, so a 60-second recording accumulates zero drift.
All types are frozen dataclasses or named tuples, so no field can be
reassigned, and event columns are read-only; all are safe to share across
threads.

`stream_windows` is the one partitioner.  It cuts a stream, given as
consecutive chunks, into windows of equal time bins, and hands out each
bin's columns as soon as a later event closes the bin.  A bin inside one
chunk is a view of it.  Only a bin straddling a chunk edge is joined, from
copies, so no chunk is held while the next is read.  `partition_windows`,
`representation.stacked_histogram` and `convert` all read their windows
from it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, NamedTuple

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


@dataclass(frozen=True, eq=False, repr=False)
class EventStream:
    """Validated, time-ordered event sequence bound to a sensor geometry.

    Events are stored as parallel numpy arrays (t: int64, x/y: uint16,
    p: uint8) marked read-only; operations on streams are pure functions.
    With `validate`, a column of a non-integer dtype is a ValueError.  No
    field can be reassigned; `dataclasses.replace`, pickle and deepcopy revalidate.
    """

    geometry: SensorGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        t, x, y, p = columns = [np.asarray(v) for v in (self.t, self.x, self.y, self.p)]
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
                                   else v for v in (x, y, p)), self.geometry)
        x = np.ascontiguousarray(x, dtype=np.uint16)
        y = np.ascontiguousarray(y, dtype=np.uint16)
        p = np.ascontiguousarray(p, dtype=np.uint8)
        for name, arr in zip("txyp", (t, x, y, p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):  # pickle and deepcopy rebuild through __init__, which revalidates
        return EventStream, (self.geometry, self.t, self.x, self.y, self.p)

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: int | slice) -> Event | EventStream:
        if isinstance(i, slice):
            # Only a reversing step can break the time order.
            return EventStream(self.geometry, self.t[i], self.x[i], self.y[i],
                               self.p[i], validate=(i.step or 1) < 0)
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.geometry == other.geometry and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in "txyp")

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


class TimeBin(NamedTuple):
    """One time bin of a partitioned stream: bin `i` of window `k`, both counted
    from 0, with the polarity, row and column of its events in stream order.
    The columns are read-only.  `closed` is the window's `WindowSlice` on the
    last bin streamed for the window, and None on its other bins."""

    k: int
    i: int
    p: np.ndarray
    y: np.ndarray
    x: np.ndarray
    closed: WindowSlice | None


def stream_windows(
    chunks: Iterable[EventStream], t_frame: int, t_start: int = 0, n_bins: int = 1,
) -> Iterator[TimeBin]:
    """Partition a stream, given as consecutive chunks, into t_frame windows of
    n_bins equal time bins.

    Windows run from t_start through the one holding the stream's last event,
    as `window_count` counts them from the first and last timestamps seen, and
    their bins run through the one holding that event: the last window's
    trailing bins are not streamed.  Each bin is yielded as soon as a later
    event, or the end of the stream, closes it.  A bin inside one chunk views
    that chunk's columns.  The part of a bin that reaches a chunk's end is
    copied, and joined with the rest of the bin when it closes, so the stream
    holds no chunk while the next is read.  A window closed by a later event
    is covered, so only the last window can be partial.  The window-count
    checks (t_start after the first event, window edges beyond int64) run as
    each chunk arrives, so a later chunk can raise after earlier bins were
    yielded.  An empty stream has no bins.  Chunks must share one geometry,
    and a chunk starting before the previous one's last timestamp raises
    NonMonotoneTimestamp at its first event's index in the stream.
    """
    if n_bins < 1 or t_frame % n_bins:
        raise ValueError(f"{n_bins} bins do not divide a {t_frame} us window")
    t_bin = t_frame // n_bins
    held: list[tuple[np.ndarray, ...]] = []  # copies of the open bin's earlier pieces
    b = seen = start = 0  # the open bin, from t_start; events before the chunk and the window
    geometry = first_t = last_t = None

    def close(piece: tuple[np.ndarray, ...], stop: int, partial: bool = False) -> TimeBin:
        nonlocal b, start
        if held:
            held.append(piece)
            piece = tuple(_read_only(np.concatenate(column)) for column in zip(*held))
            held.clear()
        k, i = divmod(b, n_bins)
        b += 1
        closed = None
        if i == n_bins - 1 or partial:  # a partial window is closed early, by the end
            t0 = t_start + k * t_frame
            closed = WindowSlice(TimeWindow(t0, t0 + t_frame), start, stop, bool(partial))
            start = stop
        return TimeBin(k, i, *piece, closed)

    for chunk in chunks:
        if not len(chunk):
            continue
        t = chunk.t
        if geometry is None:
            geometry, first_t = chunk.geometry, int(t[0])
        elif chunk.geometry != geometry:
            raise ValueError(f"chunk geometry {chunk.geometry} differs from {geometry}")
        elif t[0] < last_t:
            raise NonMonotoneTimestamp(seen)
        last_t = int(t[-1])
        window_count(first_t, last_t, t_frame, t_start)  # its checks only
        # The bin of the chunk's last event may go on in the next chunk; every
        # bin before it is closed.  Those before the bin of the chunk's first
        # event hold none of the chunk.  The edges after it are offsets from
        # that event's bin, and timestamps are not negative, so none passes int64.
        first = max(b, (int(t[0]) - t_start) // t_bin)
        while b < first:
            yield close((chunk.p[:0], chunk.y[:0], chunk.x[:0]), seen)
        last = (last_t - t_start) // t_bin
        edges = t_start + (first + 1) * t_bin + t_bin * np.arange(last - first)
        lo = 0
        for stop in np.searchsorted(t, edges).tolist():
            yield close((chunk.p[lo:stop], chunk.y[lo:stop], chunk.x[lo:stop]), seen + stop)
            lo = stop
        held.append(tuple(_read_only(c[lo:].copy()) for c in (chunk.p, chunk.y, chunk.x)))
        seen += len(chunk)
        del chunk, t  # released before the next chunk is read
    if last_t is not None:
        # Data extent [t_start, last_t + 1) only partially covers the last
        # window unless it ends exactly on the window edge.
        window_end = t_start + (b // n_bins + 1) * t_frame
        yield close(held.pop(), seen, last_t + 1 < window_end)


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def partition_windows(
    stream: EventStream, t_frame: int, t_start: int = 0
) -> list[WindowSlice]:
    """Partition a stream into consecutive windows of t_frame microseconds.

    Windows are [t_start + k*t_frame, t_start + (k+1)*t_frame); every event
    falls in exactly one window (half-open boundaries).  The window origin
    defaults to 0 rather than the first event so frame indices are stable
    across runs; pass t_start for recordings with offset clocks.
    """
    return [b.closed for b in stream_windows([stream], t_frame, t_start)]


def slice_window(stream: EventStream, window: TimeWindow) -> EventStream:
    """Events with window.t0 <= t < window.t1, in original order.

    Binary search on the (sorted) timestamps: O(log n + k).
    """
    lo, hi = np.searchsorted(stream.t, [window.t0, window.t1], side="left")
    return stream[lo:hi]

"""Dense image-like tensors built from event windows.

The primary representation is the stacked 2D histogram: a window of
t_frame microseconds is split into B equal sub-bins and events are counted
per (polarity, bin, y, x), then the polarity and bin axes are flattened to
channels c = p*B + i (polarity-major, matching a row-major flatten of
(2, B, H, W)).  A plain 2D histogram is the B=1 case.

Counts are 16-bit unsigned with saturating accumulation; 50 ms windows can
exceed 255 events per pixel on fast motion, so 8-bit output is an explicit
clip_limit export choice rather than the default.

A `BinCounter` is set up once per geometry and recipe: it checks the
arguments and, at factor > 1, builds the term tables below.  It then counts
one time bin's (p, y, x) columns, as `event_core.stream_windows` hands them
out, into that bin's two channels of the downscaled, padded frame.
`convert`, `save_stacked_histogram` and `stacked_histogram` all count their
bins with it.

At factor 1 a bin's events are counted per occupied cell with one sort, the
counts are clipped and put straight into the bin's two channels of the
padded uint16 (2B, Hp, Wp) layout, so padding is only the output's row
stride.  Those cell ids are 32-bit unless the id space exceeds 2**32.

At factor > 1 each bin is counted at output resolution.
`geometry.source_taps` gives every source row and column the output terms
it feeds: a term is an output pixel together with the class of one tap
weight.  One integer bincount of each event's (p, y term, x term) ids then
counts the bin.  A term's count bounds the count of every cell it reads, so
the per-cell cap needs only the cells of terms over it: those events are
sorted, and each cell's excess is taken off every term it feeds.  The counts
stay integers to the end.  With integer class weights k/256, an output is
the integer sum of count x k over its terms, divided by 256.  That integer
rounds once to float32 and a power-of-two scale is exact, which gives the
value that `geometry.downscale` rounds once from float64.  So the file
matches `downscale` then `pad_to_multiple` byte for byte.

A window's EVF file is made as its header plus `ftruncate` to the full size;
an existing file is replaced, not truncated in place.  Each bin's channels
are then written with `os.pwrite` at their offsets, and a channel with no
events is never written: it stays a hole, which reads as zeros.  So no whole
frame is held, and memory is one bin's counting per writer.

`create_evf` makes such a file for any frame, and `write_evf_rows` writes
a run of rows of every channel into it; `augment` writes its outputs so.
`read_evf_header` and `read_evf_bands` read a file back a band of rows at a
time, with `read_evf`'s checks.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (BadHeader, BadMagic, EventOutsideWindow, NonFiniteValue, NotDivisible,
                     TruncatedFile)
from .event_core import EventStream, SensorGeometry, TimeWindow, stream_windows

EVF_MAGIC = b"EVF1"
EVF_HEADER_DTYPE = np.dtype([("magic", "S4"), ("code", "u1"), ("pad", "u1"), ("c", "<u2"),
                             ("height", "<u4"), ("width", "<u4")])
EVF_HEADER_SIZE = EVF_HEADER_DTYPE.itemsize  # 16 bytes
EVF_MAX_CHANNELS = np.iinfo(EVF_HEADER_DTYPE["c"]).max  # 65535
_EVF_DTYPES = {1: np.dtype("<u2"), 2: np.dtype("<f4")}
_EVF_CODES = {np.dtype(np.uint16): 1, np.dtype(np.float32): 2}

COUNT_MAX = np.iinfo(np.uint16).max


@dataclass(frozen=True, eq=False)
class FrameTensor:
    """Dense (C, H, W) row-major tensor for one time window.

    Histograms hold unsigned counts (uint16); downscaled and augmented
    frames hold float32 values.  Two frames are equal when their values
    and dtypes are.
    """

    values: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameTensor):
            return NotImplemented
        return (self.values.dtype == other.values.dtype
                and np.array_equal(self.values, other.values))

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"expected (C,H,W), got shape {self.values.shape}")
        self.values.flags.writeable = False

    def __reduce__(self):  # rebuilt through __init__, so the copy is read-only too
        return FrameTensor, (self.values,)

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class StackedHistogramConfig:
    """Window length, sub-bin count, and optional per-cell count cap."""

    t_frame: int = 50_000
    n_bins: int = 10
    clip_limit: int | None = None

    def __post_init__(self):
        if self.t_frame <= 0 or self.n_bins <= 0:
            raise ValueError("t_frame and n_bins must be positive")
        if self.t_frame % self.n_bins:
            raise ValueError(
                f"t_frame {self.t_frame} must be divisible by n_bins {self.n_bins}"
            )
        if self.clip_limit is not None and not 1 <= self.clip_limit <= COUNT_MAX:
            raise ValueError(f"clip_limit must be in [1, {COUNT_MAX}]")

    @property
    def t_bin(self) -> int:
        return self.t_frame // self.n_bins


def stacked_histogram(
    stream: EventStream, window: TimeWindow, cfg: StackedHistogramConfig
) -> FrameTensor:
    """Count events per (polarity, time bin, y, x) and flatten to (2B, H, W).

    Channel c = p*B + i.  Single pass over the events; with clip_limit unset
    the total count equals the number of events (saturation at 65535 aside).
    """
    counter = BinCounter(stream.geometry, cfg)
    _check_window(stream, window, cfg)
    values = np.zeros((2, cfg.n_bins, *counter.shape), dtype=np.uint16)
    out = counter.buffer()
    for b in stream_windows([stream], cfg.t_frame, window.t0, cfg.n_bins):
        if len(b.p):
            values[:, b.i] = counter.count(b.p, b.y, b.x, out)
    return FrameTensor(values.reshape(2 * cfg.n_bins, *counter.shape))


def save_stacked_histogram(
    path: str | Path,
    stream: EventStream,
    window: TimeWindow,
    cfg: StackedHistogramConfig,
    *,
    factor: int,
    method: str,
    pad_multiple: int,
) -> None:
    """Write a window's downscaled, padded frame to `path` as EVF.

    The bytes are those of `write_evf` of `pad_to_multiple(downscale(
    stacked_histogram(stream, window, cfg), factor, method), pad_multiple)`,
    with no `downscale` at factor 1, where the frame stays uint16.  The file
    is made as `BinCounter.create` makes it, and each time bin is counted and
    written with `BinCounter.write`, so no whole frame is held.  The
    arguments are checked before the file is created.
    """
    counter = BinCounter(stream.geometry, cfg, factor=factor, method=method,
                         pad_multiple=pad_multiple)
    _check_window(stream, window, cfg)
    fd = counter.create(path)
    try:
        out = counter.buffer()
        for b in stream_windows([stream], cfg.t_frame, window.t0, cfg.n_bins):
            counter.write(fd, b.i, b.p, b.y, b.x, out)
    finally:
        os.close(fd)


def _check_window(stream: EventStream, window: TimeWindow, cfg: StackedHistogramConfig) -> None:
    """Raise unless `window` is t_frame long and holds every event of `stream`."""
    if window.length != cfg.t_frame:
        raise ValueError(
            f"window length {window.length} does not match t_frame {cfg.t_frame}"
        )
    t = stream.t
    if len(stream) and (t[0] < window.t0 or t[-1] >= window.t1):
        bad = int(t[0]) if t[0] < window.t0 else int(t[-1])
        raise EventOutsideWindow(f"event at t={bad} outside [{window.t0}, {window.t1})")


def _frame_dtype(factor: int) -> np.dtype:
    """uint16 counts at factor 1, float32 resampled values otherwise."""
    return np.dtype(np.uint16 if factor == 1 else np.float32)


class BinCounter:
    """Counts time bins into a frame's channels, and writes them to EVF files.

    It is set up once per geometry, histogram config and resampling recipe:
    the arguments are checked, and at factor > 1 the term tables are built.
    `count` then turns one time bin's events into that bin's two channels of
    the downscaled, padded frame: channel i (p = 0) and B + i (p = 1), as
    uint16 counts at factor 1 and float32 values otherwise.  A counter holds
    no per-bin state, so threads may share it; each passes its own `out`
    buffer, from `buffer`.
    """

    def __init__(self, geometry: SensorGeometry, cfg: StackedHistogramConfig, *,
                 factor: int = 1, method: str = "bilinear", pad_multiple: int = 1):
        from .geometry import EVEN_FACTOR_TAPS, source_taps  # geometry imports this module

        if pad_multiple < 1:
            raise ValueError(f"pad_multiple must be >= 1, got {pad_multiple}")
        height, width = geometry.height, geometry.width
        if factor != 1:  # source_taps also rejects factor < 1 and NotDivisible sizes
            (y_terms, y_weights), (x_terms, x_weights) = (
                source_taps(height, factor, method), source_taps(width, factor, method))
        elif method not in EVEN_FACTOR_TAPS:
            raise ValueError(f"unknown method {method!r}")
        self.cfg = cfg
        self.shape = out_h, out_w = (_padded(height, factor, pad_multiple),
                                     _padded(width, factor, pad_multiple))
        self.dtype = _frame_dtype(factor)
        self.size = evf_frame_size(geometry, cfg, factor=factor, pad_multiple=pad_multiple)
        self._cap = COUNT_MAX if cfg.clip_limit is None else cfg.clip_limit
        self._resampled = factor != 1
        if factor == 1:
            # u32 ids sort ~3x faster than int64.
            self._id_type = np.uint32 if 2 * out_h * out_w <= 2**32 else np.int64
            return
        # Term space (p, y term, x term), plus one row and one column that
        # collect the unused slots and are never read.  The row table is
        # indexed by p * height + y, so an event's ids are one gather per axis
        # and one add.
        self._source = height, width
        self._rows, self._cols = rows, cols = out_h * len(y_weights) + 1, out_w * len(x_weights) + 1
        row = np.where(y_terms < 0, rows - 1, y_terms) * cols
        self._row = np.concatenate([row, row + rows * cols])
        self._col = np.where(x_terms < 0, cols - 1, x_terms)
        # Each class weight is k/256 for an integer k (the taps are k/16 per
        # axis).  With g the largest power of two dividing every k, a bin's
        # terms are summed as integers S = sum(count * k/g), and S rounds once
        # to float32.  The scale g/256 is a power of two, so S * g/256 is then
        # exact: the value that `downscale` rounds once from float64.
        k = (np.multiply.outer(y_weights, x_weights) * 256).astype(np.int64)
        g = int(np.gcd.reduce(k.ravel()))
        g &= -g
        self._units, self._scale = k // g, g / 256

    def buffer(self) -> np.ndarray:
        """A (2, height, width) buffer for `count`'s channels."""
        return np.empty((2, *self.shape), dtype=self.dtype)

    def count(self, p: np.ndarray, y: np.ndarray, x: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """Count one time bin's events into `out`, a buffer from `buffer`, and return it."""
        if self._resampled:
            return self._resample(p, y, x, out)
        # Factor 1: one sort counts the bin's events per cell, clipped at the cap.
        out_h, out_w = self.shape
        cells, counts = np.unique((p.astype(self._id_type) * out_h + y) * out_w + x,
                                  return_counts=True)
        np.minimum(counts, self._cap, out=counts)
        flat = out.reshape(-1)
        flat.fill(0)
        flat[cells] = counts
        return out

    def _resample(self, p: np.ndarray, y: np.ndarray, x: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
        """Factor > 1: one integer bincount of the bin's term ids, then the cap."""
        (height, width), cap = self._source, self._cap
        rows, cols = self._rows, self._cols
        ids = (np.take(self._row, np.multiply(p, height, dtype=np.uint32) + y, axis=0)[:, :, None]
               + np.take(self._col, x, axis=0)[:, None, :])
        counts = np.bincount(ids.ravel(), minlength=2 * rows * cols)
        grid = counts.reshape(2, rows, cols)
        grid[:, -1], grid[:, :, -1] = 0, 0
        # A term counts every event of each source cell it reads, so only a
        # term over the cap can read a cell over it, and no term counts more
        # than the bin has ids.
        if ids.size > cap and counts.max() > cap:
            hot = np.flatnonzero((counts[ids] > cap).any(axis=(1, 2)))
            _clip_cells(counts, ids[hot],
                        (p[hot].astype(np.int64) * height + y[hot]) * width + x[hot], cap)
        (out_h, out_w), (ny, nx) = self.shape, self._units.shape
        by_class = grid[:, :-1, :-1].reshape(2, out_h, ny, out_w, nx)
        acc = by_class[:, :, 0, :, 0]
        for (a, b), unit in np.ndenumerate(self._units):
            plane = by_class[:, :, a, :, b]
            if unit != 1:
                plane *= unit
            if a or b:
                acc += plane
        return np.multiply(acc, self._scale, out=out, dtype=np.float32)

    def create(self, path: str | Path) -> int:
        """Make `path` this frame's EVF file with `create_evf`, and return its descriptor."""
        return create_evf(path, self.dtype, (2 * self.cfg.n_bins, *self.shape))

    def write(self, fd: int, i: int, p: np.ndarray, y: np.ndarray, x: np.ndarray,
              out: np.ndarray) -> None:
        """Count time bin i's events into `out` and write its channels into the
        file `create` made, at their offsets; a channel with no events is left
        as the file has it, zero."""
        n = len(p)
        if not n:
            return
        ones = int(np.count_nonzero(p))
        channels = self.count(p, y, x, out)
        plane = channels[0].nbytes
        for polarity, events in ((0, n - ones), (1, ones)):
            if events:
                offset = EVF_HEADER_SIZE + (polarity * self.cfg.n_bins + i) * plane
                _pwrite(fd, channels[polarity].astype(self.dtype.newbyteorder("<"), copy=False),
                        offset)


def create_evf(path: str | Path, dtype: np.dtype, shape: tuple[int, int, int]) -> int:
    """Make `path` the EVF file of an all-zero (C, H, W) frame of this dtype,
    opened for writing, and return its descriptor.

    An existing regular file is removed first, which costs less than
    truncating its blocks.  The header is written and the file is extended
    to its full size with `ftruncate`, so the body is a hole until values
    are written into it.
    """
    header, body_dtype = _evf_header(dtype, shape)
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _pwrite(fd, header, 0)
        os.ftruncate(fd, EVF_HEADER_SIZE + math.prod(shape) * body_dtype.itemsize)
    except BaseException:
        os.close(fd)
        raise
    return fd


def write_evf_rows(fd: int, rows: np.ndarray, top: int, height: int) -> None:
    """Write a (C, n, W) array as rows [top, top + n) of every channel of the
    `height`-row frame in the EVF file that `create_evf` made."""
    c, _, width = rows.shape
    rows = rows.astype(rows.dtype.newbyteorder("<"), copy=False)
    for channel in range(c):
        _pwrite(fd, rows[channel],
                EVF_HEADER_SIZE + (channel * height + top) * width * rows.itemsize)


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of `data` at `offset`, whatever a single `os.pwrite` takes."""
    view = memoryview(data).cast("B")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _clip_cells(counts: np.ndarray, ids: np.ndarray, cells: np.ndarray, cap: int) -> None:
    """Clip source cells at `cap` in a bin's term counts: event i lies in
    cell `cells[i]` and feeds terms `ids[i]`, and each cell's count above
    `cap` is taken off every term it feeds."""
    _, first, n = np.unique(cells, return_index=True, return_counts=True)
    over = n > cap
    np.subtract.at(counts, ids[first[over]], (n[over] - cap)[:, None, None])


def _padded(n: int, factor: int, pad_multiple: int) -> int:
    """Length of an n-cell axis downscaled by `factor` and padded to `pad_multiple`."""
    if n % factor:
        raise NotDivisible(f"size {n} not divisible by {factor}")
    n //= factor
    return n + -n % pad_multiple


def evf_frame_size(geometry: SensorGeometry, cfg: StackedHistogramConfig, *,
                   factor: int = 1, pad_multiple: int = 1) -> int:
    """Bytes of the EVF file that `save_stacked_histogram` writes with these arguments."""
    height, width = (_padded(n, factor, pad_multiple) for n in (geometry.height, geometry.width))
    return EVF_HEADER_SIZE + 2 * cfg.n_bins * height * width * _frame_dtype(factor).itemsize


def histogram2d(stream: EventStream, window: TimeWindow) -> FrameTensor:
    """Per-polarity event counts over the whole window: a (2, H, W) frame."""
    cfg = StackedHistogramConfig(t_frame=window.length, n_bins=1)
    return stacked_histogram(stream, window, cfg)


def sum_over_bins(frame: FrameTensor, n_bins: int) -> FrameTensor:
    """Collapse a stacked histogram's bin axis, recovering the 2-channel histogram."""
    c, height, width = frame.shape
    if c % n_bins:
        raise ValueError(f"{c} channels do not split into {n_bins} bins")
    stacked = frame.values.reshape(c // n_bins, n_bins, height, width)
    summed = stacked.astype(np.int64).sum(axis=1)
    return FrameTensor(np.minimum(summed, COUNT_MAX).astype(np.uint16))


# --- EVF tensor container -------------------------------------------------------


def _evf_header(dtype: np.dtype, shape: tuple[int, int, int]) -> tuple[bytes, np.dtype]:
    """The EVF header of a (C, H, W) frame of this dtype, and the dtype of its body."""
    code = _EVF_CODES.get(dtype)
    if code is None:
        raise ValueError(f"EVF stores uint16 or float32, not {dtype}")
    c, height, width = shape
    # NumPy before 2.0 would wrap an out-of-range C with only a warning.
    if c > EVF_MAX_CHANNELS:
        raise ValueError(f"EVF holds at most {EVF_MAX_CHANNELS} channels, got {c}")
    header = np.array((EVF_MAGIC, code, 0, c, height, width), dtype=EVF_HEADER_DTYPE)
    return header.tobytes(), _EVF_DTYPES[code]


def _evf_parts(frame: FrameTensor) -> tuple[bytes, np.ndarray]:
    """The EVF header and the values in file order."""
    header, body_dtype = _evf_header(frame.values.dtype, frame.shape)
    return header, np.ascontiguousarray(frame.values, dtype=body_dtype)


def write_evf(frame: FrameTensor) -> bytes:
    """Serialize to the flat little-endian EVF container (bit-exact)."""
    header, values = _evf_parts(frame)
    return b"".join((header, values.data))  # one copy of the values


def save_evf(path: str | Path, frame: FrameTensor) -> None:
    """Write `write_evf(frame)` to `path` from the frame's own buffer, with no copy."""
    header, values = _evf_parts(frame)
    with open(path, "wb") as f:
        f.write(header)
        f.write(values.data)


def read_evf(data: bytes) -> FrameTensor:
    """Parse an EVF container.  The frame views `data` where the host byte order
    allows, so it is not copied; a float body must hold only finite values."""
    dtype, shape = _evf_layout(data[:EVF_HEADER_SIZE], len(data))
    values = np.frombuffer(data, dtype, offset=EVF_HEADER_SIZE).reshape(shape)
    values = values.astype(dtype.newbyteorder("="), copy=False)
    check_finite(values)
    return FrameTensor(values)


def read_evf_header(f) -> tuple[np.dtype, tuple[int, int, int]]:
    """The body dtype and (C, H, W) shape of the EVF file open as `f`, checked
    as `read_evf` checks them, from its header and its size alone."""
    fd = f.fileno()
    return _evf_layout(os.pread(fd, EVF_HEADER_SIZE, 0), os.fstat(fd).st_size)


def read_evf_bands(f, dtype: np.dtype, shape: tuple[int, int, int],
                   rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """Read the body of the EVF file open as `f` (of the dtype and shape that
    `read_evf_header` gave) `rows` rows of every channel at a time.

    Yields (top, band) for each band, a (C, n, W) array of rows [top, top + n)
    read with one `pread` per channel into one reused buffer.  A float body
    must hold only finite values: once every band is read, NonFiniteValue
    names the first non-finite value by flat (C, H, W) index, as `read_evf`
    does.
    """
    c, height, width = shape
    fd, buffer = f.fileno(), np.empty((c, min(rows, height), width), dtype)
    first = None  # the smallest flat index of a non-finite value yet, and that value
    for top in range(0, height, rows):
        band = buffer[:, : min(rows, height - top)]
        for channel in range(c):
            _pread(fd, band[channel], EVF_HEADER_SIZE + (channel * height + top) * width
                   * dtype.itemsize)
        if dtype.kind == "f" and not np.isfinite(band).all():
            # The band's first in channel-major order has its smallest flat index.
            channel, at = divmod(int(np.argmin(np.isfinite(band))), band[0].size)
            index = (channel * height + top) * width + at
            if first is None or index < first[0]:
                first = index, band[channel].flat[at]
        yield top, band
    if first is not None:
        raise NonFiniteValue(first[0], f"value {first[1]} is not finite")


def _pread(fd: int, data: np.ndarray, offset: int) -> None:
    """Fill `data` from `offset`, whatever a single `os.preadv` takes."""
    view = memoryview(data).cast("B")
    while view:
        n = os.preadv(fd, [view], offset)
        if not n:
            raise TruncatedFile(f"file ends at byte {offset}")
        view, offset = view[n:], offset + n


def _evf_layout(head: bytes, size: int) -> tuple[np.dtype, tuple[int, int, int]]:
    """The body dtype and (C, H, W) shape of an EVF container of `size` bytes
    whose first bytes are `head`; raises unless the header and size are valid."""
    if size < 4 or bytes(head[:4]) != EVF_MAGIC:
        raise BadMagic(f"expected {EVF_MAGIC!r}")
    if size < EVF_HEADER_SIZE:
        raise TruncatedFile(f"EVF header is {EVF_HEADER_SIZE} bytes, got {size}")
    # Python ints, so the size arithmetic below cannot wrap.
    _, code, pad, c, height, width = np.frombuffer(head, EVF_HEADER_DTYPE, 1)[0].tolist()
    if code not in _EVF_DTYPES:
        raise BadHeader(f"unknown dtype code {code}")
    if pad != 0:
        raise BadHeader(f"pad byte is {pad}, expected 0")
    if 0 in (c, height, width):
        raise BadHeader(f"frame shape ({c}, {height}, {width}) has a zero dimension")
    dtype = _EVF_DTYPES[code]
    expected = c * height * width * dtype.itemsize
    body = size - EVF_HEADER_SIZE
    if body != expected:
        raise TruncatedFile(f"body is {body} bytes, expected {expected}")
    return dtype, (c, height, width)


def check_finite(values: np.ndarray) -> None:
    """Raise NonFiniteValue at the first NaN or inf of a float array, by flat
    index; integer arrays pass unchecked."""
    if values.dtype.kind == "f":
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteValue(first, f"value {values.flat[first]} is not finite")

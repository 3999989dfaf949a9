"""Dense image-like tensors built from event windows.

The primary representation is the stacked 2D histogram: a window of
t_frame microseconds is split into B equal sub-bins and events are counted
per (polarity, bin, y, x), then the polarity and bin axes are flattened to
channels c = p*B + i (polarity-major, matching a row-major flatten of
(2, B, H, W)).  A plain 2D histogram is the B=1 case.

Counts are 16-bit unsigned with saturating accumulation; 50 ms windows can
exceed 255 events per pixel on fast motion, so 8-bit output is an explicit
clip_limit export choice rather than the default.

`save_stacked_histogram` builds and writes a window's downscaled, padded
frame, one time bin at a time: it counts each bin's events per occupied cell
with one sort and clips the counts.  At factor 1 the clipped counts go
straight into the bin's two channels of the padded uint16 (2B, Hp, Wp)
layout, so padding is only the output's row stride.  At factor > 1 each
occupied full-resolution cell scatters count x tap weights into the bin's
two channels of the downscaled, padded layout with one weighted bincount,
and the sums are cast to float32 once.  Every term is a count of at most
65535 times k/16 per axis, so float64 sums them exactly in any order and
the file matches `geometry.downscale` then `pad_to_multiple` byte for byte.
Each bin's channels are written at their file offsets and dropped, so no
whole frame is held.  `stacked_histogram` builds the full-resolution uint16
frame from the same bins.  Cell ids are 32-bit unless the id space exceeds
2**32.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadHeader, BadMagic, EventOutsideWindow, NonFiniteValue, TruncatedFile
from .event_core import EventStream, SensorGeometry, TimeWindow

EVF_MAGIC = b"EVF1"
EVF_HEADER_SIZE = 16
_EVF_DTYPES = {1: np.dtype("<u2"), 2: np.dtype("<f4")}
_EVF_CODES = {np.dtype(np.uint16): 1, np.dtype(np.float32): 2}

COUNT_MAX = np.iinfo(np.uint16).max


@dataclass(frozen=True)
class FrameTensor:
    """Dense (C, H, W) row-major tensor for one time window.

    Histograms hold unsigned counts (uint16); downscaled and augmented
    frames hold float32 values.
    """

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"expected (C,H,W), got shape {self.values.shape}")
        self.values.flags.writeable = False

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
    (height, width), bins = _bin_channels(stream, window, cfg, 1, "bilinear", 1)
    values = np.empty((2, cfg.n_bins, height, width), dtype=np.uint16)
    for i, channels in enumerate(bins):
        values[:, i] = channels
    return FrameTensor(values.reshape(2 * cfg.n_bins, height, width))


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
    with no `downscale` at factor 1, where the frame stays uint16.  The
    header goes first; each time bin's two channels are then built, written
    at their own offsets and dropped, so no whole frame is held.  The
    arguments are checked before the file is created.
    """
    (out_h, out_w), bins = _bin_channels(stream, window, cfg, factor, method, pad_multiple)
    header, body_dtype = _evf_header(_frame_dtype(factor), (2 * cfg.n_bins, out_h, out_w))
    plane = out_h * out_w * body_dtype.itemsize
    with open(path, "wb") as f:
        f.write(header)
        # Not enumerate(bins): its result tuple keeps a bin alive while the next is counted.
        for i in range(cfg.n_bins):
            channels = next(bins)
            for p in (0, 1):
                f.seek(EVF_HEADER_SIZE + (p * cfg.n_bins + i) * plane)
                f.write(channels[p].astype(body_dtype, copy=False).data)
            del channels


def _frame_dtype(factor: int) -> np.dtype:
    """uint16 counts at factor 1, float32 resampled values otherwise."""
    return np.dtype(np.uint16 if factor == 1 else np.float32)


def _bin_channels(stream: EventStream, window: TimeWindow, cfg: StackedHistogramConfig,
                  factor: int, method: str, pad_multiple: int):
    """Check the arguments, then return the padded frame's (height, width) and
    an iterator over its time bins.  Bin i yields its (2, height, width)
    channels i (p = 0) and B + i (p = 1): uint16 counts at factor 1, float64
    sums otherwise, which the caller casts to float32."""
    from .geometry import EVEN_FACTOR_TAPS, source_taps  # geometry imports this module

    if window.length != cfg.t_frame:
        raise ValueError(
            f"window length {window.length} does not match t_frame {cfg.t_frame}"
        )
    if pad_multiple < 1:
        raise ValueError(f"pad_multiple must be >= 1, got {pad_multiple}")
    t = stream.t
    if len(stream) and (t[0] < window.t0 or t[-1] >= window.t1):
        bad = int(t[0]) if t[0] < window.t0 else int(t[-1])
        raise EventOutsideWindow(f"event at t={bad} outside [{window.t0}, {window.t1})")
    height, width = stream.geometry.height, stream.geometry.width
    if factor != 1:  # source_taps also rejects factor < 1 and NotDivisible sizes
        (y_index, y_weight), (x_index, x_weight) = (
            source_taps(height, factor, method), source_taps(width, factor, method))
    elif method not in EVEN_FACTOR_TAPS:
        raise ValueError(f"unknown method {method!r}")
    out_h, out_w = _padded(height, factor, pad_multiple), _padded(width, factor, pad_multiple)
    # Cells are counted in the padded layout at factor 1, at full resolution otherwise.
    id_h, id_w = (out_h, out_w) if factor == 1 else (height, width)
    id_type = np.uint32 if 2 * id_h * id_w <= 2**32 else np.int64  # u32 sorts ~3x faster
    cap = COUNT_MAX if cfg.clip_limit is None else cfg.clip_limit
    # A bin's events are one contiguous run of the sorted stream and its cells
    # are its own, so every temporary is a bin's size, not the window's.
    edges = np.searchsorted(t, window.t0 + cfg.t_bin * np.arange(cfg.n_bins + 1))

    def count(lo: int, hi: int) -> np.ndarray:
        cells, counts = np.unique(
            (stream.p[lo:hi].astype(id_type) * id_h + stream.y[lo:hi]) * id_w
            + stream.x[lo:hi], return_counts=True)
        np.minimum(counts, cap, out=counts)
        if factor == 1:
            channels = np.zeros(2 * out_h * out_w, dtype=np.uint16)
            channels[cells] = counts
            return channels.reshape(2, out_h, out_w)
        p, cells = np.divmod(cells, height * width)
        y, x = np.divmod(cells, width)
        # One (cell, y tap, x tap) term per table slot; unused slots add 0 to pixel 0.
        flat = ((p.astype(np.int64)[:, None, None] * out_h + y_index[y][:, :, None]) * out_w
                + x_index[x][:, None, :])
        weights = counts[:, None, None] * y_weight[y][:, :, None] * x_weight[x][:, None, :]
        return np.bincount(flat.ravel(), weights=weights.ravel(),
                           minlength=2 * out_h * out_w).reshape(2, out_h, out_w)

    # Each bin's temporaries are freed when `count` returns.
    return (out_h, out_w), (count(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def _padded(n: int, factor: int, pad_multiple: int) -> int:
    """Length of an n-cell axis downscaled by `factor` and padded to `pad_multiple`."""
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
    header = (
        EVF_MAGIC
        + bytes([code, 0])
        + int(c).to_bytes(2, "little")
        + int(height).to_bytes(4, "little")
        + int(width).to_bytes(4, "little")
    )
    return header, _EVF_DTYPES[code]


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
    if len(data) < 4 or bytes(data[:4]) != EVF_MAGIC:
        raise BadMagic(f"expected {EVF_MAGIC!r}")
    if len(data) < EVF_HEADER_SIZE:
        raise TruncatedFile(f"EVF header is {EVF_HEADER_SIZE} bytes, got {len(data)}")
    code = data[4]
    if code not in _EVF_DTYPES:
        raise BadHeader(f"unknown dtype code {code}")
    c = int.from_bytes(data[6:8], "little")
    height = int.from_bytes(data[8:12], "little")
    width = int.from_bytes(data[12:16], "little")
    if 0 in (c, height, width):
        raise BadHeader(f"frame shape ({c}, {height}, {width}) has a zero dimension")
    dtype = _EVF_DTYPES[code]
    expected = c * height * width * dtype.itemsize
    body = len(data) - EVF_HEADER_SIZE
    if body != expected:
        raise TruncatedFile(f"body is {body} bytes, expected {expected}")
    values = np.frombuffer(data, dtype, offset=EVF_HEADER_SIZE).reshape(c, height, width)
    values = values.astype(dtype.newbyteorder("="), copy=False)
    check_finite(values)
    return FrameTensor(values)


def check_finite(values: np.ndarray) -> None:
    """Raise NonFiniteValue at the first NaN or inf of a float array, by flat
    index; integer arrays pass unchecked."""
    if values.dtype.kind == "f":
        finite = np.isfinite(values)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteValue(first, f"value {values.flat[first]} is not finite")

"""Dense image-like tensors built from event windows.

The primary representation is the stacked 2D histogram: a window of
t_frame microseconds is split into B equal sub-bins and events are counted
per (polarity, bin, y, x), then the polarity and bin axes are flattened to
channels c = p*B + i (polarity-major, matching a row-major flatten of
(2, B, H, W)).  A plain 2D histogram is the B=1 case; a time surface encodes
per-pixel recency of the last event instead of counts.

Counts are 16-bit unsigned with saturating accumulation; 50 ms windows can
exceed 255 events per pixel on fast motion, so 8-bit output is an explicit
clip_limit export choice rather than the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadHeader, BadMagic, EventOutsideWindow, FutureEvent, TruncatedFile
from .event_core import EventStream, TimeWindow

EVF_MAGIC = b"EVF1"
EVF_HEADER_SIZE = 16
_EVF_DTYPES = {1: np.dtype("<u2"), 2: np.dtype("<f4")}
_EVF_CODES = {np.dtype(np.uint16): 1, np.dtype(np.float32): 2}

COUNT_MAX = np.iinfo(np.uint16).max


@dataclass(frozen=True)
class FrameTensor:
    """Dense (C, H, W) row-major tensor for one time window.

    Histogram variants hold unsigned counts (uint16); time surfaces and
    resampled frames hold float32 values.
    """

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"expected (C,H,W), got shape {self.values.shape}")
        self.values.flags.writeable = False

    @property
    def channels(self) -> int:
        return self.values.shape[0]

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
    if window.length != cfg.t_frame:
        raise ValueError(
            f"window length {window.length} does not match t_frame {cfg.t_frame}"
        )
    t = stream.t
    if len(stream) and (t[0] < window.t0 or t[-1] >= window.t1):
        bad = int(t[0]) if t[0] < window.t0 else int(t[-1])
        raise EventOutsideWindow(f"event at t={bad} outside [{window.t0}, {window.t1})")
    height, width = stream.geometry.height, stream.geometry.width
    bins = ((t - window.t0) // cfg.t_bin).astype(np.int64)
    channel = stream.p.astype(np.int64) * cfg.n_bins + bins
    flat = (channel * height + stream.y) * width + stream.x
    counts = _accumulate_counts(flat, 2 * cfg.n_bins * height * width, cfg.clip_limit)
    return FrameTensor(counts.reshape(2 * cfg.n_bins, height, width))


def histogram2d(stream: EventStream, window: TimeWindow) -> FrameTensor:
    """Per-polarity event counts over the whole window: a (2, H, W) frame."""
    cfg = StackedHistogramConfig(t_frame=window.length, n_bins=1)
    return stacked_histogram(stream, window, cfg)


def _accumulate_counts(flat: np.ndarray, n_cells: int, clip: int | None) -> np.ndarray:
    """Exact per-cell counts of flat indices, saturating at clip (or u16 max).

    Dense windows use one bincount; sparse ones (vs. the cell count) sort the
    few occupied cells instead, so the per-window cost never degenerates to a
    full-size int64 zero-fill for near-empty windows.
    """
    cap = COUNT_MAX if clip is None else clip
    if flat.size >= n_cells // 16:
        counts = np.bincount(flat, minlength=n_cells)
        return np.minimum(counts, cap, out=counts).astype(np.uint16)
    out = np.zeros(n_cells, dtype=np.uint16)
    cells, counts = np.unique(flat, return_counts=True)
    out[cells] = np.minimum(counts, cap)
    return out


def time_surface(
    stream: EventStream, t_ref: int, tau: int, mode: str = "linear"
) -> FrameTensor:
    """Per-pixel recency of the last event, as a (2, H, W) float32 in [0, 1].

    linear:      max(0, 1 - (t_ref - t_last)/tau)
    exponential: exp(-(t_ref - t_last)/tau)

    Pixels that never fired are 0.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if mode not in ("linear", "exponential"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(stream) and stream.t[-1] > t_ref:
        raise FutureEvent(f"event at t={int(stream.t[-1])} is after t_ref={t_ref}")
    height, width = stream.geometry.height, stream.geometry.width
    last = np.full((2, height, width), -1, dtype=np.int64)
    # Streams are time-ordered, so the most recent event per cell is the max.
    np.maximum.at(last, (stream.p.astype(np.intp), stream.y.astype(np.intp),
                         stream.x.astype(np.intp)), stream.t)
    fired = last >= 0
    elapsed = np.where(fired, t_ref - last, 0).astype(np.float64)
    if mode == "linear":
        values = np.maximum(0.0, 1.0 - elapsed / tau)
    else:
        values = np.exp(-elapsed / tau)
    values[~fired] = 0.0
    return FrameTensor(values.astype(np.float32))


def sum_over_bins(frame: FrameTensor, n_bins: int) -> FrameTensor:
    """Collapse a stacked histogram's bin axis, recovering the 2-channel histogram."""
    c, height, width = frame.shape
    if c % n_bins:
        raise ValueError(f"{c} channels do not split into {n_bins} bins")
    stacked = frame.values.reshape(c // n_bins, n_bins, height, width)
    summed = stacked.astype(np.int64).sum(axis=1)
    return FrameTensor(np.minimum(summed, COUNT_MAX).astype(np.uint16))


# --- EVF tensor container -------------------------------------------------------


def write_evf(frame: FrameTensor) -> bytes:
    """Serialize to the flat little-endian EVF container (bit-exact)."""
    code = _EVF_CODES.get(frame.values.dtype)
    if code is None:
        raise ValueError(f"EVF stores uint16 or float32, not {frame.values.dtype}")
    c, height, width = frame.shape
    header = (
        EVF_MAGIC
        + bytes([code, 0])
        + int(c).to_bytes(2, "little")
        + int(height).to_bytes(4, "little")
        + int(width).to_bytes(4, "little")
    )
    return header + np.ascontiguousarray(frame.values, dtype=_EVF_DTYPES[code]).tobytes()


def read_evf(data: bytes) -> FrameTensor:
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
    dtype = _EVF_DTYPES[code]
    expected = c * height * width * dtype.itemsize
    body = len(data) - EVF_HEADER_SIZE
    if body != expected:
        raise TruncatedFile(f"body is {body} bytes, expected {expected}")
    values = np.frombuffer(data, dtype, offset=EVF_HEADER_SIZE).reshape(c, height, width)
    return FrameTensor(values.astype(dtype.newbyteorder("=")))


def event_rate_stats(stream: EventStream) -> dict:
    """Single-pass summary counts used by the stats command."""
    n = len(stream)
    if n == 0:
        return {
            "events": 0, "duration_us": 0, "rate_eps": 0.0,
            "pos": 0, "neg": 0, "max_per_pixel": 0,
        }
    duration = int(stream.t[-1]) - int(stream.t[0]) + 1
    pos = int(np.count_nonzero(stream.p))
    flat = stream.y.astype(np.int64) * stream.geometry.width + stream.x
    per_pixel = np.bincount(flat, minlength=stream.geometry.width * stream.geometry.height)
    return {
        "events": n,
        "duration_us": duration,
        "rate_eps": n / (duration / 1e6),
        "pos": pos,
        "neg": n - pos,
        "max_per_pixel": int(per_pixel.max()),
    }


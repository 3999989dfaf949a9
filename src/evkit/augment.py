"""Stochastic augmentation chain over frames and boxes.

Each stage is applied independently with its probability; when applied, its
magnitude is drawn uniformly from the configured range.  Geometric stages
compose in the fixed order hflip, rotation, translation, scale, shear, each
about the image center, on continuous coordinates spanning [0, W] x [0, H]
(pixel i has center i + 0.5).  Erasure zeroes one rectangle and never
touches the labels.

Video mode freezes the geometric draw for a whole clip and redraws erasure
per frame.  The clip draw and the per-frame erasure draws use disjoint RNG
substreams, so the number of frames never perturbs the geometric parameters.
A clip's first frame takes its draw from `sample_augmentation`, so a
one-frame clip reproduces frame-mode sampling exactly.  `_clip_draws` is
that one draw sequence, for `augment_clip` and `save_augmented_clip` alike.

The warp samples bilinearly from a pixel-major copy of the input with a
one-pixel zero border, so a tap outside the frame reads 0.  Its tap table
holds the output pixels with a tap inside the frame, and for each the
bordered index of its tap (0, 0) and the two fractions of its sampling
point.  One table is built per clip and every frame is warped through it.
Every other output pixel is exactly 0.  One kernel, `_warp_rows`, fills any
run of output rows, then erases them; the table is built, and the taps
summed, BLOCK pixels at a time.

`augment_clip` yields each frame as it is augmented, so a clip costs its
frames' inputs and outputs one at a time, not O(clip length x frame).
`save_augmented_clip` goes from EVF files to EVF files and holds no whole
frame: each clip reads its frames into one bordered source, band by band,
and each output is warped and written SLAB bytes of rows at a time.  Its
memory is the bordered source, the tap table and one slab.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .codec import AnnotatedBox
from .errors import ShapeMismatch
from .geometry import AffineTransform
from .representation import (FrameTensor, check_finite, create_evf, read_evf_bands,
                             read_evf_header, write_evf_rows)

Rect = tuple[int, int, int, int]  # top, left, height, width
BLOCK = 2048  # output pixels per step of the warp, and per slab of its tap-table build
SLAB = 2**20  # bytes of float32 output rows that `save_augmented_clip` warps and writes at once


@dataclass(frozen=True)
class AugmentConfig:
    """Stage probabilities and magnitude ranges.

    Defaults: hflip p=0.5; rotation +-30 deg, translation +-0.5 of each image
    dimension, scale in (0.5, 1.5) and shear +-30 deg each at p=0.6; erasure
    p=0.4 with area fraction (0.02, 0.33), aspect ratio (0.3, 3.3), fill 0.
    """

    hflip_p: float = 0.5
    rotate_p: float = 0.6
    rotate_deg: float = 30.0
    translate_p: float = 0.6
    translate_frac: float = 0.5
    scale_p: float = 0.6
    scale_range: tuple[float, float] = (0.5, 1.5)
    shear_p: float = 0.6
    shear_deg: float = 30.0
    erase_p: float = 0.4
    erase_area: tuple[float, float] = (0.02, 0.33)
    erase_ratio: tuple[float, float] = (0.3, 3.3)
    min_box_area: float = 4.0
    min_box_visibility: float = 0.1

    def __post_init__(self):
        for name in ("hflip_p", "rotate_p", "translate_p", "scale_p", "shear_p", "erase_p",
                     "min_box_visibility"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        for name in ("scale_range", "erase_area", "erase_ratio"):
            lo, hi = getattr(self, name)
            if lo > hi or lo <= 0.0:
                raise ValueError(f"{name} must be a positive (lo, hi) range")
        for name in ("rotate_deg", "translate_frac", "shear_deg", "min_box_area"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("rotate_deg", "translate_frac", "shear_deg"):
            # Drawn with uniform(-m, m), which needs a finite high - low.
            if not math.isfinite(2.0 * getattr(self, name)):
                raise ValueError(f"2 * {name} must be finite, got {name} = {getattr(self, name)}")

    @classmethod
    def disabled(cls) -> "AugmentConfig":
        return cls(hflip_p=0, rotate_p=0, translate_p=0, scale_p=0, shear_p=0, erase_p=0)


@dataclass(frozen=True)
class SampledAugmentation:
    """One concrete draw: applied flags, magnitudes, composed affine, erasure.

    A magnitude of None means the stage was not applied.  Reproducible from
    (seed, config, image size) alone.
    """

    height: int
    width: int
    hflip: bool
    angle_deg: float | None
    translate_px: tuple[float, float] | None
    scale: float | None
    shear_deg: tuple[float, float] | None
    transform: AffineTransform
    erasure: Rect | None

    @property
    def is_geometric_identity(self) -> bool:
        # Stages that are drawn as not-applied contribute exact identity
        # matrices, so a no-op draw composes to the identity bit-for-bit.
        return np.array_equal(self.transform.matrix, AffineTransform.identity().matrix)


def _draw_geometric(cfg: AugmentConfig, height: int, width: int, rng: np.random.Generator):
    hflip = rng.random() < cfg.hflip_p
    angle = float(rng.uniform(-cfg.rotate_deg, cfg.rotate_deg)) \
        if rng.random() < cfg.rotate_p else None
    translate = None
    if rng.random() < cfg.translate_p:
        translate = (
            float(rng.uniform(-cfg.translate_frac, cfg.translate_frac)) * width,
            float(rng.uniform(-cfg.translate_frac, cfg.translate_frac)) * height,
        )
    scale = float(rng.uniform(*cfg.scale_range)) if rng.random() < cfg.scale_p else None
    shear = None
    if rng.random() < cfg.shear_p:
        shear = (
            float(rng.uniform(-cfg.shear_deg, cfg.shear_deg)),
            float(rng.uniform(-cfg.shear_deg, cfg.shear_deg)),
        )
    cx, cy = width / 2.0, height / 2.0
    m = AffineTransform.identity()
    if hflip:
        m = AffineTransform.hflip(width).compose(m)
    if angle is not None:
        m = AffineTransform.rotation_deg(angle).about(cx, cy).compose(m)
    if translate is not None:
        m = AffineTransform.translation(*translate).compose(m)
    if scale is not None:
        m = AffineTransform.scaling(scale).about(cx, cy).compose(m)
    if shear is not None:
        m = AffineTransform.shear_deg(*shear).about(cx, cy).compose(m)
    return hflip, angle, translate, scale, shear, m


def _draw_erasure(cfg: AugmentConfig, height: int, width: int,
                  rng: np.random.Generator) -> Rect | None:
    if rng.random() >= cfg.erase_p:
        return None
    log_lo, log_hi = math.log(cfg.erase_ratio[0]), math.log(cfg.erase_ratio[1])
    for _ in range(10):
        target = height * width * rng.uniform(*cfg.erase_area)
        ratio = math.exp(rng.uniform(log_lo, log_hi))
        sides = math.sqrt(target * ratio), math.sqrt(target / ratio)
        if not all(map(math.isfinite, sides)):
            continue  # a failed try, like a side out of range
        eh, ew = map(round, sides)
        if 0 < eh < height and 0 < ew < width:
            top = int(rng.integers(0, height - eh + 1))
            left = int(rng.integers(0, width - ew + 1))
            return (top, left, eh, ew)
    return None


def sample_augmentation(
    cfg: AugmentConfig, height: int, width: int,
    rng: np.random.Generator | int | None,
) -> SampledAugmentation:
    """Draw one frame-mode augmentation (geometric stages plus erasure)."""
    geom_rng, erase_rng = np.random.default_rng(rng).spawn(2)
    hflip, angle, translate, scale, shear, m = _draw_geometric(cfg, height, width, geom_rng)
    erasure = _draw_erasure(cfg, height, width, erase_rng)
    return SampledAugmentation(height, width, hflip, angle, translate, scale, shear,
                               m, erasure)


class _WarpTaps(NamedTuple):
    """A draw's bilinear tap table over the zero-bordered source: the output
    pixels that read it, and where each one samples it."""

    kept: np.ndarray  # (n,) flat output pixels with a tap inside the frame
    base: np.ndarray  # (n,) flat bordered source pixel of tap (0, 0)
    fx: np.ndarray    # (n, 1) float64 fractional column of the sampling point
    fy: np.ndarray    # (n, 1) float64 fractional row of the sampling point


def _warp_taps(aug: SampledAugmentation) -> _WarpTaps:
    height, width = aug.height, aug.width
    inverse = aug.transform.inverse()
    rows = max(1, BLOCK // width)
    parts = []
    # Row slabs, so only the kept pixels of each slab outlive it.
    for top in range(0, height, rows):
        pixel = np.arange(top * width, min(top + rows, height) * width)
        centers = np.column_stack([pixel % width + 0.5, pixel // width + 0.5])
        sx, sy = (inverse.apply(centers) - 0.5).T
        # Tested on the floats, so a NaN or far-off position is never cast.
        keep = np.flatnonzero((sx >= -1) & (sx < width) & (sy >= -1) & (sy < height))
        sx, sy = sx[keep], sy[keep]
        x0, y0 = np.floor(sx), np.floor(sy)
        base = ((y0 + 1) * (width + 2) + x0 + 1).astype(np.int64)
        parts.append((pixel[keep], base, (sx - x0)[:, None], (sy - y0)[:, None]))
    # One field at a time, so the slabs' parts of only one field outlive its join.
    fields = [list(field) for field in zip(*parts)]
    del parts
    return _WarpTaps(*(np.concatenate(fields.pop(0)) for _ in range(len(fields))))


def apply_to_frame(
    frame: FrameTensor, aug: SampledAugmentation, taps: _WarpTaps | None = None,
) -> FrameTensor:
    """Warp by inverse mapping with bilinear sampling (fill 0), then erase.

    A pure-identity draw returns the frame unchanged (original dtype);
    warped frames are float32.  A float frame holding NaN or inf raises
    NonFiniteValue at its first such flat index.  `taps` is the draw's tap
    table, which `augment_clip` builds once per clip; without it the table is
    built here.
    """
    if frame.height != aug.height or frame.width != aug.width:
        raise ShapeMismatch(
            f"augmentation drawn for {aug.height}x{aug.width}, "
            f"frame is {frame.height}x{frame.width}"
        )
    check_finite(frame.values)
    if aug.is_geometric_identity and aug.erasure is None:
        return frame
    if not aug.is_geometric_identity and taps is None:
        taps = _warp_taps(aug)
    source = _bordered(frame.shape, frame.values.dtype)
    _interior(source, aug.height, aug.width)[:] = frame.values.transpose(1, 2, 0)
    out = np.empty(frame.shape, _output_dtype(aug, frame.values.dtype))
    _warp_rows(source, aug, None if aug.is_geometric_identity else taps, out, 0)
    return FrameTensor(out)


def _bordered(shape: tuple[int, int, int], dtype: np.dtype) -> np.ndarray:
    """An all-zero pixel-major source for (C, H, W) frames: (H+2)·(W+2) x C."""
    c, height, width = shape
    return np.zeros(((height + 2) * (width + 2), c), dtype)


def _interior(source: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (H, W, C) view of the frame inside a bordered source."""
    return source.reshape(height + 2, width + 2, -1)[1:-1, 1:-1]


def _output_dtype(aug: SampledAugmentation, dtype: np.dtype) -> np.dtype:
    """A geometric identity keeps the frame's dtype; a warp gives float32."""
    return np.dtype(dtype if aug.is_geometric_identity else np.float32)


def _warp_rows(source: np.ndarray, aug: SampledAugmentation, taps: _WarpTaps | None,
               out: np.ndarray, top: int) -> bool:
    """Fill `out`, a C-contiguous (C, R, W) array, with rows [top, top + R) of
    the draw applied to the frame in `source`, its bordered copy, then erase.

    `taps` is the draw's table, or None for a geometric identity, whose rows
    are copied.  Returns False when no pixel of the rows samples the frame:
    they are all 0.
    """
    c, n_rows, width = out.shape
    if taps is None:
        out[:] = _interior(source, aug.height, width)[top : top + n_rows].transpose(2, 0, 1)
    else:
        first, stop = np.searchsorted(taps.kept, (top * width, (top + n_rows) * width)).tolist()
        flat = out.reshape(c, -1)
        flat.fill(0)
        if first == stop:
            return False
        # Each tap reads one run of c values, and a tap outside the frame
        # reads the zero border.  Taps are gathered in the frame's dtype; the
        # float64 weight promotes each product exactly as a float64 copy of
        # the frame would.
        offsets = (0, 1, width + 2, width + 3)  # taps (0, 0), (0, 1), (1, 0), (1, 1)
        gather = np.empty((BLOCK, c), dtype=source.dtype)
        term = np.empty((BLOCK, c))
        acc = np.empty((BLOCK, c))
        for lo in range(first, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            m = hi - lo
            fx, fy = taps.fx[lo:hi], taps.fy[lo:hi]
            gx, gy = 1.0 - fx, 1.0 - fy
            acc[:m] = 0.0
            for offset, weight in zip(offsets, (gx * gy, fx * gy, gx * fy, fx * fy)):
                # source[offset + i] is row i of the view source[offset:].  Every
                # tap is inside the bordered source, so mode="clip" changes none;
                # unlike the default it writes straight into the buffer.
                np.take(source[offset:], taps.base[lo:hi], axis=0, out=gather[:m], mode="clip")
                np.multiply(gather[:m], weight, out=term[:m])
                acc[:m] += term[:m]
            flat[:, taps.kept[lo:hi] - top * width] = acc[:m].T
    if aug.erasure is not None:
        e_top, left, eh, ew = aug.erasure
        out[:, max(e_top - top, 0) : max(e_top + eh - top, 0), left : left + ew] = 0
    return True


def apply_to_boxes(
    boxes: Sequence[AnnotatedBox],
    aug: SampledAugmentation,
    min_area: float = 4.0,
    min_visibility: float = 0.1,
) -> list[AnnotatedBox]:
    """Map each box through the affine and keep the clipped axis-aligned hull.

    Boxes whose clipped area falls below min_area, or whose visible fraction
    of the transformed hull falls below min_visibility, are dropped.
    Erasure never modifies boxes.
    """
    if aug.is_geometric_identity:
        return list(boxes)
    xywh = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
    x0, y0, w, h = xywh.T
    x1, y1 = x0 + w, y0 + h
    # Corners (x0, y0), (x1, y0), (x0, y1), (x1, y1) of every box, in one transform.
    corners = np.stack([x0, y0, x1, y0, x0, y1, x1, y1], axis=1).reshape(-1, 2)
    warped = aug.transform.apply(corners).reshape(-1, 4, 2)
    lo, hi = warped.min(axis=1), warped.max(axis=1)
    size = np.array([float(aug.width), float(aug.height)])
    # np.where, not np.maximum: np.maximum(-0.0, 0.0) is 0.0, where Python's
    # max(v, 0.0) and min(v, size) keep the corner's own signed zero.
    clipped_lo = np.where(0.0 > lo, 0.0, lo)
    clipped_hi = np.where(size < hi, size, hi)
    extent = clipped_hi - clipped_lo
    # An area past float64 is inf: an empty clip is dropped anyway, and a clip
    # of an infinite hull is under any min_visibility > 0.
    with np.errstate(over="ignore", invalid="ignore"):
        hull_area = (hi[:, 0] - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
        clipped_area = extent[:, 0] * extent[:, 1]
        kept = ~((clipped_hi <= clipped_lo).any(axis=1) | (clipped_area < min_area)
                 | (clipped_area < min_visibility * hull_area))
    return [replace(boxes[i], x=x, y=y, w=ew, h=eh) for i, x, y, ew, eh in zip(
        np.flatnonzero(kept).tolist(), *clipped_lo[kept].T.tolist(), *extent[kept].T.tolist())]


def _clip_draws(cfg: AugmentConfig, height: int, width: int,
                rng: np.random.Generator | int | None) -> Iterator[SampledAugmentation]:
    """A clip's draws, one per frame: the clip's geometric draw and each frame's erasure."""
    rng = np.random.default_rng(rng)
    # Frame 0 takes sample_augmentation's draw, whose spawn(2) gives child 0 to
    # the geometry and child 1 to its erasure.  spawn(1) numbers its children
    # on from there, so child 1 + k is frame k's erasure however many follow.
    aug = sample_augmentation(cfg, height, width, rng)
    while True:
        yield aug
        aug = replace(aug, erasure=_draw_erasure(cfg, height, width, rng.spawn(1)[0]))


def augment_clip(
    frames: Iterable[FrameTensor],
    boxes_per_frame: Iterable[Sequence[AnnotatedBox]],
    cfg: AugmentConfig,
    rng: np.random.Generator | int | None,
) -> Iterator[tuple[FrameTensor, list[AnnotatedBox], SampledAugmentation]]:
    """Video-mode augmentation: one geometric draw for the clip, fresh erasure
    per frame.  Yields (frame, boxes, draw) per frame, pulling each input frame
    only when it is augmented."""
    draws = None
    for frame, boxes in zip(frames, boxes_per_frame, strict=True):
        if draws is None:
            shape = frame.shape
            draws = _clip_draws(cfg, frame.height, frame.width, rng)
            aug = next(draws)
            taps = None if aug.is_geometric_identity else _warp_taps(aug)
        elif frame.shape != shape:
            raise ShapeMismatch("clip frames must share one shape")
        else:
            aug = next(draws)
        yield (apply_to_frame(frame, aug, taps),
               apply_to_boxes(boxes, aug, cfg.min_box_area, cfg.min_box_visibility), aug)
        del frame  # so the next frame is read without this one alive
    if draws is None:
        raise ValueError("clip must contain at least one frame")


def save_augmented_clip(
    paths: Sequence[str | Path],
    out_paths: Sequence[str | Path],
    boxes_per_frame: Iterable[Sequence[AnnotatedBox]],
    cfg: AugmentConfig,
    rng: np.random.Generator | int | None,
) -> Iterator[tuple[list[AnnotatedBox], SampledAugmentation]]:
    """`augment_clip` from EVF files to EVF files, a slab of rows at a time.

    Frame k is read from `paths[k]`, and `out_paths[k]` gets the bytes of
    `write_evf` of `augment_clip`'s frame k, made as `create_evf` makes it.
    Yields (boxes, draw) per frame once its file is written.  Each frame is
    read and checked, as `read_evf` checks it, before its file is made.

    The clip's frames are read into one bordered source, band by band.  The
    output is warped and written SLAB bytes of rows at a time; rows that
    sample no pixel of the frame are never written and stay a hole.  So a
    clip holds its bordered source, its tap table and one slab.
    """
    draws = None
    for path, out_path, boxes in zip(paths, out_paths, boxes_per_frame, strict=True):
        with open(path, "rb", buffering=0) as f:
            dtype, shape = read_evf_header(f)
            c, height, width = shape
            rows = max(1, SLAB // (c * width * 4))
            if draws is not None and shape != clip_shape:
                for _ in read_evf_bands(f, dtype, shape, rows):
                    pass  # a non-finite value is reported first, as read_evf reports it
                raise ShapeMismatch("clip frames must share one shape")
            native = dtype.newbyteorder("=")
            if draws is None or source.dtype != native:
                source = _bordered(shape, native)
            interior = _interior(source, height, width)
            for top, band in read_evf_bands(f, dtype, shape, rows):
                interior[top : top + band.shape[1]] = band.transpose(1, 2, 0)
            del band  # so the bands' buffer is freed before the warp
        if draws is None:
            clip_shape = shape
            draws = _clip_draws(cfg, height, width, rng)
            aug = next(draws)
            taps = None if aug.is_geometric_identity else _warp_taps(aug)
            slab = np.empty(c * rows * width, np.float32)
        else:
            aug = next(draws)
        out_dtype = _output_dtype(aug, source.dtype)
        fd = create_evf(out_path, out_dtype, shape)
        try:
            for top in range(0, height, rows):
                out = slab.view(out_dtype)[: c * min(rows, height - top) * width]
                out = out.reshape(c, -1, width)
                if _warp_rows(source, aug, taps, out, top):
                    write_evf_rows(fd, out, top, height)
        finally:
            os.close(fd)
        yield apply_to_boxes(boxes, aug, cfg.min_box_area, cfg.min_box_visibility), aug
    if draws is None:
        raise ValueError("clip must contain at least one frame")

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
one-frame clip reproduces frame-mode sampling exactly.  `augment_clip`
yields each frame as it is augmented, so a clip costs O(frame) memory, not
O(clip length x frame).

The warp samples bilinearly through a tap table: the output pixels that have
a tap inside the frame, and each of their four taps' source pixel and
weight.  `augment_clip` builds one table per clip, with its geometric draw,
and warps every frame through it.  Output pixels with no in-bounds tap are
exactly 0; they read nothing from the source.

A warped frame costs its float32 output, one pixel-major copy of the input
and fixed buffers of BLOCK output pixels: the table is built, and the taps
summed, BLOCK pixels at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .codec import AnnotatedBox
from .errors import ShapeMismatch
from .geometry import AffineTransform
from .representation import FrameTensor, check_finite

Rect = tuple[int, int, int, int]  # top, left, height, width
BLOCK = 2048  # output pixels per step of the warp, and per slab of its tap-table build


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
        eh = int(round(math.sqrt(target * ratio)))
        ew = int(round(math.sqrt(target / ratio)))
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
    """A draw's bilinear tap table: the output pixels that read the source,
    and each tap's source pixel and weight over them."""

    kept: np.ndarray    # (n,) flat output pixels with a nonzero-weight tap
    index: np.ndarray   # (4, n) flat source pixel of each tap, clamped into the frame
    weight: np.ndarray  # (4, n, 1) float64 weight of each tap, 0 outside the frame


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
        x0 = np.floor(sx).astype(np.int64)
        y0 = np.floor(sy).astype(np.int64)
        fx, fy = sx - x0, sy - y0
        # Per offset d of 0 or 1: the tap's weight factor, whether it is
        # inside the frame, and its clamped column or row start.
        wx, wy = (1.0 - fx, fx), (1.0 - fy, fy)
        in_x = [(x0 >= -d) & (x0 < width - d) for d in (0, 1)]
        in_y = [(y0 >= -d) & (y0 < height - d) for d in (0, 1)]
        col = [np.clip(x0 + d, 0, width - 1) for d in (0, 1)]
        row = [np.clip(y0 + d, 0, height - 1) * width for d in (0, 1)]
        index = np.empty((4, pixel.size), dtype=np.int64)
        weight = np.empty((4, pixel.size))
        for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            weight[k] = wx[dx] * wy[dy] * (in_x[dx] & in_y[dy])
            index[k] = row[dy] + col[dx]
        keep = np.flatnonzero(weight.any(axis=0))
        parts.append((pixel[keep], index[:, keep], weight[:, keep]))
    kept, index, weight = (np.concatenate(p, axis=-1) for p in zip(*parts))
    return _WarpTaps(kept, index, weight[:, :, None])


def apply_to_frame(
    frame: FrameTensor, aug: SampledAugmentation, taps: _WarpTaps | None = None,
) -> FrameTensor:
    """Warp by inverse mapping with bilinear sampling (fill 0), then erase.

    A pure-identity draw returns the frame unchanged (original dtype);
    warped frames are float32.  A float frame holding NaN or inf raises
    NonFiniteValue at its first such flat index.  `taps` is the draw's tap
    table, which `augment_clip` builds once per clip; without it the table is
    built here.  Only output pixels with a tap inside the frame read the
    source; every other output pixel is 0.
    """
    if frame.height != aug.height or frame.width != aug.width:
        raise ShapeMismatch(
            f"augmentation drawn for {aug.height}x{aug.width}, "
            f"frame is {frame.height}x{frame.width}"
        )
    check_finite(frame.values)
    if aug.is_geometric_identity and aug.erasure is None:
        return frame
    if aug.is_geometric_identity:
        values = frame.values.copy()
    else:
        values = _warp_bilinear(frame.values, _warp_taps(aug) if taps is None else taps)
    if aug.erasure is not None:
        top, left, eh, ew = aug.erasure
        values[:, top : top + eh, left : left + ew] = 0
    return FrameTensor(values)


def _warp_bilinear(values: np.ndarray, taps: _WarpTaps) -> np.ndarray:
    c, height, width = values.shape
    # Pixel-major, so each tap reads one run of c values.  Taps are gathered
    # in the frame's dtype; the float64 weight promotes each product exactly
    # as a float64 copy of the frame would.  A pixel outside `taps.kept` would
    # only add finite source x 0.0 terms to its +0.0 start, which stays +0.0.
    source = np.ascontiguousarray(values.reshape(c, height * width).T)
    out = np.zeros((c, height * width), dtype=np.float32)
    gather = np.empty((BLOCK, c), dtype=source.dtype)
    term = np.empty((BLOCK, c))
    acc = np.empty((BLOCK, c))
    for lo in range(0, taps.kept.size, BLOCK):
        hi = min(lo + BLOCK, taps.kept.size)
        m = hi - lo
        acc[:m] = 0.0
        for index, weight in zip(taps.index, taps.weight):
            # Indices are clamped into the frame, so mode="clip" changes no
            # tap; unlike the default it writes straight into the buffer.
            np.take(source, index[lo:hi], axis=0, out=gather[:m], mode="clip")
            np.multiply(gather[:m], weight[lo:hi], out=term[:m])
            acc[:m] += term[:m]
        out[:, taps.kept[lo:hi]] = acc[:m].T
    return out.reshape(c, height, width)


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
    hull_area = (hi[:, 0] - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
    size = np.array([float(aug.width), float(aug.height)])
    # np.where, not np.maximum: np.maximum(-0.0, 0.0) is 0.0, where Python's
    # max(v, 0.0) and min(v, size) keep the corner's own signed zero.
    clipped_lo = np.where(0.0 > lo, 0.0, lo)
    clipped_hi = np.where(size < hi, size, hi)
    extent = clipped_hi - clipped_lo
    clipped_area = extent[:, 0] * extent[:, 1]
    kept = ~((clipped_hi <= clipped_lo).any(axis=1) | (clipped_area < min_area)
             | (clipped_area < min_visibility * hull_area))
    return [replace(boxes[i], x=x, y=y, w=ew, h=eh) for i, x, y, ew, eh in zip(
        np.flatnonzero(kept).tolist(), *clipped_lo[kept].T.tolist(), *extent[kept].T.tolist())]


def augment_clip(
    frames: Iterable[FrameTensor],
    boxes_per_frame: Iterable[Sequence[AnnotatedBox]],
    cfg: AugmentConfig,
    rng: np.random.Generator | int | None,
) -> Iterator[tuple[FrameTensor, list[AnnotatedBox], SampledAugmentation]]:
    """Video-mode augmentation: one geometric draw for the clip, fresh erasure
    per frame.  Yields (frame, boxes, draw) per frame, pulling each input frame
    only when it is augmented."""
    rng = np.random.default_rng(rng)
    shape = None
    # Frame 0 takes sample_augmentation's draw, whose spawn(2) gives child 0 to
    # the geometry and child 1 to its erasure.  spawn(1) numbers its children
    # on from there, so child 1 + k is frame k's erasure however many follow.
    for frame, boxes in zip(frames, boxes_per_frame, strict=True):
        if shape is None:
            shape = frame.shape
            aug = sample_augmentation(cfg, frame.height, frame.width, rng)
            taps = None if aug.is_geometric_identity else _warp_taps(aug)
        elif frame.shape != shape:
            raise ShapeMismatch("clip frames must share one shape")
        else:
            aug = replace(aug, erasure=_draw_erasure(cfg, aug.height, aug.width,
                                                     rng.spawn(1)[0]))
        yield (apply_to_frame(frame, aug, taps),
               apply_to_boxes(boxes, aug, cfg.min_box_area, cfg.min_box_visibility), aug)
        del frame  # so the next frame is read without this one alive
    if shape is None:
        raise ValueError("clip must contain at least one frame")

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

The warp samples bilinearly from a pixel-major copy of the input with a
one-pixel zero border, so a tap outside the frame reads 0.  Its tap table
holds the output pixels with a tap inside the frame, and for each the
bordered index of its tap (0, 0) and the two fractions of its sampling
point.  `augment_clip` builds one table per clip and warps every frame
through it.  Every other output pixel is exactly 0.

A warped frame costs its float32 output, the bordered copy and fixed buffers
of BLOCK output pixels: the table is built, and the taps summed, BLOCK
pixels at a time.
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
    return _WarpTaps(*map(np.concatenate, zip(*parts)))


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
    # Pixel-major with a one-pixel zero border: each tap reads one run of c
    # values, and a tap outside the frame reads 0.  Taps are gathered in the
    # frame's dtype; the float64 weight promotes each product exactly as a
    # float64 copy of the frame would.
    source = np.pad(values.transpose(1, 2, 0), ((1, 1), (1, 1), (0, 0))).reshape(-1, c)
    offsets = (0, 1, width + 2, width + 3)  # taps (0, 0), (0, 1), (1, 0), (1, 1)
    out = np.zeros((c, height * width), dtype=np.float32)
    gather = np.empty((BLOCK, c), dtype=source.dtype)
    term = np.empty((BLOCK, c))
    acc = np.empty((BLOCK, c))
    for lo in range(0, taps.kept.size, BLOCK):
        hi = min(lo + BLOCK, taps.kept.size)
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

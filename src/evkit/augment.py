"""Stochastic augmentation chain over frames and boxes.

Each stage is applied independently with its probability; when applied, its
magnitude is drawn uniformly from the configured range.  Geometric stages
compose in the fixed order hflip, rotation, translation, scale, shear, each
about the image center, on continuous coordinates spanning [0, W] x [0, H]
(pixel i has center i + 0.5).  Erasure zeroes one rectangle and never
touches the labels.

Video mode freezes the geometric draw for a whole clip and redraws erasure
per frame.  The clip draw and the per-frame erasure draws use disjoint RNG
substreams, so the number of frames never perturbs the geometric parameters,
and a one-frame clip reproduces frame-mode sampling exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .codec import AnnotatedBox
from .errors import ShapeMismatch
from .geometry import AffineTransform
from .representation import FrameTensor

Rect = tuple[int, int, int, int]  # top, left, height, width


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
        return np.array_equal(self.transform.matrix,
                              np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


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


def apply_to_frame(frame: FrameTensor, aug: SampledAugmentation) -> FrameTensor:
    """Warp by inverse mapping with bilinear sampling (fill 0), then erase.

    A pure-identity draw returns the frame unchanged (original dtype);
    warped frames are float32.
    """
    if frame.height != aug.height or frame.width != aug.width:
        raise ShapeMismatch(
            f"augmentation drawn for {aug.height}x{aug.width}, "
            f"frame is {frame.height}x{frame.width}"
        )
    if aug.is_geometric_identity and aug.erasure is None:
        return frame
    if aug.is_geometric_identity:
        values = frame.values.copy()
    else:
        values = _warp_bilinear(frame.values, aug.transform)
    if aug.erasure is not None:
        top, left, eh, ew = aug.erasure
        values[:, top : top + eh, left : left + ew] = 0
    return FrameTensor(values)


def _warp_bilinear(values: np.ndarray, transform: AffineTransform) -> np.ndarray:
    c, height, width = values.shape
    pixel = np.arange(height * width)
    centers = np.column_stack([pixel % width + 0.5, pixel // width + 0.5])
    sx, sy = (transform.inverse().apply(centers) - 0.5).T
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx, fy = sx - x0, sy - y0
    # Taps are gathered in the frame's dtype; the float64 weight promotes each
    # product exactly as a float64 copy of the frame would.
    source = values.reshape(c, height * width)
    out = np.zeros((c, height * width), dtype=np.float64)
    for dy in (0, 1):
        for dx in (0, 1):
            xi, yi = x0 + dx, y0 + dy
            weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            weight = weight * ((xi >= 0) & (xi < width) & (yi >= 0) & (yi < height))
            index = np.clip(yi, 0, height - 1) * width + np.clip(xi, 0, width - 1)
            out += source.take(index, axis=1) * weight
    return out.astype(np.float32).reshape(c, height, width)


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
    width, height = float(aug.width), float(aug.height)
    out = []
    for box in boxes:
        corners = np.array([
            [box.x, box.y],
            [box.x + box.w, box.y],
            [box.x, box.y + box.h],
            [box.x + box.w, box.y + box.h],
        ])
        warped = aug.transform.apply(corners)
        hx0, hy0 = warped.min(axis=0)
        hx1, hy1 = warped.max(axis=0)
        hull_area = (hx1 - hx0) * (hy1 - hy0)
        cx0, cy0 = max(hx0, 0.0), max(hy0, 0.0)
        cx1, cy1 = min(hx1, width), min(hy1, height)
        if cx1 <= cx0 or cy1 <= cy0:
            continue
        clipped_area = (cx1 - cx0) * (cy1 - cy0)
        if clipped_area < min_area or clipped_area < min_visibility * hull_area:
            continue
        out.append(replace(box, x=float(cx0), y=float(cy0),
                           w=float(cx1 - cx0), h=float(cy1 - cy0)))
    return out


def augment_clip(
    frames: Sequence[FrameTensor],
    boxes_per_frame: Sequence[Sequence[AnnotatedBox]],
    cfg: AugmentConfig,
    rng: np.random.Generator | int | None,
) -> tuple[list[FrameTensor], list[list[AnnotatedBox]], list[SampledAugmentation]]:
    """Video-mode augmentation: one geometric draw for the clip, fresh erasure
    per frame.  Returns (frames, boxes, per-frame draw log)."""
    if not frames:
        raise ValueError("clip must contain at least one frame")
    if len(boxes_per_frame) != len(frames):
        raise ValueError("boxes_per_frame must align with frames")
    shape = frames[0].shape
    if any(f.shape != shape for f in frames):
        raise ShapeMismatch("clip frames must share one shape")
    height, width = shape[1], shape[2]
    children = np.random.default_rng(rng).spawn(1 + len(frames))
    hflip, angle, translate, scale, shear, m = _draw_geometric(
        cfg, height, width, children[0]
    )
    out_frames, out_boxes, log = [], [], []
    for k, (frame, boxes) in enumerate(zip(frames, boxes_per_frame)):
        erasure = _draw_erasure(cfg, height, width, children[1 + k])
        aug = SampledAugmentation(height, width, hflip, angle, translate, scale,
                                  shear, m, erasure)
        out_frames.append(apply_to_frame(frame, aug))
        out_boxes.append(apply_to_boxes(boxes, aug, cfg.min_box_area,
                                        cfg.min_box_visibility))
        log.append(aug)
    return out_frames, out_boxes, log

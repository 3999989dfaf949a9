"""Resolution normalization and the affine carrier for all geometric ops.

Downscaling uses the pixel-center ("half-pixel") sampling convention: output
pixel d reads the source at s = (d + 0.5) * factor - 0.5 per axis.  With an
integer factor, s - floor(s) is the same for every d, so each method is a
few fixed taps per axis, each a strided slice [first::factor] times a weight:

* odd factor: s is a pixel center and every method is that one pixel;
* even factor: s lies halfway between two pixels.  Nearest takes the
  top-left one, bilinear weighs both by 1/2, and bicubic (Catmull-Rom,
  a = -0.5) weighs four by -1/16, 9/16, 9/16, -1/16.  Only bicubic at
  factor 2 reads past an edge; those reads clamp to the edge pixel.

`source_taps` turns the same taps around: for each source pixel, the output
pixels it feeds and with what weight, the clamped edge reads folded in.
`representation.save_stacked_histogram` scatters clipped counts through that
table straight into the downscaled, padded layout.  Both builds give the
same bytes: a count is at most 65535 and a weight is k/16 per axis, so every
product and partial sum is a dyadic rational that float64 holds exactly, and
the one float32 cast sees the same value in any summation order.
`downscale` stays as the slice-based oracle.

Padding is zeros on the bottom/right only, so box coordinates never need an
offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .codec import AnnotatedBox
from .errors import NotDivisible, SingularTransform
from .representation import FrameTensor

_DET_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """2x3 matrix mapping homogeneous pixel coordinates (x, y, 1) -> (x', y')."""

    matrix: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineTransform):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2, 3):
            raise ValueError(f"affine matrix must be 2x3, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"affine matrix {m.tolist()} is not finite")
        if abs(np.linalg.det(m[:, :2])) <= _DET_EPS:
            raise SingularTransform(f"linear part of {m.tolist()} is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, tx], [0.0, 1.0, ty]]))

    @classmethod
    def scaling(cls, s: float) -> "AffineTransform":
        return cls(np.array([[s, 0.0, 0.0], [0.0, s, 0.0]]))

    @classmethod
    def rotation_deg(cls, angle: float) -> "AffineTransform":
        rad = math.radians(angle)
        c, s = math.cos(rad), math.sin(rad)
        return cls(np.array([[c, -s, 0.0], [s, c, 0.0]]))

    @classmethod
    def shear_deg(cls, ax: float, ay: float = 0.0) -> "AffineTransform":
        return cls(np.array([[1.0, math.tan(math.radians(ax)), 0.0],
                             [math.tan(math.radians(ay)), 1.0, 0.0]]))

    @classmethod
    def hflip(cls, width: float) -> "AffineTransform":
        """Mirror of the continuous image span [0, width]: x -> width - x."""
        return cls(np.array([[-1.0, 0.0, float(width)], [0.0, 1.0, 0.0]]))

    def compose(self, inner: "AffineTransform") -> "AffineTransform":
        """self after inner: (self @ inner)(p) = self(inner(p))."""
        a = np.vstack([self.matrix, [0.0, 0.0, 1.0]])
        b = np.vstack([inner.matrix, [0.0, 0.0, 1.0]])
        return AffineTransform((a @ b)[:2])

    def about(self, cx: float, cy: float) -> "AffineTransform":
        """Conjugate by the center: translate(-c), self, translate(+c)."""
        return (
            AffineTransform.translation(cx, cy)
            .compose(self)
            .compose(AffineTransform.translation(-cx, -cy))
        )

    def inverse(self) -> "AffineTransform":
        # Closed form keeps axis-aligned transforms (flips, integer shifts)
        # exactly invertible in floating point.
        (a, b, tx), (c, d, ty) = self.matrix
        det = a * d - b * c
        inv = np.array([[d, -b], [-c, a]]) / det
        return AffineTransform(np.hstack([inv, -inv @ np.array([[tx], [ty]])]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 2) array of (x, y) points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix[:, :2].T + self.matrix[:, 2]


# Even-factor taps as (offset from factor // 2, weight); see the module docstring.
# Its keys are the accepted downscale method names.
EVEN_FACTOR_TAPS = {
    "nearest": ((-1, 1.0),),
    "bilinear": ((-1, 0.5), (0, 0.5)),
    "bicubic": ((-2, -1 / 16), (-1, 9 / 16), (0, 9 / 16), (1, -1 / 16)),
}


def _taps(factor: int, method: str) -> list[tuple[int, float]]:
    """(first, weight) pairs: tap j of output d reads source first + d * factor."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if method not in EVEN_FACTOR_TAPS:
        raise ValueError(f"unknown method {method!r}")
    offsets = EVEN_FACTOR_TAPS[method] if factor % 2 == 0 else ((0, 1.0),)
    return [(factor // 2 + offset, weight) for offset, weight in offsets]


def source_taps(size: int, factor: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Per source pixel of one axis, the outputs it feeds: two (size, K) arrays.

    Row s holds output indices and weights; reads past an edge are clamped
    to the edge pixel, and taps of one source into one output are summed.
    Unused slots are output 0 with weight 0.
    """
    taps = _taps(factor, method)
    if size % factor:
        raise NotDivisible(f"size {size} not divisible by {factor}")
    out = np.arange(size // factor)
    src = np.concatenate([np.clip(first + out * factor, 0, size - 1) for first, _ in taps])
    pairs, which = np.unique(src * len(out) + np.tile(out, len(taps)), return_inverse=True)
    weight = np.bincount(which, weights=np.repeat([w for _, w in taps], len(out)))
    src, dst = np.divmod(pairs, len(out))
    slot = np.arange(len(src)) - np.searchsorted(src, src)
    index = np.zeros((size, slot.max() + 1), dtype=np.int64)
    weights = np.zeros(index.shape)
    index[src, slot] = dst
    weights[src, slot] = weight
    return index, weights


def downscale(frame: FrameTensor, factor: int, method: str = "bilinear") -> FrameTensor:
    """Shrink (C, H, W) by an integer factor along both axes.

    Counts are converted to reals before filtering; output is float32.
    """
    taps = _taps(factor, method)
    _, height, width = frame.shape
    if height % factor or width % factor:
        raise NotDivisible(f"{height}x{width} not divisible by {factor}")
    # One edge pad of the input clamps the reads past an edge on both axes.
    lo, hi = max(0, -taps[0][0]), max(0, taps[-1][0] - factor + 1)
    values = frame.values
    if lo or hi:
        values = np.pad(values, ((0, 0), (lo, hi), (lo, hi)), mode="edge")
    for axis, size in ((2, width), (1, height)):
        index = [slice(None)] * 3
        total = None
        for first, weight in taps:
            index[axis] = slice(lo + first, lo + first + size, factor)
            term = np.multiply(values[tuple(index)], weight, dtype=np.float64)
            total = term if total is None else np.add(total, term, out=total)
        values = total
    return FrameTensor(values.astype(np.float32))


def pad_to_multiple(frame: FrameTensor, multiple: int) -> tuple[FrameTensor, tuple[int, int]]:
    """Zero-pad bottom/right until H and W are multiples; returns pad amounts."""
    if multiple < 1:
        raise ValueError(f"multiple must be >= 1, got {multiple}")
    _, height, width = frame.shape
    pad_h = (-height) % multiple
    pad_w = (-width) % multiple
    if pad_h == 0 and pad_w == 0:
        return frame, (0, 0)
    padded = np.pad(frame.values, ((0, 0), (0, pad_h), (0, pad_w)))
    return FrameTensor(padded), (pad_h, pad_w)


def map_boxes(boxes: Sequence[AnnotatedBox], scale: float) -> list[AnnotatedBox]:
    """Scale box coordinates and sizes by one positive factor on both axes.

    Padding is on the bottom/right only, so no offset is added.  Class,
    score, and track ids are preserved.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return [replace(b, x=b.x * scale, y=b.y * scale, w=b.w * scale, h=b.h * scale)
            for b in boxes]

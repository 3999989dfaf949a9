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
terms it feeds, one per tap that reads it, clamped edge reads included.  A
term is an output pixel together with the class of the tap's weight.
`representation.BinCounter` counts each time bin's events per
term with one integer bincount, straight into the downscaled, padded
layout.  Both builds give the same bytes.  A weight is k/16 per axis, so an
output is an integer S = sum(count x k) divided by 256.  `downscale` sums
it exactly in float64, in any order, and rounds once to float32; the count
path rounds S once to float32 and then scales by a power of two, which is
exact.  `downscale` stays as the slice-based oracle.

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
        with np.errstate(over="ignore"):  # a determinant past float64 is inf: not singular
            det = np.linalg.det(m[:, :2])
        if abs(det) <= _DET_EPS:
            raise SingularTransform(f"linear part of {m.tolist()} is singular")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):  # rebuilt through __init__, so a load revalidates
        return AffineTransform, (self.matrix,)

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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is rejected
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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite inverse is rejected
            det = a * d - b * c
            if not _DET_EPS < abs(det) < np.inf:  # an overflowed det has an all-zero inverse
                raise SingularTransform(f"{self.matrix.tolist()} has determinant {det}, "
                                        "so its inverse is singular")
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
    """Per source pixel of one axis, the output terms it feeds.

    Returns `(terms, weights)`.  `weights` holds the method's distinct tap
    weights; a term is `out * len(weights) + class`, the
    output pixel `out` read with weight `weights[class]`.  `terms` is
    (size, K) int64: row s lists one term per tap that reads source s, a
    read past an edge clamped to the edge pixel, and -1 in unused slots.
    """
    taps = _taps(factor, method)
    if size % factor:
        raise NotDivisible(f"size {size} not divisible by {factor}")
    weights = np.array(sorted({w for _, w in taps}))
    out = np.arange(size // factor)
    src = np.concatenate([np.clip(first + out * factor, 0, size - 1) for first, _ in taps])
    term = np.concatenate([out * len(weights) + np.flatnonzero(weights == w)[0]
                           for _, w in taps])
    order = np.argsort(src, kind="stable")
    src, term = src[order], term[order]
    slot = np.arange(len(src)) - np.searchsorted(src, src)
    terms = np.full((size, slot.max() + 1), -1, dtype=np.int64)
    terms[src, slot] = term
    return terms, weights


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

"""COCO-style mean average precision over per-frame detections.

Matching is greedy in descending score order: each prediction takes the
highest-IoU still-unmatched ground-truth box of its own class with
IoU >= threshold; everything else is a false positive, unmatched ground
truth a false negative.  `match_frame` returns, per IoU threshold and per
prediction in input order, the index of the ground-truth box it took or -1.
`average_precision` scores one class at one threshold from flat columns
(its predictions' scores, their hits and its ground-truth count): it
interpolates the monotone-from-the-right precision envelope on the fixed
101-point recall grid.  mAP averages over classes (those with at least one
ground-truth box) and the fixed IoU thresholds 0.50:0.05:0.95, as COCOeval
does.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .codec import AnnotatedBox, read_annotations
from .errors import NoGroundTruth

DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_RECALL_GRID = tuple(np.linspace(0.0, 1.0, 101))


@dataclass(frozen=True)
class EvalConfig:
    class_ids: tuple[int, ...] | None = None
    min_diagonal: float | None = None
    skip_initial_us: int | None = None
    time_tolerance_us: int = 0

    def __post_init__(self):
        for name in ("min_diagonal", "skip_initial_us", "time_tolerance_us"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def iou(a: list[AnnotatedBox], b: list[AnnotatedBox]) -> np.ndarray:
    """IoU of every pair of axis-aligned boxes: a (len(a), len(b)) matrix in [0, 1]."""
    ax, ay, aw, ah = np.array([(p.x, p.y, p.w, p.h) for p in a], float).T.reshape(4, -1, 1)
    bx, by, bw, bh = np.array([(q.x, q.y, q.w, q.h) for q in b], float).T.reshape(4, 1, -1)
    ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    return inter / (aw * ah + bw * bh - inter)


def match_frame(
    preds: list[AnnotatedBox], gts: list[AnnotatedBox], thresholds: Sequence[float]
) -> np.ndarray:
    """The gt each prediction takes at each threshold, or -1: an int64 array of
    shape (len(thresholds), len(preds)), its columns in input order.

    One IoU matrix (-1 across classes) serves every threshold.  Predictions go
    in descending score order (ties keep input order), and each takes the
    first free gt with its row's largest IoU (argmax) when that IoU >= threshold.
    """
    scores = np.array([p.score for p in preds])
    pred_classes = np.array([p.class_id for p in preds], dtype=np.int64)
    gt_classes = np.array([g.class_id for g in gts], dtype=np.int64)
    ious = np.where(pred_classes[:, None] == gt_classes, iou(preds, gts), -1.0)
    best = ious.max(axis=1, initial=-1.0)
    ranked = np.argsort(-scores, kind="stable")
    matched = np.full((len(thresholds), len(preds)), -1, dtype=np.int64)
    for k, thr in enumerate(thresholds):
        taken = np.zeros(len(gts), dtype=bool)
        for i in ranked[best[ranked] >= thr]:
            row = np.where(taken, -1.0, ious[i])
            j = int(row.argmax())
            if row[j] >= thr:
                taken[j] = True
                matched[k, i] = j
    return matched


def average_precision(scores: np.ndarray, tp: np.ndarray, n_gt: int) -> float:
    """AP for one class at one threshold: its predictions' scores, whether each
    took a gt (tp), and its ground-truth count.

    Returns NaN when the class has no ground truth (such classes are excluded
    from mAP averaging) and 0.0 when it has no predictions.
    """
    if n_gt == 0:
        return math.nan
    if scores.size == 0:
        return 0.0
    tp = tp[np.argsort(-scores, kind="stable")]
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(~tp)
    recall = tp_cum / n_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    inds = np.searchsorted(recall, DEFAULT_RECALL_GRID, side="left")
    interp = np.where(inds < len(recall), envelope[np.minimum(inds, len(recall) - 1)], 0.0)
    return float(np.mean(interp))


@dataclass(frozen=True)
class EvalReport:
    map: float
    map50: float
    map75: float
    per_class: dict[int, float] = field(default_factory=dict)
    n_frames: int = 0
    n_predictions: int = 0
    n_ground_truth: int = 0


def _mean(values: Sequence[float]) -> float:
    """Mean of the non-NaN values, summed in order; NaN when there are none."""
    live = [v for v in values if not math.isnan(v)]
    return sum(live) / len(live) if live else math.nan


def _apply_filters(boxes: list[AnnotatedBox], cfg: EvalConfig) -> list[AnnotatedBox]:
    out = boxes
    if cfg.skip_initial_us is not None:
        out = [b for b in out if b.t >= cfg.skip_initial_us]
    if cfg.min_diagonal is not None:
        out = [b for b in out if math.hypot(b.w, b.h) >= cfg.min_diagonal]
    return out


def _group_frames(
    preds: list[AnnotatedBox], gts: list[AnnotatedBox], tolerance_us: int
) -> list[tuple[list[AnnotatedBox], list[AnnotatedBox]]]:
    """Pair boxes into frames by timestamp; predictions snap to the nearest
    ground-truth timestamp within the tolerance."""
    gt_times = sorted({b.t for b in gts})
    def snap(t: int) -> int:
        if not gt_times or tolerance_us == 0:
            return t
        pos = np.searchsorted(gt_times, t)
        best = t
        best_gap = tolerance_us + 1
        for cand in (gt_times[max(pos - 1, 0)], gt_times[min(pos, len(gt_times) - 1)]):
            gap = abs(cand - t)
            if gap <= tolerance_us and (gap < best_gap or (gap == best_gap and cand < best)):
                best, best_gap = cand, gap
        return best

    frames: dict[int, tuple[list, list]] = {}
    for b in gts:
        frames.setdefault(b.t, ([], []))[1].append(b)
    for b in preds:
        frames.setdefault(snap(b.t), ([], []))[0].append(b)
    return [frames[t] for t in sorted(frames)]


def evaluate_boxes(
    preds: list[AnnotatedBox], gts: list[AnnotatedBox], cfg: EvalConfig = EvalConfig()
) -> EvalReport:
    """Evaluate in-memory box lists; filters apply to both sides."""
    preds = _apply_filters(preds, cfg)
    gts = _apply_filters(gts, cfg)
    if not gts:
        raise NoGroundTruth("no ground-truth boxes after filtering")
    frames = _group_frames(preds, gts, cfg.time_tolerance_us)
    classes = (
        sorted(set(cfg.class_ids))
        if cfg.class_ids is not None
        else sorted({b.class_id for b in gts})
    )
    # Columns run in frame order, then input order within a frame; the stable
    # sort in average_precision breaks score ties in that order.
    matched = np.concatenate([match_frame(p, g, DEFAULT_THRESHOLDS) for p, g in frames], axis=1)
    scores = np.array([p.score for ps, _ in frames for p in ps])
    pred_classes = np.array([p.class_id for ps, _ in frames for p in ps], dtype=np.int64)
    n_gt = Counter(b.class_id for b in gts)
    masks = [pred_classes == c for c in classes]
    # One row per threshold, one column per class.
    table = [[average_precision(scores[sel], row[sel] >= 0, n_gt[c])
              for c, sel in zip(classes, masks)] for row in matched]
    row_means = [_mean(row) for row in table]
    return EvalReport(
        map=_mean(row_means),
        map50=row_means[DEFAULT_THRESHOLDS.index(0.5)],
        map75=row_means[DEFAULT_THRESHOLDS.index(0.75)],
        per_class={c: _mean(column) for c, column in zip(classes, zip(*table))},
        n_frames=len(frames),
        n_predictions=len(preds),
        n_ground_truth=len(gts),
    )


def evaluate(pred_path, gt_path, cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Evaluate prediction/ground-truth annotation files."""
    return evaluate_boxes(read_annotations(pred_path), read_annotations(gt_path), cfg)


def format_report(report: EvalReport) -> str:
    """Machine-diffable report with a fixed key order."""
    lines = [
        f"map={report.map!r}",
        f"map50={report.map50!r}",
        f"map75={report.map75!r}",
        f"frames={report.n_frames}",
        f"predictions={report.n_predictions}",
        f"ground_truth={report.n_ground_truth}",
    ]
    for c in sorted(report.per_class):
        lines.append(f"ap class={c} value={report.per_class[c]!r}")
    return "".join(line + "\n" for line in lines)

"""Independent reference implementations used as test oracles.

Everything here is deliberately written loop-by-loop in plain Python
(or with trivial numpy bookkeeping), separate from the library's
vectorized code paths.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np


def bucket_counts(timestamps, t_frame, t_start, n_windows):
    """Per-window event counts by scanning every event."""
    counts = [0] * n_windows
    for t in timestamps:
        counts[(int(t) - t_start) // t_frame] += 1
    return counts


def stacked_counts(events, t0, t_bin, n_bins, height, width):
    """Dict of (p, bin, y, x) -> count via a plain scan."""
    out = {}
    for t, x, y, p in events:
        i = (int(t) - t0) // t_bin
        assert 0 <= i < n_bins
        key = (int(p), i, int(y), int(x))
        out[key] = out.get(key, 0) + 1
    return out


# --- resampling ------------------------------------------------------------------


def _cubic_weight(t, a=-0.5):
    t = abs(t)
    if t <= 1.0:
        return ((a + 2.0) * t - (a + 3.0)) * t * t + 1.0
    if t < 2.0:
        return (((t - 5.0) * t + 8.0) * t - 4.0) * a
    return 0.0


def naive_downscale(frame, factor, method):
    """Direct per-output-pixel 2D resampling with pixel-center sampling."""
    c, h, w = frame.shape
    oh, ow = h // factor, w // factor
    out = [[[0.0] * ow for _ in range(oh)] for _ in range(c)]

    def taps(s, size):
        if method == "nearest":
            return [(min(max(int(math.ceil(s - 0.5)), 0), size - 1), 1.0)]
        base = math.floor(s)
        if method == "bilinear":
            offs = (0, 1)
            weight = lambda u: max(0.0, 1.0 - abs(u))
        else:
            offs = (-1, 0, 1, 2)
            weight = _cubic_weight
        return [
            (min(max(base + o, 0), size - 1), weight(s - (base + o))) for o in offs
        ]

    for ci in range(c):
        for yo in range(oh):
            sy = (yo + 0.5) * factor - 0.5
            for xo in range(ow):
                sx = (xo + 0.5) * factor - 0.5
                acc = 0.0
                for iy, wy in taps(sy, h):
                    for ix, wx in taps(sx, w):
                        acc += wy * wx * float(frame[ci][iy][ix])
                out[ci][yo][xo] = acc
    return out


def naive_warp(values, transform):
    """Bilinear inverse-mapping warp of a (C, H, W) array, one output pixel at
    a time, as float32.  Each output pixel center is mapped through
    `transform.inverse().apply`; its four taps are summed in the order
    (0,0), (0,1), (1,0), (1,1), and a tap outside the frame has weight 0."""
    c, h, w = values.shape
    inverse = transform.inverse()
    out = np.zeros((c, h, w), dtype=np.float32)
    for yo in range(h):
        for xo in range(w):
            sx, sy = inverse.apply(np.array([[xo + 0.5, yo + 0.5]]))[0] - 0.5
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            for ci in range(c):
                acc = 0.0
                for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    ix, iy = x0 + dx, y0 + dy
                    inside = 0 <= ix < w and 0 <= iy < h
                    weight = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
                    acc += float(values[ci, iy, ix]) * weight if inside else 0.0
                out[ci, yo, xo] = acc
    return out


# --- boxes under affine maps ---------------------------------------------------------


def dense_point_hull(box_xywh, matrix, n=25):
    """Bounding box of a dense grid of points inside the box, mapped by the
    2x3 affine matrix."""
    x, y, w, h = box_xywh
    xs, ys = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            px = x + w * i / n
            py = y + h * j / n
            qx = matrix[0][0] * px + matrix[0][1] * py + matrix[0][2]
            qy = matrix[1][0] * px + matrix[1][1] * py + matrix[1][2]
            xs.append(qx)
            ys.append(qy)
    return min(xs), min(ys), max(xs), max(ys)


def apply_to_boxes_loop(boxes, aug, min_area=4.0, min_visibility=0.1):
    """`augment.apply_to_boxes` one box at a time: each box's four corners go
    through `aug.transform.apply`, and the clipped hull is kept or dropped
    with Python scalar comparisons."""
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
        out.append(dataclasses.replace(box, x=float(cx0), y=float(cy0),
                                       w=float(cx1 - cx0), h=float(cy1 - cy0)))
    return out


def box_iou_ref(a, b):
    """(x, y, w, h) rectangle IoU, written independently of the library."""
    ax0, ay0, ax1, ay1 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx0, by0, bx1, by1 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union


def greedy_match_by_enumeration(preds, gts, threshold):
    """COCO greedy matching as the lexicographic-maximum assignment.

    In descending-score order, greedy gives each prediction the best
    available gt; that outcome is exactly the assignment maximizing the
    tuple of matched IoUs lexicographically.  Enumerate everything.
    """
    order = sorted(range(len(preds)), key=lambda i: -preds[i].score)
    options = []
    for i in order:
        valid = [None]
        for j, g in enumerate(gts):
            if g.class_id == preds[i].class_id:
                v = box_iou_ref((preds[i].x, preds[i].y, preds[i].w, preds[i].h),
                                (g.x, g.y, g.w, g.h))
                if v >= threshold:
                    valid.append((j, v))
        options.append(valid)
    best_key, best = None, None
    for combo in itertools.product(*options):
        taken = [c[0] for c in combo if c is not None]
        if len(taken) != len(set(taken)):
            continue
        key = tuple(-1.0 if c is None else c[1] for c in combo)
        if best_key is None or key > best_key:
            best_key, best = key, combo
    assignment = {}
    for i, c in zip(order, best):
        if c is not None:
            assignment[i] = c[0]
    return assignment  # pred input index -> gt input index


# --- the slow mAP path -----------------------------------------------------------


def slow_evaluate(preds, gts, thresholds, recall_grid):
    """Reference COCO-style evaluator: per-frame greedy matching in score
    order, PR curve per class and threshold, interpolated AP on the grid.
    Returns (map, map_by_threshold, ap[class][threshold])."""
    frame_ts = sorted({b.t for b in gts} | {b.t for b in preds})
    classes = sorted({g.class_id for g in gts})
    ap = {c: {} for c in classes}
    for tau in thresholds:
        scored = []  # (score, class, tp) in frame order, score order inside
        for ft in frame_ts:
            fp = [p for p in preds if p.t == ft]
            fg = [g for g in gts if g.t == ft]
            used = set()
            for i in sorted(range(len(fp)), key=lambda k: -fp[k].score):
                best_j, best_v = None, 0.0
                for j in range(len(fg)):
                    if j in used or fg[j].class_id != fp[i].class_id:
                        continue
                    v = box_iou_ref((fp[i].x, fp[i].y, fp[i].w, fp[i].h),
                                    (fg[j].x, fg[j].y, fg[j].w, fg[j].h))
                    if v >= tau and v > best_v:
                        best_j, best_v = j, v
                if best_j is not None:
                    used.add(best_j)
                scored.append((fp[i].score, fp[i].class_id, best_j is not None))
        for c in classes:
            n_gt = sum(1 for g in gts if g.class_id == c)
            rows = [r for r in scored if r[1] == c]
            rows.sort(key=lambda r: -r[0])  # stable
            tp = fp_count = 0
            recall, precision = [], []
            for score, _, is_tp in rows:
                if is_tp:
                    tp += 1
                else:
                    fp_count += 1
                recall.append(tp / n_gt)
                precision.append(tp / (tp + fp_count))
            interp = []
            for r in recall_grid:
                vals = [p for p, rc in zip(precision, recall) if rc >= r]
                interp.append(max(vals) if vals else 0.0)
            ap[c][tau] = sum(interp) / len(interp)
    map_by_t = {tau: sum(ap[c][tau] for c in classes) / len(classes) for tau in thresholds}
    overall = sum(map_by_t.values()) / len(map_by_t)
    return overall, map_by_t, ap


# --- scalar LSTM -----------------------------------------------------------------


def scalar_lstm_step(x, h, c, wx, wh, b):
    """Single-unit LSTM with gate order i, f, g, o; pure math module."""
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    zi = wx[0] * x + wh[0] * h + b[0]
    zf = wx[1] * x + wh[1] * h + b[1]
    zg = wx[2] * x + wh[2] * h + b[2]
    zo = wx[3] * x + wh[3] * h + b[3]
    c_next = sig(zf) * c + sig(zi) * math.tanh(zg)
    h_next = sig(zo) * math.tanh(c_next)
    return h_next, c_next


def direct_conv2d_same(x, w):
    """Zero-padded cross-correlation summed term by term: (Cin,h,w), (Cout,Cin,k,k)."""
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    r = k // 2
    out = np.zeros((cout, h, wd))
    for o in range(cout):
        for i in range(h):
            for j in range(wd):
                for c in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            yy, xx = i + dy - r, j + dx - r
                            if 0 <= yy < h and 0 <= xx < wd:
                                out[o, i, j] += w[o, c, dy, dx] * x[c, yy, xx]
    return out

"""Seeded input synthesis for the evkit benchmark.

Everything here is written with numpy and the file layouts documented in the
evkit README; nothing imports evkit, so the program under test only ever sees
the generated files.  The same seed gives byte-identical inputs.

Run as a script with a JSON spec path: it builds the workload's inputs
several times, timing each build with one start of evkit, and writes a
manifest describing the timed commands and the expected outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

T_FRAME = 50_000  # us, the presets' window
GEN1 = (304, 240)
GEN4 = (1280, 720)
THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))

# Per-window event counts.  gen1 cycles across the histogram's dense/sparse
# switch at n_cells/16 = 2*10*240*304/16 = 91,200 events per window, so both
# accumulation paths run in every convert.
GEN1_RATES = (12_000, 40_000, 70_000, 115_000, 150_000)
GEN4_RATES = (250_000, 600_000, 1_250_000)
GEN1_CONVERT_WINDOWS = 50
GEN4_CONVERT_WINDOWS = 3
AUGMENT_WINDOWS = 21  # one whole gen1 clip
AUGMENT_DRAW_SEED = 1
MIN_BOX_AREA = 4.0  # augment drops boxes smaller than this after the warp,
MIN_BOX_VISIBILITY = 0.1  # or with less than this share of their hull inside
EVAL_FRAMES = 60
EVAL_GT_PER_FRAME = 20
EVAL_FP_PER_FRAME = 40

# IoU of each ground-truth box's one candidate prediction; each level sits
# midway between two evaluation thresholds, so float rounding cannot flip a
# match.  0.45 never matches.
IOU_LEVELS = (0.45, 0.525, 0.575, 0.625, 0.675, 0.725, 0.775, 0.825, 0.875,
              0.925, 0.975)
IOU_MARGIN = 0.02


def window_counts(n_windows: int, rates) -> np.ndarray:
    """Counts cycling through `rates`, the same for every seed.

    The seed moves the events, not their number: the number of events and
    which window is dense decide the allocation pattern, and with it the
    peak RSS (gen4 jumped by 36 MB above about 2.155 M events).
    """
    return np.array([rates[k % len(rates)] for k in range(n_windows)], dtype=np.int64)


def events(rng: np.random.Generator, counts: np.ndarray, width: int, height: int):
    """Time-sorted uniform events, `counts[k]` of them in window k.

    The final event sits on the last microsecond so no window is partial.
    """
    n = int(counts.sum())
    window = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    t = window * T_FRAME + rng.integers(0, T_FRAME, n)
    t.sort()
    t[-1] = len(counts) * T_FRAME - 1
    x = rng.integers(0, width, n).astype(np.uint16)
    y = rng.integers(0, height, n).astype(np.uint16)
    p = rng.integers(0, 2, n).astype(np.uint8)
    return t, x, y, p


def write_evs(path: Path, width: int, height: int, t, x, y, p) -> None:
    rec = np.zeros(len(t), dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                                  ("p", "u1"), ("r", "u1")])
    rec["t"], rec["x"], rec["y"], rec["p"] = t, x, y, p
    header = (b"EVS1" + width.to_bytes(4, "little") + height.to_bytes(4, "little")
              + len(t).to_bytes(8, "little"))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rec.tobytes())


def write_dat(path: Path, width: int, height: int, t, x, y, p) -> None:
    """DAT 2.0: '%' header lines, event type and size bytes, 8-byte records."""
    words = np.empty((len(t), 2), dtype="<u4")
    words[:, 0] = t
    words[:, 1] = (x.astype(np.uint32) | (y.astype(np.uint32) << 14)
                   | (p.astype(np.uint32) << 28))
    header = (f"% Date 2024-01-01 00:00:00\n% Version 2\n% Width {width}\n"
              f"% Height {height}\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + bytes([0x0C, 8]))
        fh.write(words.tobytes())


def window_boxes(rng: np.random.Generator, n_windows: int, width: int, height: int,
                 size: tuple[float, float]) -> list[dict]:
    """Ground-truth boxes at 20 Hz: 2-6 boxes stamped mid-window, in time order."""
    boxes = []
    for k in range(n_windows):
        for _ in range(int(rng.integers(2, 7))):
            w, h = (round(float(v), 2) for v in rng.uniform(*size, 2))
            boxes.append({
                "t": k * T_FRAME + T_FRAME // 2,
                "x": round(float(rng.uniform(0, width - w)), 2),
                "y": round(float(rng.uniform(0, height - h)), 2),
                "w": w, "h": h, "class": int(rng.integers(0, 2)),
                "score": 1.0, "track": int(rng.integers(0, 1000)),
            })
    return boxes


def format_box(b: dict) -> str:
    return (f"t={b['t']} x={b['x']!r} y={b['y']!r} w={b['w']!r} h={b['h']!r} "
            f"class={b['class']} score={b['score']!r} track={b['track']}")


def write_boxes(path: Path, boxes: list[dict]) -> None:
    path.write_text("".join(format_box(b) + "\n" for b in boxes), encoding="ascii")


# --- known-answer evaluation inputs -----------------------------------------------


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (N, 4) and (M, 4) arrays of x, y, w, h."""
    ix = (np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2])
          - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = (np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3])
          - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    area_a = a[:, 2] * a[:, 3]
    area_b = b[:, 2] * b[:, 3]
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _eval_frame(rng: np.random.Generator):
    """One frame: gts on a 5x4 grid, one candidate per gt at a chosen IoU,
    and false positives whose IoU with every gt stays below 0.43."""
    width, height = GEN1
    gts = []
    for cell in range(EVAL_GT_PER_FRAME):
        cx, cy = (cell % 5) * 60.0, (cell // 5) * 60.0
        w, h = rng.uniform(16, 36, 2)
        gts.append([cx + rng.uniform(2, 58 - w), cy + rng.uniform(2, 58 - h), w, h])
    gts = np.round(np.array(gts), 2)
    # Equal class shares keep the matching work the same on every seed.
    gt_class = rng.permutation(np.arange(len(gts)) % 2)
    levels = rng.choice(IOU_LEVELS, len(gts))
    # Same-size box shifted by dx along x has IoU (w - dx) / (w + dx).
    dx = gts[:, 2] * (1 - levels) / (1 + levels)
    cand = gts.copy()
    cand[:, 0] += np.where(rng.random(len(gts)) < 0.5, dx, -dx)
    fps = []
    while len(fps) < EVAL_FP_PER_FRAME:
        w, h = rng.uniform(8, 40, 2)
        box = [rng.uniform(0, width - w), rng.uniform(0, height - h), w, h]
        # Stricter than the check below, which must survive the rounding.
        if _iou(np.array([box]), gts).max() < 0.45 - 2 * IOU_MARGIN:
            fps.append(box)
    preds = np.vstack([cand, np.round(np.array(fps), 2)])
    pred_class = np.concatenate([gt_class, rng.permutation(np.arange(len(fps)) % 2)])
    ious = _iou(preds, gts)
    # Known answer: candidate i can only match gt i, and only when its IoU
    # clears the threshold.  Verify the construction rather than trust it.
    own = ious[np.arange(len(gts)), np.arange(len(gts))]
    others = ious.copy()
    others[np.arange(len(gts)), np.arange(len(gts))] = 0.0
    if others.max() >= 0.45 - IOU_MARGIN:
        raise AssertionError("synthetic prediction overlaps a foreign gt")
    near = np.abs(own[:, None] - np.array(THRESHOLDS)[None, :]).min()
    if near < IOU_MARGIN or np.abs(own - levels).max() > 1e-6:
        raise AssertionError("candidate IoU too close to a threshold")
    tp_iou = np.concatenate([own, np.zeros(len(fps))])
    return gts, gt_class, preds, pred_class, tp_iou


def _ap(scores: np.ndarray, tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of a ranked list (reference, not evkit's)."""
    order = np.argsort(-scores, kind="stable")
    tp = tp[order]
    tp_cum = np.cumsum(tp)
    precision = tp_cum / np.arange(1, len(tp) + 1)
    recall = tp_cum / n_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    values = []
    for r in np.linspace(0.0, 1.0, 101):
        hit = np.flatnonzero(recall >= r)
        values.append(envelope[hit[0]] if hit.size else 0.0)
    return float(np.mean(values))


def _box_line(t: int, box, class_id, score: float) -> str:
    x, y, w, h = (float(v) for v in box)
    return format_box({"t": t, "x": x, "y": y, "w": w, "h": h, "class": int(class_id),
                       "score": float(score), "track": "-"})


def eval_inputs(rng: np.random.Generator, n_frames: int):
    """Predictions, ground truth and the exact report evkit must produce."""
    gt_lines, pred_lines = [], []
    parts = []
    for k in range(n_frames):
        t = (k + 1) * T_FRAME
        gts, gt_class, preds, pred_class, tp_iou = _eval_frame(rng)
        scores = rng.uniform(0.01, 1.0, len(preds))
        gt_lines += [_box_line(t, b, c, 1.0) for b, c in zip(gts, gt_class)]
        pred_lines += [_box_line(t, b, c, s) for b, c, s in zip(preds, pred_class, scores)]
        parts.append((scores, pred_class, tp_iou, gt_class))
    scores, pred_class, tp_iou, gt_class = (np.concatenate(a) for a in zip(*parts))
    if len(np.unique(scores)) != len(scores):
        raise AssertionError("tied scores make the ranking ambiguous")
    ap = {
        (thr, c): _ap(scores[pred_class == c], tp_iou[pred_class == c] >= thr,
                      int(np.sum(gt_class == c)))
        for thr in THRESHOLDS for c in (0, 1)
    }
    expected = {
        "map": float(np.mean([np.mean([ap[t, c] for c in (0, 1)]) for t in THRESHOLDS])),
        "map50": float(np.mean([ap[0.5, c] for c in (0, 1)])),
        "map75": float(np.mean([ap[0.75, c] for c in (0, 1)])),
        "per_class": {str(c): float(np.mean([ap[t, c] for t in THRESHOLDS]))
                      for c in (0, 1)},
        "frames": n_frames, "predictions": len(pred_lines),
        "ground_truth": len(gt_lines),
    }
    return pred_lines, gt_lines, expected


# --- workloads -------------------------------------------------------------------


def _recording(rng, path: Path, n_windows: int, rates, geometry, fmt: str,
               box_size) -> dict:
    width, height = geometry
    counts = window_counts(n_windows, rates)
    t, x, y, p = events(rng, counts, width, height)
    (write_evs if fmt == "evs" else write_dat)(path, width, height, t, x, y, p)
    boxes = window_boxes(rng, n_windows, width, height, box_size)
    write_boxes(path.with_suffix(".txt"), boxes)
    return {"counts": counts.tolist(), "events": int(counts.sum()), "boxes": boxes}


def build(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under `inputs`; return the manifest."""
    rng = np.random.default_rng([seed, sum(workload.encode())])
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    common = ["--preset", "gen1-like", "--threads", "1"]
    if workload in ("gen1_convert", "gen4_convert"):
        gen4 = workload == "gen4_convert"
        rec = inputs / ("recording.dat" if gen4 else "recording.evs")
        info = _recording(
            rng, rec, GEN4_CONVERT_WINDOWS if gen4 else GEN1_CONVERT_WINDOWS,
            GEN4_RATES if gen4 else GEN1_RATES, GEN4 if gen4 else GEN1,
            "dat" if gen4 else "evs", (40.0, 300.0) if gen4 else (10.0, 80.0))
        argv = ["convert", str(rec), "--output", "{out}", "--annotations",
                str(rec.with_suffix(".txt")), "--preset",
                "gen4-like" if gen4 else "gen1-like", "--threads", "1"]
        return {"commands": [argv], "items": info["events"], "unit": "events",
                "command_rates": [["convert.events_per_s", info["events"]]], **info,
                "factor": 2 if gen4 else 1,
                "shape": [20, 384, 640] if gen4 else [20, 256, 320],
                "dtype": 2 if gen4 else 1}
    if workload == "gen1_augment_eval":
        rec = inputs / "recording.evs"
        info = _recording(rng, rec, AUGMENT_WINDOWS, GEN1_RATES, GEN1, "evs",
                          (20.0, 80.0))
        frames = inputs / "frames"
        _cli(["convert", str(rec), "--output", str(frames), "--annotations",
              str(rec.with_suffix(".txt")), *common])
        # The warp's cost depends on the drawn affine (up to 25% between
        # draws), so the draw is pinned: rotation on, augment seed fixed.
        # This draw applies every geometric stage.  The frames and boxes
        # still come from the benchmark seed.
        config = inputs / "augment.ini"
        config.write_text(f"[augment]\nrotate_p = 1.0\nmin_box_area = {MIN_BOX_AREA}\n"
                          f"min_box_visibility = {MIN_BOX_VISIBILITY}\n", encoding="ascii")
        augment = ["augment", str(frames), "--output", "{out}", "--annotations",
                   str(frames / "annotations.txt"), "--mode", "video", "--seed",
                   str(AUGMENT_DRAW_SEED), "--config", str(config), *common]
        preds, gts, expected = eval_inputs(rng, EVAL_FRAMES)
        (inputs / "predictions.txt").write_text("\n".join(preds) + "\n", encoding="ascii")
        (inputs / "ground_truth.txt").write_text("\n".join(gts) + "\n", encoding="ascii")
        evaluate = ["evaluate", str(inputs / "predictions.txt"),
                    str(inputs / "ground_truth.txt"), "--output", "{out}/report.txt",
                    *common]
        return {"commands": [augment, evaluate], "items": AUGMENT_WINDOWS,
                "unit": "frames", "command_rates": [["augment.frames_per_s", AUGMENT_WINDOWS],
                                                   ["evaluate.frames_per_s", EVAL_FRAMES]],
                "frames": AUGMENT_WINDOWS, "clips": 1,
                "shape": [20, 256, 320],
                "min_box_area": MIN_BOX_AREA, "min_box_visibility": MIN_BOX_VISIBILITY,
                "expected": expected}
    raise ValueError(f"unknown workload {workload!r}")


def _cli(argv: list[str]) -> None:
    """Run evkit in this process; set-up work, so it is timed as set-up."""
    from evkit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            raise RuntimeError(f"set-up command failed: evkit {' '.join(argv)}")


def main(spec_path: str) -> None:
    """Builds the inputs `repeats` times; each set-up also starts evkit once.

    The timed loop calls `evkit.cli.main` in one process, so it skips the
    interpreter start and the imports that every CLI command pays.  Timing
    them here makes work moved into import time show in `setup_s`."""
    spec = json.loads(Path(spec_path).read_text())
    times = []
    for _ in range(spec["repeats"]):
        start = time.perf_counter()
        manifest = build(spec["workload"], spec["seed"], Path(spec["inputs"]))
        subprocess.run([sys.executable, "-c", "import evkit.cli"], check=True)
        times.append(time.perf_counter() - start)
    manifest["setup_times"] = times
    Path(spec["manifest"]).write_text(json.dumps(manifest))


if __name__ == "__main__":
    main(sys.argv[1])

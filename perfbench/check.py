"""Output checks that do not use the code under test.

EVF frames are parsed here from the documented layout, warps are redone by
an independent bilinear sampler, and the evaluation report is compared with
the answer `synth.eval_inputs` derived when it built the inputs.  `check`
returns a list of failure messages; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from synth import GEN1, GEN4, T_FRAME

EVF_DTYPES = {1: np.dtype("<u2"), 2: np.dtype("<f4")}
GEN4_SUM_RTOL = 1e-6  # 4 x (f32 frame sum) vs events: bilinear /2 is exact
BOX_RTOL = 1e-9
MAP_ATOL = 1e-9
WARP_ATOL = 1e-3  # float32 output of a float64 warp
AUG_BOX_ATOL = 1e-6  # the hull is recomputed here in float64


def read_evf(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"EVF1" or len(data) < 16 or data[4] not in EVF_DTYPES:
        raise ValueError(f"{path.name}: bad EVF header")
    dtype = EVF_DTYPES[data[4]]
    c, h, w = (int.from_bytes(data[a:b], "little") for a, b in ((6, 8), (8, 12), (12, 16)))
    if len(data) != 16 + c * h * w * dtype.itemsize:
        raise ValueError(f"{path.name}: body size does not match {c}x{h}x{w}")
    return np.frombuffer(data, dtype, offset=16).reshape(c, h, w)


def parse_kv(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split())


def read_boxes(path: Path) -> list[dict[str, str]]:
    return [parse_kv(line) for line in path.read_text().splitlines() if line.strip()]


def check_convert(manifest: dict, out: Path) -> list[str]:
    fails = []
    counts, factor = manifest["counts"], manifest["factor"]
    c, h_pad, w_pad = manifest["shape"]
    w_real, h_real = ((GEN4 if factor == 2 else GEN1)[i] // factor for i in (0, 1))
    box_t = [b["t"] for b in manifest["boxes"]]
    index = [parse_kv(line) for line in (out / "index.txt").read_text().splitlines()]
    if len(index) != len(counts):
        return [f"index has {len(index)} windows, expected {len(counts)}"]
    total = 0
    for k, (entry, count) in enumerate(zip(index, counts)):
        t0, t1 = k * T_FRAME, (k + 1) * T_FRAME
        ids = [str(i) for i, t in enumerate(box_t) if t0 <= t < t1]
        want = {"window": str(k), "t0": str(t0), "t1": str(t1),
                "file": f"frame_{k:06d}.evf", "partial": "0", "events": str(count),
                "ann": ",".join(ids) or "-"}
        if entry != want:
            fails.append(f"index line {k} is {entry}, expected {want}")
            continue
        total += int(entry["events"])
        frame = read_evf(out / entry["file"])
        if frame.shape != (c, h_pad, w_pad) or frame.dtype != EVF_DTYPES[manifest["dtype"]]:
            fails.append(f"window {k}: shape {frame.shape} {frame.dtype}")
            continue
        if frame[:, h_real:, :].any() or frame[:, :, w_real:].any():
            fails.append(f"window {k}: nonzero padding")
        frame_sum = float(frame.sum(dtype=np.float64))
        if factor == 1 and frame_sum != count:
            fails.append(f"window {k}: frame sums to {frame_sum}, events={count}")
        if factor > 1 and abs(frame_sum * factor * factor - count) > GEN4_SUM_RTOL * count:
            fails.append(f"window {k}: {factor * factor} x frame sum "
                         f"{frame_sum * factor * factor}, events={count}")
    if total != manifest["events"]:
        fails.append(f"windows hold {total} events, recording has {manifest['events']}")
    out_boxes = read_boxes(out / "annotations.txt")
    if len(out_boxes) != len(manifest["boxes"]):
        fails.append(f"{len(out_boxes)} annotations written, {len(manifest['boxes'])} given")
    for got, src in zip(out_boxes, manifest["boxes"]):
        for key in ("x", "y", "w", "h"):
            want = src[key] / factor
            if not math.isclose(float(got[key]), want, rel_tol=BOX_RTOL, abs_tol=BOX_RTOL):
                fails.append(f"box at t={src['t']}: {key}={got[key]}, expected {want}")
                break
    return fails


def warp(values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-map pixel centres through a 2x3 affine, bilinear, fill 0."""
    c, height, width = values.shape
    a, b, tx, cc, d, ty = matrix.ravel()
    det = a * d - b * cc
    ys, xs = np.mgrid[0:height, 0:width] + 0.5
    u, v = xs - tx, ys - ty
    sx = (d * u - b * v) / det - 0.5
    sy = (-cc * u + a * v) / det - 0.5
    x0, y0 = np.floor(sx).astype(np.int64), np.floor(sy).astype(np.int64)
    out = np.zeros((c, height, width))
    for dy in (0, 1):
        for dx in (0, 1):
            xi, yi = x0 + dx, y0 + dy
            wgt = (sx - x0 if dx else 1 - (sx - x0)) * (sy - y0 if dy else 1 - (sy - y0))
            inside = (xi >= 0) & (xi < width) & (yi >= 0) & (yi < height)
            out += values[:, np.clip(yi, 0, height - 1), np.clip(xi, 0, width - 1)] \
                * (wgt * inside)
    return out


def check_augment(manifest: dict, out: Path, stdout: str, inputs: Path) -> list[str]:
    fails = []
    n, clips = manifest["frames"], manifest["clips"]
    if f"augmented frames={n} clips={clips} mode=video" not in stdout:
        fails.append(f"stdout {stdout.strip()!r}")
    files = sorted(out.glob("aug_*.evf"))
    if [p.name for p in files] != [f"aug_{k:06d}.evf" for k in range(n)]:
        return fails + [f"{len(files)} augmented frames written, expected {n}"]
    log = [parse_kv(line) for line in (out / "aug_log.txt").read_text().splitlines()]
    clip_lines = [e for e in log if "affine" in e]
    erase = [e["erase"] for e in log if "erase" in e]
    if len(clip_lines) != clips or len(erase) != n:
        return fails + [f"aug_log has {len(clip_lines)} clips and {len(erase)} frames"]
    matrix = np.array([float(v) for v in clip_lines[0]["affine"].split(",")]).reshape(2, 3)
    for k, path in enumerate(files):
        frame = read_evf(path)
        if frame.shape != tuple(manifest["shape"]):
            fails.append(f"{path.name}: shape {frame.shape}")
            continue
        want = warp(read_evf(inputs / "frames" / f"frame_{k:06d}.evf").astype(np.float64),
                    matrix)
        if erase[k] != "-":
            top, left, eh, ew = (int(v) for v in erase[k].split(","))
            want[:, top:top + eh, left:left + ew] = 0
        err = np.abs(frame - want).max()
        if not err <= WARP_ATOL:
            fails.append(f"{path.name}: differs from the reference warp by {err}")
    want_boxes = expected_boxes(manifest, inputs / "frames", matrix)
    boxes = read_boxes(out / "annotations.txt")
    if len(boxes) != len(want_boxes):
        return fails + [f"{len(boxes)} boxes written, expected {len(want_boxes)}"]
    for got, want in zip(boxes, want_boxes):
        if got["t"] != want["t"] or got["class"] != want["class"] or any(
                not abs(float(got[key]) - want[key]) <= AUG_BOX_ATOL
                for key in ("x", "y", "w", "h")):
            fails.append(f"box {got}, expected {want}")
            break
    return fails


def expected_boxes(manifest: dict, frames: Path, matrix: np.ndarray) -> list[dict]:
    """Each frame's input boxes mapped by the affine: clipped hull, small ones dropped."""
    height, width = manifest["shape"][1:]
    min_area, min_visibility = manifest["min_box_area"], manifest["min_box_visibility"]
    index = [parse_kv(line) for line in (frames / "index.txt").read_text().splitlines()]
    boxes = sorted(read_boxes(frames / "annotations.txt"), key=lambda b: int(b["t"]))
    (a, b, tx), (c, d, ty) = matrix.tolist()
    out = []
    for entry in index:
        t0, t1 = int(entry["t0"]), int(entry["t1"])
        for box in boxes:
            if not t0 <= int(box["t"]) < t1:
                continue
            x, y, w, h = (float(box[key]) for key in ("x", "y", "w", "h"))
            xs, ys = [], []
            for px, py in ((x, y), (x + w, y), (x, y + h), (x + w, y + h)):
                xs.append(a * px + b * py + tx)
                ys.append(c * px + d * py + ty)
            hull = (max(xs) - min(xs)) * (max(ys) - min(ys))
            x0, y0 = max(min(xs), 0.0), max(min(ys), 0.0)
            x1, y1 = min(max(xs), width), min(max(ys), height)
            area = (x1 - x0) * (y1 - y0)
            if x1 <= x0 or y1 <= y0 or area < min_area or area < min_visibility * hull:
                continue
            out.append({"t": box["t"], "class": box["class"], "x": x0, "y": y0,
                        "w": x1 - x0, "h": y1 - y0})
    return out


def check_evaluate(manifest: dict, out: Path) -> list[str]:
    expected = manifest["expected"]
    text = (out / "report.txt").read_text()
    report = dict(re.findall(r"^(\w+)=(\S+)$", text, re.M))
    per_class = dict(re.findall(r"^ap class=(\d+) value=(\S+)$", text, re.M))
    fails = []
    for key in ("frames", "predictions", "ground_truth"):
        if report.get(key) != str(expected[key]):
            fails.append(f"{key}={report.get(key)}, expected {expected[key]}")
    got = {key: float(report.get(key, "nan")) for key in ("map", "map50", "map75")}
    got.update({f"class {c}": float(v) for c, v in per_class.items()})
    want = {key: expected[key] for key in ("map", "map50", "map75")}
    want.update({f"class {c}": v for c, v in expected["per_class"].items()})
    for key, value in want.items():
        if not abs(got.get(key, math.nan) - value) <= MAP_ATOL:
            fails.append(f"{key}={got.get(key)}, expected {value}")
    if not 0.0 <= got["map"] <= got["map50"] <= 1.0:
        fails.append(f"not 0 <= map <= map50 <= 1: {got}")
    return fails


def check(workload: str, manifest: dict, out: Path, stdout: list[str],
          inputs: Path) -> list[str]:
    """Failures in one pass's outputs; command i wrote under out/i."""
    try:
        if workload.endswith("_convert"):
            return check_convert(manifest, out / "0")
        return (check_augment(manifest, out / "0", stdout[0], inputs)
                + check_evaluate(manifest, out / "1"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    manifest = json.loads(Path(spec["manifest"]).read_text())
    fails = check(spec["workload"], manifest, Path(spec["out"]), spec["stdout"],
                  Path(spec["inputs"]))
    Path(spec["fails"]).write_text(json.dumps(fails))


if __name__ == "__main__":
    main(sys.argv[1])

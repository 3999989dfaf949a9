"""Command-line front end: convert, stats, augment, plan, evaluate.

One structured config file (key = value sections per module) plus flag
overrides, flags winning.  Presets encode the two supported sensor layouts:
gen1-like (304x240, pad to 256x320, clips of 21) and gen4-like (1280x720,
bilinear downscale by 2, pad to 384x640, clips of 10).  Inputs are always
user-supplied paths; nothing is downloaded.

Every command is deterministic given (inputs, config, seed) and exits
nonzero with a single-line machine-parsable error on any failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import augment as augmod
from . import codec, detmetrics, sampler
from .errors import BadHeader, EvkitError, InsufficientSpace, ParseError
from .event_core import SensorGeometry, WindowSlice, stream_windows, window_count
from .geometry import EVEN_FACTOR_TAPS, map_boxes
from .representation import EVF_MAX_CHANNELS, BinCounter, StackedHistogramConfig


@dataclass(frozen=True)
class PipelineConfig:
    preset: str = "gen1-like"
    geometry: SensorGeometry = SensorGeometry(304, 240)
    downscale_factor: int = 1
    downscale_method: str = "bilinear"
    pad_multiple: int = 32
    clip_len: int = 21
    n_random: int = 4
    n_sequential: int = 4
    hist: StackedHistogramConfig = StackedHistogramConfig()
    augment: augmod.AugmentConfig = augmod.AugmentConfig()
    eval: detmetrics.EvalConfig = detmetrics.EvalConfig()
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        for name in ("downscale_factor", "pad_multiple", "clip_len", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.downscale_method not in EVEN_FACTOR_TAPS:
            raise ValueError(f"unknown downscale_method {self.downscale_method!r}")
        if 2 * self.hist.n_bins > EVF_MAX_CHANNELS:  # two channels per bin
            raise ValueError(f"n_bins must be <= {EVF_MAX_CHANNELS // 2}, got {self.hist.n_bins}")


PRESETS = {
    "gen1-like": PipelineConfig(),
    "gen4-like": PipelineConfig(preset="gen4-like", geometry=SensorGeometry(1280, 720),
                                downscale_factor=2, clip_len=10),
}


def _geometry(raw: str) -> SensorGeometry:
    width, _, height = raw.partition("x")
    return SensorGeometry(int(width), int(height))


# Config file keys: section -> key -> parser of a non-empty value.  A key names
# the field it sets, except [histogram] t_frame_us and the [augment] range halves.
_KEYS = {
    "pipeline": {"preset": str, "geometry": _geometry, "downscale_method": str,
                 **dict.fromkeys(("downscale_factor", "pad_multiple", "clip_len",
                                  "n_random", "n_sequential", "seed", "threads"), int)},
    "histogram": {"t_frame_us": int, "n_bins": int, "clip_limit": int},
    "augment": dict.fromkeys(
        ("hflip_p", "rotate_p", "rotate_deg", "translate_p", "translate_frac", "scale_p",
         "scale_range_min", "scale_range_max", "shear_p", "shear_deg", "erase_p",
         "erase_area_min", "erase_area_max", "erase_ratio_min", "erase_ratio_max",
         "min_box_area", "min_box_visibility"), float),
    "eval": {"class_ids": lambda raw: tuple(int(c) for c in raw.split(",")),
             "min_diagonal": float, "skip_initial_us": int, "time_tolerance_us": int},
}


def load_config(
    path: str | None = None,
    preset: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> PipelineConfig:
    """Assemble the pipeline config: preset defaults, then file, then flags.

    Every key in the file goes through `_KEYS`; an empty value leaves its key
    unset.  The config dataclasses check the parsed values themselves.
    """
    values: dict[str, dict] = {section: {} for section in _KEYS}
    if path is not None:
        # No section is special: [DEFAULT] is an unknown section like any other.
        parser = configparser.ConfigParser(default_section="", interpolation=None)
        try:
            with open(path, "rb") as fh:
                parser.read_file(codec.ascii_lines(fh), source=str(path))
        except configparser.Error as exc:
            # A duplicate or a missing header carries `lineno`, other syntax errors `errors`.
            lineno = getattr(exc, "lineno", None) or getattr(exc, "errors", [(0,)])[0][0]
            raise ParseError(lineno, str(exc)) from exc
        for section in parser.sections():
            if section not in _KEYS:
                raise ValueError(f"{path}: unknown section [{section}]")
            for key, raw in parser[section].items():
                if key not in _KEYS[section]:
                    raise ValueError(f"{path}: unknown key {key!r} in [{section}]; "
                                     f"accepted: {', '.join(_KEYS[section])}")
                if not raw:
                    continue
                value = values[section][key] = _KEYS[section][key](raw)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{path}: [{section}] {key} = {raw} is not finite")
    pipe, hist, aug, ev = values.values()
    flags = {"preset": preset, "seed": seed, "threads": threads}
    pipe.update((key, value) for key, value in flags.items() if value is not None)
    name = pipe.setdefault("preset", "gen1-like")
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; options: {sorted(PRESETS)}")
    cfg = PRESETS[name]
    if "t_frame_us" in hist:
        hist["t_frame"] = hist.pop("t_frame_us")
    for field in ("scale_range", "erase_area", "erase_ratio"):
        lo, hi = getattr(cfg.augment, field)
        aug[field] = (aug.pop(f"{field}_min", lo), aug.pop(f"{field}_max", hi))
    return replace(cfg, **pipe, hist=replace(cfg.hist, **hist),
                   augment=replace(cfg.augment, **aug), eval=replace(cfg.eval, **ev))


# --- shared input helpers ---------------------------------------------------------


def read_recording(path: str | Path, geometry: SensorGeometry | None) -> codec.Recording:
    """Open an EVS or DAT recording to be read in chunks (see `codec.Recording`).

    A function of its own so that perfbench's tracer can time the open by name."""
    return codec.Recording(path, geometry)


def _frame_name(k: int) -> str:
    return f"frame_{k:06d}.evf"


# --- convert -----------------------------------------------------------------------


def _check_space(out_dir: Path, n_frames: int, frame_size: int) -> None:
    """Fail before anything is written when the frames cannot fit where out_dir goes."""
    probe = out_dir.absolute()
    while not probe.exists():
        probe = probe.parent
    free = shutil.disk_usage(probe).free
    if n_frames * frame_size > free:
        raise InsufficientSpace(
            f"{n_frames} frames of {frame_size} bytes need {n_frames * frame_size} bytes, "
            f"but {probe} has {free} free")


def _box_ranges(boxes: list[codec.AnnotatedBox], spans: list[tuple[int, int]]) -> np.ndarray:
    """The [lo, hi) range of box ids in each [t0, t1) span; boxes are sorted by time."""
    box_t = np.array([b.t for b in boxes], dtype=np.int64)
    return np.searchsorted(box_t, spans)


def cmd_convert(args, cfg: PipelineConfig) -> int:
    t_begin = time.perf_counter()
    boxes = codec.read_annotations(args.annotations) if args.annotations else []
    out_dir = Path(args.output)
    with read_recording(args.input, cfg.geometry) as rec:
        counter = BinCounter(rec.geometry, cfg.hist, factor=cfg.downscale_factor,
                             method=cfg.downscale_method, pad_multiple=cfg.pad_multiple)
        n_windows = 0 if rec.first_t is None else window_count(
            rec.first_t, rec.last_t, cfg.hist.t_frame, args.t_start)
        _check_space(out_dir, n_windows, counter.size)
        bins = stream_windows(rec.chunks(), cfg.hist.t_frame, args.t_start, cfg.hist.n_bins)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.annotations:
            scaled = map_boxes(boxes, 1.0 / cfg.downscale_factor)
            codec.write_annotations(out_dir / "annotations.txt", scaled)
        written: list[WindowSlice] = []
        # Window -> [its file's descriptor, bins being written, last bin taken].
        files: dict[int, list] = {}
        lock = threading.Lock()

        def work() -> None:
            # A worker takes the next bin only when it is free, so at most
            # --threads bins are counted at a time.  A window's file is created
            # with its first bin and closed by whoever finishes its last.
            out = counter.buffer()
            while True:
                with lock:
                    b = next(bins, None)
                    # Write no more windows than the space check counted.  Only
                    # a recording whose last record is not its latest event has
                    # more, and reading on past them reaches its NonMonotoneTimestamp.
                    if b is None or b.k >= n_windows:
                        return
                    if b.i == 0:
                        files[b.k] = [counter.create(out_dir / _frame_name(b.k)), 0, False]
                    file = files[b.k]
                    file[1] += 1
                    if b.closed:
                        file[2] = True
                        written.append(b.closed)
                counter.write(file[0], b.i, b.p, b.y, b.x, out)
                k = b.k
                del b  # its chunk is not held while the next bin is read
                with lock:
                    file[1] -= 1
                    if file[2] and not file[1]:
                        os.close(files.pop(k)[0])

        # This thread is one of the workers, so one worker starts no thread,
        # and no more workers start than there are windows.
        workers = min(cfg.threads, n_windows)
        try:
            with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
                helpers = [pool.submit(work) for _ in range(workers - 1)]
                work()
                for future in helpers:
                    future.result()
        finally:
            for fd, *_ in files.values():
                os.close(fd)
        for _ in bins:
            pass
    # The last window's bins are written before the end of the stream shows it partial.
    if args.drop_partial and written and written[-1].partial:
        written.pop()
        (out_dir / _frame_name(len(written))).unlink()
    box_ranges = _box_ranges(boxes, [(w.window.t0, w.window.t1) for w in written])
    (out_dir / "index.txt").write_text("".join(
        f"window={k} t0={w.window.t0} t1={w.window.t1} file={_frame_name(k)} "
        f"partial={int(w.partial)} events={w.stop - w.start} "
        f"ann={','.join(map(str, range(*ids))) or '-'}\n"
        for k, (w, ids) in enumerate(zip(written, box_ranges))
    ), encoding="ascii")
    elapsed = time.perf_counter() - t_begin
    rate = rec.count / elapsed if elapsed > 0 else float("inf")
    print(
        f"converted windows={len(written)} events={rec.count} "
        f"seconds={elapsed:.3f} rate_eps={rate:.0f}"
    )
    return 0


# --- stats --------------------------------------------------------------------------


def cmd_stats(args, cfg: PipelineConfig) -> int:
    with read_recording(args.input, cfg.geometry) as rec:
        width = rec.geometry.width
        pos = 0
        # One int64 count per pixel, allocated only for a non-empty recording.
        per_pixel = np.zeros(width * rec.geometry.height if rec.count else 0, dtype=np.int64)
        for chunk in rec.chunks():
            pos += int(np.count_nonzero(chunk.p))
            # Only the chunk's occupied pixels are touched: no sensor-sized temporary.
            # A sensor has at most 65536 x 65536 pixels, so the ids fit 32 bits.
            pixels, counts = np.unique(chunk.y.astype(np.uint32) * width + chunk.x,
                                       return_counts=True)
            per_pixel[pixels] += counts
    duration = rec.last_t - rec.first_t + 1 if rec.count else 0
    print(f"events={rec.count}")
    print(f"duration_us={duration}")
    print(f"rate_eps={rec.count / (duration / 1e6) if duration else 0.0:.3f}")
    print(f"pos={pos}")
    print(f"neg={rec.count - pos}")
    print(f"max_per_pixel={per_pixel.max(initial=0)}")
    print(f"geometry={width}x{rec.geometry.height}")
    return 0


# --- augment ------------------------------------------------------------------------


def _read_index(frames_dir: Path) -> list[dict]:
    """Window index entries of a directory written by convert."""
    index_path = frames_dir / "index.txt"
    if not index_path.is_file():
        raise BadHeader(f"no window index {index_path}")
    entries = []
    for lineno, line in codec.read_lines(index_path):
        fields = codec.parse_fields(line, lineno, ("file", "t0", "t1"))
        try:
            t0, t1 = int(fields["t0"]), int(fields["t1"])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if t1 <= t0:
            raise ParseError(lineno, f"window ends at t1={t1}, not after t0={t0}")
        # Ordered, disjoint windows: each frame's boxes are one searchsorted range.
        if entries and t0 < entries[-1]["t1"]:
            raise ParseError(lineno, f"window starts at t0={t0}, before the previous "
                                     f"window's t1={entries[-1]['t1']}")
        # A plain name, so every frame is read from inside frames_dir.
        name = fields["file"]
        if Path(name).name != name or name in ("", ".", ".."):
            raise ParseError(lineno, f"file={name} is not a plain file name")
        entries.append({"file": name, "t0": t0, "t1": t1})
    return entries


def _format_opt(v) -> str:
    return "-" if v is None else repr(float(v))


def cmd_augment(args, cfg: PipelineConfig) -> int:
    frames_dir = Path(args.frames)
    entries = _read_index(frames_dir)
    if not entries:
        raise BadHeader(f"no frames found in {frames_dir}")
    boxes = codec.read_annotations(args.annotations) if args.annotations else []
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    box_ranges = _box_ranges(boxes, [(e["t0"], e["t1"]) for e in entries])

    clip_len = 1 if args.mode == "frame" else cfg.clip_len
    starts = range(0, len(entries), clip_len)
    children = np.random.default_rng(cfg.seed).spawn(len(starts))

    log_lines = []
    out_boxes: list[codec.AnnotatedBox] = []
    # Each frame is read, augmented and written before the next is read.
    for c, (first, rng) in enumerate(zip(starts, children)):
        clip = entries[first : first + clip_len]
        clip_boxes = [boxes[lo:hi] for lo, hi in box_ranges[first : first + clip_len]]
        out_paths = [out_dir / f"aug_{k:06d}.evf" for k in range(first, first + len(clip))]
        for k, (fb, aug) in enumerate(augmod.save_augmented_clip(
                [frames_dir / e["file"] for e in clip], out_paths, clip_boxes, cfg.augment, rng),
                start=first):
            if k == first:
                affine = ",".join(repr(float(v)) for v in aug.transform.matrix.ravel())
                tx, ty = aug.translate_px or (None, None)
                shear_x, shear_y = aug.shear_deg or (None, None)
                log_lines.append(
                    f"clip={c} frames={len(clip)} hflip={int(aug.hflip)} "
                    f"angle={_format_opt(aug.angle_deg)} tx={_format_opt(tx)} ty={_format_opt(ty)} "
                    f"scale={_format_opt(aug.scale)} shear_x={_format_opt(shear_x)} "
                    f"shear_y={_format_opt(shear_y)} affine={affine}"
                )
            erase = "-" if aug.erasure is None else ",".join(str(v) for v in aug.erasure)
            log_lines.append(f"clip={c} frame={k} erase={erase}")
            out_boxes.extend(fb)
    codec.write_annotations(out_dir / "annotations.txt", out_boxes)
    (out_dir / "aug_log.txt").write_text(
        "".join(line + "\n" for line in log_lines), encoding="ascii"
    )
    print(f"augmented frames={len(entries)} clips={len(starts)} mode={args.mode}")
    return 0


# --- plan ----------------------------------------------------------------------------


def cmd_plan(args, cfg: PipelineConfig) -> int:
    indices = sampler.read_sequence_index(args.index)
    batches = sampler.plan_epoch(
        indices, cfg.clip_len, cfg.n_random, cfg.n_sequential,
        rng=np.random.default_rng(cfg.seed),
    )
    text = sampler.format_plan(batches)
    if args.output:
        Path(args.output).write_text(text, encoding="ascii")
        print(f"planned batches={len(batches)} entries={sum(len(b) for b in batches)}")
    else:
        sys.stdout.write(text)
    return 0


# --- evaluate -------------------------------------------------------------------------


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    report = detmetrics.evaluate(args.predictions, args.ground_truth, cfg.eval)
    text = detmetrics.format_report(report)
    if args.output:
        Path(args.output).write_text(text, encoding="ascii")
    sys.stdout.write(text)
    return 0


# --- argument plumbing ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="structured config file (key = value sections)")
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument("--preset", choices=sorted(PRESETS), help="dataset preset")
    shared.add_argument("--threads", type=int,
                        help="worker threads (or env EVKIT_THREADS)")

    parser = argparse.ArgumentParser(prog="evkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[shared],
                       help="recording -> per-window EVF frame tensors + index")
    p.add_argument("input", help="EVS or DAT recording")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--annotations", help="annotation file to re-scale and index")
    p.add_argument("--t-start", type=int, default=0, help="window origin in us")
    p.add_argument("--drop-partial", action="store_true",
                   help="drop the trailing partially-covered window")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", parents=[shared], help="single-pass recording summary")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("augment", parents=[shared],
                       help="augment converted frames and their annotations")
    p.add_argument("frames", help="directory produced by convert")
    p.add_argument("--output", required=True)
    p.add_argument("--annotations", help="annotation file aligned with the frames")
    p.add_argument("--mode", choices=("frame", "video"), default="frame")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("plan", parents=[shared],
                       help="plan one epoch of recurrent-training clips")
    p.add_argument("index", help="sequence index file (seq= frames= annotated=)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="COCO-style mAP of predictions vs ground truth")
    p.add_argument("predictions")
    p.add_argument("ground_truth")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = args.threads
        if threads is None and os.environ.get("EVKIT_THREADS"):
            threads = int(os.environ["EVKIT_THREADS"])
        cfg = load_config(args.config, args.preset, args.seed, threads)
        return args.func(args, cfg)
    except (EvkitError, OSError, ValueError, MemoryError) as exc:
        msg = " ".join(str(exc).split())
        print(f"error code={type(exc).__name__} msg=\"{msg}\"", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import augment as augmod
from . import codec, detmetrics, sampler
from .errors import BadHeader, EvkitError, ParseError
from .event_core import EventStream, SensorGeometry, partition_windows, slice_window
from .geometry import EVEN_FACTOR_TAPS, downscale, map_boxes, pad_to_multiple
from .representation import (
    StackedHistogramConfig,
    event_rate_stats,
    read_evf,
    stacked_histogram,
    write_evf,
)


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
        if self.geometry.height % self.downscale_factor or \
                self.geometry.width % self.downscale_factor:
            raise ValueError("preset geometry must be divisible by the downscale factor")


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
            with open(path, "r", encoding="ascii") as fh:
                parser.read_file(fh)
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


def read_recording(path: str | Path, geometry: SensorGeometry | None) -> EventStream:
    """Load an EVS or DAT recording, detecting the container by magic."""
    data = Path(path).read_bytes()
    if data[:3] == codec.EVS_MAGIC[:3]:
        return codec.decode_evs(data)
    return codec.decode_dat(data, geometry)


def _frame_name(k: int) -> str:
    return f"frame_{k:06d}.evf"


# --- convert -----------------------------------------------------------------------


def _write_frame(path: Path, stream: EventStream, window_slice, cfg: PipelineConfig) -> None:
    part = slice_window(stream, window_slice.window)
    frame = stacked_histogram(part, window_slice.window, cfg.hist)
    if cfg.downscale_factor > 1:
        frame = downscale(frame, cfg.downscale_factor, cfg.downscale_method)
    frame, _pads = pad_to_multiple(frame, cfg.pad_multiple)
    path.write_bytes(write_evf(frame))


def cmd_convert(args, cfg: PipelineConfig) -> int:
    t_begin = time.perf_counter()
    stream = read_recording(args.input, cfg.geometry)
    boxes = codec.read_annotations(args.annotations) if args.annotations else []
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.annotations:
        scaled = map_boxes(boxes, 1.0 / cfg.downscale_factor)
        codec.write_annotations(out_dir / "annotations.txt", scaled)
    windows = partition_windows(stream, cfg.hist.t_frame, t_start=args.t_start)
    if args.drop_partial:
        windows = [w for w in windows if not w.partial]
    # Boxes are sorted by time, so each window's boxes are one id range.
    box_t = np.array([b.t for b in boxes], dtype=np.int64)
    box_ranges = np.searchsorted(box_t, [(w.window.t0, w.window.t1) for w in windows])

    # Each frame lives only inside the call that writes it; submitting a chunk
    # at a time bounds the pending futures too.
    chunk = max(4 * cfg.threads, 16)
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        for lo in range(0, len(windows), chunk):
            list(pool.map(
                lambda k: _write_frame(out_dir / _frame_name(k), stream, windows[k], cfg),
                range(len(windows))[lo : lo + chunk],
            ))
    (out_dir / "index.txt").write_text("".join(
        f"window={k} t0={w.window.t0} t1={w.window.t1} file={_frame_name(k)} "
        f"partial={int(w.partial)} events={w.stop - w.start} "
        f"ann={','.join(map(str, range(*ids))) or '-'}\n"
        for k, (w, ids) in enumerate(zip(windows, box_ranges))
    ), encoding="ascii")
    elapsed = time.perf_counter() - t_begin
    rate = len(stream) / elapsed if elapsed > 0 else float("inf")
    print(
        f"converted windows={len(windows)} events={len(stream)} "
        f"seconds={elapsed:.3f} rate_eps={rate:.0f}"
    )
    return 0


# --- stats --------------------------------------------------------------------------


def cmd_stats(args, cfg: PipelineConfig) -> int:
    stream = read_recording(args.input, cfg.geometry)
    stats = event_rate_stats(stream)
    print(f"events={stats['events']}")
    print(f"duration_us={stats['duration_us']}")
    print(f"rate_eps={stats['rate_eps']:.3f}")
    print(f"pos={stats['pos']}")
    print(f"neg={stats['neg']}")
    print(f"max_per_pixel={stats['max_per_pixel']}")
    print(f"geometry={stream.geometry.width}x{stream.geometry.height}")
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
        entries.append({"file": fields["file"], "t0": t0, "t1": t1})
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
    # Boxes are sorted by time, so each frame's boxes are one slice.
    box_t = np.array([b.t for b in boxes], dtype=np.int64)
    box_ranges = np.searchsorted(box_t, [(e["t0"], e["t1"]) for e in entries])

    clip_len = 1 if args.mode == "frame" else cfg.clip_len
    starts = range(0, len(entries), clip_len)
    children = np.random.default_rng(cfg.seed).spawn(len(starts))

    log_lines = []
    out_boxes: list[codec.AnnotatedBox] = []
    # Each clip is read, augmented, written and released before the next is read.
    for c, (first, rng) in enumerate(zip(starts, children)):
        clip = slice(first, first + clip_len)
        clip_frames = [read_evf((frames_dir / e["file"]).read_bytes()) for e in entries[clip]]
        clip_boxes = [boxes[lo:hi] for lo, hi in box_ranges[clip]]
        aug_frames, aug_boxes, log = augmod.augment_clip(
            clip_frames, clip_boxes, cfg.augment, rng
        )
        geo = log[0]
        affine = ",".join(repr(float(v)) for v in geo.transform.matrix.ravel())
        log_lines.append(
            f"clip={c} frames={len(clip_frames)} hflip={int(geo.hflip)} "
            f"angle={_format_opt(geo.angle_deg)} "
            f"tx={_format_opt(geo.translate_px[0] if geo.translate_px else None)} "
            f"ty={_format_opt(geo.translate_px[1] if geo.translate_px else None)} "
            f"scale={_format_opt(geo.scale)} "
            f"shear_x={_format_opt(geo.shear_deg[0] if geo.shear_deg else None)} "
            f"shear_y={_format_opt(geo.shear_deg[1] if geo.shear_deg else None)} "
            f"affine={affine}"
        )
        for k, (frame, fb, aug) in enumerate(zip(aug_frames, aug_boxes, log), start=first):
            erase = "-" if aug.erasure is None else ",".join(str(v) for v in aug.erasure)
            log_lines.append(f"clip={c} frame={k} erase={erase}")
            (out_dir / f"aug_{k:06d}.evf").write_bytes(write_evf(frame))
            out_boxes.extend(fb)
        del clip_frames, aug_frames, frame
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
    except (EvkitError, OSError, ValueError) as exc:
        msg = " ".join(str(exc).split())
        print(f"error code={type(exc).__name__} msg=\"{msg}\"", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

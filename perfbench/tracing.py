"""Spans around evkit's public functions, recorded from outside the program.

`Tracer.install` swaps each traced function for a wrapper in its defining
module and in every loaded `evkit.*` module that holds a reference to it
(`cli` imports names directly; `augment_clip` and `evaluate_boxes` look
their callees up in their own module globals).  The real CLI code then runs
unchanged and every call through those names becomes a span.

`layer_stats` turns the spans into per-layer numbers.  It uses only the
standard library, so `run.py` can call it without numpy.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

TRACED = {
    "cli": ("read_recording",),
    "codec": ("decode_evs", "decode_dat", "read_annotations", "write_annotations"),
    "event_core": ("partition_windows", "slice_window"),
    "representation": ("stacked_histogram", "write_evf", "read_evf"),
    "geometry": ("downscale", "pad_to_multiple", "map_boxes"),
    "augment": ("augment_clip", "apply_to_frame", "apply_to_boxes"),
    "detmetrics": ("evaluate_boxes", "match_frame", "average_precision"),
}
ROOT = "cli.main"
LAYERS = [f"{m}.{f}" for m, names in TRACED.items() for f in names]


class Tracer:
    """Collects spans (name, start, end, parent index, command, error) in memory."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.command = -1
        self._stack: list[int] = []
        self.boxes = [0, 0]  # apply_to_boxes: boxes in, boxes out

    def install(self) -> None:
        modules = {m: importlib.import_module(f"evkit.{m}") for m in TRACED}
        holders = [m for key, m in sys.modules.items() if key.startswith("evkit.")]
        for mod_name, names in TRACED.items():
            for name in names:
                original = getattr(modules[mod_name], name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn as a span named `name` (used for the command root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        count_boxes = name == "augment.apply_to_boxes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            error = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = 0
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.command, error)
            if count_boxes:
                self.boxes[0] += len(args[0])
                self.boxes[1] += len(result)
            return result

        return wrapper


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_ms[max(0, math.ceil(q * len(sorted_ms)) - 1)]


def layer_stats(spans: list, n_commands: int) -> dict[str, float]:
    """Per-layer metrics, per traced command.

    For each layer: calls, s (busy seconds, inclusive of callees), ms_p50
    per call, ms_p95 when at least ten calls lie beyond it, errors.  Self
    time is a span's duration minus the time its direct children cover;
    `cli.self_s` is the command's own time outside every traced layer.
    """
    durations: dict[str, list[float]] = {name: [] for name in [ROOT] + LAYERS}
    errors = dict.fromkeys(durations, 0)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _cmd, error in spans:
        durations.setdefault(name, []).append(end - start)
        errors[name] = errors.get(name, 0) + error
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for (name, start, end, *_), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - covered
    out: dict[str, float] = {}
    per = max(n_commands, 1)
    for name, values in durations.items():
        ms = sorted(v * 1e3 for v in values)
        out[f"{name}.calls"] = len(ms) / per
        out[f"{name}.s"] = sum(values) / per
        out[f"{name}.self_s"] = self_time.get(name, 0.0) / per
        out[f"{name}.ms_p50"] = statistics.median(ms) if ms else 0.0
        if len(ms) * 0.05 >= 10:
            out[f"{name}.ms_p95"] = _percentile(ms, 0.95)
        out[f"{name}.errors"] = errors[name] / per
    out["cli.self_s"] = out.pop(f"{ROOT}.self_s")
    return out

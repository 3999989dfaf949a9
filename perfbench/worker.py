"""Timed child: runs one workload's evkit commands in a closed loop.

A pass runs the workload's commands in order (one for the converts;
`augment` then `evaluate` for gen1_augment_eval), each through
`evkit.cli.main` in this process, one at a time, for the given number of
seconds.  This process runs nothing else that allocates, so its peak RSS
belongs to the timed commands alone.  Each pass's output directory is
digested after the timer stops.

With tracing on, passes alternate untraced and traced after the warm-up
pass, so the run also yields the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import evkit
    from evkit.cli import main as evkit_main

    expected_src = Path(spec["src"]).resolve()
    if expected_src not in Path(evkit.__file__).resolve().parents:
        raise SystemExit(f"evkit imported from {evkit.__file__}, not {expected_src}")
    tracer = None
    if spec["trace"]:
        from tracing import ROOT, Tracer
        tracer = Tracer()
        tracer.install()
    out_dir = Path(spec["out"])
    commands = [[a.replace("{out}", str(out_dir / str(i))) for a in argv]
                for i, argv in enumerate(spec["commands"])]
    # Warm-up, then at least one measured pass (untraced and traced).
    min_passes = 3 if tracer is not None else 2
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        k = len(passes)
        traced = tracer is not None and k > 0 and k % 2 == 0
        if out_dir.exists():
            shutil.rmtree(out_dir)
        if tracer is not None:
            tracer.enabled, tracer.command = traced, k
        walls, codes, stdouts = [], [], []
        stderr = io.StringIO()
        for i, argv in enumerate(commands):
            (out_dir / str(i)).mkdir(parents=True)
            stdout = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = (tracer.span(ROOT, evkit_main, argv) if traced
                          else evkit_main(argv))
                except Exception as exc:  # a crash is a failed pass, not a lost run
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    rc = -1
            walls.append(time.perf_counter() - start)
            codes.append(rc)
            stdouts.append(stdout.getvalue())
        if tracer is not None:
            tracer.enabled = False
        passes.append({"wall_s": sum(walls), "command_s": walls, "traced": traced,
                       "rc": next((rc for rc in codes if rc != 0), 0),
                       "digest": digest(out_dir), "stdout": stdouts,
                       "stderr": stderr.getvalue()[-2000:]})
        # Closed loop: stop when the next pass would overrun the run.
        if len(passes) >= min_passes and time.perf_counter() + sum(walls) > deadline:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(
            {"spans": tracer.spans, "boxes": tracer.boxes}))
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

"""evkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gen1_convert --seed 1 --seconds 20 --trace 0

Run from the root of an evkit source tree; the program under test is the
tree's own `src/evkit`, run through `evkit.cli.main` with `--threads 1`, one
command at a time (closed loop, one client).  Steps, each in its own child
process so that none inflates another's peak RSS:

1. set-up: `synth.py` writes the seeded inputs and starts evkit once,
   several times over, timing each;
2. timed run: `worker.py` loops the workload's command for `--seconds`;
3. check: the last command's outputs are verified by `check.py`, and every
   command's output digest must equal the checked one.

The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.  This parent process
imports no numpy, so it stays small next to the children it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import stats
from tracing import LAYERS, ROOT, layer_stats

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gen1_convert", "gen4_convert", "gen1_augment_eval")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s; children share this budget
# One thread per process: the benchmark measures evkit's --threads 1 path,
# and BLAS threads would compete for the same two cores.  A fixed hash seed
# keeps the order of string sets the same in every run.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to evkit failing)."""


def run_child(script: str, spec: dict, spec_path: Path, env: dict,
              deadline: float) -> None:
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / script), str(spec_path)],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    src = root / "src"
    if not (src / "evkit" / "cli.py").is_file():
        raise BenchError(f"no evkit source tree at {src}; run from the repository root")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = {**os.environ, **CHILD_ENV,
           "PYTHONPATH": os.pathsep.join([str(src), str(HERE)])}
    try:
        manifest_path = work / "manifest.json"
        run_child("synth.py", {"workload": workload, "seed": seed,
                               "inputs": str(work / "in"), "repeats": SETUP_REPEATS,
                               "manifest": str(manifest_path)},
                  work / "synth.json", env, deadline)
        manifest = json.loads(manifest_path.read_text())
        spans_path = root / ".bench_work" / "traces" / f"{workload}-s{seed}.json"
        if trace:
            spans_path.parent.mkdir(exist_ok=True)
        run_child("worker.py", {"commands": manifest["commands"], "out": str(work / "out"),
                                "seconds": seconds, "trace": trace, "src": str(src),
                                "spans": str(spans_path),
                                "result": str(work / "result.json")},
                  work / "worker.json", env, deadline)
        result = json.loads((work / "result.json").read_text())
        run_child("check.py", {"workload": workload, "manifest": str(manifest_path),
                               "out": str(work / "out"), "inputs": str(work / "in"),
                               "stdout": result["passes"][-1]["stdout"],
                               "fails": str(work / "fails.json")},
                  work / "check.json", env, deadline)
        fails = json.loads((work / "fails.json").read_text())
        spans = json.loads(spans_path.read_text()) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, bench, manifest, result, fails, spans)


def summarize(workload, seed, bench, manifest, result, fails, spans) -> dict:
    passes = result["passes"]
    checked = passes[-1]["digest"]
    failed = sum(1 for p in passes if p["rc"] != 0 or p["digest"] != checked or fails)
    for p in passes:
        if p["rc"] != 0:
            fails.append(f"command exited {p['rc']}: {p['stderr'].strip()}")
        elif p["digest"] != checked:
            fails.append("outputs differ between identical passes")
    timed = [p for p in passes[1:] if not p["traced"]]
    setup = manifest["setup_times"]
    end_to_end = {
        "items_per_s": statistics.median(manifest["items"] / p["wall_s"] for p in timed),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    record = {
        "workload": workload, "seed": seed, "correct": not fails,
        "attempted": len(passes), "failed": failed, "fails": fails[:20],
        "outputs_sha256": checked, "end_to_end": end_to_end,
        "pass_s": [p["wall_s"] for p in passes],
        "command_s": [p["command_s"] for p in passes], "setup_times": setup,
        "items": manifest["items"], "unit": manifest["unit"],
        "command_rates": manifest["command_rates"],
    }
    if spans is not None:
        traced = [p for p in passes if p["traced"]]
        layers = layer_stats(spans["spans"], len(traced))
        boxes_in, boxes_out = spans["boxes"]
        layers["augment.boxes_in"] = boxes_in / len(traced)
        layers["augment.boxes_out"] = boxes_out / len(traced)
        layers["augment.boxes_kept_ratio"] = boxes_out / boxes_in if boxes_in else 0.0
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in timed))
        record["layers"] = layers
        record["traced_passes"] = len(traced)
    names = bench["per_layer"] if spans is not None else bench["end_to_end"]
    values = record["layers"] if spans is not None else end_to_end
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in names}
    return record


def report(record: dict, trace: bool) -> None:
    w, e2e = record["workload"], record["end_to_end"]
    print(f"workload={w} seed={record['seed']} trace={int(trace)} "
          "(closed loop, one client, --threads 1)")
    print(f"passes attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed'] / record['attempted']:.4f} "
          "(the first pass is a warm-up and is not timed)")
    if not trace:
        timed = record["pass_s"][1:]
        q1, _, q3 = stats([record["items"] / s for s in timed])
        unit = f"{record['unit']}/s"
        print(f"items_per_s = {e2e['items_per_s']:.6g} {unit} (median of {len(timed)} "
              f"passes; q1 {q1:.6g}, q3 {q3:.6g}; {record['items']} {record['unit']} "
              "per pass)")
        for i, (name, items) in enumerate(record["command_rates"]):
            rate = statistics.median(items / c[i] for c in record["command_s"][1:])
            print(f"{name} = {rate:.6g} {unit} ({items} {record['unit']} per command)")
        print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB (ru_maxrss of the timed child)")
        print(f"setup_s = {e2e['setup_s']:.6g} s (median of {len(record['setup_times'])} "
              "set-ups)")
    else:
        layers = record["layers"]
        print(f"per-layer metrics, per traced pass ({record['traced_passes']} traced, "
              "interleaved with untraced ones):")
        fields = ("calls", "s", "self_s", "ms_p50", "ms_p95", "errors")
        for layer in [ROOT, *LAYERS]:
            if layers[f"{layer}.calls"]:
                print(f"  {layer}: " + " ".join(
                    f"{f}={layers[f'{layer}.{f}']:.6g}" for f in fields
                    if f"{layer}.{f}" in layers))
        for name in ("cli.self_s", "augment.boxes_in", "augment.boxes_out",
                     "augment.boxes_kept_ratio", "trace.overhead_ratio"):
            print(f"  {name} = {layers[name]:.6g}")
        print("  wait time: none; the run is single-threaded with no queues, "
              "so no layer waits")
    print(f"outputs_sha256={record['outputs_sha256']}")
    for fail in record["fails"]:
        print(f"CHECK FAILED: {fail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record, bool(args.trace))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "trace": args.trace}) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several workloads and seeds, then summarise.

    python3 perfbench/sweep.py --record runs.jsonl [--seeds 1-10]

Runs `run.py` untraced for BENCHMARK.json's `run_seconds`, once per seed
and workload, one at a time, appending each full record to --record, and
prints `compare.py`'s summary of that file.  It is the one command that
runs every workload, checks its outputs and prints every end-to-end metric.

To compare two source trees, give `--root` and `--record` twice each
(parent first).  Runs then alternate between the trees, switching which
goes first on every seed, and `compare.py` reports the verdicts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import compare
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="append", required=True)
    parser.add_argument("--root", action="append")
    parser.add_argument("--seeds", default="1", type=seed_list)
    args = parser.parse_args()
    roots = [Path(r).resolve() for r in args.root or [HERE.parent]]
    if len(roots) != len(args.record) or len(roots) > 2:
        parser.error("give one or two --root, and one --record per root")
    records = [str(Path(r).resolve()) for r in args.record]
    status = 0
    for seed in args.seeds:
        for workload in WORKLOADS:
            order = list(zip(roots, records))
            if seed % 2:
                order.reverse()
            for root, record in order:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", "0", "--record", record],
                    cwd=root, capture_output=True, text=True)
                print(proc.stdout, end="")
                print(f"[{root.name} {workload} seed {seed}: exit {proc.returncode}, "
                      f"{time.perf_counter() - start:.1f} s]", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, end="", file=sys.stderr)
                    status = 1
    return max(status, compare.main(records))


if __name__ == "__main__":
    sys.exit(main())

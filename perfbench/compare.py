"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds run records as written by `run.py --record` (or
`sweep.py`).  With one file, prints each workload's median, quartiles and
spread per end-to-end metric against its bound.  With two, BASE is the
parent and NEW the change; per workload and metric it prints both sides'
median and quartiles, the pairs NEW wins (runs paired by seed), and a
verdict:

* improved:   NEW wins at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than BASE's interquartile range;
* regressed:  NEW's median is worse than BASE's by more than the bound;
* unresolved: either side's spread (IQR / median) exceeds the bound, unless
              every NEW run is better than every BASE run;
* no worse:   otherwise.

A workload's summary row names each verdict its metrics got, with the
metrics, in the order regressed, unresolved, improved, no worse; so a
metric left unresolved by noise does not hide another one's result.

Exit status is 1 if any workload regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, dict[int, dict]]:
    """Untraced records by workload, then seed (a later record wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec.get("trace"):
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = stats(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, b2, b3 = stats(base)
    n2 = stats(new)[1]
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (n2 - b2) > b3 - b1:
        return "improved", wins
    if sign * (b2 - n2) > bound * abs(b2):
        return "regressed", wins
    return "no worse", wins


def metric_values(runs: dict[int, dict], name: str) -> list[float]:
    return [rec["end_to_end"][name] for rec in runs.values()]


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    worst = 0
    for workload in sorted(base):
        b_runs = base[workload]
        bad = [s for s, r in b_runs.items() if not r["correct"]]
        print(f"{workload}: {len(b_runs)} runs" + (f", INCORRECT seeds {bad}" if bad else ""))
        if new is not None and workload not in new:
            print("  not in the second set")
            continue
        verdicts: dict[str, list[str]] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            bv = metric_values(b_runs, name)
            q1, q2, q3 = stats(bv)
            line = (f"  {name:12s} base {q2:.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}"
                    f"  spread {spread(bv):.3f} (bound {bound})")
            if new is not None:
                n_runs = new[workload]
                nv = metric_values(n_runs, name)
                pairs = [(b_runs[s]["end_to_end"][name], n_runs[s]["end_to_end"][name])
                         for s in sorted(set(b_runs) & set(n_runs))]
                v, wins = verdict(bv, nv, pairs, m["better"], bound)
                n1, n2, n3 = stats(nv)
                line += (f"  new {n2:.6g} [{n1:.6g}, {n3:.6g}] spread {spread(nv):.3f}"
                         f"  wins {wins}/{len(pairs)}  {v}")
                verdicts.setdefault(v, []).append(name)
            print(line)
        if verdicts:
            order = ("regressed", "unresolved", "improved", "no worse")
            print(f"  => {workload}: " + "; ".join(
                f"{v} ({', '.join(verdicts[v])})" for v in order if v in verdicts))
            worst = max(worst, int("regressed" in verdicts))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

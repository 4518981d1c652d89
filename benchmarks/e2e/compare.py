#!/usr/bin/env python3
"""Compare two result sets of ``run.py``:  compare.py A.json B.json

A is the base (the parent commit), B the candidate.  One row per
(end-to-end metric, workload) with both medians and the ratio B/A, judged
against the bound ``BENCHMARK.json`` fixes for the metric:

    ok          B's median is not worse than A's by more than the bound
    REGRESSION  it is
    unresolved  the spread between A's own runs (interquartile range over
                median) exceeds the bound, so the comparison cannot tell —
                unless every run of B reads better than every run of A

The simulated statistics of a traced pass (``machine.sim_clock_us``,
``mapping.map_sim_speedup``, every ``machine.charges.*``) repeat exactly
for a given seed; when both sets used the same seed they are compared
with bound 0, and charges that differ are listed.

Exit status is 1 on any REGRESSION or any rise in failed/attempted ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: simulated statistics gated at bound 0 (name -> better direction)
EXACT = {"machine.sim_clock_us": "lower", "mapping.map_sim_speedup": "higher"}


def collect(result: dict, trace: int) -> dict:
    """{workload: {metric: [value per run]}} for runs of one kind."""
    out: dict = {}
    for run in result["runs"]:
        if run["trace"] != trace:
            continue
        per_wl = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per_wl.setdefault(name, []).append(m["value"])
    return out


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(a, b, better: str, bound: float) -> str:
    if spread(a) > bound:
        clear_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if clear_win else "unresolved"
    worse = worse_by(statistics.median(a), statistics.median(b), better)
    return "REGRESSION" if worse > bound else "ok"


def failure_rates(result: dict) -> dict:
    totals: dict = {}
    for run in result["runs"]:
        failed, attempted = totals.get(run["workload"], (0, 0))
        totals[run["workload"]] = (failed + run["failed"], attempted + run["attempted"])
    return {w: f / a for w, (f, a) in totals.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_set, b_set = (json.loads(Path(p).read_text()) for p in argv)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0

    a_e2e, b_e2e = collect(a_set, 0), collect(b_set, 0)
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'A spread':>9s} {'bound':>6s}  verdict")  # fmt: skip
    for workload in a_e2e:
        for m in decl["end_to_end"]:
            a = a_e2e[workload].get(m["name"])
            b = b_e2e.get(workload, {}).get(m["name"])
            if not a or not b:
                print(f"{workload:14s} {m['name']:18s} missing from one set")
                bad += 1
                continue
            verdict = judge(a, b, m["better"], m["bound"])
            bad += verdict == "REGRESSION"
            ma, mb = statistics.median(a), statistics.median(b)
            print(
                f"{workload:14s} {m['name']:18s} {ma:12.4f} {mb:12.4f} {mb / ma:7.3f} "
                f"{100 * spread(a):8.1f}% {100 * m['bound']:5.0f}%  {verdict} "
                f"(n={len(a)},{len(b)})"
            )

    same_inputs = all(
        a_set["meta"][k] == b_set["meta"][k] for k in ("seed", "smoke")
    )
    a_layer, b_layer = collect(a_set, 1), collect(b_set, 1)
    if same_inputs and a_layer and b_layer:
        for workload in a_layer:
            for name, values in a_layer[workload].items():
                theirs = b_layer.get(workload, {}).get(name)
                exact = name in EXACT or name.startswith("machine.charges.")
                if not exact or not theirs or set(values) == set(theirs):
                    continue
                a, b = statistics.median(values), statistics.median(theirs)
                if name in EXACT and worse_by(a, b, EXACT[name]) > 0:
                    bad += 1
                    verdict = "REGRESSION (bound 0)"
                else:
                    verdict = "changed"
                print(f"{workload:14s} {name:34s} {a:14.6g} -> {b:14.6g}  {verdict}")
        print("simulated statistics compared exactly (same seed in both sets)")
    else:
        print("simulated statistics not compared (different seed, or no traced pass)")

    rate_a, rate_b = failure_rates(a_set), failure_rates(b_set)
    for workload, rate in rate_b.items():
        if rate > rate_a.get(workload, 0.0):
            bad += 1
            print(f"{workload:14s} ops_failed/ops_attempted rose: "
                  f"{rate_a.get(workload, 0.0):.4f} -> {rate:.4f}")  # fmt: skip
    print("FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

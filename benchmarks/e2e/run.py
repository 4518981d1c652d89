#!/usr/bin/env python3
"""End-to-end benchmark of ``repro run``, ``run_batch`` and ``repro serve``.

    python benchmarks/e2e/run.py                       every workload, once
    python benchmarks/e2e/run.py --trace --runs 5      5 runs each + one per-layer pass
    python benchmarks/e2e/run.py --workload apsp_dense --seed 12
    python benchmarks/e2e/run.py --smoke               sizes/10, for the self-test
    python benchmarks/e2e/run.py --regen-expected      rewrite expected/*.json

With ``--workload`` the process *is* the measured child: it sets up,
measures for ``--seconds``, checks every output and prints one JSON
object as its last line (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics).  Without it, each workload runs
in its own fresh child process, one after another, and the collected
runs are written under ``results/``.  Metric names, units and bounds
are declared once, in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # "child start": before the heavy imports

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
#: set-ups per run, spread evenly over it (see ``measure``)
EPOCHS = 10


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# the measured child
# ---------------------------------------------------------------------------


def measure(wl, tracer, seconds: float, epochs: int):
    """``epochs`` times over: one set-up from nothing, then warm ops with
    tracing off until the epoch's share of ``seconds`` is used up.

    Set-ups, first runs and warm ops are thereby all sampled across the
    whole run, not at one end of it.  Returns the set-up times (s), the
    construct/first-run facts of each set-up, and the merged window.
    """
    from workloads import Window

    setup_s, firsts, windows = [], [], []
    t0 = time.perf_counter()
    for epoch in range(epochs):
        t = time.perf_counter()
        with tracer.span("set_up", "harness"):
            wl.set_up()
        setup_s.append(time.perf_counter() - t)
        wl.after_set_up()
        firsts.append(wl.first)
        deadline = t0 + seconds * (epoch + 1) / epochs
        was_enabled, tracer.enabled = tracer.enabled, False
        windows.append(wl.window(deadline - time.perf_counter()))
        tracer.enabled = was_enabled
    return setup_s, firsts, Window.merged(windows)


def run_child(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: no program to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from trace import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    decl = load_declaration()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir, tracer)
    epochs = 2 if args.smoke else EPOCHS
    try:
        wl.make_inputs()
        start_s = time.perf_counter() - T_START  # imports + seeded inputs
        wl.compute_references()
        if not args.trace:
            setup_s, _, win = measure(wl, tracer, args.seconds, epochs)
            values = layers.end_to_end(wl, win, start_s, setup_s)
            declared = decl["end_to_end"]
        else:
            # end-to-end numbers always come from untraced windows; the
            # traced one gives the spans, the difference is the overhead
            _, firsts, plain = measure(wl, tracer, args.seconds / 2, epochs)
            win = wl.window(args.seconds / 2)
            win.failed += plain.failed
            win.attempted += plain.attempted
            wl.complete()
            values = layers.per_layer(wl, plain, win, firsts)
            declared = decl["per_layer"]
            RESULTS.mkdir(exist_ok=True)
            tracer.write_chrome(str(RESULTS / f"trace-{args.workload}.json"))
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "correct": win.failed == 0,
                "attempted": win.attempted,
                "failed": win.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# the runner: one fresh child per workload, one after another
# ---------------------------------------------------------------------------


def spawn(workload: str, args, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    run.update(workload=workload, seed=args.seed, trace=trace)
    return run


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def print_table(runs) -> None:
    """Every metric by name with its unit; median over the runs."""
    by_metric: dict = {}
    for run in runs:
        for name, m in run["metrics"].items():
            by_metric.setdefault((name, m["unit"]), {}).setdefault(
                run["workload"], []
            ).append(m["value"])
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>13s}" for w in workloads))
    for (name, unit), per_wl in by_metric.items():
        cells = [
            f"{statistics.median(per_wl[w]):13.4g}" if w in per_wl else " " * 13
            for w in workloads
        ]
        print(f"{name:34s} {unit:6s} " + " ".join(cells))
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        print(
            f"ops_failed/ops_attempted {w:14s} "
            f"{sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}"
        )


def run_all(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS)  # the driver gates those BENCHMARK.json declares
    runs = []
    for i in range(args.runs):
        for name in names:
            # the traced pass is made once: its counters repeat exactly
            for trace in (0, 1) if args.trace and i == 0 else (0,):
                run = spawn(name, args, trace)
                runs.append(run)
                print(
                    f"{name:14s} trace={trace} failed {run['failed']}/{run['attempted']}",
                    file=sys.stderr,
                )
    print_table(runs)
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    meta = dict(machine_facts(), seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in this process")
    ap.add_argument("--seed", type=int, default=11, help="input-generator seed (12 is held out)")
    ap.add_argument("--seconds", type=float, help="length of the timed window")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="also (runner) / only (child) the traced per-layer pass")  # fmt: skip
    ap.add_argument("--smoke", action="store_true", help="sizes/10; for the self-test only")
    ap.add_argument("--runs", type=int, default=1, help="runner: runs per workload")
    ap.add_argument("--out", help="runner: result file (default results/latest.json)")
    ap.add_argument("--regen-expected", action="store_true",
                    help="rewrite expected/ for --seed from the tree-walking oracle")  # fmt: skip
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_declaration()["run_seconds"])
    sys.path.insert(0, str(HERE))
    if args.regen_expected:
        sys.path.insert(0, str(ROOT / "src"))
        import oracle

        return oracle.regenerate(args.seed, args.smoke)
    if args.workload is None:
        return run_all(args)
    return run_child(args)


if __name__ == "__main__":
    sys.exit(main())

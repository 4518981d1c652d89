"""Turns windows, set-up facts and probes into the named metrics.

``end_to_end`` is what a user of the system sees; ``per_layer`` is the
traced pass — spans recorded by the harness around each layer's public
functions, counts read from public result attributes at the same
boundaries.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from typing import Dict, List

import numpy as np

from repro.analysis import lint_program
from repro.lang import analyze, parse_program, tokenize
from repro.machine.config import COST_KINDS
from repro.mapping.maps import build_layouts
from repro.service import ExecutionService

from cases import program_key
from workloads import BatchLanes, ColdCli, MapKernels, ServeMix, Window, Workload

LAYERS = ("cli", "lang", "mapping", "analysis", "interp", "service", "harness")


def balanced_median(samples: List[List[float]]) -> float:
    """Mean over the cases of each case's median.

    The cases of a workload differ in cost (a mapped fold is half a
    mapped transpose); the plain median of the mixture would sit on the
    boundary between two kinds of op and jump from one to the other.
    """
    return statistics.fmean(statistics.median(s) for s in samples if s)


def percentile(xs: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q)) if xs else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any process it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def end_to_end(wl: Workload, win: Window, start_s: float, setup_s) -> Dict[str, float]:
    """Every time is the best of its samples, which are spread over the
    whole run: this host slows warm interpreter work by 30-100 % for
    seconds to minutes at a stretch, a median follows those phases and
    the floor does not (README, "Steadiness")."""
    return {
        "setup_s": start_s + min(setup_s),
        "op_wall_ms_min": statistics.fmean(min(s) for s in win.samples if s),
        "throughput_ops_s": 1.0 / statistics.fmean(min(u) for u in win.unit_s if u),
        "first_run_ms": min(wl.first_run_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# probes: layers timed on their own, outside any window
# ---------------------------------------------------------------------------


def calibrate_ms() -> float:
    """A fixed pure-Python + NumPy loop, so trajectory points from
    different runners can be read against each other.  Never used to
    rescale a gated metric."""

    def once() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        a = np.arange(1 << 16, dtype=np.int64)
        for _ in range(200):
            a = (a * 3 + 1) % 65521
        return (time.perf_counter() - t0) * 1e3

    return statistics.median(once() for _ in range(3))


def _timed_ms(fn, reps: int = 3):
    """(median ms over reps, last return value)."""
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), out


def _count_nodes(node) -> int:
    if isinstance(node, (list, tuple)):
        return sum(_count_nodes(x) for x in node)
    if not is_dataclass(node):
        return 0
    return 1 + sum(_count_nodes(getattr(node, f.name)) for f in fields(node))


def front_end(wl: Workload) -> Dict[str, float]:
    """tokenize / parse / analyze / build_layouts / lint over the
    workload's distinct programs, each timed alone; sums over programs."""
    out = dict.fromkeys(
        ("lang.tokenize_ms", "lang.parse_ms", "lang.analyze_ms", "lang.tokens",
         "lang.ast_nodes", "mapping.build_layouts_ms", "mapping.remapped_arrays",
         "analysis.lint_ms", "analysis.diagnostics"), 0.0,
    )  # fmt: skip
    programs = {program_key(c) for c in wl.all_cases()}
    for source, defines in sorted(programs):
        defines = dict(defines)
        ms, tokens = _timed_ms(lambda: tokenize(source))
        out["lang.tokenize_ms"] += ms
        out["lang.tokens"] += len(tokens)
        ms, tree = _timed_ms(lambda: parse_program(source))
        out["lang.parse_ms"] += ms  # parse_program scans the source itself
        out["lang.ast_nodes"] += _count_nodes(tree)
        ms, info = _timed_ms(lambda: analyze(tree, defines), reps=1)
        out["lang.analyze_ms"] += ms
        ms, layouts = _timed_ms(lambda: build_layouts(info))
        out["mapping.build_layouts_ms"] += ms
        out["mapping.remapped_arrays"] += len(layouts.non_canonical())
        ms, report = _timed_ms(lambda: lint_program(source, defines=defines), reps=1)
        out["analysis.lint_ms"] += ms  # lint_program runs its own front end
        out["analysis.diagnostics"] += len(report.diagnostics)
    return out


def cli_probe(wl: Workload) -> Dict[str, float]:
    out = dict.fromkeys(("cli.import_ms", "cli.check_ms", "cli.lint_ms"), 0.0)
    if not isinstance(wl, ColdCli):
        return out
    out["cli.import_ms"], _ = _timed_ms(
        lambda: subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=wl.env, check=True
        ),
        reps=5,
    )
    for command in ("check", "lint"):
        times = []
        for case, path in zip(wl.cases, wl.paths):
            argv = [command, path]
            for name, value in sorted(case.defines.items()):
                argv += ["-D", f"{name}={value}"]
            with wl.tracer.span(f"cli.{command}", "cli"):
                ms, proc = _timed_ms(lambda: wl.cli(argv), reps=1)
            # lint exits 1 on a warning-level finding; only a crash is >1
            if proc.returncode > 1:
                raise RuntimeError(f"repro {command} {path}: {proc.stderr}")
            times.append(ms)
        out[f"cli.{command}_ms"] = statistics.fmean(times)
    return out


def batch_probe(wl: Workload, plain: Window) -> Dict[str, float]:
    out = dict.fromkeys(("interp.batch_ms_per_lane", "interp.batch_vs_solo_ratio"), 0.0)
    if not isinstance(wl, BatchLanes):
        return out
    batch_ms = statistics.median(plain.samples[0])
    inputs = [lane.inputs for lane in wl.cases[0]]
    solo_ms, _ = _timed_ms(lambda: [wl.prog.run(inp) for inp in inputs])
    out["interp.batch_ms_per_lane"] = batch_ms / len(inputs)
    # base: one run_batch call; > 1 means the run loop is that much slower
    out["interp.batch_vs_solo_ratio"] = solo_ms / batch_ms
    return out


def service_probe(wl: Workload, seconds: float) -> Dict[str, float]:
    names = (
        "submit_ms_p50", "step_ms_p50", "step_ms_p99", "queue_wait_ms_p50",
        "queue_wait_ms_p99", "batches", "coalesced_lanes", "lanes_per_batch",
        "rejected", "retries", "preemptions", "journal_events", "journal_bytes",
        "journal_overhead_ms_per_job",
    )  # fmt: skip
    out = dict.fromkeys((f"service.{n}" for n in names), 0.0)
    if not isinstance(wl, ServeMix):
        return out
    stats = wl.svc.stats
    journal = wl.spool / "journal.jsonl"
    out.update(
        {
            "service.submit_ms_p50": percentile(wl.submit_ms, 50),
            "service.step_ms_p50": percentile(wl.step_ms, 50),
            "service.step_ms_p99": percentile(wl.step_ms, 99),
            "service.queue_wait_ms_p50": percentile(wl.queue_wait_ms, 50),
            "service.queue_wait_ms_p99": percentile(wl.queue_wait_ms, 99),
            "service.batches": stats["batches"],
            "service.coalesced_lanes": stats["coalesced_lanes"],
            "service.lanes_per_batch": stats["coalesced_lanes"] / max(stats["batches"], 1),
            "service.rejected": stats["rejected"],
            "service.retries": stats["retries"],
            "service.preemptions": stats["preemptions"],
            "service.journal_events": sum(1 for _ in open(journal)),
            "service.journal_bytes": os.path.getsize(journal),
        }
    )
    # the same seeded job list through a journalled and an unjournalled
    # service (both with a warm compile store): host ms per job, difference
    per_job = {}
    was_enabled, wl.tracer.enabled = wl.tracer.enabled, False
    for label, spool in (("journal", wl.fresh_spool()), ("memory", None)):
        config = wl.config(spool)
        config.compile_store = wl.svc.store
        svc = ExecutionService(config)
        win = wl.window(seconds, svc)
        per_job[label] = win.elapsed_s * 1e3 / win.attempted
        if svc.spool is not None:
            svc.spool.close()
    wl.tracer.enabled = was_enabled
    out["service.journal_overhead_ms_per_job"] = per_job["journal"] - per_job["memory"]
    return out


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------


def _results(wl: Workload) -> list:
    """One result per distinct (program, input): batches flattened."""
    out = []
    for i in sorted(wl.last):
        out.extend(wl.last[i] if isinstance(wl.last[i], list) else [wl.last[i]])
    return out


def _span_median(wl: Workload, name: str, n: int) -> float:
    """Case-balanced median duration (ms) of the traced window's ``name``
    spans; ops go round-robin over ``n`` cases, so op_id % n is the case."""
    groups: List[List[float]] = [[] for _ in range(n)]
    for s in wl.tracer.spans:
        if s["name"] == name and s["op_id"] is not None:
            groups[s["op_id"] % n].append((s["end_ns"] - s["start_ns"]) / 1e6)
    return balanced_median(groups) if any(groups) else 0.0


def _first_run_facts(firsts: List[List[dict]]) -> Dict[str, float]:
    """Construct/first-run facts: per program the median over the
    set-ups, summed over the workload's programs."""

    def total(get) -> float:
        return sum(
            statistics.median(get(rep[p]) for rep in firsts)
            for p in range(len(firsts[0]))
        )

    return {
        "interp.ctor_ms": total(lambda f: f["ctor_ms"]),
        "interp.execute_first_ms": total(lambda f: f["execute_ms"]),
        "interp.plan_build_ms": total(lambda f: f["compile"]["plan_s"] * 1e3),
        "interp.fuse_build_ms": total(lambda f: f["compile"]["fuse_s"] * 1e3),
        "interp.frontier_build_ms": total(lambda f: f["compile"]["frontier_s"] * 1e3),
        "interp.recompiles": total(lambda f: f["compile"]["recompiles"]),
    }


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(wl: Workload, plain: Window, traced: Window, firsts) -> Dict[str, float]:
    tracer = wl.tracer
    out: Dict[str, float] = {}
    out.update(front_end(wl))
    out.update(cli_probe(wl))
    out.update(batch_probe(wl, plain))
    out.update(service_probe(wl, max(plain.elapsed_s / 4, 0.2)))
    out.update(_first_run_facts(firsts))
    if isinstance(wl, ColdCli):
        # every cold op is a first run: the CLI's own --stats build times
        for kind in ("plan", "fuse", "frontier"):
            out[f"interp.{kind}_build_ms"] = sum(
                r.compile_ms.get(f"{kind}_s", 0.0) for r in wl.last.values()
            )

    p50 = balanced_median(plain.samples)
    out["cli.run_ms"] = p50 if isinstance(wl, ColdCli) else 0.0
    out["tail.op_wall_ms_p50"] = p50
    out["tail.op_wall_ms_p90"] = percentile(plain.raw, 90)
    out["tail.op_wall_ms_p99"] = percentile(plain.raw, 99)
    out["tail.op_wall_ms_max"] = max(plain.raw)
    out["host.calib_ms"] = calibrate_ms()
    out["trace.overhead_pct"] = 100.0 * (balanced_median(traced.samples) - p50) / p50

    groups = 1 if isinstance(wl, ServeMix) else len(wl.cases)
    out["interp.prepare_ms"] = _span_median(wl, "interp.prepare", groups)
    out["interp.execute_warm_ms"] = _span_median(wl, "interp.execute", groups)

    # counters: once per distinct (program, input), so they repeat exactly
    results = _results(wl)
    for kind in COST_KINDS:
        out[f"machine.charges.{kind}"] = sum(r.counts.get(kind, 0) for r in results)
        out[f"machine.clock_us.{kind}"] = sum(r.times.get(kind, 0.0) for r in results)
    charges = sum(out[f"machine.charges.{kind}"] for kind in COST_KINDS)
    out["machine.charges_total"] = charges
    out["machine.sim_clock_us"] = sum(r.elapsed_us for r in results)
    # host time per simulated event: warm execute time of an average op
    # over the charges of an average op
    out["machine.host_us_per_charge"] = (
        out["interp.execute_warm_ms"] * 1e3 * len(wl.cases) / charges if charges else 0.0
    )
    out["mapping.map_sim_speedup"] = 0.0
    if isinstance(wl, MapKernels):
        # the paper's claim: same values, less simulated time under a map
        mapped = sum(
            r.elapsed_us for r, c in zip(results, wl.cases) if c.key.endswith("-map")
        )
        out["mapping.map_sim_speedup"] = (out["machine.sim_clock_us"] - mapped) / mapped

    def total(attr: str, key: str) -> int:
        return sum(getattr(r, attr).get(key, 0) for r in results)

    for name, attr, key in (
        ("fused_sweeps", "fusion", "fused_sweeps"),
        ("fused_segments", "fusion", "fused_segments"),
        ("unfused_segments", "fusion", "unfused_segments"),
        ("unfusable_constructs", "fusion", "unfusable"),
        ("frontier_full_sweeps", "frontier", "full_sweeps"),
        ("frontier_compressed_sweeps", "frontier", "compressed_sweeps"),
        ("frontier_fallbacks", "frontier", "fallbacks"),
    ):
        out[f"interp.{name}"] = total(attr, key)
    domain = total("frontier", "domain_lanes")
    out["interp.frontier_active_share"] = (
        total("frontier", "active_lanes") / domain if domain else 0.0
    )
    # sweeps the engine's own counters report: frontier sweeps of
    # *par/*solve, or fused sweeps where the frontier engine is not involved
    sweeps = sum(
        max(r.frontier.get("full_sweeps", 0) + r.frontier.get("compressed_sweeps", 0),
            r.fusion.get("fused_sweeps", 0))
        for r in results
    )  # fmt: skip
    out["interp.sweeps"] = sweeps
    out["interp.ms_per_sweep"] = (
        out["interp.execute_warm_ms"] * len(wl.cases) / sweeps if sweeps else 0.0
    )

    store = results[-1].store
    out["interp.store_frontend_hit_rate"] = _rate(
        store.get("frontend_hits", 0), store.get("frontend_misses", 0)
    )
    out["interp.store_backend_hit_rate"] = _rate(
        store.get("backend_hits", 0), store.get("backend_misses", 0)
    )
    caches = {
        id(p.last_interpreter.plan_cache): p.last_interpreter.plan_cache.counters()
        for p in wl.programs()
    }
    out["interp.plan_cache_hit_rate"] = _rate(
        sum(c["hits"] for c in caches.values()), sum(c["misses"] for c in caches.values())
    )

    self_ms = tracer.self_times_ms("window")
    window_ms = sum(self_ms.values())
    for layer in LAYERS:
        out[f"selftime.{layer}_pct"] = 100.0 * self_ms.get(layer, 0.0) / window_ms
    return out

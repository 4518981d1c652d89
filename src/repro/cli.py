"""Command-line front end: run, check, translate and analyse UC programs.

Usage (also via ``python -m repro``):

    repro run program.uc -D N=32 --print a --ledger
    repro check program.uc
    repro cstar program.uc            # emit C* source (paper appendix style)
    repro analyze program.uc          # communication report + map suggestions
    repro lint program.uc             # whole-program static analyzer (uclint)

``run`` executes ``main`` on the simulated CM-2 and reports the final
variables and simulated elapsed time; ``--no-maps`` ignores the program's
map sections (for quick before/after comparisons) and ``--pes`` resizes
the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .compiler.comm_opt import analyze_communication
from .compiler.cstar_gen import generate_cstar
from .compiler.processor_opt import analyze_program as analyze_vp_plans
from .interp.config import ConfigError, EngineConfig
from .interp.program import UCProgram
from .lang.errors import UCError
from .machine import MachineConfig, MachineError


def _digest(fingerprint) -> str:
    """The short printable form of a Clock fingerprint (engine diffs)."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


def _parse_defines(items: Sequence[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"bad define {item!r}: expected NAME=VALUE")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = int(value, 0)
        except ValueError:
            raise SystemExit(f"bad define {item!r}: value must be an integer")
    return out


def _load_program(args: argparse.Namespace) -> UCProgram:
    try:
        source = open(args.file).read()
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    config = None
    if getattr(args, "pes", None):
        config = MachineConfig(n_pes=args.pes, name=f"CM (simulated, {args.pes} PEs)")
    try:
        return UCProgram(
            source,
            defines=_parse_defines(getattr(args, "define", []) or []),
            machine_config=config,
            apply_maps=not getattr(args, "no_maps", False),
            faults=getattr(args, "faults", None),
            sanitize=getattr(args, "sanitize", False),
            shards=getattr(args, "shards", None),
            placement=getattr(args, "placement", None) or "map",
        )
    except UCError as exc:
        raise SystemExit(f"{args.file}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.file}: {exc}")


def _coerce_batch_input(obj, path: str):
    """One JSON params entry -> a run() inputs dict (lists become arrays)."""
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise SystemExit(f"{path}: each batch entry must be an object or null")
    out = {}
    for name, val in obj.items():
        if isinstance(val, list):
            arr = np.asarray(val)
            if arr.dtype.kind in "iub":
                arr = arr.astype(np.int64)
            elif arr.dtype.kind == "f":
                arr = arr.astype(np.float64)
            else:
                raise SystemExit(
                    f"{path}: {name!r} must be a numeric array or scalar"
                )
            out[name] = arr
        elif isinstance(val, (int, float)):
            out[name] = val
        else:
            raise SystemExit(f"{path}: {name!r} must be a number or an array")
    return out


def _cmd_run_batch(prog: UCProgram, args: argparse.Namespace) -> int:
    import json
    import time

    try:
        with open(args.batch) as fh:
            params = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read batch params {args.batch}: {exc}")
    if not isinstance(params, list) or not params:
        raise SystemExit(f"{args.batch}: expected a non-empty JSON list")
    inputs = [_coerce_batch_input(p, args.batch) for p in params]
    t0 = time.perf_counter()
    try:
        results = prog.run_batch(inputs, seed=args.seed)
    except UCError as exc:
        raise SystemExit(f"{args.file}: runtime error: {exc}")
    except MachineError as exc:
        raise SystemExit(f"{args.file}: machine fault: {exc}")
    except ConfigError as exc:
        raise SystemExit(f"{args.file}: {exc}")
    wall_ms = (time.perf_counter() - t0) * 1e3
    for i, result in enumerate(results):
        if result.stdout:
            sys.stdout.write(result.stdout)
        for name in args.print or []:
            if name not in result:
                raise SystemExit(f"no variable named {name!r} in the program")
            value = result[name]
            if isinstance(value, np.ndarray):
                with np.printoptions(threshold=64, linewidth=100):
                    print(f"[{i}] {name} = {value}")
            else:
                print(f"[{i}] {name} = {value}")
        line = (
            f"-- lane {i}: simulated elapsed "
            f"{result.elapsed_us / 1e3:.3f} ms"
        )
        if getattr(args, "fingerprint", False):
            line += f"  fingerprint {_digest(result.fingerprint)}"
        print(line)
    batched = results[-1].compile.get("batched_lanes", 0.0)
    mode = (
        f"batched x{int(batched)} lanes" if batched else "sequential fallback"
    )
    print(
        f"-- batch: {len(results)} instances in {wall_ms:.1f} ms wall ({mode})"
    )
    if args.stats:
        _print_stats(prog, results[-1])
    return 0


#: exit code for a run cancelled by ``--timeout`` (the conventional
#: "command timed out" code, distinct from the generic error exit 1)
TIMEOUT_EXIT = 124


def cmd_run(args: argparse.Namespace) -> int:
    from .interp.deadline import UCDeadlineError

    prog = _load_program(args)
    if getattr(args, "batch", None):
        if args.profile:
            raise SystemExit("--profile is not supported with --batch")
        if getattr(args, "timeout", None):
            raise SystemExit("--timeout is not supported with --batch")
        return _cmd_run_batch(prog, args)
    try:
        result = prog.run(
            seed=args.seed, profile=args.profile, deadline=args.timeout
        )
    except UCDeadlineError as exc:
        # deliberately not a bare abort: report how far the run got
        # (the checkpoint-position diagnostic) and exit distinctly
        print(
            f"{args.file}: timeout: {exc.reason} deadline exceeded after "
            f"{exc.wall_used_s:.3f}s wall / {exc.clock_used_us:.0f}us simulated",
            file=sys.stderr,
        )
        print(f"{args.file}: cancelled at {exc.position}", file=sys.stderr)
        return TIMEOUT_EXIT
    except UCError as exc:
        raise SystemExit(f"{args.file}: runtime error: {exc}")
    except MachineError as exc:
        raise SystemExit(f"{args.file}: machine fault: {exc}")
    except ConfigError as exc:
        raise SystemExit(f"{args.file}: {exc}")
    if result.stdout:
        sys.stdout.write(result.stdout)
    names = args.print or sorted(result.keys())
    for name in names:
        if name not in result:
            raise SystemExit(f"no variable named {name!r} in the program")
        value = result[name]
        if isinstance(value, np.ndarray):
            with np.printoptions(threshold=64, linewidth=100):
                print(f"{name} = {value}")
        else:
            print(f"{name} = {value}")
    print(f"-- simulated elapsed: {result.elapsed_us / 1e3:.3f} ms "
          f"({result.elapsed_us:.0f} us)")
    if getattr(args, "fingerprint", False):
        print(f"-- clock fingerprint: {_digest(result.fingerprint)}")
    if args.ledger:
        print("-- instruction ledger:")
        for kind in sorted(result.counts):
            print(
                f"   {kind:16s} x{result.counts[kind]:<8d} "
                f"{result.times[kind]:12.0f} us"
            )
    if args.profile and result.profile:
        print("-- per-statement profile (simulated):")
        for label, us in sorted(result.profile.items(), key=lambda kv: -kv[1]):
            share = 100.0 * us / max(result.elapsed_us, 1e-9)
            print(f"   {us/1e3:10.2f} ms  {share:5.1f}%  {label}")
    if args.stats:
        _print_stats(prog, result)
    return 0


def _print_stats(prog: UCProgram, result) -> None:
        interp = prog.last_interpreter
        assert interp is not None
        print("-- execution stats:")
        config = result.config
        defaults = EngineConfig().resolved({})
        changed = [
            f"{field}={value}"
            for field, value in config._asdict().items()
            if value != getattr(defaults, field)
        ]
        print(f"   config: {' '.join(changed) or 'defaults'}")
        for engine in config.ENGINES:
            reason = config.why_off(engine)
            if reason:
                print(f"   config.{engine} off ({reason})")
        if result.compile:
            # wall-clock compile/execute breakdown for this run: *_s keys
            # are seconds; recompiles counts plan-cache misses during the
            # run (a warm compile store shows everything as zero)
            for key in sorted(result.compile):
                value = result.compile[key]
                if key.endswith("_s"):
                    print(f"   compile.{key:16s} {value * 1e3:10.3f} ms")
                elif isinstance(value, str):
                    print(f"   compile.{key:16s} {value}")
                else:
                    print(f"   compile.{key:16s} {value:g}")
        if result.store:
            for key in sorted(result.store):
                print(f"   store.{key:18s} {result.store[key]}")
        cache = getattr(interp, "plan_cache", None)
        if cache is not None:
            for key, value in sorted(cache.stats().items()):
                print(f"   plan_cache.{key:12s} {value}")
        tiers = interp.machine.clock.tier_counts
        if tiers:
            for tier in sorted(tiers):
                print(f"   tier.{tier:18s} x{tiers[tier]}")
        else:
            print("   tier dispatches: none (no remote references)")
        if result.frontier:
            for key in sorted(result.frontier):
                if key == "dense_sweeps":
                    continue  # reported on the compressed_sweeps line
                value = str(result.frontier[key])
                if key == "compressed_sweeps":
                    value += f" (dense {result.frontier.get('dense_sweeps', 0)})"
                print(f"   frontier.{key:18s} {value}")
            if result.frontier_trace:
                shrinks = " ".join(
                    f"{active}/{domain}"
                    for active, domain in result.frontier_trace
                )
                total_a = sum(a for a, _d in result.frontier_trace)
                total_d = sum(d for _a, d in result.frontier_trace)
                print(f"   frontier.sweeps (active/domain VPs): {shrinks}")
                if total_d:
                    print(
                        "   frontier.shrink "
                        f"{100.0 * total_a / total_d:.1f}% of full-sweep VPs"
                    )
        if result.fusion:
            for key in sorted(result.fusion):
                print(f"   fusion.{key:18s} {result.fusion[key]}")
        if result.shards:
            sh = result.shards
            print(
                f"   shards: {sh['n_shards']} ({sh['policy']} placement, "
                f"axis {sh['axis']}), live {sh['live']}"
            )
            print(
                f"   shards.cross_refs       {sh['cross_refs']}/{sh['refs']} "
                "remote refs cross a shard boundary"
            )
            print(
                f"   shards.intershard       x{sh['intershard_cycles']} "
                f"cycles ({sh['intershard_bytes']} bytes)"
            )
            print(
                f"   shards.reductions       "
                f"{sh['reductions_precombined']} pre-combined (UC501), "
                f"{sh['reductions_ordered']} ordered fallback"
            )
            for pair, t in sorted(sh["pairs"].items()):
                print(
                    f"   shards.pair {pair:10s} {t['elems']} elems "
                    f"({t['bytes']} bytes)"
                )
            for row in sh["per_shard"]:
                state = "live" if row["live"] else "retired"
                print(
                    f"   shards.shard[{row['shard']}] {state:8s} "
                    f"{row['time_us']:12.0f} us  "
                    f"intershard x{row['intershard_cycles']}"
                )
        if result.recovery:
            for key in sorted(result.recovery):
                print(f"   recovery.{key:14s} {result.recovery[key]}")
        if result.sanitizer:
            s = result.sanitizer
            print(
                "   sanitizer: "
                f"{s['writes_checked']} scatters checked "
                f"({s['duplicate_writes']} benign duplicates), "
                f"{s['tier_sites_verified']}/{s['tier_sites_observed']} "
                "tier sites verified, "
                f"{s.get('reductions_checked', 0)} reductions permuted "
                f"({s.get('reductions_confirmed', 0)} order-independent, "
                f"{s.get('order_sensitivity_observed', 0)} order-sensitive "
                "as claimed), 0 contradictions"
            )
        for t_us, kind, op in result.fault_log:
            print(f"   fault: {kind} during {op!r} at t={t_us:.0f}us")
        if result.dead_pes:
            print(f"   dead PEs: {result.dead_pes}")


def cmd_check(args: argparse.Namespace) -> int:
    prog = _load_program(args)
    n_arrays = len(prog.info.arrays)
    n_sets = len(prog.info.index_sets)
    print(
        f"{args.file}: OK ({n_sets} index sets, {n_arrays} arrays, "
        f"{len(prog.info.functions)} functions, "
        f"{len(prog.layouts.non_canonical())} mapped arrays)"
    )
    return 0


def cmd_cstar(args: argparse.Namespace) -> int:
    prog = _load_program(args)
    print(generate_cstar(prog.info, prog.layouts))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    prog = _load_program(args)
    report = analyze_communication(prog.info, prog.layouts)
    print(f"{args.file}: {len(report.references)} parallel array references")
    for ref in report.references:
        note = f"  ({ref.note})" if ref.note else ""
        print(f"  line {ref.line:4d}  {ref.kind:9s}  {ref.text}{note}")
    if report.suggestions:
        print("suggestions:")
        for s in report.suggestions:
            print(f"  - {s}")
    plans = [p for p in analyze_vp_plans(prog.info) if p.partitioned]
    for p in plans:
        print(
            f"processor optimization: reduction at line {p.line} needs "
            f"{p.optimized_vps} VPs (naive: {p.naive_vps})"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_program

    if args.explain:
        from .analysis import explain

        try:
            print(explain(args.explain))
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
        if not args.files:
            return 0
    elif not args.files:
        raise SystemExit("repro lint: needs files to lint (or --explain UCxxx)")

    defines = _parse_defines(args.define or [])
    worst = 0
    json_reports: List[str] = []
    for path in args.files:
        try:
            source = open(path).read()
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
        report = lint_program(
            source,
            defines=defines,
            apply_maps=not args.no_maps,
            filename=path,
        )
        if args.format == "json":
            json_reports.append(report.render_json())
        else:
            print(report.render_text())
        worst = max(worst, report.exit_code(werror=args.werror))
    if args.format == "json":
        if len(json_reports) == 1:
            print(json_reports[0])
        else:
            print("[" + ",\n".join(json_reports) + "]")
    return worst


def _spec_from_json(entry, path: str):
    """One job object from a ``repro serve`` jobs file -> JobSpec."""
    from .interp.deadline import Deadline
    from .service import JobSpec, RetryPolicy

    if not isinstance(entry, dict):
        raise SystemExit(f"{path}: each job must be a JSON object")
    if "source" in entry:
        source = entry["source"]
    elif "file" in entry:
        try:
            source = open(entry["file"]).read()
        except OSError as exc:
            raise SystemExit(f"{path}: cannot read {entry['file']}: {exc}")
    else:
        raise SystemExit(f"{path}: job needs a \"source\" or \"file\" key")
    deadline = None
    if entry.get("deadline"):
        d = entry["deadline"]
        deadline = Deadline(wall_s=d.get("wall_s"), clock_us=d.get("clock_us"))
    retry = None
    if entry.get("retry"):
        retry = RetryPolicy(**entry["retry"])
    return JobSpec(
        source=source,
        defines={k: int(v) for k, v in (entry.get("defines") or {}).items()},
        inputs=_coerce_batch_input(entry.get("inputs"), path),
        tenant=entry.get("tenant", "default"),
        seed=int(entry.get("seed", 20250704)),
        deadline=deadline,
        faults=entry.get("faults"),
        retry=retry,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .service import ExecutionService, ServiceConfig, SpoolError

    try:
        # a malformed REPRO_* variable fails the service up front, not
        # every job it would go on to run
        EngineConfig().resolved()
    except ConfigError as exc:
        raise SystemExit(f"{args.jobs or args.resume}: {exc}")
    budgets = {}
    for item in args.budget or []:
        if "=" not in item:
            raise SystemExit(f"bad budget {item!r}: expected TENANT=MICROSECONDS")
        tenant, _, us = item.partition("=")
        budgets[tenant.strip()] = float(us)
    config = ServiceConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        coalesce=not args.no_coalesce,
        preempt_slice_us=args.slice_us,
        preempt_probability=args.chaos,
        seed=args.seed,
        spool_dir=args.spool,
        tenant_budget_us=budgets or None,
    )
    try:
        if args.resume:
            svc = ExecutionService.resume(args.resume, config)
            print(
                f"-- resumed {len(svc.jobs)} journalled jobs from {args.resume} "
                f"({len(svc.queue)} in flight)"
            )
        else:
            svc = ExecutionService(config)
    except SpoolError as exc:  # a spool of another layout: "file: message"
        raise SystemExit(str(exc))
    if args.jobs:
        try:
            with open(args.jobs) as fh:
                entries = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read jobs file {args.jobs}: {exc}")
        if not isinstance(entries, list):
            raise SystemExit(f"{args.jobs}: expected a JSON list of job objects")
        # the whole file is admitted under one journal commit
        svc.submit_all([_spec_from_json(entry, args.jobs) for entry in entries])
    elif not args.resume:
        raise SystemExit("serve needs a jobs file, --resume DIR, or both")
    results = svc.drain()
    for job_id in sorted(results, key=lambda j: int(j[1:])):
        res = results[job_id]
        line = f"{job_id:>6s}  {res.state:8s} tenant={res.tenant}"
        if res.ok:
            line += (
                f"  {res.clock_us / 1e3:10.3f} ms simulated"
                f"  attempts={res.attempts} preemptions={res.preemptions}"
                f"  fingerprint {_digest(res.fingerprint)}"
            )
        elif res.error is not None:
            reason = res.error.get("reason") or res.error.get("type")
            line += f"  {reason}: {res.error.get('message', '')}"[:120]
        print(line)
    lost = svc.lost_jobs()
    s = svc.stats
    print(
        f"-- service: {s['done']} done, {s['failed']} failed, "
        f"{s['rejected']} rejected of {s['submitted']} submitted; "
        f"{s['preemptions']} preemptions, {s['retries']} retries, "
        f"{s['coalesced_lanes']} coalesced lanes, {len(lost)} lost; "
        f"{s['commits']} journal commits, {s['journal_bytes']} bytes"
    )
    return 1 if lost else 0


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="UC source file")
    p.add_argument(
        "-D",
        "--define",
        action="append",
        metavar="NAME=VALUE",
        help="compile-time constant (repeatable)",
    )
    p.add_argument("--no-maps", action="store_true", help="ignore map sections")
    p.add_argument("--pes", type=int, help="physical processors (default 16384)")


def _add_run_args(p_run: argparse.ArgumentParser) -> None:
    _add_common_args(p_run)
    p_run.add_argument("--seed", type=int, default=20250704, help="RNG seed")
    p_run.add_argument(
        "--print", action="append", metavar="VAR", help="variable(s) to print"
    )
    p_run.add_argument("--ledger", action="store_true", help="print the cost ledger")
    p_run.add_argument(
        "--batch",
        metavar="PARAMS_JSON",
        help="execute one instance per entry of a JSON list of input "
        "dicts ({\"var\": scalar-or-array, ...} or null) through the "
        "batched lane engine; results are bit-identical to running "
        "each instance alone (REPRO_NO_BATCH=1 forces the loop)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="per-statement simulated-time profile",
    )
    p_run.add_argument(
        "--stats",
        action="store_true",
        help="plan-cache, communication-tier dispatch, frontier-sweep "
        "and kernel-fusion counters (incl. per-sweep active-VP shrink "
        "ratios and fused-segment / charge-table hit counts)",
    )
    p_run.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject hardware faults, e.g. 'kill:3@alu#5;drop@router_send#2' "
        "(see docs/ROBUSTNESS.md); recovery is automatic",
    )
    p_run.add_argument(
        "--fingerprint",
        action="store_true",
        help="print a digest of the Clock cost fingerprint (for engine diffs)",
    )
    p_run.add_argument(
        "--sanitize",
        action="store_true",
        help="cross-check the run against the static analyzer's verdicts "
        "(also via REPRO_SANITIZE=1; see docs/ANALYSIS.md)",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="partition the machine into K shards joined by an "
        "inter-machine link (the 'intershard' cost tier); results and "
        "fingerprints are bit-identical for every K (REPRO_SHARDS "
        "overrides; see docs/PERFORMANCE.md)",
    )
    p_run.add_argument(
        "--placement",
        choices=("map", "block"),
        help="shard placement policy: 'map' (default) derives the "
        "partition axis from the program's map section; 'block' is the "
        "naive axis-0 banding baseline",
    )
    p_run.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="cancel the run at the next construct boundary once this much "
        f"wall time has elapsed (exit {TIMEOUT_EXIT}, with a "
        "checkpoint-position diagnostic; the execution service's deadline "
        "machinery)",
    )


def _add_serve_args(p_serve: argparse.ArgumentParser) -> None:
    p_serve.add_argument(
        "jobs",
        nargs="?",
        help="JSON list of job objects ({\"source\"|\"file\", \"defines\", "
        "\"inputs\", \"tenant\", \"seed\", \"deadline\": {\"wall_s\", "
        "\"clock_us\"}, \"faults\", \"retry\": {...}}); optional with "
        "--resume",
    )
    p_serve.add_argument("--workers", type=int, default=4, help="pool size")
    p_serve.add_argument(
        "--max-queue", type=int, default=256, help="admission bound (load-shed past it)"
    )
    p_serve.add_argument(
        "--spool", metavar="DIR", help="journal + snapshots here (crash durability)"
    )
    p_serve.add_argument(
        "--resume",
        metavar="DIR",
        help="recover a crashed service from its spool directory and finish "
        "its in-flight jobs",
    )
    p_serve.add_argument(
        "--slice-us",
        type=float,
        default=None,
        help="preempt a running job after this much simulated time per slice",
    )
    p_serve.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="P",
        help="probability of forcing a snapshot-preemption at each top-level "
        "boundary (seeded chaos testing)",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="service seed")
    p_serve.add_argument(
        "--budget",
        action="append",
        metavar="TENANT=US",
        help="per-tenant simulated-Clock budget in microseconds (repeatable)",
    )
    p_serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable run_batch coalescing of identical queued programs",
    )


def _add_lint_args(p_lint: argparse.ArgumentParser) -> None:
    p_lint.add_argument("files", nargs="*", help="UC source file(s)")
    p_lint.add_argument(
        "--explain",
        metavar="UCxxx",
        help="print the code-table entry, severity and fix-it template "
        "for one stable diagnostic code, then lint any given files",
    )
    p_lint.add_argument(
        "-D",
        "--define",
        action="append",
        metavar="NAME=VALUE",
        help="compile-time constant (repeatable)",
    )
    p_lint.add_argument("--no-maps", action="store_true", help="ignore map sections")
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format",
    )
    p_lint.add_argument(
        "--werror",
        action="store_true",
        help="exit non-zero on warnings too",
    )


#: sub-command -> (help line, argument declarations, handler), in the
#: order ``repro -h`` lists them
_COMMANDS = {
    "run": ("execute main on the simulator", _add_run_args, cmd_run),
    "serve": (
        "multi-tenant execution service: run a JSON job list on a "
        "bounded worker pool with deadlines, retries, preemption and "
        "crash-durable state (see docs/ROBUSTNESS.md)",
        _add_serve_args,
        cmd_serve,
    ),
    "check": ("parse + semantic analysis only", _add_common_args, cmd_check),
    "cstar": ("emit C* target source", _add_common_args, cmd_cstar),
    "analyze": (
        "communication report + map suggestions",
        _add_common_args,
        cmd_analyze,
    ),
    "lint": (
        "whole-program static analyzer: par races, solve convergence, "
        "communication tiers, hygiene, determinism envelopes "
        "(see docs/ANALYSIS.md)",
        _add_lint_args,
        cmd_lint,
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser with every sub-command registered (so ``-h``
    and the invalid-choice error list them all) but only ``command``'s
    arguments declared — an invocation runs one command and pays for one."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UC language tools on a simulated Connection Machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no options of its own besides -h, so the
    # first bare word is the sub-command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The public entry point: :class:`UCProgram`.

Ties the whole pipeline together: parse → semantic analysis → mapping
construction → interpretation on a simulated Connection Machine.

Example
-------
>>> from repro import UCProgram
>>> prog = UCProgram('''
...     int N = 8;
...     index_set I:i = {0..N-1};
...     int a[8];
...     main { par (I) a[i] = i * i; }
... ''')
>>> result = prog.run()
>>> list(result["a"])
[0, 1, 4, 9, 16, 25, 36, 49]
>>> result.elapsed_us > 0
True
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..lang import analyze, parse_program
from ..lang.semantics import ProgramInfo
from ..machine import FaultPlan, Machine, MachineConfig
from ..mapping.maps import build_layouts
from ..mapping.layout import LayoutTable
from .compile_store import CompileStore, default_store
from .config import EngineConfig
from .deadline import DeadlineMonitor
from .interpreter import Interpreter
from .plan_cache import PlanCache

#: sentinel distinguishing "use the process-wide store" (the default)
#: from an explicit ``compile_store=None`` (a private, per-program cache)
_DEFAULT_STORE = object()

#: sentinel for per-run overrides that default to the program's setting
#: (``None`` is a meaningful override: "this run, no faults / default
#: recovery policy")
_UNSET = object()


class RunResult:
    """Outcome of one program run: variables + simulated timing.

    Behaves as a mapping from variable name to its final value (arrays
    come back as numpy arrays, scalars as int/float).
    """

    def __init__(self, interp: Interpreter) -> None:
        self._values: Dict[str, Union[int, float, np.ndarray]] = {}
        for name in interp.info.arrays:
            self._values[name] = interp.read_array(name)
        for name in interp.info.scalars:
            self._values[name] = interp.read_scalar(name)
        self.elapsed_us: float = interp.machine.clock.time_us
        self.elapsed_ms: float = interp.machine.clock.time_ms
        self.stdout: str = "".join(interp.stdout)
        #: per-top-level-statement simulated time (populated by profile=True)
        self.profile: Dict[str, float] = dict(interp.machine.clock.regions)
        self.counts: Dict[str, int] = {
            rec.kind: rec.count for rec in interp.machine.clock.ledger()
        }
        self.times: Dict[str, float] = {
            rec.kind: rec.time_us for rec in interp.machine.clock.ledger()
        }
        #: hashable digest of the full cost state (see Clock.fingerprint)
        self.fingerprint = interp.machine.clock.fingerprint()
        #: the resolved :class:`~repro.interp.config.EngineConfig` the run
        #: executed under (``config.clock_key`` decides the fingerprint)
        self.config: EngineConfig = interp.config
        #: checkpoint/fault/retry counters (empty when recovery is off)
        self.recovery: Dict[str, int] = (
            dict(interp.recovery.stats) if interp.recovery is not None else {}
        )
        #: (time_us, kind, op) per fault fired during the run
        self.fault_log = (
            list(interp.machine.faults.log)
            if interp.machine.faults is not None
            else []
        )
        #: physical PEs lost to injected faults during the run
        self.dead_pes = sorted(interp.machine.dead_pes)
        #: frontier-engine counters (constructs, fallbacks, full/compressed
        #: sweeps, active vs domain lane totals; empty when frontier off)
        self.frontier: Dict[str, int] = dict(interp.machine.clock.frontier_counts)
        #: per-compressed-sweep (active, domain) lane counts
        self.frontier_trace = list(interp.machine.clock.frontier_trace)
        #: kernel-fusion counters (constructs/kernels built, fused vs
        #: unfused segments, fused/fallback sweeps, charge-table hits;
        #: empty when fusion is off or nothing fused)
        self.fusion: Dict[str, int] = dict(interp.machine.clock.fusion_counts)
        #: sharded-execution counters (shard count, placement axis,
        #: per-shard clock totals, intershard cycles and bytes per shard
        #: pair; empty on an unsharded run) — see docs/PERFORMANCE.md
        sink = getattr(interp.machine.clock, "shard_sink", None)
        self.shards: Dict[str, Any] = sink.stats() if sink is not None else {}
        #: sanitizer summary (claims checked/verified; empty when off) —
        #: filled in by UCProgram.run after the cross-check passes
        self.sanitizer: Dict[str, int] = {}
        #: compile/execute wall-time breakdown + recompile counts for
        #: this run (parse/semantics/layouts are zero on a warm frontend
        #: hit; plan/fuse/frontier build seconds and ``recompiles`` are
        #: deltas over the run, so a warm run shows them all as zero;
        #: ``determinism_error`` names an analyzer failure that sent every
        #: reduction down the ordered path) — filled in by UCProgram.run
        self.compile: Dict[str, Any] = {}
        #: compile-store counters after this run (empty when the program
        #: runs with a private cache) — filled in by UCProgram.run
        self.store: Dict[str, int] = {}

    def __getitem__(self, name: str) -> Union[int, float, np.ndarray]:
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def keys(self):
        return self._values.keys()

    def __repr__(self) -> str:
        return (
            f"RunResult(vars={sorted(self._values)}, "
            f"elapsed={self.elapsed_us:.1f}us)"
        )


class UCProgram:
    """A parsed, checked, mapped UC program ready to run.

    The engine keywords are kept as one
    :class:`~repro.interp.config.EngineConfig` request and resolved
    against the ``REPRO_*`` environment once per run; "Configuration" in
    ``docs/PERFORMANCE.md`` lists each switch's variable, CLI flag, Clock
    effect and stand-down rules.

    Parameters
    ----------
    source:
        UC source text.
    defines:
        Compile-time integer constants (stands in for ``#define``).
    machine_config:
        Simulated machine description (default: 16K-PE CM-2).
    apply_maps:
        Honour the program's ``map`` sections (set False to measure the
        compiler's default mappings — the mapping-ablation benchmarks use
        this toggle).
    solve_strategy:
        ``"auto"`` (static schedule when possible), ``"scheduled"`` or
        ``"guarded"``.
    processor_opt:
        Enable the §4 processor optimization (partitioned reductions run
        as one combining router send on the operand grid).  On by default,
        as in the paper's compiler; turn off for the ablation benchmark.
    cse:
        Enable §4's common sub-expression detection: within one parallel
        statement, pure subexpressions shared between a predicate and its
        body (or repeated inside one expression) are evaluated and charged
        once.  On by default, as in the paper's compiler.
    plans:
        Execute construct bodies as cached compiled closures instead of
        recursive AST walks (see ``docs/PERFORMANCE.md``).  Semantics and
        simulated clock are identical either way; set False to force the
        tree-walking oracle.
    comm_tiers:
        Dispatch each remote array reference to its cheapest communication
        tier — NEWS shift, spread, broadcast, precomputed permutation or
        general router (see "Communication tiers" in
        ``docs/PERFORMANCE.md``).  Set False to service and charge every
        remote reference through the general router.
    frontier:
        Run iterated constructs (``solve``/``*solve``/``*par``) with
        active-set ("frontier") sweeps: after the first full sweep, only
        the lanes reachable from last sweep's change masks are evaluated
        and only the active VP set is charged (see "Frontier execution"
        in ``docs/PERFORMANCE.md``).  Results are bit-identical and the
        simulated Clock is never higher than with full sweeps.  Set False
        to restore full sweeps with bit-identical fingerprints to the
        non-frontier build.
    fusion:
        Lower construct bodies to whole-array register programs with
        static charge tables (see "Kernel fusion" in
        ``docs/PERFORMANCE.md``): the steady-state sweep loop does no
        per-statement AST, environment, or charge bookkeeping.
        Statements the pass cannot prove static run as unfused segments
        inside the fused sweep.  Results and Clock fingerprints are
        bit-identical either way; set False to restore the per-closure
        plan engine.
    log_tiers:
        Record, per ``(line, array)`` reference site, the set of tiers
        dispatched at run time (``last_interpreter.tier_log``) — used by
        the static-vs-runtime parity tests.
    sanitize:
        Arm the runtime sanitizer: both engines record per-statement
        scatter duplicates and dispatched communication tiers, which are
        cross-checked against the static analyzer's exact verdicts
        (``repro lint``).  A contradiction raises
        :class:`~repro.lang.errors.UCSanitizerError` — it means an
        analyzer or engine bug, never a property of the program.  Implies
        ``log_tiers``.  See ``docs/ANALYSIS.md``.
    faults:
        A :class:`~repro.machine.faults.FaultPlan` (or a spec string for
        :meth:`FaultPlan.parse <repro.machine.faults.FaultPlan.parse>`)
        of hardware failures to inject.  Installing a plan automatically
        arms checkpoint/replay recovery (see ``docs/ROBUSTNESS.md``).
    recovery:
        A :class:`~repro.interp.recovery.RecoveryPolicy` overriding the
        default retry count / backoff.
    checkpoints:
        Take checkpoints at ``par``/``solve`` boundaries even with no
        fault plan installed (the overhead benchmark's toggle).
    solve_sweep_limit:
        Cap on the sweeps of any iterating construct or loop before the
        divergence error (default: the global ``MAX_SWEEPS`` backstop).
    shards:
        Partition the simulated machine into K resident shards connected
        by an inter-machine link (the ``intershard`` cost tier): remote
        references the placement proves to cross a shard boundary are
        gathered into per-destination slabs, one bulk exchange per shard
        pair per sweep.  Results and Clock fingerprints are bit-identical
        for every K — sharding is an accounting overlay on the global
        clock (see "Sharded execution" in ``docs/PERFORMANCE.md``).
    placement:
        ``"map"`` (default) derives the partition axis from the program's
        own ``map`` section — the axis with the least statically
        predicted cross-shard slab traffic wins; ``"block"`` is the naive
        axis-0 banding baseline the sharding benchmark compares against.
    compile_store:
        The content-addressed :class:`~repro.interp.compile_store.CompileStore`
        to compile through (default: the process-wide store, so repeated
        ``UCProgram`` constructions of the same source reuse the parsed
        frontend, and repeated runs under the same machine config and
        ``config.compile_key`` reuse compiled plans, fused kernels and
        frontier analyses).  Pass ``None`` for fully private per-program
        compilation (the pre-store behaviour).  Results and Clock
        fingerprints are bit-identical either way: compilation charges
        nothing on the simulated clock.
    """

    def __init__(
        self,
        source: str,
        *,
        defines: Optional[Dict[str, int]] = None,
        machine_config: Optional[MachineConfig] = None,
        apply_maps: bool = True,
        solve_strategy: str = "auto",
        processor_opt: bool = True,
        cse: bool = True,
        plans: bool = True,
        comm_tiers: bool = True,
        frontier: bool = True,
        fusion: bool = True,
        log_tiers: bool = False,
        sanitize: bool = False,
        shards: Optional[int] = None,
        placement: str = "map",
        faults: Optional[Union[str, FaultPlan]] = None,
        recovery=None,
        checkpoints: bool = False,
        solve_sweep_limit: Optional[int] = None,
        compile_store: Any = _DEFAULT_STORE,
        _ast=None,
    ) -> None:
        self.source = source
        self.defines = dict(defines or {})
        self.machine_config = machine_config
        self.apply_maps = apply_maps
        if placement not in ("map", "block"):
            raise ValueError(f"unknown placement policy {placement!r}")
        #: the engine keywords as given; each run resolves them against
        #: the environment once (:meth:`resolved_config`)
        self.request = EngineConfig(
            solve_strategy=solve_strategy,
            processor_opt=processor_opt,
            cse=cse,
            plans=plans,
            comm_tiers=comm_tiers,
            frontier=frontier,
            fusion=fusion,
            log_tiers=log_tiers,
            sanitize=sanitize,
            solve_sweep_limit=solve_sweep_limit,
            shards=shards,
            placement=placement,
            checkpoints=checkpoints,
        )
        #: (n_shards, policy) -> chosen partition axis; the axis search
        #: runs static analysis once per program, not once per run
        self._placement_axis_memo: Dict[tuple, int] = {}
        # parse eagerly: a bad spec should fail at construction, not mid-run
        self.faults = (
            FaultPlan.parse(faults) if isinstance(faults, str) else faults
        )
        self.recovery = recovery
        #: the shared compile store (None = private per-program caching;
        #: programs built from an AST always compile privately — there is
        #: no source text to content-address)
        self.compile_store: Optional[CompileStore] = (
            default_store() if compile_store is _DEFAULT_STORE else compile_store
        )
        #: per-phase frontend wall times for this object (all zero when
        #: the store served a cached frontend)
        self.compile_times: Dict[str, float] = {
            "parse_s": 0.0,
            "semantics_s": 0.0,
            "layouts_s": 0.0,
        }
        #: True when parse/semantics/layouts came from the compile store
        self.compile_cached = False
        self._frontend_key = None

        def _compile_frontend():
            t0 = time.perf_counter()
            tree = _ast if _ast is not None else parse_program(source)
            t1 = time.perf_counter()
            info = analyze(tree, self.defines)
            t2 = time.perf_counter()
            layouts = build_layouts(info, apply_maps=apply_maps)
            t3 = time.perf_counter()
            self.compile_times["parse_s"] = 0.0 if _ast is not None else t1 - t0
            self.compile_times["semantics_s"] = t2 - t1
            self.compile_times["layouts_s"] = t3 - t2
            return tree, info, layouts

        if self.compile_store is not None and _ast is None:
            self._frontend_key = CompileStore.frontend_key(
                source, self.defines, apply_maps
            )
            entry, self.compile_cached = self.compile_store.frontend(
                self._frontend_key, _compile_frontend, len(source)
            )
            # sharing the AST object across program instances is what
            # lines up the plan cache's id(node) keys between them
            self.ast, self.info, self.layouts = entry.ast, entry.info, entry.layouts
        else:
            self.ast, self.info, self.layouts = _compile_frontend()
        self.last_interpreter: Optional[Interpreter] = None

    @classmethod
    def from_ast(cls, program_ast, **kwargs) -> "UCProgram":
        """Build from an already-constructed AST (used by the embedded DSL)."""
        return cls("<built ast>", _ast=program_ast, **kwargs)

    def run(
        self,
        inputs: Optional[Dict[str, Union[int, float, np.ndarray]]] = None,
        *,
        seed: int = 20250704,
        machine: Optional[Machine] = None,
        profile: bool = False,
        deadline=None,
        faults: Any = _UNSET,
        recovery: Any = _UNSET,
    ) -> RunResult:
        """Execute ``main`` on a fresh machine; returns the final state.

        With ``profile=True`` the result's ``.profile`` maps each
        top-level statement of ``main`` to its simulated time.
        ``deadline`` (seconds, a :class:`~repro.interp.deadline.Deadline`
        or a :class:`~repro.interp.deadline.DeadlineMonitor`) cancels the
        run with :class:`~repro.interp.deadline.UCDeadlineError` at the
        next construct/sweep boundary once exceeded.  ``faults`` and
        ``recovery`` override the program-level settings for this run
        only (pass ``None`` to run a fault-configured program clean —
        the execution service's retries use this).
        """
        pr = self.prepare(
            inputs, seed=seed, machine=machine, faults=faults, recovery=recovery
        )
        return pr.run(profile=profile, deadline=deadline)

    def prepare(
        self,
        inputs: Optional[Dict[str, Union[int, float, np.ndarray]]] = None,
        *,
        seed: int = 20250704,
        machine: Optional[Machine] = None,
        faults: Any = _UNSET,
        recovery: Any = _UNSET,
    ) -> "PreparedRun":
        """Build a machine + interpreter primed at the start of ``main``.

        :meth:`run` is ``prepare(...).run(...)``; the execution service
        uses the pieces separately so a job can execute in preemptible
        slices (:meth:`Interpreter.run_main_from`) and resume — possibly
        in another process — from a portable snapshot.
        """
        fault_plan = self.faults if faults is _UNSET else (
            FaultPlan.parse(faults) if isinstance(faults, str) else faults
        )
        recovery_policy = self.recovery if recovery is _UNSET else recovery
        config = self.resolved_config(fault_plan)
        m = machine if machine is not None else Machine(self.machine_config, seed=seed)
        # sharding is an observability overlay on the clock: it never
        # perturbs the global charge stream, so plan caches, engines and
        # fingerprints are shared with (and identical to) unsharded runs
        if config.shards > 1:
            self._make_sharded(m, config)
        plan_cache = self._shared_plan_cache(m, machine, fault_plan, config)
        interp = Interpreter(
            self.info,
            m,
            self.layouts,
            config=config,
            seed=seed,
            recovery_policy=recovery_policy,
            plan_cache=plan_cache,
        )
        if inputs:
            interp.load_inputs(inputs)
        # time the algorithm, not allocation / front-end input I/O — the
        # paper's measurements start with the data already on the machine
        m.clock.reset()
        # arm faults only now: triggers count from the start of main, so a
        # fault spec means the same thing whatever the setup traffic was
        if fault_plan is not None:
            m.install_faults(fault_plan)
        return PreparedRun(self, m, interp, fault_plan, plan_cache)

    def run_batch(
        self,
        inputs: Sequence[Optional[Dict[str, Union[int, float, np.ndarray]]]],
        *,
        seed: int = 20250704,
    ) -> List[RunResult]:
        """Execute one instance of the program per element of ``inputs``.

        Each element is an inputs dict (or None/{} for defaults), exactly
        as :meth:`run` takes; the return value is one :class:`RunResult`
        per instance, bit-identical — values, stdout and clock
        fingerprints — to ``[self.run(inp, seed=seed) for inp in
        inputs]``.  When the instances share grid geometry (they always
        do: same program, same machine config) the batched lane engine
        executes fused ``*par``/``*solve`` sweeps once over a
        lane-stacked array instead of once per instance; anything the
        batched path cannot model falls back to the sequential loop.
        """
        from .batch import run_batch as _run_batch

        return _run_batch(self, inputs, seed=seed)

    def resolved_config(self, fault_plan: Any = _UNSET) -> EngineConfig:
        """The effective :class:`EngineConfig` of one run: the keywords
        resolved against the environment *now* (a variable flipped
        between two runs takes effect), with checkpoint/replay recovery
        armed when the run carries a fault plan.  Called once per
        :meth:`prepare` / :meth:`run_batch`; a malformed variable raises
        :class:`~repro.interp.config.ConfigError`."""
        config = self.request.resolved()
        if (self.faults if fault_plan is _UNSET else fault_plan) is not None:
            config = config._replace(checkpoints=True)
        return config

    def _make_sharded(self, m: Machine, config: EngineConfig):
        """Wrap ``m`` in a :class:`~repro.machine.shards.ShardedMachine`.

        The partition-axis search (static analysis over the program's
        reference verdicts) is memoized per (K, policy); the Placement
        itself is rebuilt per run — it carries live-shard state that a
        fault run mutates.
        """
        from ..machine.shards import ShardedMachine
        from ..mapping.placement import Placement, derive_placement

        key = (config.shards, config.placement)
        axis = self._placement_axis_memo.get(key)
        if axis is None:
            axis = derive_placement(
                self.info, self.layouts, config.shards, policy=config.placement
            ).axis
            self._placement_axis_memo[key] = axis
        placement = Placement(config.shards, axis=axis, policy=config.placement)
        return ShardedMachine(m, config.shards, placement)

    def _shared_plan_cache(
        self,
        m: Machine,
        machine_arg: Optional[Machine],
        fault_plan: Optional[FaultPlan],
        config: EngineConfig,
    ) -> Optional[PlanCache]:
        """The store's shared PlanCache for this (program, machine, config).

        Returns None — a private per-run cache — whenever sharing would
        be unsound or unkeyable: no store, a program built from an AST
        (no content key), an injected fault plan (recovery remaps
        layouts mid-run), or a caller-provided machine (its config may
        not describe its mutated state, e.g. dead PEs from a prior run).
        ``fault_plan`` is the run's *effective* plan (the execution
        service overrides the program's per job).
        """
        if (
            self.compile_store is None
            or self._frontend_key is None
            or fault_plan is not None
            or machine_arg is not None
        ):
            return None
        cache, _existed = self.compile_store.backend(
            self._frontend_key, m.config, config.compile_key
        )
        return cache

    def _compile_summary(
        self,
        interp: Interpreter,
        pc_after: Dict[str, float],
        pc_before: Dict[str, float],
        execute_s: float,
    ) -> Dict[str, Any]:
        """The --stats breakdown: frontend times + per-kind build deltas."""
        out: Dict[str, Any] = {
            "frontend_cached": float(self.compile_cached),
            "parse_s": self.compile_times["parse_s"],
            "semantics_s": self.compile_times["semantics_s"],
            "layouts_s": self.compile_times["layouts_s"],
            "execute_s": execute_s,
            "recompiles": pc_after["misses"] - pc_before["misses"],
        }
        plan_s = fuse_s = frontier_s = 0.0
        for key, after in pc_after.items():
            if not key.startswith("build_seconds."):
                continue
            delta = after - pc_before.get(key, 0.0)
            kind = key[len("build_seconds.") :]
            if kind == "fuse":
                fuse_s += delta
            elif kind == "frontier":
                frontier_s += delta
            else:
                plan_s += delta
        out["plan_s"] = plan_s
        out["fuse_s"] = fuse_s
        out["frontier_s"] = frontier_s
        if interp.determinism_error:
            out["determinism_error"] = interp.determinism_error
        return out


class PreparedRun:
    """A machine + interpreter primed at the start of ``main``.

    Built by :meth:`UCProgram.prepare`.  :meth:`run` executes to
    completion (this is exactly what ``UCProgram.run`` does); the
    execution service instead drives :attr:`interp` itself —
    ``run_main_from(prepared.context, start_pc, boundary)`` in slices,
    suspending into portable snapshots between them — and calls
    :meth:`finish` when the program completes.
    """

    def __init__(
        self,
        program: UCProgram,
        machine: Machine,
        interp: Interpreter,
        fault_plan: Optional[FaultPlan],
        plan_cache: Optional[PlanCache],
    ) -> None:
        self.program = program
        self.machine = machine
        self.interp = interp
        self.fault_plan = fault_plan
        self.plan_cache = plan_cache
        #: the main context resumable slices execute in (its environment
        #: is a direct child of the global environment — the property
        #: portable snapshots need)
        self.context = interp.make_main_context()
        self._pc_before = interp.plan_cache.counters()
        #: accumulated execute wall seconds (slices add to it)
        self.execute_s = 0.0

    def run(self, *, profile: bool = False, deadline=None) -> RunResult:
        """Execute ``main`` to completion and package the result."""
        interp = self.interp
        monitor = None
        if deadline is not None:
            monitor = DeadlineMonitor.from_spec(deadline)
            interp.deadline = monitor
            monitor.begin()
        t_exec = time.perf_counter()
        try:
            if monitor is None or profile:
                interp.run_main(profile=profile)
            else:
                interp.run_main_from(self.context)
        finally:
            if monitor is not None:
                monitor.pause()
            if self.fault_plan is not None:
                # leave the machine reusable (and the plan's log readable)
                self.machine.clock.fault_hook = None
            self.execute_s += time.perf_counter() - t_exec
        return self.finish()

    def finish(self) -> RunResult:
        """Package the completed run (counters, summaries, sanitizer)."""
        interp = self.interp
        program = self.program
        if self.fault_plan is not None:
            self.machine.clock.fault_hook = None
        program.last_interpreter = interp
        result = RunResult(interp)
        result.compile = program._compile_summary(
            interp, interp.plan_cache.counters(), self._pc_before, self.execute_s
        )
        if self.plan_cache is not None and program.compile_store is not None:
            result.store = program.compile_store.stats()
        if interp.sanitizer is not None:
            # hard failure on any contradiction; the summary feeds --stats
            result.sanitizer = interp.sanitizer.cross_check(interp)
        return result

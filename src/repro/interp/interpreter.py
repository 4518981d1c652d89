"""The interpreter object: program state + execution driver.

One :class:`Interpreter` owns the machine, the global environment (arrays
as machine fields with their layouts, scalars, functions, index sets) and
the RNG, and runs the program's ``main`` block.  A fresh interpreter is
built per run so benchmark sweeps are independent.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple, Union

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError, UCSemanticError
from ..lang.scope import IndexSetValue
from ..lang.semantics import ProgramInfo, _ConstEvaluator
from ..machine import Machine
from ..machine.vpset import VPSet
from ..mapping.layout import Layout, LayoutTable
from .compile_store import LRU, FrontendEntry
from .config import EngineConfig
from .env import Env
from .eval_expr import ExecContext, eval_expr
from .statements import ReturnSignal, exec_stmt
from .values import ArrayVar, GridContext, ScalarVar, coerce_scalar, numpy_ctype
from . import functions as _functions


class Interpreter:
    """Executes one checked UC program on one machine."""

    def __init__(
        self,
        info: ProgramInfo,
        machine: Machine,
        layouts: LayoutTable,
        *,
        config: Optional[EngineConfig] = None,
        seed: int = 20250704,
        recovery_policy=None,
        plan_cache: Optional[LRU] = None,
        frontend: Optional[FrontendEntry] = None,
    ) -> None:
        self.info = info
        self.machine = machine
        self.layouts = layouts
        #: the run's resolved :class:`EngineConfig` — the one place every
        #: engine switch is read from (UCProgram.prepare resolves it once
        #: per run; a bare interpreter resolves the defaults)
        self.config = config if config is not None else EngineConfig().resolved()
        # §4's common sub-expression detection: while a cache is armed
        # (one par-statement execution), pure parallel subexpressions are
        # evaluated and charged once (the key texts are a per-program
        # fact: ``frontend.cse_keys``)
        self.cse_cache: Optional[dict] = None
        # the plan cache may be injected — a shared, content-addressed
        # entry of the compile store (see UCProgram.run) whose keys pin
        # the machine config and the config's compile key, so cross-run
        # reuse can never serve a plan compiled under different settings
        self.plan_cache = plan_cache if plan_cache is not None else LRU()
        #: this run's own plan-cache misses and build seconds per kind
        #: (a shared cache's counters also count other runs' builds)
        self.build_tally: Dict[str, float] = {}
        #: the program's frontend entry: it owns the one static analysis
        #: (reduction verdicts, sanitizer claims) every run reads
        self.frontend = (
            frontend if frontend is not None else FrontendEntry(info, layouts)
        )
        # fusion telemetry is counted once per (construct, grid) per run
        # at first use, so warm shared-cache runs report the same
        # counters a cold run does (see fuse.fused_for)
        self.fusion_noted: Set[Tuple[int, Hashable]] = set()
        # runtime sanitizer: static claims from the analyzer,
        # cross-checked against observed behaviour after the run
        self.sanitizer = None
        if self.config.sanitize:
            from ..analysis.sanitize import Sanitizer

            self.sanitizer = Sanitizer(self.frontend)
        # (line, array) -> set of tiers dispatched, for the sanitizer
        self.tier_log: Optional[Dict[Tuple[int, str], set]] = (
            {} if self.config.sanitize else None
        )
        # innermost construct being executed (error-message context)
        self.current_construct: Optional[ast.UCStmt] = None
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        # checkpoint/replay recovery: armed whenever the run carries a
        # fault plan (config.checkpoints) or the machine already does
        self.recovery = None
        if self.config.checkpoints or machine.faults is not None:
            from .recovery import RecoveryManager, RecoveryPolicy

            self.recovery = RecoveryManager(
                self, recovery_policy or RecoveryPolicy()
            )
        # optional DeadlineMonitor polled at construct/sweep boundaries
        # (see repro.interp.deadline); None costs one attribute test
        self.deadline = None
        self.stdout: List[str] = []
        self.global_env = Env()
        self._vpsets: Dict[Tuple[int, ...], VPSet] = {}
        self._setup_globals()

    # -- determinism oracle ------------------------------------------------------

    def reduction_verdict(self, node):
        """The UC5xx :class:`ReductionVerdict` for one ``ast.Reduction``,
        or None for sites the analyzer did not model — the single
        reorder-legality oracle batched blocked reductions, cross-shard
        pre-combining and the sanitizer consult.  An analyzer failure
        leaves no verdicts and is reported as
        ``RunResult.compile["determinism_error"]``."""
        return self.frontend.reduction_claims().get(id(node))

    def reduction_order_safe(self, node) -> bool:
        """True only for UC501-proven sites: reordering the combine is
        proven value-identical.  Everything else (float +/*, unprovable
        bodies, unmodeled sites) stays on the order-preserving path."""
        verdict = self.reduction_verdict(node)
        return verdict is not None and verdict.order_safe

    # -- global state -----------------------------------------------------------

    def _setup_globals(self) -> None:
        env = self.global_env
        for name, isv in self.info.index_sets.items():
            env.declare(name, isv)
        for name, (ctype, dims) in self.info.arrays.items():
            env.declare(name, self.allocate_array(name, ctype, dims))
        for name, ctype in self.info.scalars.items():
            var = ScalarVar(name, ctype)
            if name in self.info.constants:
                var.value = coerce_scalar(ctype, self.info.constants[name])
            env.declare(name, var)
        for name, func in self.info.functions.items():
            env.declare(name, func)
        # compile-time constants (defines) that are not program variables
        for name, value in self.info.constants.items():
            if env.try_lookup(name) is None:
                env.declare(name, int(value))
        # run any non-constant top-level initialisers
        host = ExecContext(GridContext(), None, env)
        for decl in self.info.program.decls:
            if (
                isinstance(decl, ast.VarDecl)
                and not decl.dims
                and decl.init is not None
                and decl.name not in self.info.constants
            ):
                var = env.lookup(decl.name)
                var.value = coerce_scalar(
                    var.ctype, eval_expr(self, decl.init, host), decl.init
                )

    def allocate_array(self, name: str, ctype: str, dims: Tuple[int, ...]) -> ArrayVar:
        """Allocate a program array as a field on a (cached) VP set."""
        vps = self.grid_vpset(dims)
        field = self.machine.field(vps, numpy_ctype(ctype), name)
        layout = self.layouts.get(name) if name in self.layouts else Layout(name, dims)
        return ArrayVar(name, ctype, field, layout)

    def grid_vpset(self, shape: Tuple[int, ...]) -> VPSet:
        """VP set for a grid geometry, cached per shape."""
        if shape not in self._vpsets:
            self._vpsets[shape] = self.machine.vpset(shape, name=f"grid{shape}")
        return self._vpsets[shape]

    @property
    def rng(self) -> np.random.Generator:
        """The seeded generator behind ``rand()``/``oneof``/``$,``, created
        at first use: a program that never draws never imports
        ``numpy.random``, and one that does sees the same stream."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    def reseed(self, seed: int) -> None:
        self._seed = seed
        self._rng = None

    # -- common-subexpression cache (§4) -----------------------------------------

    def cse_arm(self) -> "_CseRegion":
        """Arm the cache for one statement execution (context manager)."""
        return _CseRegion(self)

    def cse_invalidate(self, name: Optional[str] = None) -> None:
        """Drop cached values after a write to program state.

        With ``name``, only entries whose key text mentions that variable
        are dropped (the read-set is recorded when the key is built); an
        entry whose read-set is unknown is dropped conservatively.
        Without ``name`` the whole cache goes — used when the write target
        cannot be pinned down (declaration shadowing, nested regions,
        ``seq`` element rebinding).
        """
        cache = self.cse_cache
        if cache is None:
            return
        if name is None:
            cache.clear()
            return
        names_of = self.frontend.cse_text_names
        dead = []
        for key in cache:
            reads = names_of.get(key[0])
            if reads is None or name in reads:
                dead.append(key)
        for key in dead:
            del cache[key]

    def cse_suspend(self) -> "_CseSuspend":
        """Run a nested region (function call, nested construct) uncached."""
        return _CseSuspend(self)

    # -- name resolution ------------------------------------------------------------

    def resolve_index_set(
        self, name: str, ctx: ExecContext, at: Optional[ast.Node] = None
    ) -> IndexSetValue:
        # _setup_globals binds every global set and declare_index_set every
        # block-local one; semantics resolved the name to a set in scope
        return ctx.env.try_lookup(name)

    def declare_index_set(self, decl: ast.IndexSetDecl, env: Env) -> None:
        """Runtime declaration of a block-local index set."""
        consts = _ConstEvaluator(self.info.constants)
        spec = decl.spec
        if spec.kind == "range":
            lo, hi = consts.eval(spec.lo), consts.eval(spec.hi)
            values = tuple(range(lo, hi + 1))
        elif spec.kind == "listing":
            values = tuple(consts.eval(i) for i in spec.items)
        else:
            values = env.try_lookup(spec.alias).values  # semantics checked the alias
        env.declare(decl.set_name, IndexSetValue(decl.set_name, decl.elem_name, values))

    # -- calls (delegated) -------------------------------------------------------------

    def call_function(self, node: ast.Call, ctx: ExecContext):
        return _functions.call_function(self, node, ctx)

    # -- running ------------------------------------------------------------------------

    def load_inputs(self, inputs: Dict[str, Union[int, float, np.ndarray]]) -> None:
        """Pre-load arrays/scalars before running (front-end I/O costs)."""
        for name, value in inputs.items():
            binding = self.global_env.try_lookup(name)
            if isinstance(binding, ArrayVar):
                binding.field.load(np.asarray(value))
            elif isinstance(binding, ScalarVar):
                binding.value = coerce_scalar(binding.ctype, value)  # type: ignore[arg-type]
            else:
                raise UCRuntimeError(f"no program variable named {name!r} to load")

    def poll_boundary(self, at=None) -> None:
        """Deadline poll at a safe cancellation point (outermost construct
        entry or an iterated-construct sweep boundary)."""
        if self.deadline is not None:
            self.deadline.check(self, at)

    def check_sweeps(self, sweeps: int, what: str, at, still=None) -> None:
        """The one sweep limit of every iterating construct and loop
        (``config.solve_sweep_limit``): past it ``what`` fails, located at
        ``at``, saying how to raise the limit and what ``still()`` changes
        — livelock becomes a diagnostic, not a hang."""
        limit = self.config.solve_sweep_limit
        if sweeps > limit:
            raise UCRuntimeError(
                f"{what} exceeded the sweep limit ({limit}; raise via "
                "UCProgram(solve_sweep_limit=...) or REPRO_SOLVE_SWEEP_LIMIT)"
                + (f"; {still()}" if still is not None else ""),
                at.line,
                at.col,
            )

    def make_main_context(self) -> "ExecContext":
        """The context ``main`` executes in (:meth:`run_main_from`).

        Its environment is a *direct* child of the global environment,
        which is what makes portable snapshots possible (every top-level
        binding of ``main`` is reachable by name from it).
        """
        return ExecContext(GridContext(), None, Env(self.global_env))

    def run_main_from(
        self, ctx: "ExecContext", start_pc: int = 0, boundary=None, *, profile: bool = False
    ) -> None:
        """Execute ``main``'s top-level statements from index ``start_pc``
        in ``ctx`` (:meth:`make_main_context`) — the one way into ``main``.

        A whole run starts at 0; deadlines, preemption and crash recovery
        resume later: between statements the runner polls the deadline
        monitor and calls ``boundary(pc)``, which may raise
        :class:`~repro.interp.deadline.JobPreempted` after taking a
        :class:`~repro.interp.checkpoint.PortableSnapshot` at ``pc``, the
        index of the next statement to run.  With ``profile`` each
        statement runs in a clock region keyed ``"line <n>: <kind>"``,
        the per-statement hotspot report of the CLI's ``--profile``.
        """
        main = self.info.program.main
        if main is None:
            raise UCRuntimeError("program has no main block")
        monitor = self.deadline
        try:
            for pc in range(start_pc, len(main.stmts)):
                if boundary is not None:
                    boundary(pc)
                if monitor is not None:
                    monitor.check(self)
                stmt = main.stmts[pc]
                if profile:
                    with self.machine.clock.region(_profile_label(stmt)):
                        exec_stmt(self, stmt, ctx)
                else:
                    exec_stmt(self, stmt, ctx)
                if monitor is not None:
                    monitor.last_pc = pc
        except ReturnSignal:
            pass

    def read_array(self, name: str) -> np.ndarray:
        return self.global_env.lookup(name).data.copy()  # a name of info.arrays

    def read_scalar(self, name: str) -> Union[int, float]:
        return self.global_env.lookup(name).value  # a name of info.scalars


def _profile_label(stmt: ast.Stmt) -> str:
    if isinstance(stmt, ast.UCStmt):
        return f"line {stmt.line}: {'*' if stmt.star else ''}{stmt.kind}"
    return f"line {stmt.line}: {type(stmt).__name__}"


class _CseRegion:
    """Arms the CSE cache unless one is already armed (no nesting)."""

    def __init__(self, ip: Interpreter) -> None:
        self._ip = ip
        self._armed_here = False

    def __enter__(self) -> None:
        if self._ip.config.cse and self._ip.cse_cache is None:
            self._ip.cse_cache = {}
            self._armed_here = True

    def __exit__(self, *exc: object) -> None:
        if self._armed_here:
            self._ip.cse_cache = None


class _CseSuspend:
    """Disables the cache for a nested region and drops stale entries."""

    def __init__(self, ip: Interpreter) -> None:
        self._ip = ip
        self._saved: Optional[dict] = None

    def __enter__(self) -> None:
        self._saved = self._ip.cse_cache
        self._ip.cse_cache = None

    def __exit__(self, *exc: object) -> None:
        self._ip.cse_cache = self._saved
        # the nested region may have written anything: drop stale values
        self._ip.cse_invalidate()

"""Batched lane execution: run S instances of one program in lockstep.

``UCProgram.run_batch`` executes many *instances* of the same UC program
(same source, same machine geometry, different scalar parameters or
initial fields) in a single pass.  Each instance — a **lane** — keeps
its own simulated :class:`~repro.machine.machine.Machine` and
:class:`~repro.interp.interpreter.Interpreter`, so per-lane results,
stdout and :class:`~repro.machine.cost.Clock` fingerprints are
**bit-identical** to ``S`` solo ``run()`` calls.  What is shared is the
host-side *work*: for iterated constructs (``*par``/``*solve``) whose
bodies the kernel-fusion pass fully compiled, the register program runs
once over a lane-stacked ``(S,) + shape`` array per step instead of
``S`` times over ``shape``, and the static charge tables are replayed
per lane (:meth:`Clock.replay`), which is what keeps the clocks exact.

The lane axis is processed in **chunks** sized to keep the stacked
working set cache-resident (:data:`_CHUNK_TARGET_ELEMS`).  There is no
second step interpreter here: each chunk splices its
:class:`~repro.interp.values.LaneVar` bindings into the kernel
(``FusedConstruct._rebind``) and calls the solo sweep's own
``begin_sweep``/``run_body``, compute-only, under an all-true
``(n,) + shape`` base mask.  Every ``fuse`` step reads the leading lane
axis off its operands; scalars that diverge between lanes travel as
:class:`~repro.interp.values.LaneScalars`.

Correctness is layered as three fallbacks, outermost first:

1. **Whole-batch sequential** — a configuration that stands the lane
   engine down (``config.batched``, see "Configuration" in
   ``docs/PERFORMANCE.md``), a recovery policy, fewer than two lanes, or
   *any* exception raised inside the batched machinery — a step's UC101
   or bounds error on the stack, a scalar error in a lane whose arm was
   idle, the deliberate :class:`_BatchAbort` — falls back to a fresh
   ``[prog.run(inp) for inp in inputs]`` loop.  The engines are
   deterministic, so the rerun reproduces the exact solo error.
2. **Per-lane construct** — a construct that fails the (side-effect
   free) batchability screen simply executes per lane through the
   ordinary ``exec_stmt`` path; the rest of ``main`` stays in lockstep.
3. **Lane demotion** — mid-construct, a lane whose frontier session
   elects a compressed sweep leaves the batch: its rows are written
   back and the lane re-enters the solo sweep loop
   (``statements.star_par_loop`` / ``solve.star_solve_loop``) to finish
   (compressed charging differs per lane, so the lanes' clocks can no
   longer share one table replay).  The solo loop evaluates a dense
   compressed sweep on the same fused kernel, compute-only — demotion
   changes who charges, not how fast a high-occupancy sweep computes.

Lanes whose fixed point converges (``*solve``) or whose predicates all
falsify (``*par``) retire from the batch, shrinking the stacked arrays.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..lang import ast
from ..machine import Machine
from ..machine.field import lane_stack
from . import frontier, fuse
from .env import Env
from .eval_expr import ExecContext
from .interpreter import Interpreter
from .plan_cache import PlanCache
from .statements import (
    ReturnSignal,
    _check_starred,
    _plans_for,
    enter_grid,
    exec_stmt,
    star_par_loop,
)
from .solve import _modified_names, star_solve_loop
from .values import ArrayVar, ElementBinding, GridContext, LaneVar, ScalarVar

#: target stacked-register size per chunk (int64 elements).  ~4 MB keeps
#: the whole register file of a chunk inside L2/L3 so the per-step numpy
#: passes stay memory-bandwidth friendly; lanes beyond the chunk wait.
_CHUNK_TARGET_ELEMS = 1 << 19

#: refuse to batch when the stacked arrays would exceed this
_MEMORY_CAP_BYTES = 1 << 28


class _BatchAbort(Exception):
    """Abandon the batched attempt; the sequential rerun reproduces the
    exact solo behaviour (results or error) deterministically."""


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def batchable(prog, config=None) -> bool:
    """Can instances of ``prog`` share lockstep ``run_batch`` lanes?

    False when the resolved configuration stands the lane engine down
    (``config.batched``), under a custom recovery policy, and for a
    program without ``main``.  The execution service's coalescer uses
    this screen to decide whether identical queued jobs ride one batch
    or run solo; ``run_batch`` itself applies the same screen (plus the
    lane-count minimum) to pick the sequential loop.
    """
    if config is None:
        config = prog.resolved_config()
    return (
        config.batched
        and prog.recovery is None
        and prog.info.program.main is not None
    )


def run_batch(prog, inputs, *, seed: int = 20250704) -> List[Any]:
    """Execute ``prog`` once per element of ``inputs``; see
    :meth:`UCProgram.run_batch`."""
    inputs = list(inputs)
    if not inputs:
        return []
    if len(inputs) == 1:
        # single-instance fast path: a batch of one IS a solo run, so
        # skip the batchability screen and every piece of lane machinery
        # (stacking, chunking, lockstep driver) and dispatch directly
        return [prog.run(inputs[0] if inputs[0] else None, seed=seed)]
    config = prog.resolved_config()
    if not batchable(prog, config):
        return _sequential(prog, inputs, seed)
    try:
        return _BatchRun(prog, inputs, seed, config).execute()
    except Exception:
        # includes _BatchAbort; a genuine program error re-raises from
        # the deterministic sequential rerun with its exact solo message
        return _sequential(prog, inputs, seed)


def _sequential(prog, inputs, seed: int) -> List[Any]:
    return [prog.run(inp if inp else None, seed=seed) for inp in inputs]


# ---------------------------------------------------------------------------
# lockstep driver
# ---------------------------------------------------------------------------


class _BatchRun:
    def __init__(self, prog, inputs, seed: int, config) -> None:
        self.prog = prog
        self.inputs = inputs
        self.seed = seed
        self.config = config
        self.S = len(inputs)
        self.interps: List[Interpreter] = []

    def execute(self) -> List[Any]:
        from .program import RunResult

        prog = self.prog
        machines = [
            Machine(prog.machine_config, seed=self.seed) for _ in range(self.S)
        ]
        shared = prog._shared_plan_cache(machines[0], None, None, self.config)
        plan_cache = shared if shared is not None else PlanCache()
        for m in machines:
            self.interps.append(
                Interpreter(
                    prog.info,
                    m,
                    prog.layouts,
                    config=self.config,
                    seed=self.seed,
                    plan_cache=plan_cache,
                )
            )
        for ip, inp in zip(self.interps, self.inputs):
            if inp:
                ip.load_inputs(inp)
        for m in machines:
            m.clock.reset()
        pc_before = plan_cache.counters()
        t_exec = time.perf_counter()
        self._lockstep()
        execute_s = time.perf_counter() - t_exec
        pc_after = plan_cache.counters()
        results = []
        for ip in self.interps:
            r = RunResult(ip)
            r.compile = prog._compile_summary(
                ip, pc_after, pc_before, execute_s / self.S
            )
            r.compile["batched_lanes"] = float(self.S)
            if shared is not None and prog.compile_store is not None:
                r.store = prog.compile_store.stats()
            results.append(r)
        prog.last_interpreter = self.interps[-1]
        return results

    def _lockstep(self) -> None:
        main = self.prog.info.program.main
        ctxs = [
            ExecContext(GridContext(), None, Env(ip.global_env))
            for ip in self.interps
        ]
        if isinstance(main, ast.Block):
            # mirror exec_stmt's Block case: one child env for the body
            ctxs = [c.with_env(c.env.child()) for c in ctxs]
            stmts = list(main.stmts)
        else:
            stmts = [main]
        done = [False] * self.S
        for stmt in stmts:
            live = [i for i in range(self.S) if not done[i]]
            if not live:
                return
            if (
                isinstance(stmt, ast.UCStmt)
                and stmt.star
                and stmt.kind in ("par", "solve")
                and len(live) > 1
            ):
                _BatchConstruct(self, stmt, live, ctxs).run()
            else:
                for i in live:
                    try:
                        exec_stmt(self.interps[i], stmt, ctxs[i])
                    except ReturnSignal:
                        done[i] = True


# ---------------------------------------------------------------------------
# one batched construct
# ---------------------------------------------------------------------------


class _BatchConstruct:
    """Lockstep execution of one ``*par``/``*solve`` across the live lanes."""

    def __init__(self, run, stmt: ast.UCStmt, live, ctxs) -> None:
        self.stmt = stmt
        self.live = list(live)  # global lane ids, row-aligned with stacks
        self.ctxs = ctxs
        self.interps = [run.interps[i] for i in live]

    def run(self) -> None:
        fused = self._screen()
        if fused is None:
            for ip, i in zip(self.interps, self.live):
                exec_stmt(ip, self.stmt, self.ctxs[i])
            return
        self._prepare(fused)
        try:
            if self.stmt.kind == "solve":
                self._drive_solve()
            else:
                self._drive_par()
        finally:
            # the cached kernel must not keep a chunk's stacks alive
            for kind, name, expected in fused.checks:
                if kind in ("scalar", "array"):
                    fused._rebind(name, expected)

    # -- screening (pure: any failure falls back to per-lane execution) --

    def _screen(self):
        stmt = self.stmt
        ip0 = self.interps[0]
        if not ip0.config.fused:
            return None
        try:
            if stmt.kind == "par":
                _check_starred(stmt)  # *solve terminates by fixed point
            ctx0 = self.ctxs[self.live[0]]
            if ctx0.mask is not None:
                return None
            # replicate enter_grid minus its context charge: screening
            # must not touch any lane's clock
            sets = [
                ip0.resolve_index_set(name, ctx0, at=stmt)
                for name in stmt.index_sets
            ]
            grid = ctx0.grid.extend(sets)
            env = ctx0.env.child()
            for off, isv in enumerate(sets):
                env.declare(
                    isv.elem_name,
                    ElementBinding(
                        isv.elem_name, isv.name, "axis",
                        axis=ctx0.grid.rank + off,
                    ),
                )
            probe = ExecContext(grid, None, env)
            plans0 = _plans_for(ip0, stmt, grid)
            fused = fuse.fused_for(ip0, stmt, probe, plans0)
            if (
                fused is None
                or fused.unfused_count
                or fused.others_segments is not None
            ):
                return None  # plan closures and others run solo only
            if any(
                isinstance(s, fuse._Scatter) and not s.unique for s in fused.steps()
            ):
                return None  # its duplicate check would have to see every lane
            arr_names = {
                name for kind, name, _e in fused.checks if kind == "array"
            }
            sc_names = {
                name for kind, name, _e in fused.checks if kind == "scalar"
            }
            for name in _modified_names(stmt):
                if name not in arr_names and name not in sc_names:
                    return None
            stacked = sum(
                e.data.nbytes
                for kind, _n, e in fused.checks
                if kind == "array"
            ) * len(self.live)
            # largest per-lane register: the grid or a reduction's inner grid
            max_elems = max(
                [math.prod(fused.shape)]
                + [math.prod(getattr(s, "inner_shape", ())) for s in fused.steps()]
            )
            chunk = max(
                1, min(len(self.live), _CHUNK_TARGET_ELEMS // max(1, max_elems))
            )
            if stacked + 4 * chunk * max_elems * 8 > _MEMORY_CAP_BYTES:
                return None
            self.chunk = chunk
            self.arr_names = arr_names
            self.sc_names = sc_names
            return fused
        except Exception:
            return None

    # -- committed prepare (failures abort to the sequential rerun) -------

    def _prepare(self, fused) -> None:
        stmt = self.stmt
        self.fused = fused
        self.inners: List[ExecContext] = []
        self.sessions: List[Optional[frontier.StarSession]] = []
        self.plans: List[Any] = []
        for ip, i in zip(self.interps, self.live):
            inner = enter_grid(ip, stmt, self.ctxs[i])
            plans = _plans_for(ip, stmt, inner.grid)
            fk = fuse.fused_for(ip, stmt, inner, plans)
            if fk is not fused:
                raise _BatchAbort()
            sess = frontier.star_session(ip, stmt, inner, stmt.kind, plans)
            self.inners.append(inner)
            self.plans.append(plans)
            self.sessions.append(sess)
        on = [s is not None for s in self.sessions]
        if any(on) and not all(on):
            raise _BatchAbort()
        self.sessions_on = all(on)
        self.modified = _modified_names(stmt)
        self.mod_arrays = [n for n in self.modified if n in self.arr_names]
        self.mod_scalars = [n for n in self.modified if n in self.sc_names]
        if self.sessions_on:
            for sess in self.sessions:
                if any(n not in self.arr_names for n in sess.an.modified):
                    raise _BatchAbort()
        self.vp_ratio = self.interps[0].grid_vpset(
            self.inners[0].grid.shape
        ).vp_ratio
        # lane-stack every array the kernel touches; per-lane scalar vars
        self.array_vars: Dict[str, List[ArrayVar]] = {}
        self.stacks: Dict[str, np.ndarray] = {}
        self.scalar_vars: Dict[str, List[ScalarVar]] = {}
        for kind, name, _e in fused.checks:
            if kind == "array":
                vs = []
                for inner in self.inners:
                    b = inner.env.try_lookup(name)
                    if not isinstance(b, ArrayVar):
                        raise _BatchAbort()
                    vs.append(b)
                self.array_vars[name] = vs
                self.stacks[name] = lane_stack([v.field for v in vs])
            elif kind == "scalar":
                vs = []
                for inner in self.inners:
                    b = inner.env.try_lookup(name)
                    if not isinstance(b, ScalarVar):
                        raise _BatchAbort()
                    vs.append(b)
                self.scalar_vars[name] = vs

    def _writeback(self, row: int) -> None:
        """Flush one lane's stacked rows into its real fields."""
        for name, vs in self.array_vars.items():
            vs[row].field.data[...] = self.stacks[name][row]

    def _demote(self, row: int, solo_loop, states, sweeps: int) -> None:
        """One lane leaves the batch: it finishes the construct on the
        solo sweep loop, entered with its elected compressed sweep."""
        self._writeback(row)
        solo_loop(
            self.interps[row], self.stmt, self.inners[row], self.plans[row],
            self.sessions[row], states, sweeps,
        )  # fmt: skip

    def _compact(self, keep: List[int]) -> None:
        """Drop retired/demoted rows from every row-aligned structure."""
        if len(keep) == len(self.live):
            return
        self.live = [self.live[r] for r in keep]
        self.interps = [self.interps[r] for r in keep]
        self.inners = [self.inners[r] for r in keep]
        self.plans = [self.plans[r] for r in keep]
        self.sessions = [self.sessions[r] for r in keep]
        for name in self.array_vars:
            self.array_vars[name] = [self.array_vars[name][r] for r in keep]
            self.stacks[name] = self.stacks[name][keep]
        for name in self.scalar_vars:
            self.scalar_vars[name] = [self.scalar_vars[name][r] for r in keep]

    def _retire(self, stay) -> None:
        """Lanes whose ``stay`` is false are done: flush and drop them."""
        for row in range(len(self.live)):
            if not stay[row]:
                self._writeback(row)
        self._compact([row for row in range(len(self.live)) if stay[row]])

    # -- one batched compute pass -----------------------------------------

    def _sweep_compute(self, collect_masks: bool):
        """Run predicates + bodies over all rows, chunked along the lane
        axis, on the kernel's own sweep (compute-only: each lane replays
        the charge tables on its clock).  Returns ``arm_any[k, row]`` (and
        the stacked per-arm masks when ``collect_masks``, for ``*par``
        bookkeeping)."""
        fused = self.fused
        n_rows = len(self.live)
        K = len(fused.arm_mask_regs)
        arm_any = np.zeros((K, n_rows), dtype=bool)
        masks_full = (
            [np.zeros((n_rows,) + fused.shape, dtype=bool) for _ in range(K)]
            if collect_masks
            else None
        )
        for lo in range(0, n_rows, self.chunk):
            hi = min(n_rows, lo + self.chunk)
            for name, vs in self.array_vars.items():
                stk = self.stacks[name][lo:hi]
                fused._rebind(name, LaneVar(name, vs[0].ctype, data=stk))
            for name, vs in self.scalar_vars.items():
                fused._rebind(name, LaneVar(name, vs[0].ctype, lanes=vs[lo:hi]))
            ip = self.interps[lo]
            base = np.ones((hi - lo,) + fused.shape, dtype=bool)
            sweep = fused.begin_sweep(ip, base, charge=False)
            for k, m in enumerate(sweep.masks):
                arm_any[k, lo:hi] = m.reshape(hi - lo, -1).any(axis=1)
                if collect_masks:
                    masks_full[k][lo:hi] = m
            fused.run_body(ip, None, sweep, charge=False)
        return arm_any, masks_full

    def _charge_preds(self, clock) -> None:
        for prog in self.fused.pred_progs:
            if prog is not None:
                clock.replay(prog[0])
                clock.count_fusion("charge_table_hits")

    def _charge_arms(self, clock, arm_any, row: int) -> None:
        for k, segs in enumerate(self.fused.arm_segments):
            if not arm_any[k, row]:
                continue
            for seg in segs:
                clock.replay(seg[1])
                clock.count_fusion("charge_table_hits")
        clock.count_fusion("fused_sweeps")

    # -- frontier bookkeeping, shared by both drivers -----------------------

    def _elect(self, solo_loop, sweeps: int) -> None:
        """Frontier decisions: lanes electing a compressed sweep leave the
        batch and finish on ``solo_loop``."""
        if not self.sessions_on:
            return
        keep: List[int] = []
        none_keys = set()
        for row in range(len(self.live)):
            key = self._sess_key(row)
            if key is None or key not in none_keys:
                states = self.sessions[row].plan_compressed()
                if states is not None:
                    self._demote(row, solo_loop, states, sweeps)
                    continue
                if key is not None:
                    none_keys.add(key)
            keep.append(row)
        self._compact(keep)

    def _sweep_start(self):
        """Stacked copies of the modified arrays, and each lane's (clock
        time, alloc count) when sessions mirror the sweep."""
        before = {name: self.stacks[name].copy() for name in self.mod_arrays}
        marks = None
        if self.sessions_on:
            marks = [
                (ip.machine.clock.time_us, ip.machine.clock.count("alloc"))
                for ip in self.interps
            ]
        return before, marks

    def _deltas(self, before, marks, rows) -> Dict[str, np.ndarray]:
        """This sweep's per-name lane-stacked ``changed`` masks; the
        sessions of ``rows`` get ``StarSession.full_end``'s bookkeeping
        from the same before/after compare, done once for every lane."""
        changed = {name: before[name] != self.stacks[name] for name in before}
        if self.sessions_on:
            gt = {name: self.stacks[name] > before[name] for name in before}
            lt = {name: self.stacks[name] < before[name] for name in before}
            for row in rows:
                self._install_session(row, changed, gt, lt, *marks[row])
        return changed

    def _install_session(
        self, row: int, changed, gt, lt, t0: float, a0: int
    ) -> None:
        """Mirror ``StarSession.full_end`` from the stacked deltas."""
        sess = self.sessions[row]
        clock = self.interps[row].machine.clock
        costs = clock.costs
        alloc_extra = clock.count("alloc") - a0
        sess.reference = (clock.time_us - t0) - alloc_extra * (
            costs.alloc + costs.dispatch
        )
        sess.ref_pes = self.interps[row].machine.n_live_pes
        prev: Dict[str, np.ndarray] = {}
        stats: Dict[str, Tuple[int, int]] = {}
        for name in sess.an.modified:
            ch = changed[name][row]
            prev[name] = ch
            stats[name] = (int(np.count_nonzero(ch)), int(ch.size))
            sess.dirs[name] = (
                bool(np.any(gt[name][row])),
                bool(np.any(lt[name][row])),
            )
        sess.prev = prev
        sess.last_stats = stats
        clock.count_frontier("full_sweeps")

    def _sess_key(self, row: int):
        """Hashable digest of everything a lane's ``plan_compressed``
        decision depends on.  ``plan_compressed`` is pure (no clock
        charges, no counters) and reads only the session's prev/dirs/
        reference/ref_pes state plus shared per-construct analysis, so
        lanes with equal digests get equal None/plan decisions — the
        drivers memoise the (common) all-None outcome across lanes."""
        sess = self.sessions[row]
        if sess.prev is None or sess.reference is None:
            return None
        key = [
            sess.reference,
            sess.ref_pes,
            self.interps[row].machine.n_live_pes,
            tuple(sorted((k, v.tobytes()) for k, v in sess.prev.items())),
            tuple(sorted(sess.dirs.items())),
        ]
        if self.stmt.kind == "par":
            if sess.par_masks is None:
                return None
            key.append(tuple(m.tobytes() for m in sess.par_masks))
        return tuple(key)

    # -- *solve ------------------------------------------------------------

    def _drive_solve(self) -> None:
        limit = self.interps[0].config.solve_sweep_limit
        n_mod = len(self.modified) or 1
        sweeps = 0
        while self.live:
            self._elect(star_solve_loop, sweeps)
            if not self.live:
                return
            before, marks = self._sweep_start()
            before_sc = {
                name: [v.value for v in self.scalar_vars[name]]
                for name in self.mod_scalars
            }
            arm_any, _ = self._sweep_compute(collect_masks=False)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                clock.charge("alu", count=n_mod, vp_ratio=self.vp_ratio)
                self._charge_preds(clock)
                self._charge_arms(clock, arm_any, row)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
            changed = self._deltas(before, marks, range(len(self.live)))
            lane_changed = np.zeros(len(self.live), dtype=bool)
            for ch in changed.values():
                lane_changed |= ch.reshape(len(ch), -1).any(axis=1)
            for name, vals in before_sc.items():
                for row, v in enumerate(self.scalar_vars[name]):
                    if vals[row] != v.value:
                        lane_changed[row] = True
            self._retire(lane_changed)  # fixed point: the lane is done
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

    # -- *par --------------------------------------------------------------

    def _drive_par(self) -> None:
        limit = self.interps[0].config.solve_sweep_limit
        sweeps = 0
        while self.live:
            self._elect(star_par_loop, sweeps)
            if not self.live:
                return
            before, marks = self._sweep_start() if self.sessions_on else ({}, None)
            arm_any, masks_full = self._sweep_compute(collect_masks=True)
            ran = arm_any.any(axis=0)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                self._charge_preds(clock)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
                if ran[row]:
                    self._charge_arms(clock, arm_any, row)
            # a lane whose predicates all fail returns before full_end
            ran_rows = np.flatnonzero(ran)
            self._deltas(before, marks, ran_rows)
            if self.sessions_on:
                for row in ran_rows:
                    self.sessions[row].par_masks = [m[row].copy() for m in masks_full]
            self._retire(ran)  # predicates all false: the lane is done
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

"""Batched lane execution: run S instances of one program in lockstep.

``UCProgram.run_batch`` executes many *instances* of the same UC program
(same source, same machine geometry, different scalar parameters or
initial fields) in a single pass.  Each instance — a **lane** — is a
solo run's own machine and interpreter, built by
:meth:`UCProgram.prepare` and packaged by :meth:`PreparedRun.finish`, so
per-lane results, stdout and :class:`~repro.machine.cost.Clock`
fingerprints are **bit-identical** to ``S`` solo ``run()`` calls.  What
is shared is the host-side *work*: for iterated constructs (``*par``/``*solve``) whose
bodies the kernel-fusion pass fully compiled, the register program runs
once over a lane-stacked ``(S,) + shape`` array per step instead of
``S`` times over ``shape``, and the kernel's charge rows are replayed
per lane (:meth:`Clock.replay_rows`), which is what keeps the clocks exact.

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
   engine down (``config.batched``: the sanitizer, checkpoints armed by
   a fault plan, or shards; see "Configuration" in
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
   (:func:`repro.interp.statements.sweep_loop`) to finish
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
from typing import Any, Dict, List, Optional

import numpy as np

from ..lang import ast
from ..machine.field import lane_stack
from . import frontier, fuse
from .eval_expr import ExecContext
from .statements import (
    ReturnSignal,
    _check_starred,
    enter_grid,
    exec_stmt,
    modified_names,
    sweep_loop,
    sweep_protocol,
)
from .values import ArrayVar, LaneVar, ScalarVar

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
        return _BatchRun(prog, inputs, seed).execute()
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
    def __init__(self, prog, inputs, seed: int) -> None:
        self.prog = prog
        self.inputs = inputs
        self.seed = seed
        self.S = len(inputs)

    def execute(self) -> List[Any]:
        runs = [self.prog.prepare(inp or None, seed=self.seed) for inp in self.inputs]
        # the lanes are one run: one plan cache (a screened kernel is one
        # object on every lane) and one build tally, which every lane reports
        lead = runs[0].interp
        for run in runs[1:]:
            run.interp.plan_cache = lead.plan_cache
            run.interp.build_tally = lead.build_tally
        self.interps = [run.interp for run in runs]
        t_exec = time.perf_counter()
        self._lockstep([run.context for run in runs])
        execute_s = (time.perf_counter() - t_exec) / self.S
        results = []
        for run in runs:
            run.execute_s = execute_s
            result = run.finish()
            result.compile["batched_lanes"] = float(self.S)
            results.append(result)
        return results

    def _lockstep(self, ctxs) -> None:
        done = [False] * self.S
        for stmt in self.prog.info.program.main.stmts:
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
            self._drive()
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
            ctx0 = self.ctxs[self.live[0]]  # main's: no mask
            # enter_grid minus its context charge: screening must not
            # touch any lane's clock
            probe = ctx0.extend(
                [ip0.resolve_index_set(name, ctx0, at=stmt) for name in stmt.index_sets]
            )
            fused = fuse.fused_for(ip0, stmt, probe)
            if (
                fused is None
                or fused.unfused_count
                or fused.others_segments is not None
            ):
                return None  # oracle segments and others run solo only
            if any(
                isinstance(s, fuse._DynGather)
                or isinstance(s, fuse._Scatter) and not s.unique
                for s in fused.steps()
            ):
                # a duplicate check or a sweep-time tier decision has to
                # see one lane: each lane runs the kernel solo
                return None
            # every target is checked (``fuse._compile_assign``): a kernel
            # with no unfused segment stacks everything the construct writes
            arr_names = {
                name for kind, name, _e in fused.checks if kind == "array"
            }
            sc_names = {
                name for kind, name, _e in fused.checks if kind == "scalar"
            }
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
        for ip, i in zip(self.interps, self.live):
            inner = enter_grid(ip, stmt, self.ctxs[i])
            if fuse.fused_for(ip, stmt, inner) is not fused:
                raise _BatchAbort()
            self.inners.append(inner)
            self.sessions.append(frontier.star_session(ip, stmt, inner))
        # the lanes run one program on equal shapes: one session verdict
        self.sessions_on = self.sessions[0] is not None
        self.modified = modified_names(stmt)
        self.mod_arrays = [n for n in self.modified if n in self.arr_names]
        self.mod_scalars = [n for n in self.modified if n in self.sc_names]
        self.vp_ratio = self.interps[0].grid_vpset(
            self.inners[0].grid.shape
        ).vp_ratio
        # lane-stack every array the kernel touches; per-lane scalar vars
        # (``fused_for`` validated each lane's bindings against the checks)
        self.array_vars: Dict[str, List[ArrayVar]] = {}
        self.stacks: Dict[str, np.ndarray] = {}
        self.scalar_vars: Dict[str, List[ScalarVar]] = {}
        for kind, name, _e in fused.checks:
            if kind == "array":
                vs = [inner.env.try_lookup(name) for inner in self.inners]
                self.array_vars[name] = vs
                self.stacks[name] = lane_stack([v.field for v in vs])
            elif kind == "scalar":
                self.scalar_vars[name] = [inner.env.try_lookup(name) for inner in self.inners]

    def _writeback(self, row: int) -> None:
        """Flush one lane's stacked rows into its real fields."""
        for name, vs in self.array_vars.items():
            vs[row].field.data[...] = self.stacks[name][row]

    def _demote(self, row: int, states, sweeps: int) -> None:
        """One lane leaves the batch: it finishes the construct on the
        solo sweep loop, entered with its elected compressed sweep."""
        self._writeback(row)
        sweep_loop(
            self.interps[row], self.stmt, self.inners[row], self.sessions[row],
            states, sweeps,
        )  # fmt: skip

    def _compact(self, keep: List[int]) -> None:
        """Drop retired/demoted rows from every row-aligned structure."""
        if len(keep) == len(self.live):
            return
        self.live = [self.live[r] for r in keep]
        self.interps = [self.interps[r] for r in keep]
        self.inners = [self.inners[r] for r in keep]
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
                clock.replay_rows(prog[0], self.fused.ratios)
                clock.count_fusion("charge_table_hits")

    def _charge_arms(self, clock, arm_any, row: int) -> None:
        for k, segs in enumerate(self.fused.arm_segments):
            if not arm_any[k, row]:
                continue
            for seg in segs:
                clock.replay_rows(seg[1], self.fused.ratios)
                clock.count_fusion("charge_table_hits")
        clock.count_fusion("fused_sweeps")

    # -- frontier bookkeeping ----------------------------------------------

    def _elect(self, sweeps: int) -> None:
        """Frontier decisions: lanes electing a compressed sweep leave the
        batch and finish on the solo sweep loop."""
        if not self.sessions_on:
            return
        keep: List[int] = []
        none_keys = set()
        for row in range(len(self.live)):
            key = self._sess_key(row)
            if key is None or key not in none_keys:
                states = self.sessions[row].plan_compressed()
                if states is not None:
                    self._demote(row, states, sweeps)
                    continue
                if key is not None:
                    none_keys.add(key)
            keep.append(row)
        self._compact(keep)

    def _sweep_start(self) -> Dict[str, Any]:
        """Open a full sweep on every lane: each session's
        :meth:`StarSession.full_begin`, and before-copies of the modified
        variables (stacked arrays, per-lane scalar values)."""
        if self.sessions_on:
            for sess in self.sessions:
                sess.full_begin()
        before = frontier.snapshot({name: self.stacks[name] for name in self.mod_arrays})
        for name in self.mod_scalars:
            before[name] = [v.value for v in self.scalar_vars[name]]
        return before

    def _row_diff(self, row: int, before) -> frontier.SweepDiff:
        """Lane ``row``'s diff of the sweep, from its row slices: the one
        diff a solo loop takes (:class:`repro.interp.frontier.SweepDiff`)."""
        old, new = {}, {}
        for name, b in before.items():
            old[name] = b[row]
            stack = self.stacks.get(name)
            new[name] = self.scalar_vars[name][row].value if stack is None else stack[row]
        return frontier.SweepDiff.between(old, new)

    def _sess_key(self, row: int):
        """Hashable digest of everything a lane's ``plan_compressed``
        decision depends on.  ``plan_compressed`` is pure (no clock
        charges, no counters) and reads only the session's last diff,
        reference and ref_pes plus shared per-construct analysis, so
        lanes with equal digests get equal None/plan decisions — the
        driver memoises the (common) all-None outcome across lanes."""
        sess = self.sessions[row]
        last = sess.last
        if last is None or sess.reference is None:
            return None
        modified = sess.an.modified
        key = [
            sess.reference,
            sess.ref_pes,
            self.interps[row].machine.n_live_pes,
            tuple(last.changed[name].tobytes() for name in modified),
            tuple(last.dirs[name] for name in modified),
        ]
        if self.stmt.kind == "par":  # noted with ``last`` (``_drive``)
            key.append(tuple(m.tobytes() for m in sess.par_masks))
        return tuple(key)

    # -- the lockstep sweep loop --------------------------------------------

    def _drive(self) -> None:
        """:func:`repro.interp.statements.sweep_loop` across the stacked
        lanes: one compute pass per sweep, then each lane's clock replays
        the protocol and kernel rows the solo loop charges, in its order.
        A lane leaves when its ``*par`` predicates all fail (before its
        bodies) or its ``*solve`` reaches the fixed point."""
        par = self.stmt.kind == "par"
        limit = self.interps[0].config.solve_sweep_limit
        proto = sweep_protocol(self.interps[0].machine.clock.costs, self.stmt, self.modified)
        ratios = (self.vp_ratio,)
        # a *solve's fixed-point test reads every modified variable, a
        # *par's frontier sessions their arrays
        watch = self.sessions_on or not par
        sweeps = 0
        while self.live:
            self._elect(sweeps)
            if not self.live:
                return
            before = self._sweep_start() if watch else {}
            arm_any, masks = self._sweep_compute(collect_masks=par and self.sessions_on)
            # a *par lane none of whose predicates holds stops at its test
            go = arm_any.any(axis=0) if par else np.ones(len(self.live), dtype=bool)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                clock.replay_rows(proto.entry, ratios)
                self._charge_preds(clock)
                clock.replay_rows(proto.after_preds, ratios)
                if go[row]:
                    self._charge_arms(clock, arm_any, row)
                    clock.replay_rows(proto.after_bodies, ratios)
            stay = go.copy()
            if watch:
                for row in np.flatnonzero(go):
                    diff = self._row_diff(row, before)
                    sess = self.sessions[row]
                    if sess is not None:
                        sess.full_end(diff)
                        if par:
                            sess.note_par_masks([m[row] for m in masks])
                    stay[row] = par or diff.any()  # *solve: the fixed point
            self._retire(stay)  # the lane is done
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

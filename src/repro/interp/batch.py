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

Iterated constructs keep their frontier: one
:class:`~repro.interp.frontier.StarSession` holds a row per lane over
the stacks, and each sweep every row plans its own compressed or full
sweep.  Full rows (and compressed rows the solo rule evaluates dense)
run on the stacked kernel, compressed rows on one lane-program pass over
the union of their active positions; each lane's clock replays exactly
what its solo loop charges.

Correctness is layered as two fallbacks, outermost first:

1. **Whole-batch sequential** — a configuration that stands the lane
   engine down (``config.batched``: the sanitizer, checkpoints armed by
   a fault plan, or shards; see "Configuration" in
   ``docs/PERFORMANCE.md``), a recovery policy, fewer than two lanes, or
   *any* exception raised inside the batched machinery — a step's UC101
   or bounds error on the stack, a scalar error in a lane whose arm was
   idle, the sweep limit, the deliberate :class:`_BatchAbort` — falls
   back to a fresh ``[prog.run(inp) for inp in inputs]`` loop.  The
   engines are deterministic, so the rerun reproduces the exact solo
   error.
2. **Per-lane construct** — a construct that fails the (side-effect
   free) batchability screen simply executes per lane through the
   ordinary ``exec_stmt`` path; the rest of ``main`` stays in lockstep.

Lanes whose fixed point converges (``*solve``) or whose predicates all
falsify (``*par``) retire from the batch, shrinking the stacked arrays.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

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
        for ip, i in zip(self.interps, self.live):
            inner = enter_grid(ip, stmt, self.ctxs[i])
            if fuse.fused_for(ip, stmt, inner) is not fused:
                raise _BatchAbort()
            self.inners.append(inner)
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
        # one frontier session, a row per lane, over the stacks
        self.sess = frontier.star_session(self.interps, stmt, self.inners, self.stacks)
        self.modified = self.sess.an.modified if self.sess is not None else modified_names(stmt)
        self.mod_arrays = [n for n in self.modified if n in self.arr_names]
        self.mod_scalars = [n for n in self.modified if n in self.sc_names]

    def _writeback(self, row: int) -> None:
        """Flush one lane's stacked rows into its real fields."""
        for name, vs in self.array_vars.items():
            vs[row].field.data[...] = self.stacks[name][row]

    def _retire(self, stay) -> None:
        """Lanes whose ``stay`` is false are done: flush them and drop
        their rows from every row-aligned structure."""
        if all(stay):
            return
        keep = [row for row in range(len(self.live)) if stay[row]]
        for row in range(len(self.live)):
            if not stay[row]:
                self._writeback(row)
        self.live = [self.live[r] for r in keep]
        self.interps = [self.interps[r] for r in keep]
        self.inners = [self.inners[r] for r in keep]
        for name in self.array_vars:
            self.array_vars[name] = [self.array_vars[name][r] for r in keep]
            self.stacks[name] = self.stacks[name][keep]
        for name in self.scalar_vars:
            self.scalar_vars[name] = [self.scalar_vars[name][r] for r in keep]
        if self.sess is not None:
            self.sess.keep_rows(keep)

    # -- one batched compute pass -----------------------------------------

    def _sweep_compute(self, rows, collect_masks: bool):
        """Run predicates + bodies over ``rows``, in runs of consecutive
        rows at most a chunk long, on the kernel's own sweep (compute-only:
        each lane replays the charge tables on its clock).  Returns
        ``arm_any[k, row]`` (and the stacked per-arm masks when
        ``collect_masks``, for ``*par`` bookkeeping)."""
        fused = self.fused
        n_rows = len(self.live)
        K = len(fused.arm_mask_regs)
        arm_any = np.zeros((K, n_rows), dtype=bool)
        masks_full = (
            [np.zeros((n_rows,) + fused.shape, dtype=bool) for _ in range(K)]
            if collect_masks
            else None
        )
        runs: List[List[int]] = []
        for row in rows:
            if runs and runs[-1][1] == row and row - runs[-1][0] < self.chunk:
                runs[-1][1] += 1
            else:
                runs.append([row, row + 1])
        for lo, hi in runs:
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

    def _charge_full(self, clock, arm_any, row: int, proto) -> bool:
        """Lane ``row``'s full sweep, charged as its solo loop does: False
        when its ``*par`` predicates all fail (it stops at the test)."""
        fused, ratios = self.fused, (self.vp_ratio,)
        clock.replay_rows(proto.entry, ratios)
        for prog in fused.pred_progs:
            if prog is not None:
                clock.replay_rows(prog[0], fused.ratios)
                clock.count_fusion("charge_table_hits")
        clock.replay_rows(proto.after_preds, ratios)
        if self.stmt.kind == "par" and not arm_any[:, row].any():
            return False
        for k, segs in enumerate(fused.arm_segments):
            for seg in segs if arm_any[k, row] else ():
                clock.replay_rows(seg[1], fused.ratios)
                clock.count_fusion("charge_table_hits")
        clock.count_fusion("fused_sweeps")
        clock.replay_rows(proto.after_bodies, ratios)
        return True

    def _row_diff(self, row: int, before) -> frontier.SweepDiff:
        """Lane ``row``'s diff of the sweep, from its row slices: the one
        diff a solo loop takes (:class:`repro.interp.frontier.SweepDiff`)."""
        old, new = {}, {}
        for name, b in before.items():
            old[name] = b[row]
            stack = self.stacks.get(name)
            new[name] = self.scalar_vars[name][row].value if stack is None else stack[row]
        return frontier.SweepDiff.between(old, new)

    # -- the lockstep sweep loop --------------------------------------------

    def _evaluators(self, plan):
        """``(rows for the stacked fused kernel, rows for the lane pass)``:
        a compressed row takes the lanes unless its solo rule says dense;
        mixed rows (or rows with differing host scalars) all take the
        kernel where its diff equals the lanes' (``an.net``).  Neither
        choice moves a value or a charge."""
        rows = range(len(self.live))
        if plan is None:
            return list(rows), []
        sess = self.sess
        dense = [row for row, p in zip(rows, plan.rows) if p is None or sess.dense(p[0])]
        if len(dense) < len(rows) and (dense or not sess.uniform):
            if sess.an.net:
                return list(rows), []
            if not sess.uniform:
                raise _BatchAbort()
        return dense, [row for row in rows if row not in dense]

    def _fused_sweep(self, rows, plan, stay, proto) -> None:
        """Evaluate ``rows`` on the stacked fused kernel, compute-only, and
        charge each lane as its solo loop does — a full row inside its
        session's full-sweep bracket, a compressed row its halves
        (:meth:`StarSession.settle`) — setting ``stay[row]``."""
        par = self.stmt.kind == "par"
        sess = self.sess
        full = [r for r in rows if plan is None or plan.rows[r] is None]
        if sess is not None:
            for row in full:
                sess.full_begin(row)
        before, watch = {}, sess is not None or not par  # what the diffs read
        if watch:
            before = frontier.snapshot({name: self.stacks[name] for name in self.mod_arrays})
            for name in self.mod_scalars:
                before[name] = [v.value for v in self.scalar_vars[name]]
        arm_any, masks = self._sweep_compute(rows, collect_masks=par and sess is not None)
        for row in rows:
            masks_row = [m[row] for m in masks] if masks is not None else None
            if row not in full:
                p = plan.rows[row]
                diff = self._row_diff(row, before)
                stay[row] = sess.settle(row, p, masks_row, diff, dense=sess.dense(p[0]))
                continue
            if not self._charge_full(self.interps[row].machine.clock, arm_any, row, proto):
                continue
            stay[row] = True
            if watch:
                diff = self._row_diff(row, before)
                if sess is not None:
                    sess.full_end(diff, row)
                    if par:
                        sess.note_par_masks(masks_row, row)
                stay[row] = par or diff.any()

    def _drive(self) -> None:
        """:func:`repro.interp.statements.sweep_loop` across the stacked
        lanes: each lane's session row plans its sweep, one lane-program
        pass and one fused compute pass evaluate the rows
        (:meth:`_evaluators`), each clock replays its solo charges.  A lane
        leaves when its ``*par`` predicates all fail or its ``*solve``
        reaches the fixed point."""
        limit = self.interps[0].config.solve_sweep_limit
        proto = sweep_protocol(self.interps[0].machine.clock.costs, self.stmt, self.modified)
        sweeps = 0
        while self.live:
            plan = self.sess.plan() if self.sess is not None else None
            dense, lanes = self._evaluators(plan)
            stay = [False] * len(self.live)
            if lanes:
                mine = plan
                if dense:
                    mine = plan._replace(rows=[p if r in lanes else None for r, p in enumerate(plan.rows)])
                for row, go in self.sess._run_lanes(mine).items():
                    stay[row] = go
            if dense:
                self._fused_sweep(dense, plan, stay, proto)
            self._retire(stay)  # the lane is done
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

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
working set cache-resident (:data:`_CHUNK_TARGET_ELEMS`); per-lane
scalars that diverge between lanes travel as
:class:`~repro.interp.values.LaneScalars` vectors.  Steps get batched
adapters here only where the lane axis changes what they do; a
reduction's all-enabled fast path is ``fuse._Reduce.reduce_unmasked``
itself — the strip-mined kernel and the unblocked tail are the solo
sweep's, the lane axis being just the first non-reduced axis.

Correctness is layered as three fallbacks, outermost first:

1. **Whole-batch sequential** — a configuration that stands the lane
   engine down (``config.batched``, see "Configuration" in
   ``docs/PERFORMANCE.md``), a recovery policy, fewer than two lanes, or
   *any* exception raised inside the batched machinery (including the
   deliberate :class:`_BatchAbort` on per-lane error paths such as
   UC101 or bounds violations) falls back to a fresh
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

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..lang import ast
from ..machine import Machine
from ..machine.field import lane_stack, lane_writeback
from . import commtiers, frontier, fuse
from . import eval_expr as E
from .env import Env
from .eval_expr import ExecContext
from .fuse import (
    _AssignScalar,
    _Binary,
    _Bool,
    _Combine,
    _Gather,
    _Mask,
    _ReadScalar,
    _Reduce,
    _Scatter,
    _TruthyInt,
    _Unary,
    _Where,
)
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
from .values import (
    ArrayVar,
    ElementBinding,
    GridContext,
    LaneScalars,
    ScalarVar,
    coerce_scalar,
)

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
# batched step evaluation
# ---------------------------------------------------------------------------


class _ChunkState:
    """One chunk of lanes: stacked array views + per-lane scalar vars."""

    __slots__ = ("n", "arrays", "scalars", "active")

    def __init__(self, n, arrays, scalars) -> None:
        self.n = n
        self.arrays = arrays  # name -> (n,) + arr.shape view
        self.scalars = scalars  # name -> [ScalarVar] * n
        self.active = np.ones(n, dtype=bool)


def _lift(v, ndim: int):
    if isinstance(v, LaneScalars):
        return v.lifted(ndim)
    return v


def _truthy_bcast(v, shape_b):
    """``broadcast(truthy(v))`` over the lane-stacked shape."""
    if isinstance(v, LaneScalars):
        vb = v.lifted(len(shape_b)).astype(bool)
    elif isinstance(v, np.ndarray):
        vb = v.astype(bool)
    else:
        vb = np.asarray(bool(v))
    return np.broadcast_to(vb, shape_b)


def _axes_up(axes):
    """Shift solo reduction/squeeze axes past the new lane axis."""
    if axes is None:
        return None
    if isinstance(axes, tuple):
        return tuple(a + 1 for a in axes)
    return axes + 1


def _run_steps(steps, st: _ChunkState, regs) -> None:
    for step in steps:
        if isinstance(step, _ReadScalar):
            vals = [v.value for v in st.scalars[step.var.name]]
            first = vals[0]
            if all(v == first for v in vals[1:]):
                regs[step.dst] = first
            else:
                regs[step.dst] = LaneScalars(vals)
        elif isinstance(step, _Binary):
            a = regs[step.a]
            b = regs[step.b]
            a_arr = isinstance(a, np.ndarray)
            b_arr = isinstance(b, np.ndarray)
            if a_arr or b_arr:
                nd = max(a.ndim if a_arr else 0, b.ndim if b_arr else 0)
                regs[step.dst] = E.apply_binop(
                    step.node.op, _lift(a, nd), _lift(b, nd), step.node
                )
            elif isinstance(a, LaneScalars) or isinstance(b, LaneScalars):
                out = []
                for j in range(st.n):
                    if not st.active[j]:
                        out.append(0)
                        continue
                    av = a.values[j] if isinstance(a, LaneScalars) else a
                    bv = b.values[j] if isinstance(b, LaneScalars) else b
                    out.append(E.apply_binop(step.node.op, av, bv, step.node))
                regs[step.dst] = LaneScalars(out)
            else:
                regs[step.dst] = E.apply_binop(step.node.op, a, b, step.node)
        elif isinstance(step, _Gather):
            _run_gather(step, st, regs)
        elif isinstance(step, _Scatter):
            _run_scatter(step, st, regs)
        elif isinstance(step, _Mask):
            c = regs[step.cond]
            regs[step.dst] = regs[step.base] & (~c if step.invert else c)
        elif isinstance(step, _Bool):
            regs[step.dst] = _truthy_bcast(
                regs[step.src], (st.n,) + step.shape
            )
        elif isinstance(step, _Where):
            c = regs[step.cbool]
            regs[step.dst] = np.where(
                c, _lift(regs[step.then], c.ndim), _lift(regs[step.els], c.ndim)
            )
        elif isinstance(step, _Unary):
            _run_unary(step, st, regs)
        elif isinstance(step, _TruthyInt):
            v = regs[step.src]
            if isinstance(v, LaneScalars):
                regs[step.dst] = LaneScalars([int(bool(x)) for x in v.values])
            elif isinstance(v, np.ndarray):
                regs[step.dst] = v.astype(bool).astype(np.int64)
            else:
                regs[step.dst] = int(bool(v))
        elif isinstance(step, _Combine):
            lbool = regs[step.lbool]
            rbool = _truthy_bcast(regs[step.right], (st.n,) + step.shape)
            out = (lbool & rbool) if step.is_and else (lbool | rbool)
            regs[step.dst] = out.astype(np.int64)
        elif isinstance(step, _Reduce):
            _run_reduce(step, st, regs)
        elif isinstance(step, _AssignScalar):
            _run_assign_scalar(step, st, regs)
        else:  # pragma: no cover - screened out before batching
            raise _BatchAbort()


def _run_unary(step: _Unary, st: _ChunkState, regs) -> None:
    v = regs[step.src]
    op = step.node.op
    if isinstance(v, LaneScalars):
        out = []
        for j, x in enumerate(v.values):
            if not st.active[j]:
                out.append(0)
            elif op == "-":
                out.append(-x)
            elif op == "!":
                out.append(int(not x))
            else:
                out.append(~int(x))
        regs[step.dst] = LaneScalars(out)
        return
    if op == "-":
        regs[step.dst] = -v
    elif op == "!":
        if isinstance(v, np.ndarray):
            regs[step.dst] = np.logical_not(v.astype(bool)).astype(np.int64)
        else:
            regs[step.dst] = int(not v)
    else:  # "~"
        if isinstance(v, np.ndarray):
            regs[step.dst] = np.invert(v.astype(np.int64))
        else:
            regs[step.dst] = ~int(v)


_IOTA_CACHE: Dict[int, np.ndarray] = {}


def _iota(size: int) -> np.ndarray:
    arr = _IOTA_CACHE.get(size)
    if arr is None:
        arr = _IOTA_CACHE[size] = np.arange(size)
    return arr


def _run_gather(step: _Gather, st: _ChunkState, regs) -> None:
    data = st.arrays[step.arr.name]
    if step.oob is not None:
        m = regs[step.mask]
        for ob in step.oob:
            if ob is not None and np.any(ob & m):
                raise _BatchAbort()  # solo raises the bounds error
    if step.shift is not None:
        regs[step.dst] = commtiers.run_shifts(
            data, [(a + 1, s, e) for a, s, e in step.shift]
        )
        return
    # index with an explicit lane axis rather than a leading slice: pure
    # advanced indexing keeps the copy C-contiguous (mixed basic/advanced
    # indexing would interleave the lane axis innermost, which wrecks the
    # memory layout of every downstream ufunc and reduction)
    if step.recipe is not None:
        r = step.recipe
        small = data[np.ix_(np.arange(st.n), *r.vecs)]
        if r.perm is not None:
            small = small.transpose((0,) + tuple(p + 1 for p in r.perm))
        if r.squeeze:
            small = small.squeeze(axis=_axes_up(r.squeeze))
        if r.expand:
            small = np.expand_dims(small, axis=_axes_up(r.expand))
        out = np.broadcast_to(small, (st.n,) + r.shape)
        regs[step.dst] = out if step.view_ok else np.array(out)
        return
    idx = step.idx if isinstance(step.idx, tuple) else (step.idx,)
    width = max((i.ndim for i in idx if isinstance(i, np.ndarray)), default=0)
    lanes = np.arange(st.n).reshape((st.n,) + (1,) * width)
    regs[step.dst] = data[(lanes,) + idx]


def _run_scatter(step: _Scatter, st: _ChunkState, regs) -> None:
    data = st.arrays[step.arr.name]
    mask = regs[step.mask]
    if step.oob is not None:
        for ob in step.oob:
            if ob is not None and np.any(ob & mask):
                raise _BatchAbort()  # solo raises the bounds error
    value = regs[step.val]
    n = st.n
    arr_size = data[0].size
    flat_mask = mask.reshape(n, -1)
    # full-mask store in storage order: a reshaped copy, no fancy indexing
    if (
        step.flat.size == arr_size
        and isinstance(value, np.ndarray)
        and bool(flat_mask.all())
        and np.array_equal(step.flat, _iota(arr_size))
    ):
        vals = np.broadcast_to(value, (n,) + step.grid_shape).reshape(n, -1)
        np.copyto(data.reshape(n, -1), E._cast_array(vals, data.dtype))
        return
    # per-lane flat indices, offset into the stacked array: the solo
    # indices are unique per lane (screened), and lane blocks are
    # disjoint, so the combined scatter has no collisions either
    idx2 = step.flat[None, :] + (np.arange(n) * arr_size)[:, None]
    flat_idx = idx2[flat_mask]
    if isinstance(value, LaneScalars):
        value = value.lifted(mask.ndim)
    if isinstance(value, np.ndarray):
        vals = np.broadcast_to(value, (n,) + step.grid_shape)[mask]
    else:
        vals = np.full(int(flat_mask.sum()), value)
    vals = E._cast_array(vals, data.dtype)
    data.reshape(-1)[flat_idx] = vals


def _run_assign_scalar(step: _AssignScalar, st: _ChunkState, regs) -> None:
    vars_ = st.scalars[step.var.name]
    value = regs[step.val]
    if isinstance(value, np.ndarray):
        mask = regs[step.mask]
        vals_b = np.broadcast_to(value, (st.n,) + step.grid_shape)
        for j in range(st.n):
            if not st.active[j]:
                continue
            v = vals_b[j][mask[j]]
            if v.size == 0:
                continue
            flat = v.reshape(-1)
            if np.any(flat != flat[0]):
                raise _BatchAbort()  # solo raises UC101
            vars_[j].value = coerce_scalar(vars_[j].ctype, flat[0])
        return
    if isinstance(value, LaneScalars):
        for j in range(st.n):
            if st.active[j]:
                vars_[j].value = coerce_scalar(
                    vars_[j].ctype, value.values[j]
                )
        return
    for j in range(st.n):
        if st.active[j]:
            vars_[j].value = coerce_scalar(vars_[j].ctype, value)


def _run_reduce(step: _Reduce, st: _ChunkState, regs) -> None:
    n = st.n
    m = regs[step.mask]
    inner_b = (n,) + step.inner_shape
    base = np.broadcast_to(
        m.reshape(m.shape + (1,) * step.n_sets), inner_b
    )
    regs[step.base] = base
    axes_b = _axes_up(step.reduce_axes)
    if step.single_arm and bool(np.all(m)):
        # chunk-wide fast path, shared with the solo sweep (the lane axis
        # is just the first non-reduced axis); partially-enabled chunks
        # take the generic path below, which the solo engine documents as
        # value-identical
        regs[step.dst] = step.reduce_unmasked(
            regs, inner_b, lambda steps: _run_steps(steps, st, regs), _lift
        )
        return
    arm_values: List[np.ndarray] = []
    arm_masks: List[np.ndarray] = []
    union: Optional[np.ndarray] = None
    for psteps, pout, amreg, esteps, eout in step.arms:
        if psteps is None:
            am = base
        else:
            _run_steps(psteps, st, regs)
            pv = _truthy_bcast(regs[pout], inner_b)
            am = base & pv
            union = pv if union is None else (union | pv)
        regs[amreg] = am
        _run_steps(esteps, st, regs)
        arm_values.append(
            np.broadcast_to(np.asarray(_lift(regs[eout], len(inner_b))), inner_b)
        )
        arm_masks.append(am)
    if step.others is not None:
        osteps, oout, omreg = step.others
        om = base & (
            ~union if union is not None else np.zeros(inner_b, bool)
        )
        regs[omreg] = om
        _run_steps(osteps, st, regs)
        arm_values.append(
            np.broadcast_to(np.asarray(_lift(regs[oout], len(inner_b))), inner_b)
        )
        arm_masks.append(om)
    regs[step.dst] = E._reduce_op(step.op, arm_values, arm_masks, axes_b)


def _steps_supported(fused) -> bool:
    """Every step must have a batched adapter (and scatters must be
    provably single-assignment, so no cross-lane duplicate check runs)."""

    def walk(steps) -> bool:
        for s in steps:
            if isinstance(s, _Scatter):
                if not s.unique:
                    return False
            elif isinstance(s, _Reduce):
                for psteps, _po, _am, esteps, _eo in s.arms:
                    if psteps is not None and not walk(psteps):
                        return False
                    if not walk(esteps):
                        return False
                if s.others is not None and not walk(s.others[0]):
                    return False
            elif not isinstance(
                s,
                (
                    _ReadScalar,
                    _Unary,
                    _Binary,
                    _Bool,
                    _Mask,
                    _TruthyInt,
                    _Combine,
                    _Where,
                    _Gather,
                    _AssignScalar,
                ),
            ):
                return False
        return True

    for prog in fused.pred_progs:
        if prog is not None and not walk(prog[1]):
            return False
    for segs in fused.arm_segments:
        for seg in segs:
            if seg[0] == "f" and not walk(seg[2]):
                return False
    return True


def _max_elems(fused) -> int:
    """Largest per-lane register footprint (construct grid or any
    reduction's inner grid), in elements."""
    best = int(np.prod(fused.shape)) if fused.shape else 1

    def walk(steps) -> None:
        nonlocal best
        for s in steps:
            if isinstance(s, _Reduce):
                best = max(best, int(np.prod(s.inner_shape)))
                for psteps, _po, _am, esteps, _eo in s.arms:
                    if psteps is not None:
                        walk(psteps)
                    walk(esteps)
                if s.others is not None:
                    walk(s.others[0])

    for prog in fused.pred_progs:
        if prog is not None:
            walk(prog[1])
    for segs in fused.arm_segments:
        for seg in segs:
            if seg[0] == "f":
                walk(seg[2])
    return best


# ---------------------------------------------------------------------------
# one batched construct
# ---------------------------------------------------------------------------


class _BatchConstruct:
    """Lockstep execution of one ``*par``/``*solve`` across the live lanes."""

    def __init__(self, run, stmt: ast.UCStmt, live, ctxs) -> None:
        self.batch = run
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
        if self.stmt.kind == "solve":
            self._drive_solve()
        else:
            self._drive_par()

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
            if fused is None or fused.others_segments is not None:
                return None
            for segs in fused.arm_segments:
                for seg in segs:
                    if seg[0] != "f":
                        return None  # unfused segment: no batched adapter
            if not _steps_supported(fused):
                return None
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
            max_elems = _max_elems(fused)
            chunk = max(
                1, min(len(self.live), _CHUNK_TARGET_ELEMS // max(1, max_elems))
            )
            if stacked + 4 * chunk * max_elems * 8 > _MEMORY_CAP_BYTES:
                return None
            self.max_elems = max_elems
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

    # -- one batched compute pass -----------------------------------------

    def _sweep_compute(self, collect_masks: bool):
        """Run predicates + bodies over all rows, chunked along the lane
        axis.  Returns ``arm_any[k, row]`` (and the stacked per-arm masks
        when ``collect_masks``, for ``*par`` bookkeeping)."""
        fused = self.fused
        n_rows = len(self.live)
        K = len(fused.arm_mask_regs)
        spatial = tuple(range(1, 1 + len(fused.shape)))
        arm_any = np.zeros((K, n_rows), dtype=bool)
        masks_full = (
            [np.zeros((n_rows,) + fused.shape, dtype=bool) for _ in range(K)]
            if collect_masks
            else None
        )
        for lo in range(0, n_rows, self.chunk):
            hi = min(n_rows, lo + self.chunk)
            n = hi - lo
            st = _ChunkState(
                n,
                {name: stk[lo:hi] for name, stk in self.stacks.items()},
                {name: vs[lo:hi] for name, vs in self.scalar_vars.items()},
            )
            regs: List[Any] = [None] * fused.n_regs
            for r, v in fused.consts:
                regs[r] = v
            base = np.ones((n,) + fused.shape, dtype=bool)
            regs[fused.base_reg] = base
            masks: List[np.ndarray] = []
            for prog in fused.pred_progs:
                if prog is None:
                    masks.append(base)
                    continue
                _charges, steps, out = prog
                _run_steps(steps, st, regs)
                pb = _truthy_bcast(regs[out], (n,) + fused.shape)
                masks.append(base & pb)
            for k in range(K):
                arm_any[k, lo:hi] = (
                    masks[k].any(axis=spatial) if spatial else masks[k]
                )
                if collect_masks:
                    masks_full[k][lo:hi] = masks[k]
            for k, segs in enumerate(fused.arm_segments):
                aa = arm_any[k, lo:hi]
                if not aa.any():
                    continue
                regs[fused.arm_mask_regs[k]] = masks[k]
                st.active = aa
                for seg in segs:
                    _run_steps(seg[2], st, regs)
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

    def _install_session(
        self, row: int, changed, gt, lt, t0: float, a0: int
    ) -> None:
        """Mirror ``StarSession.full_end`` from the stacked before/after
        deltas (``changed``/``gt``/``lt`` are per-name lane-stacked
        arrays, computed once per sweep for every lane)."""
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
        stmt = self.stmt
        fused = self.fused
        limit = self.interps[0].config.solve_sweep_limit
        n_mod = len(self.modified) or 1
        sweeps = 0
        while self.live:
            # frontier decisions: lanes electing a compressed sweep leave
            # the batch and finish on the solo loop
            if self.sessions_on:
                keep: List[int] = []
                none_keys = set()
                for row in range(len(self.live)):
                    key = self._sess_key(row)
                    if key is not None and key in none_keys:
                        keep.append(row)
                        continue
                    states = self.sessions[row].plan_compressed()
                    if states is None:
                        if key is not None:
                            none_keys.add(key)
                        keep.append(row)
                        continue
                    self._demote(row, star_solve_loop, states, sweeps)
                if len(keep) != len(self.live):
                    self._compact(keep)
                if not self.live:
                    return
            before = {
                name: self.stacks[name].copy() for name in self.mod_arrays
            }
            before_sc = {
                name: [v.value for v in self.scalar_vars[name]]
                for name in self.mod_scalars
            }
            marks = []
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                if self.sessions_on:
                    marks.append((clock.time_us, clock.count("alloc")))
                else:
                    marks.append(None)
            arm_any, _ = self._sweep_compute(collect_masks=False)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                clock.charge("alu", count=n_mod, vp_ratio=self.vp_ratio)
                self._charge_preds(clock)
                self._charge_arms(clock, arm_any, row)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
            changed = {
                name: before[name] != self.stacks[name]
                for name in self.mod_arrays
            }
            lane_changed = np.zeros(len(self.live), dtype=bool)
            for name, ch in changed.items():
                lane_changed |= ch.any(axis=tuple(range(1, ch.ndim)))
            for name, vals in before_sc.items():
                now = [v.value for v in self.scalar_vars[name]]
                for row in range(len(self.live)):
                    if vals[row] != now[row]:
                        lane_changed[row] = True
            if self.sessions_on:
                gt = {
                    name: self.stacks[name] > before[name]
                    for name in self.mod_arrays
                }
                lt = {
                    name: self.stacks[name] < before[name]
                    for name in self.mod_arrays
                }
                for row in range(len(self.live)):
                    t0, a0 = marks[row]
                    self._install_session(row, changed, gt, lt, t0, a0)
            keep = []
            for row in range(len(self.live)):
                if lane_changed[row]:
                    keep.append(row)
                else:
                    self._writeback(row)  # fixed point: lane retires
            if len(keep) != len(self.live):
                self._compact(keep)
            sweeps += 1
            if self.live and sweeps > limit:
                raise _BatchAbort()  # sequential rerun raises the solo error
        del fused, stmt

    # -- *par --------------------------------------------------------------

    def _drive_par(self) -> None:
        sweeps = 0
        while self.live:
            if self.sessions_on:
                keep = []
                none_keys = set()
                for row in range(len(self.live)):
                    key = self._sess_key(row)
                    if key is not None and key in none_keys:
                        keep.append(row)
                        continue
                    states = self.sessions[row].plan_compressed()
                    if states is None:
                        if key is not None:
                            none_keys.add(key)
                        keep.append(row)
                        continue
                    self._demote(row, star_par_loop, states, sweeps)
                if len(keep) != len(self.live):
                    self._compact(keep)
                if not self.live:
                    return
            before = None
            marks = []
            if self.sessions_on:
                before = {
                    name: self.stacks[name].copy() for name in self.mod_arrays
                }
            for ip in self.interps:
                clock = ip.machine.clock
                marks.append(
                    (clock.time_us, clock.count("alloc"))
                    if self.sessions_on
                    else None
                )
            arm_any, masks_full = self._sweep_compute(collect_masks=True)
            ran = arm_any.any(axis=0)
            for row, ip in enumerate(self.interps):
                clock = ip.machine.clock
                self._charge_preds(clock)
                clock.charge("global_or", vp_ratio=self.vp_ratio)
                clock.charge("host_cm_latency")
                if ran[row]:
                    self._charge_arms(clock, arm_any, row)
            if self.sessions_on:
                changed = {
                    name: before[name] != self.stacks[name]
                    for name in self.mod_arrays
                }
                gt = {
                    name: self.stacks[name] > before[name]
                    for name in self.mod_arrays
                }
                lt = {
                    name: self.stacks[name] < before[name]
                    for name in self.mod_arrays
                }
                for row in range(len(self.live)):
                    if not ran[row]:
                        continue  # solo returns before full_end
                    t0, a0 = marks[row]
                    self._install_session(row, changed, gt, lt, t0, a0)
                    self.sessions[row].par_masks = [
                        masks_full[k][row].copy()
                        for k in range(len(masks_full))
                    ]
            keep = []
            for row in range(len(self.live)):
                if ran[row]:
                    keep.append(row)
                else:
                    self._writeback(row)  # predicates all false: lane done
            if len(keep) != len(self.live):
                self._compact(keep)
            sweeps += 1
            if self.live and sweeps > self.interps[0].config.solve_sweep_limit:
                raise _BatchAbort()  # sequential rerun raises the solo error

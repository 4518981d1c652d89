"""Statement execution: C control flow plus par / seq / oneof.

``par`` extends the grid context with one axis per index set and runs its
arms synchronously under predicate masks; ``*par`` re-evaluates predicates
each sweep, polling the machine's global-OR line between iterations the
way the real front end did.  ``seq`` is a front-end loop binding its
element to successive scalar values.  ``oneof`` picks one enabled arm
non-deterministically (machine RNG; no fairness guarantee, §3.7).
``solve`` lives in :mod:`repro.interp.solve`.

A ``par`` sweep takes one of three paths: the construct's fused kernel
(:func:`repro.interp.fuse.fused_for`), a compressed frontier sweep
(``*par`` only, :mod:`repro.interp.frontier`), or the tree-walking
oracle below, which is also what runs ``seq``, ``oneof`` and everything
fusion declines.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError, UCSemanticError
from ..lang.operators import truthy
from ..machine.cost import charge_row
from .env import Env
from .eval_expr import (
    ExecContext,
    Value,
    charge_grid_op,
    eval_expr,
)
from .values import (
    ArrayVar,
    ElementBinding,
    ParallelLocal,
    ScalarVar,
    coerce_scalar,
    numpy_ctype,
)


class ReturnSignal(Exception):
    def __init__(self, value: Optional[Value]) -> None:
        self.value = value


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


def exec_stmt(ip, stmt: ast.Stmt, ctx: ExecContext) -> None:
    if isinstance(stmt, ast.Block):
        inner = ctx.with_env(ctx.env.child())
        for s in stmt.stmts:
            exec_stmt(ip, s, inner)
        return
    if isinstance(stmt, ast.DeclGroup):
        for s in stmt.decls:
            exec_stmt(ip, s, ctx)
        return
    if isinstance(stmt, ast.ExprStmt):
        eval_expr(ip, stmt.expr, ctx)
        return
    if isinstance(stmt, ast.EmptyStmt):
        return
    if isinstance(stmt, ast.VarDecl):
        _exec_var_decl(ip, stmt, ctx)
        return
    if isinstance(stmt, ast.IndexSetDecl):
        ip.declare_index_set(stmt, ctx.env)
        return
    if isinstance(stmt, ast.If):
        _exec_if(ip, stmt, ctx)
        return
    if isinstance(stmt, ast.While):
        _exec_while(ip, stmt, ctx)
        return
    if isinstance(stmt, ast.DoWhile):
        _exec_do_while(ip, stmt, ctx)
        return
    if isinstance(stmt, ast.For):
        _exec_for(ip, stmt, ctx)
        return
    if isinstance(stmt, ast.Return):
        value = eval_expr(ip, stmt.value, ctx) if stmt.value is not None else None
        raise ReturnSignal(value)
    if isinstance(stmt, ast.Break):
        raise BreakSignal()
    if isinstance(stmt, ast.Continue):
        raise ContinueSignal()
    # a UCStmt: semantics._check_stmt admits no other statement
    # deadline poll at the entry of each *outermost* construct: a
    # safe cancellation point (no sweep in flight, no element bound)
    if ip.current_construct is None:
        ip.poll_boundary(stmt)
    # a nested construct rebinds elements: run it outside any armed
    # CSE cache (it arms its own) and drop stale entries afterwards
    with ip.cse_suspend():
        recovery = getattr(ip, "recovery", None)
        if recovery is not None and recovery.wants(stmt):
            recovery.run_protected(ip, stmt, ctx)
        else:
            dispatch_construct(ip, stmt, ctx)


def dispatch_construct(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    """Run one UC construct (the body of :func:`exec_stmt`'s UCStmt case;
    also the replay entry point of the recovery manager)."""
    # remembered so a §3.4 violation deep in the body can name the
    # construct it happened under
    prev = getattr(ip, "current_construct", None)
    ip.current_construct = stmt
    try:
        if stmt.kind == "par":
            exec_par(ip, stmt, ctx)
        elif stmt.kind == "seq":
            exec_seq(ip, stmt, ctx)
        elif stmt.kind == "oneof":
            exec_oneof(ip, stmt, ctx)
        elif stmt.kind == "solve":
            from .solve import exec_solve  # local import avoids a cycle

            exec_solve(ip, stmt, ctx)
        else:  # pragma: no cover
            raise UCRuntimeError(
                f"unknown construct {stmt.kind!r}", stmt.line, stmt.col
            )
    finally:
        ip.current_construct = prev


# ---------------------------------------------------------------------------
# declarations and C control flow
# ---------------------------------------------------------------------------


def _exec_var_decl(ip, stmt: ast.VarDecl, ctx: ExecContext) -> None:
    if stmt.dims:
        if not ctx.grid.is_host:
            raise UCRuntimeError(
                f"array {stmt.name!r} declared inside a parallel body; "
                "declare arrays at function or program level",
                stmt.line,
                stmt.col,
            )
        # constant dimensions: semantics._check_stmt folds each one
        dims = tuple(int(eval_expr(ip, d, ctx)) for d in stmt.dims)
        var = ip.allocate_array(stmt.name, stmt.ctype, dims)
        ctx.env.declare(stmt.name, var)
        return
    if ctx.grid.is_host:
        var = ScalarVar(stmt.name, stmt.ctype)
        ctx.env.declare(stmt.name, var)
        ip.cse_invalidate()  # the new name may shadow one in cached expressions
        if stmt.init is not None:
            var.value = coerce_scalar(
                stmt.ctype, eval_expr(ip, stmt.init, ctx), stmt.init
            )
        return
    local = ParallelLocal(
        stmt.name,
        stmt.ctype,
        ctx.grid.rank,
        np.zeros(ctx.grid.shape, dtype=numpy_ctype(stmt.ctype)),
    )
    ctx.env.declare(stmt.name, local)
    ip.cse_invalidate()  # the new name may shadow one in cached expressions
    if stmt.init is not None:
        value = eval_expr(ip, stmt.init, ctx)
        mask = ctx.active_mask()
        local.data[mask] = np.broadcast_to(np.asarray(value), ctx.grid.shape)[mask]


def _exec_if(ip, stmt: ast.If, ctx: ExecContext) -> None:
    cond = eval_expr(ip, stmt.cond, ctx)
    if not isinstance(cond, np.ndarray):
        charge_grid_op(ip, ctx)
        if cond:
            exec_stmt(ip, stmt.then, ctx)
        elif stmt.els is not None:
            exec_stmt(ip, stmt.els, ctx)
        return
    # data-parallel if: both branches run under complementary masks
    cbool = np.broadcast_to(np.asarray(truthy(cond)), ctx.grid.shape)
    vps = ip.grid_vpset(ctx.grid.shape)
    ip.machine.clock.charge("context", count=2, vp_ratio=vps.vp_ratio)
    then_ctx = ctx.refine(cbool)
    if np.any(then_ctx.active_mask()):
        exec_stmt(ip, stmt.then, then_ctx)
    if stmt.els is not None:
        else_ctx = ctx.refine(~cbool)
        if np.any(else_ctx.active_mask()):
            exec_stmt(ip, stmt.els, else_ctx)


def _loop_cond(ip, expr: ast.Expr, ctx: ExecContext, at: ast.Node) -> bool:
    v = eval_expr(ip, expr, ctx)
    if isinstance(v, np.ndarray):
        raise UCRuntimeError(
            "loop condition must be scalar in a parallel context; use *par",
            at.line,
            at.col,
        )
    return bool(v)


def _exec_while(ip, stmt: ast.While, ctx: ExecContext) -> None:
    sweeps = 0
    while _loop_cond(ip, stmt.cond, ctx, stmt):
        ip.machine.clock.charge("host")
        try:
            exec_stmt(ip, stmt.body, ctx)
        except BreakSignal:
            return
        except ContinueSignal:
            pass
        sweeps += 1
        ip.check_sweeps(sweeps, "while loop", stmt)


def _exec_do_while(ip, stmt: ast.DoWhile, ctx: ExecContext) -> None:
    sweeps = 0
    while True:
        ip.machine.clock.charge("host")
        try:
            exec_stmt(ip, stmt.body, ctx)
        except BreakSignal:
            return
        except ContinueSignal:
            pass
        if not _loop_cond(ip, stmt.cond, ctx, stmt):
            return
        sweeps += 1
        ip.check_sweeps(sweeps, "do-while loop", stmt)


def _exec_for(ip, stmt: ast.For, ctx: ExecContext) -> None:
    if stmt.init is not None:
        eval_expr(ip, stmt.init, ctx)
    sweeps = 0
    while stmt.cond is None or _loop_cond(ip, stmt.cond, ctx, stmt):
        ip.machine.clock.charge("host")
        try:
            exec_stmt(ip, stmt.body, ctx)
        except BreakSignal:
            return
        except ContinueSignal:
            pass
        if stmt.step is not None:
            eval_expr(ip, stmt.step, ctx)
        sweeps += 1
        ip.check_sweeps(sweeps, "for loop", stmt)


# ---------------------------------------------------------------------------
# par
# ---------------------------------------------------------------------------


def enter_grid(ip, stmt: ast.UCStmt, ctx: ExecContext) -> ExecContext:
    """Extend the grid with the construct's index sets and bind elements."""
    inner = ctx.extend([ip.resolve_index_set(name, ctx, at=stmt) for name in stmt.index_sets])
    vps = ip.grid_vpset(inner.grid.shape)
    ip.machine.clock.charge("context", count=2, vp_ratio=vps.vp_ratio)
    return inner


class SweepProtocol(NamedTuple):
    """The fixed per-sweep charges of an iterated construct, as bound
    rows replayed at the construct grid's VP ratio (``ratios`` =
    ``(vp_ratio,)``): ``entry`` before the predicates, ``after_preds``
    between predicates and bodies, ``after_bodies`` once the bodies ran.
    The termination test (global OR + the host round trip) sits where the
    construct reads what it tests (docs/COSTMODEL.md)."""

    entry: List[Tuple]
    after_preds: List[Tuple]
    after_bodies: List[Tuple]


def sweep_protocol(costs, stmt: ast.UCStmt, modified=None) -> SweepProtocol:
    """The one binding of a construct's per-sweep protocol rows: the solo
    sweep loop, ``run_batch`` lanes, frontier sessions, ``*oneof`` and
    guarded ``solve`` all replay these.  ``modified``: the construct's
    :func:`modified_names`, when the caller already has them."""
    test = [charge_row(costs, "global_or", 1, 0), charge_row(costs, "host_cm_latency", 1, 0)]
    if not stmt.star or stmt.kind == "oneof":
        return SweepProtocol(test, [], [])  # guarded solve, *oneof: any lane enabled?
    if stmt.kind == "par":
        return SweepProtocol([], test, [])  # does any predicate hold?
    # *solve: the compiler saves intermediate state each sweep to detect the
    # fixed point — one ALU pass per modified variable (§3.6); did any change?
    if modified is None:
        modified = modified_names(stmt)
    return SweepProtocol([charge_row(costs, "alu", len(modified) or 1, 0)], [], test)


def _block_masks(
    ip, stmt: ast.UCStmt, inner: ExecContext
) -> Tuple[List[np.ndarray], Optional[np.ndarray]]:
    """Evaluate arm predicates; returns per-arm masks and the union."""
    base = inner.active_mask()
    masks: List[np.ndarray] = []
    union: Optional[np.ndarray] = None
    for block in stmt.blocks:
        if block.pred is None:
            masks.append(base)
        else:
            pv = eval_expr(ip, block.pred, inner)
            pb = np.broadcast_to(np.asarray(truthy(pv)), inner.grid.shape)
            m = base & pb
            masks.append(m)
            union = pb if union is None else (union | pb)
    return masks, union


def _run_blocks_once(
    ip, stmt: ast.UCStmt, inner: ExecContext, proto=None, ratios=None
) -> Optional[List[np.ndarray]]:
    """One synchronous execution of all arms, on the construct's fused
    kernel or the oracle; returns the arm masks.

    A sweep of an iterated construct passes its :class:`SweepProtocol`:
    its ``after_preds`` rows are charged between predicates and bodies,
    and a ``*par`` none of whose predicates holds returns None there,
    bodies skipped.  The CSE cache is armed for the duration: a predicate
    and its arm's body share subexpression evaluations (§4's common
    sub-expression detection; writes invalidate as they happen).
    """
    from . import fuse

    fused = fuse.fused_for(ip, stmt, inner)
    with ip.cse_arm():
        if fused is not None:
            sweep = fused.begin_sweep(ip, inner.active_mask())
            masks = sweep.masks
        else:
            masks, union = _block_masks(ip, stmt, inner)
        if proto is not None and proto.after_preds:
            ip.machine.clock.replay_rows(proto.after_preds, ratios)
            if not any(np.any(m) for m in masks):
                return None
        if fused is not None:
            fused.run_body(ip, inner, sweep)
            return masks
        for block, mask in zip(stmt.blocks, masks):
            if np.any(mask):
                exec_stmt(ip, block.stmt, inner.with_mask(mask))
        if stmt.others is not None:
            base = inner.active_mask()
            om = base & (
                ~union if union is not None else np.zeros(inner.grid.shape, bool)
            )
            if np.any(om):
                exec_stmt(ip, stmt.others, inner.with_mask(om))
        return masks


def exec_par(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    inner = enter_grid(ip, stmt, ctx)
    if not stmt.star:
        _run_blocks_once(ip, stmt, inner)
        return
    _check_starred(stmt)
    from . import frontier

    sweep_loop(ip, stmt, inner, frontier.star_session([ip], stmt, [inner]))


def sweep_loop(ip, stmt: ast.UCStmt, inner: ExecContext, sess) -> None:
    """Sweep an entered ``*par`` until no predicate holds, or an entered
    ``*solve`` to its fixed point.

    A sweep runs compressed on the (one-row) frontier session's active
    lanes when ``sess.plan`` elects it, else full — on the fused kernel or
    the oracle, charged the construct's :func:`sweep_protocol` rows.
    ``run_batch`` lanes sweep on their own driver
    (:class:`repro.interp.batch._BatchConstruct`), one stacked session
    for all of them."""
    from . import frontier

    par = stmt.kind == "par"
    clock = ip.machine.clock
    # what a full sweep diffs: everything a *solve's fixed-point test
    # reads, the arrays a *par's frontier session seeds its next sweep from
    if sess is not None:
        watched = sess.an.modified
    else:
        watched = [] if par else modified_names(stmt)
    proto = sweep_protocol(clock.costs, stmt, watched)
    ratios = (ip.grid_vpset(inner.grid.shape).vp_ratio,)
    still = _NEVER_FALSIFIED if par else (lambda: f"still changing each sweep: {summarize()}")
    sweeps = 0
    while True:
        # sweeps complete atomically; between them is a safe cancel point
        ip.poll_boundary(stmt)
        plan = sess.plan() if sess is not None else None
        if plan is not None and plan.rows[0] is not None:
            # compressed sweep over the active lanes only, charged at their
            # VP ratio (guarded to cost strictly less than the measured full
            # sweep); a *par's cached per-arm predicate masks (refreshed
            # where re-evaluated) decide termination as the full union would
            if not sess.run_compressed(plan):
                return
            summarize = sess.last[0].summary
        else:
            before = frontier.snapshot(_values(inner, watched))
            if sess is not None:
                sess.full_begin()
            clock.replay_rows(proto.entry, ratios)
            masks = _run_blocks_once(ip, stmt, inner, proto, ratios)
            if masks is None:
                return
            clock.replay_rows(proto.after_bodies, ratios)
            diff = frontier.SweepDiff.between(before, _values(inner, watched))
            if sess is not None:
                sess.full_end(diff)
                if par:
                    sess.note_par_masks(masks)
            if not par and not diff.any():
                return
            summarize = diff.summary
        sweeps += 1
        ip.check_sweeps(sweeps, f"*{stmt.kind}", stmt, still)


def modified_names(stmt: ast.UCStmt) -> List[str]:
    """Every variable the construct assigns, sorted."""
    names: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.IncDec)):
            t = node.target
            names.add(t.base if isinstance(t, ast.Index) else t.ident)  # type: ignore[union-attr]
    return sorted(names)


def _values(ctx: ExecContext, names: List[str]):
    """The current state of ``names``: arrays (uncopied) and scalar values."""
    out = {}
    for name in names:
        binding = ctx.env.try_lookup(name)
        if isinstance(binding, (ArrayVar, ParallelLocal)):
            out[name] = binding.data
        elif isinstance(binding, ScalarVar):
            out[name] = binding.value
    return out


def _NEVER_FALSIFIED() -> str:
    return "some 'st' predicate still holds after every sweep"


def _check_starred(stmt: ast.UCStmt) -> None:
    if any(b.pred is None for b in stmt.blocks):
        raise UCRuntimeError(
            f"*{stmt.kind} arms need 'st' predicates (otherwise the iteration "
            "never terminates)",
            stmt.line,
            stmt.col,
        )
    if stmt.others is not None:
        raise UCRuntimeError(
            f"*{stmt.kind} cannot have an 'others' clause", stmt.line, stmt.col
        )


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------


def exec_seq(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    sets = [ip.resolve_index_set(name, ctx, at=stmt) for name in stmt.index_sets]
    sweeps = 0
    while True:
        any_ran = _seq_sweep(ip, stmt, sets, ctx)
        if not stmt.star or not any_ran:
            return
        sweeps += 1
        ip.check_sweeps(sweeps, "*seq", stmt, _NEVER_FALSIFIED)


def _seq_sweep(ip, stmt: ast.UCStmt, sets, ctx: ExecContext) -> bool:
    any_ran = False
    for combo in itertools.product(*[s.values for s in sets]):
        # each iteration rebinds the loop elements: stale CSE entries
        # mentioning them must go
        ip.cse_invalidate()
        env = ctx.env.child()
        for isv, value in zip(sets, combo):
            env.declare(
                isv.elem_name,
                ElementBinding(isv.elem_name, isv.name, "scalar", value=int(value)),
            )
        iter_ctx = ctx.with_env(env)
        # the front end drives the loop and broadcasts the loop value
        ip.machine.clock.charge("host_cm_latency")
        if not ctx.grid.is_host:
            vps = ip.grid_vpset(ctx.grid.shape)
            ip.machine.clock.charge("broadcast", vp_ratio=vps.vp_ratio)

        union_scalar_true = False
        union_mask: Optional[np.ndarray] = None
        for block in stmt.blocks:
            if block.pred is None:
                exec_stmt(ip, block.stmt, iter_ctx)
                any_ran = True
                union_scalar_true = True
                continue
            pv = eval_expr(ip, block.pred, iter_ctx)
            if isinstance(pv, np.ndarray):
                pb = np.broadcast_to(pv.astype(bool), ctx.grid.shape)
                union_mask = pb if union_mask is None else (union_mask | pb)
                sub = iter_ctx.refine(pb)
                if np.any(sub.active_mask()):
                    exec_stmt(ip, block.stmt, sub)
                    any_ran = True
            elif pv:
                union_scalar_true = True
                exec_stmt(ip, block.stmt, iter_ctx)
                any_ran = True
        if stmt.others is not None:
            if union_mask is not None:
                sub = iter_ctx.refine(~union_mask)
                if np.any(sub.active_mask()):
                    exec_stmt(ip, stmt.others, sub)
                    any_ran = True
            elif not union_scalar_true:
                exec_stmt(ip, stmt.others, iter_ctx)
                any_ran = True
    return any_ran


# ---------------------------------------------------------------------------
# oneof
# ---------------------------------------------------------------------------


def exec_oneof(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    inner = enter_grid(ip, stmt, ctx)
    if not stmt.star:
        _oneof_once(ip, stmt, inner)
        return
    _check_starred(stmt)
    proto = sweep_protocol(ip.machine.clock.costs, stmt)
    ratios = (ip.grid_vpset(inner.grid.shape).vp_ratio,)
    sweeps = 0
    while True:
        ip.machine.clock.replay_rows(proto.entry, ratios)
        if not _oneof_once(ip, stmt, inner):
            return
        sweeps += 1
        ip.check_sweeps(sweeps, "*oneof", stmt, _NEVER_FALSIFIED)


def _oneof_once(ip, stmt: ast.UCStmt, inner: ExecContext) -> bool:
    """Execute one enabled arm (chosen by the machine RNG); True if any ran."""
    with ip.cse_arm():
        return _oneof_once_armed(ip, stmt, inner)


def _oneof_once_armed(ip, stmt: ast.UCStmt, inner: ExecContext) -> bool:
    masks, union = _block_masks(ip, stmt, inner)
    enabled = [k for k, m in enumerate(masks) if np.any(m)]
    others_mask: Optional[np.ndarray] = None
    if stmt.others is not None:
        base = inner.active_mask()
        others_mask = base & (
            ~union if union is not None else np.zeros(inner.grid.shape, bool)
        )
        if np.any(others_mask):
            enabled.append(-1)
    if not enabled:
        return False
    pick = enabled[int(ip.rng.integers(0, len(enabled)))]
    if pick == -1:
        assert others_mask is not None
        exec_stmt(ip, stmt.others, inner.with_mask(others_mask))
    else:
        exec_stmt(ip, stmt.blocks[pick].stmt, inner.with_mask(masks[pick]))
    return True

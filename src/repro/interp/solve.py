"""The ``solve`` construct: fixed-point / proper-equation execution (§3.6).

Two strategies for plain ``solve``:

* **scheduled** — when every assignment writes ``target[elem...]`` with
  identity subscripts and every reference back into a target array is an
  ``elem + const`` with non-positive offsets, the statements admit a
  static dependency-level schedule (the source-level transformation of
  [14]): level ``L(x) = 1 + max L(x + d)`` over the dependency offsets,
  executed as one masked ``par`` per level — a masked sweep of the
  body's fused kernel where fusion takes it, the oracle otherwise
  (:class:`repro.compiler.solve_sched.SolveSchedule`).
* **guarded** — the paper's general translation: keep per-element
  *defined* flags (the "impossible value"), repeatedly execute every
  assignment for the elements whose right-hand sides are fully defined
  and which have not executed yet, until nothing changes.  It runs on
  the oracle; the frontier engine narrows its worklist.

``*solve`` iterates its body to a global fixed point: execute, compare
all modified variables with their previous values, stop when unchanged.
Each sweep runs fused, compressed onto the frontier's active lanes, or
on the oracle, exactly like a ``*par`` sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError
from ..lang.operators import truthy
from ..lang.semantics import solve_assignments
from . import frontier
from .env import Env
from .eval_expr import ExecContext, eval_expr
from .statements import _run_blocks_once, enter_grid, exec_stmt
from .values import ArrayVar, ElementBinding, ParallelLocal, ScalarVar


def exec_solve(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    if stmt.star:
        _exec_solve_star(ip, stmt, ctx)
        return
    inner = enter_grid(ip, stmt, ctx)
    assignments = solve_assignments(stmt)
    strategy = ip.config.solve_strategy
    if strategy in ("auto", "scheduled"):
        from ..compiler.solve_sched import try_schedule

        schedule = try_schedule(ip, stmt, assignments, inner)
        if schedule is not None:
            schedule.execute(ip, inner)
            return
        if strategy == "scheduled":
            raise UCRuntimeError(
                "solve body is not statically schedulable "
                "(non-affine or forward dependencies)",
                stmt.line,
                stmt.col,
            )
    _exec_solve_guarded(ip, stmt, assignments, inner)


# ---------------------------------------------------------------------------
# body shape helpers
# ---------------------------------------------------------------------------


def target_arrays(assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]]) -> Set[str]:
    names: Set[str] = set()
    for _pred, assign in assignments:
        t = assign.target
        names.add(t.base if isinstance(t, ast.Index) else t.ident)  # type: ignore[union-attr]
    return names


# ---------------------------------------------------------------------------
# guarded execution (the paper's general method)
# ---------------------------------------------------------------------------


def _exec_solve_guarded(
    ip,
    stmt: ast.UCStmt,
    assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]],
    inner: ExecContext,
) -> None:
    targets = target_arrays(assignments)
    defined: Dict[str, np.ndarray] = {}
    for name in targets:
        binding = inner.env.try_lookup(name)
        if isinstance(binding, ArrayVar):
            defined[name] = np.zeros(binding.shape, dtype=bool)
        elif isinstance(binding, ScalarVar):
            defined[name] = np.zeros((), dtype=bool)
        else:
            raise UCRuntimeError(
                f"solve target {name!r} must be an array or scalar",
                stmt.line,
                stmt.col,
            )

    base = inner.active_mask()
    done = [np.zeros(inner.grid.shape, dtype=bool) for _ in assignments]
    vps = ip.grid_vpset(inner.grid.shape)

    # frontier worklist: a lane's readiness (or predicate) can only have
    # changed if something newly defined since last sweep reaches it
    # through one of the assignment's affine references into the targets
    gf = frontier.guarded_frontier(ip, stmt, assignments, inner)
    enabled_cache: List[Optional[np.ndarray]] = [None] * len(assignments)
    prev_defined: Optional[Dict[str, np.ndarray]] = None

    sweeps = 0
    while True:
        # sweeps complete atomically; between them is a safe cancel point
        ip.poll_boundary(stmt)
        ip.machine.clock.charge("global_or", vp_ratio=vps.vp_ratio)
        ip.machine.clock.charge("host_cm_latency")
        newly: Optional[Dict[str, np.ndarray]] = None
        if gf is not None:
            if prev_defined is not None:
                newly = {
                    name: flags & ~prev_defined[name]
                    for name, flags in defined.items()
                }
            prev_defined = {name: flags.copy() for name, flags in defined.items()}
        progress = False
        pending = False
        for k, (pred, assign) in enumerate(assignments):
            if newly is not None and enabled_cache[k] is not None:
                # nothing newly defined reaches this assignment: its
                # predicate, readiness and values are all unchanged, so
                # no lane can fire that did not fire last sweep
                cand = gf.candidates(k, newly) & base & ~done[k]
                if not np.any(cand):
                    if np.any(enabled_cache[k] & ~done[k]):
                        pending = True
                    ip.machine.clock.count_frontier("guarded_skips")
                    continue
            enabled = base.copy()
            if pred is not None:
                pv = eval_expr(ip, pred, inner)
                enabled &= np.broadcast_to(np.asarray(truthy(pv)), inner.grid.shape)
            enabled_cache[k] = enabled
            remaining = enabled & ~done[k]
            if not np.any(remaining):
                continue
            ready = remaining & _readiness(
                ip, assign.value, inner.with_mask(remaining), defined
            )
            if np.any(remaining & ~ready):
                pending = True
            if not np.any(ready):
                continue
            progress = True
            sub = inner.with_mask(ready)
            exec_stmt(
                ip, ast.ExprStmt(line=assign.line, col=assign.col, expr=assign), sub
            )
            _mark_defined(ip, assign.target, sub, defined)
            done[k] |= ready
            if newly is not None:
                # make intra-sweep definitions visible to the remaining
                # assignments' candidate sets, matching full-sweep order
                # (an element defined by an earlier assignment can enable
                # a later one within the same sweep)
                name = assign.target.base
                newly[name] = defined[name] & ~prev_defined[name]
        if not progress:
            if pending:
                raise UCRuntimeError(
                    "solve cannot make progress: the assignments are not a "
                    "proper set (circular dependency)",
                    stmt.line,
                    stmt.col,
                )
            return
        sweeps += 1
        ip.check_sweeps(
            sweeps, "solve", stmt, lambda: f"target variables: {', '.join(sorted(targets))}"
        )


def _mark_defined(ip, target: ast.Expr, ctx: ExecContext, defined: Dict[str, np.ndarray]) -> None:
    mask = ctx.active_mask()
    if isinstance(target, ast.Name):
        if np.any(mask):
            defined[target.ident][...] = True
        return
    assert isinstance(target, ast.Index)
    flags = defined[target.base]
    subs = [eval_expr(ip, s, ctx) for s in target.subs]
    idx = []
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            idx.append(np.clip(s, 0, flags.shape[a] - 1).reshape(-1)[mask.reshape(-1)])
        else:
            idx.append(np.full(int(mask.sum()), int(s)))
    flags[tuple(idx)] = True


def _readiness(
    ip, expr: ast.Expr, ctx: ExecContext, defined: Dict[str, np.ndarray]
) -> np.ndarray:
    """Boolean grid: lanes whose evaluation of ``expr`` touches only
    defined values.  Out-of-range references in *untaken* conditional
    branches are clipped (the conditional readiness formula discards
    them), matching the masked execution that follows."""
    shape = ctx.grid.shape
    true = np.ones(shape, dtype=bool)
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.InfLit, ast.Name, ast.StringLit)):
        return true
    if isinstance(expr, ast.Index):
        if expr.base not in defined:
            return true
        flags = defined[expr.base]
        subs = [eval_expr(ip, s, ctx) for s in expr.subs]
        idx = []
        oob = np.zeros(shape, dtype=bool)
        for a, s in enumerate(subs):
            arr = np.broadcast_to(np.asarray(s), shape)
            oob |= (arr < 0) | (arr >= flags.shape[a])
            idx.append(np.clip(arr, 0, flags.shape[a] - 1))
        got = flags[tuple(idx)]
        return got & ~oob
    if isinstance(expr, ast.Unary):
        return _readiness(ip, expr.operand, ctx, defined)
    if isinstance(expr, ast.Binary):
        return _readiness(ip, expr.left, ctx, defined) & _readiness(
            ip, expr.right, ctx, defined
        )
    if isinstance(expr, ast.Ternary):
        rc = _readiness(ip, expr.cond, ctx, defined)
        cond = eval_expr(ip, expr.cond, ctx)
        cb = np.broadcast_to(np.asarray(truthy(cond)), shape)
        rt = _readiness(ip, expr.then, ctx.refine(cb), defined)
        re_ = _readiness(ip, expr.els, ctx.refine(~cb), defined)
        return rc & np.where(cb, rt, re_)
    if isinstance(expr, ast.Call):
        out = true
        for a in expr.args:
            out = out & _readiness(ip, a, ctx, defined)
        return out
    if isinstance(expr, ast.Reduction):
        sets = [ip.resolve_index_set(name, ctx, at=expr) for name in expr.index_sets]
        inner_grid = ctx.grid.extend(sets)
        env = ctx.env.child()
        for off, isv in enumerate(sets):
            env.declare(
                isv.elem_name,
                ElementBinding(isv.elem_name, isv.name, "axis", axis=ctx.grid.rank + off),
            )
        mask = ctx.active_mask()
        bmask = np.broadcast_to(mask.reshape(mask.shape + (1,) * len(sets)), inner_grid.shape)
        inner = ExecContext(inner_grid, bmask, env)
        ready = np.ones(inner_grid.shape, dtype=bool)
        for arm in expr.arms:
            if arm.pred is not None:
                ready &= _readiness(ip, arm.pred, inner, defined)
            ready &= _readiness(ip, arm.expr, inner, defined)
        if expr.others is not None:
            ready &= _readiness(ip, expr.others, inner, defined)
        axes = tuple(range(ctx.grid.rank, inner_grid.rank))
        return ready.all(axis=axes)
    raise UCRuntimeError(
        f"solve cannot analyse {type(expr).__name__}", expr.line, expr.col
    )


# ---------------------------------------------------------------------------
# *solve: global fixed point
# ---------------------------------------------------------------------------


def _exec_solve_star(ip, stmt: ast.UCStmt, ctx: ExecContext) -> None:
    inner = enter_grid(ip, stmt, ctx)
    sess = frontier.star_session(ip, stmt, inner, "solve")
    star_solve_loop(ip, stmt, inner, sess)


def star_solve_loop(ip, stmt, inner, sess, states=None, sweeps=0) -> None:
    """Sweep an entered ``*solve`` to its fixed point.

    A ``run_batch`` lane that leaves its batch mid-construct re-enters
    here with the compressed sweep it elected (``states``) and the
    ``sweeps`` it spent stacked."""
    modified = _modified_names(stmt)
    vps = ip.grid_vpset(inner.grid.shape)
    # the divergence diagnostic is only rendered if the sweep limit trips,
    # so keep the last sweep's diff instead of formatting every sweep
    while True:
        # sweeps complete atomically; between them is a safe cancel point
        ip.poll_boundary(stmt)
        if states is None and sess is not None:
            states = sess.plan_compressed()
        if states is not None:
            # compressed sweep: evaluate only the lanes whose inputs
            # changed, charge only the active VP set (guarded to cost
            # strictly less than the measured full sweep)
            if not sess.run_compressed(states):
                return
            summarize = sess.last.summary
            states = None
        else:
            before = frontier.snapshot(_values(inner, modified))
            if sess is not None:
                sess.full_begin()
            # the compiler saves intermediate state each sweep to detect the
            # fixed point — charge one extra ALU pass for the temporaries (§3.6)
            ip.machine.clock.charge("alu", count=len(modified) or 1, vp_ratio=vps.vp_ratio)
            _run_blocks_once(ip, stmt, inner)
            ip.machine.clock.charge("global_or", vp_ratio=vps.vp_ratio)
            ip.machine.clock.charge("host_cm_latency")
            diff = frontier.SweepDiff.between(before, _values(inner, modified))
            if sess is not None:
                sess.full_end(diff)
            if not diff.any():
                return
            summarize = diff.summary
        sweeps += 1
        ip.check_sweeps(
            sweeps, "*solve", stmt, lambda: f"still changing each sweep: {summarize()}"
        )


def _modified_names(stmt: ast.UCStmt) -> List[str]:
    names: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Assign):
            t = node.target
            names.add(t.base if isinstance(t, ast.Index) else t.ident)  # type: ignore[union-attr]
        elif isinstance(node, ast.IncDec):
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

"""Vectorised expression evaluation with cost charging.

Expressions evaluate against an :class:`ExecContext` — a grid context
plus the current activity mask.  In a parallel context every value is a
scalar or a numpy array shaped like the grid; ``&&``, ``||`` and ``?:``
split the mask exactly like the CM's context stack (which is also what
keeps guarded out-of-bounds subscripts such as ``a[i-1]`` under
``i == 0 ? ... : a[i-1]`` from faulting: disabled lanes are never
dereferenced).

Array references are classified by :mod:`repro.mapping.locality` and the
machine clock is charged for the resulting communication tier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..lang import ast
from ..lang.errors import UCMultipleAssignmentError, UCRuntimeError
from ..lang.operators import INT64_MIN, apply_binop, apply_unary, truthy
from ..machine.router import has_duplicates
from ..machine.scan import INF, identity_of
from ..mapping.locality import RefClass, classify_reference, classify_write
from . import commtiers
from .env import Env
from .values import (
    ArrayVar,
    ElementBinding,
    GridContext,
    ParallelLocal,
    ScalarVar,
    SliceParam,
    broadcast,
    coerce_scalar,
    numpy_ctype,
)

Value = Union[int, float, np.ndarray]

#: reduction op name -> accumulate ufunc
_RED_UFUNC = {
    "add": np.add,
    "mul": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
    "logand": np.logical_and,
    "logor": np.logical_or,
    "logxor": np.logical_xor,
}


@dataclass
class ExecContext:
    """Where evaluation happens: grid + activity mask + environment."""

    grid: GridContext
    mask: Optional[np.ndarray]  # None = everywhere active; shape == grid.shape
    env: Env

    def active_mask(self) -> np.ndarray:
        if self.mask is not None:
            return self.mask
        return self.grid.full_mask()

    def with_mask(self, mask: Optional[np.ndarray]) -> "ExecContext":
        return ExecContext(self.grid, mask, self.env)

    def with_env(self, env: Env) -> "ExecContext":
        return ExecContext(self.grid, self.mask, env)

    def refine(self, cond: np.ndarray) -> "ExecContext":
        cond = np.asarray(cond, dtype=bool)  # every caller broadcasts it to the grid
        if self.mask is None:
            return self.with_mask(cond)
        return self.with_mask(self.mask & cond)

    def extend(self, sets) -> "ExecContext":
        """This context widened by one grid axis per index set: each set's
        element bound to its axis, the mask broadcast along the new axes
        (pure: a construct's entry charge is :func:`statements.enter_grid`'s)."""
        grid = self.grid.extend(sets)
        env = self.env.child()
        for axis, isv in enumerate(sets, self.grid.rank):
            env.declare(isv.elem_name, ElementBinding(isv.elem_name, isv.name, "axis", axis=axis))
        mask = self.mask
        if mask is not None:
            mask = broadcast(mask.reshape(mask.shape + (1,) * len(sets)), grid.shape)
        return ExecContext(grid, mask, env)


# ---------------------------------------------------------------------------
# cost helpers
# ---------------------------------------------------------------------------


def charge_grid_op(ip, ctx: ExecContext, count: int = 1) -> None:
    """One elementwise operation: host op in scalar context, ALU on the grid."""
    if ctx.grid.is_host:
        ip.machine.clock.charge("host", count=count)
    else:
        vps = ip.grid_vpset(ctx.grid.shape)
        ip.machine.clock.charge("alu", count=count, vp_ratio=vps.vp_ratio)


def charge_ref(
    ip,
    ctx: ExecContext,
    rc: RefClass,
    *,
    write: bool,
    node: Optional[ast.Index] = None,
    layout=None,
) -> str:
    """Dispatch one classified array reference to its communication tier,
    charge the machine for that tier, and return the tier chosen.

    The tier decision (:func:`repro.interp.commtiers.decide_tier`)
    includes the NEWS/router trade-off the CM-2 compilers made for
    long-distance shifts and the permutation tier for transposes under an
    active ``permute`` map.  With the dispatcher off
    (``config.comm_tiers``), every remote reference is a router
    cycle — the pre-tier engine the benchmarks compare against.
    """
    tier = commtiers.decide_tier(
        rc, ip.machine.clock.costs, write=write, enabled=ip.config.comm_tiers
    )
    commtiers.charge_tier(ip, ctx, tier, rc, write=write, layout=layout)
    if node is not None and ip.tier_log is not None:
        ip.tier_log.setdefault((node.line, node.base), set()).add(tier)
    return tier


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------


def eval_expr(ip, expr: ast.Expr, ctx: ExecContext) -> Value:
    """Evaluate ``expr`` under ``ctx``; scalars stay scalars, parallel
    values are arrays shaped like the grid.

    When the interpreter's CSE cache is armed (§4's "common
    sub-expression detection": one statement's predicate and body reuse
    each other's subexpressions), pure parallel subexpressions are
    computed — and charged — once.
    """
    if ip.cse_cache is not None and isinstance(expr, _CSE_NODES) and not ctx.grid.is_host:
        cached = _cse_lookup(ip, expr, ctx)
        if cached is not _CSE_MISS:
            return cached
        value = _eval_uncached(ip, expr, ctx)
        _cse_store(ip, expr, ctx, value)
        return value
    return _eval_uncached(ip, expr, ctx)


_CSE_MISS = object()

#: the node kinds the CSE cache can serve (pure ones only)
_CSE_NODES = (ast.Binary, ast.Index, ast.Unary, ast.Ternary)


def cse_key(frontend, expr: ast.Expr) -> Optional[str]:
    """The text under which the CSE cache serves ``expr``, or None: the
    one eligibility rule of the oracle's cache, the fused kernels' CSE
    simulation and the frontier's charge recording.  Keys are a fact
    about the program text, built once per frontend entry together with
    the names each key reads (``frontend.cse_text_names``), which lets
    ``cse_invalidate(name)`` drop only entries that can observe a write."""
    if not isinstance(expr, _CSE_NODES):
        return None
    key = frontend.cse_keys.get(id(expr))
    if key is None:
        key = ""
        reads = set()
        for node in ast.walk(expr):
            if isinstance(node, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction)):
                break
            if isinstance(node, ast.Name):
                reads.add(node.ident)
            elif isinstance(node, ast.Index):
                reads.add(node.base)
        else:
            key = ast.expr_to_text(expr)
            frontend.cse_text_names[key] = frozenset(reads)
        frontend.cse_keys[id(expr)] = key
    return key or None


def _cse_lookup(ip, expr: ast.Expr, ctx: ExecContext):
    key = cse_key(ip.frontend, expr)
    if key is None:
        return _CSE_MISS
    hit = ip.cse_cache.get((key, ctx.grid.shape))
    if hit is None:
        return _CSE_MISS
    value, computed_mask = hit
    current = ctx.active_mask()
    # safe to reuse only where the cached evaluation was active
    if computed_mask is None or bool(np.all(computed_mask[current])):
        return value
    return _CSE_MISS


def _cse_store(ip, expr: ast.Expr, ctx: ExecContext, value: Value) -> None:
    key = cse_key(ip.frontend, expr)
    if key is None:
        return
    mask = ctx.mask.copy() if ctx.mask is not None else None
    ip.cse_cache[(key, ctx.grid.shape)] = (value, mask)


def _eval_uncached(ip, expr: ast.Expr, ctx: ExecContext) -> Value:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.InfLit):
        return INF
    if isinstance(expr, ast.Name):
        return _eval_name(ip, expr, ctx)
    if isinstance(expr, ast.Index):
        return eval_gather(ip, expr, ctx)
    if isinstance(expr, ast.Unary):
        return _eval_unary(ip, expr, ctx)
    if isinstance(expr, ast.Binary):
        return _eval_binary(ip, expr, ctx)
    if isinstance(expr, ast.Ternary):
        return _eval_ternary(ip, expr, ctx)
    if isinstance(expr, ast.Call):
        return ip.call_function(expr, ctx)
    if isinstance(expr, ast.Reduction):
        return eval_reduction(ip, expr, ctx)
    if isinstance(expr, ast.Assign):
        return eval_assign(ip, expr, ctx)
    # an IncDec: semantics._check_expr admits no other expression
    one = ast.IntLit(line=expr.line, col=expr.col, value=1)
    op = "+" if expr.op == "++" else "-"
    return eval_assign(
        ip,
        ast.Assign(line=expr.line, col=expr.col, target=expr.target, op=op, value=one),
        ctx,
    )


def _eval_name(ip, expr: ast.Name, ctx: ExecContext) -> Value:
    binding = ctx.env.try_lookup(expr.ident)  # semantics resolved every name
    if isinstance(binding, ElementBinding):
        if binding.kind == "scalar":
            return binding.value
        return ctx.grid.axis_values(binding.axis)
    if isinstance(binding, ScalarVar):
        return binding.value
    if isinstance(binding, ParallelLocal):
        return ctx.grid.broadcast_from(binding.data, binding.grid_rank)
    if isinstance(binding, (ArrayVar, SliceParam)):
        raise UCRuntimeError(
            f"array {expr.ident!r} used without subscripts", expr.line, expr.col
        )
    if isinstance(binding, (int, float)):
        return binding
    raise UCRuntimeError(
        f"{expr.ident!r} cannot be used as a value here", expr.line, expr.col
    )


def _eval_unary(ip, expr: ast.Unary, ctx: ExecContext) -> Value:
    v = eval_expr(ip, expr.operand, ctx)
    charge_grid_op(ip, ctx)
    return apply_unary(expr.op, v, expr)


def _power2(node: ast.Call, x: Value) -> Value:
    # the exponent clamps to 0..62: the result stays a positive int64; a
    # float exponent converts to the C ``int`` first, truncating
    if isinstance(x, np.ndarray):
        return np.left_shift(1, _cast_array(np.clip(x, 0, 62), np.dtype(np.int64)))
    return 1 << min(62, max(0, coerce_scalar("int", x, node)))


def _abs(node: ast.Call, x: Value) -> Value:
    if isinstance(x, np.ndarray):
        return np.abs(x)
    # int64 wraps |INT64_MIN| to INT64_MIN, as np.abs does on arrays
    return x if isinstance(x, (int, np.integer)) and x == INT64_MIN else abs(x)


def _fabs(node: ast.Call, x: Value) -> Value:
    return np.abs(x) if isinstance(x, np.ndarray) else abs(float(x))


def _sqrt(node: ast.Call, x: Value) -> Value:
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0).astype(np.float64))
    if x < 0:
        raise UCRuntimeError("sqrt of a negative value", node.line, node.col)
    return float(x) ** 0.5


def _min(node: ast.Call, a: Value, b: Value) -> Value:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _max(node: ast.Call, a: Value, b: Value) -> Value:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


#: C semantics of each pure builtin of ``lang.semantics.BUILTINS``, on
#: scalars or arrays (scalars stay scalars): ``fn(call node, *args)``.
#: The oracle and the frontier lane programs both call these.
BUILTIN_VALUES = {
    "power2": _power2,
    "abs": _abs,
    "ABS": _abs,
    "fabs": _fabs,
    "sqrt": _sqrt,
    "min": _min,
    "max": _max,
}


def _eval_binary(ip, expr: ast.Binary, ctx: ExecContext) -> Value:
    if expr.op in ("&&", "||"):
        return _eval_shortcircuit(ip, expr, ctx)
    a = eval_expr(ip, expr.left, ctx)
    b = eval_expr(ip, expr.right, ctx)
    charge_grid_op(ip, ctx)
    return apply_binop(expr.op, a, b, expr)


def _eval_shortcircuit(ip, expr: ast.Binary, ctx: ExecContext) -> Value:
    left = eval_expr(ip, expr.left, ctx)
    charge_grid_op(ip, ctx)
    if not isinstance(left, np.ndarray):
        # scalar left side: C short-circuit semantics
        if expr.op == "&&" and not left:
            return 0
        if expr.op == "||" and left:
            return 1
        right = truthy(eval_expr(ip, expr.right, ctx))
        if isinstance(right, np.ndarray):
            return right.astype(np.int64)
        return int(right)
    lbool = broadcast(np.asarray(truthy(left)), ctx.grid.shape)
    # evaluate the right side only where the left side leaves it live
    live = lbool if expr.op == "&&" else ~lbool
    sub = ctx.refine(live)
    right = eval_expr(ip, expr.right, sub)
    rbool = broadcast(np.asarray(truthy(right)), ctx.grid.shape)
    if expr.op == "&&":
        return (lbool & rbool).astype(np.int64)
    return (lbool | rbool).astype(np.int64)


def _eval_ternary(ip, expr: ast.Ternary, ctx: ExecContext) -> Value:
    cond = eval_expr(ip, expr.cond, ctx)
    if ctx.grid.is_host or not isinstance(cond, np.ndarray):
        charge_grid_op(ip, ctx)
        return eval_expr(ip, expr.then, ctx) if cond else eval_expr(ip, expr.els, ctx)
    cbool = broadcast(np.asarray(truthy(cond)), ctx.grid.shape)
    then_v = eval_expr(ip, expr.then, ctx.refine(cbool))
    else_v = eval_expr(ip, expr.els, ctx.refine(~cbool))
    charge_grid_op(ip, ctx, count=2)  # the select
    return np.where(cbool, then_v, else_v)


# ---------------------------------------------------------------------------
# array references
# ---------------------------------------------------------------------------


def _resolve_array(ip, node: ast.Index, ctx: ExecContext) -> Tuple[ArrayVar, Tuple[int, ...], np.ndarray]:
    """Resolve the base name, returning (array, fixed-prefix, data view)."""
    binding = ctx.env.try_lookup(node.base)
    if isinstance(binding, SliceParam):
        return binding.array, binding.prefix, binding.view()
    return binding, (), binding.data  # an ArrayVar: semantics requires an array here


def _eval_subscripts(ip, node: ast.Index, ctx: ExecContext) -> List[Value]:
    return [eval_expr(ip, s, ctx) for s in node.subs]


def _bounds_check(
    node: ast.Index,
    subs: Sequence[Value],
    shape: Tuple[int, ...],
    mask: np.ndarray,
) -> None:
    """Raise if any *active* lane indexes out of bounds (a scalar
    subscript is checked whatever the mask)."""
    for a, s in enumerate(subs):
        extent = shape[a]
        if isinstance(s, np.ndarray):
            bad = ((s < 0) | (s >= extent)) & mask
            if np.any(bad):
                out_of_range(a, node, extent, bad, s)
        elif not 0 <= int(s) < extent:
            out_of_range(a, node, extent, True, int(s))


def out_of_range(a: int, node: ast.Index, extent: int, bad, raw) -> None:
    """Raise the bounds error of subscript ``a`` of ``node``, quoting the
    unclipped value ``raw`` holds at the first set lane of ``bad``: the
    one bounds error every engine raises."""
    value = int(broadcast(raw, np.shape(bad))[bad][0])
    raise UCRuntimeError(
        f"subscript {a} of {node.base!r} out of range (value {value}, extent {extent})",
        node.line,
        node.col,
    )


def eval_gather(ip, node: ast.Index, ctx: ExecContext) -> Value:
    """Evaluate an array read, charging the classified communication cost."""
    arr, prefix, data = _resolve_array(ip, node, ctx)
    view_shape = data.shape
    if len(node.subs) != len(view_shape):
        raise UCRuntimeError(
            f"array {node.base!r} needs {len(view_shape)} subscripts, got "
            f"{len(node.subs)}",
            node.line,
            node.col,
        )
    subs = _eval_subscripts(ip, node, ctx)

    if ctx.grid.is_host:
        idx = tuple(int(s) for s in subs)
        _bounds_check(node, subs, view_shape, np.ones((), bool))
        ip.machine.clock.charge("host_cm_latency")
        return data[idx].item()

    mask = ctx.active_mask()
    _bounds_check(node, subs, view_shape, mask)
    rc = classify_reference(
        subs,
        ctx.grid.shape,
        ctx.grid.axis_elems,
        arr.layout,
        positions=ctx.grid.positions,
    )
    tier = charge_ref(ip, ctx, rc, write=False, node=node, layout=arr.layout)
    return gather_values(data, subs, ctx.grid.shape, rc, tier)


def gather_values(data, subs, grid_shape, rc=None, tier=None) -> np.ndarray:
    """The values of a parallel read of ``data`` at realised ``subs``:
    the clipped gather, or — for a ``news``-tier reference whose
    classification ``rc`` has a window recipe — the vectorised NEWS shift,
    bit-identical to it but without grid-shaped index arrays."""
    if tier == "news":
        shifts = commtiers.shift_descriptor(rc, data.shape, grid_shape)
        if shifts is not None:
            return commtiers.run_shifts(data, shifts)
    idx_arrays = []
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            clipped = np.clip(s, 0, data.shape[a] - 1)
        else:
            clipped = np.full(grid_shape, int(s), dtype=np.int64)
        idx_arrays.append(broadcast(clipped, grid_shape))
    return data[tuple(idx_arrays)]


def eval_scatter(
    ip,
    node: ast.Index,
    value: Value,
    ctx: ExecContext,
) -> None:
    """Execute an array write under the mask, enforcing single assignment."""
    arr, prefix, data = _resolve_array(ip, node, ctx)
    view_shape = data.shape
    if len(node.subs) != len(view_shape):
        raise UCRuntimeError(
            f"array {node.base!r} needs {len(view_shape)} subscripts, got "
            f"{len(node.subs)}",
            node.line,
            node.col,
        )
    subs = _eval_subscripts(ip, node, ctx)

    if ctx.grid.is_host:
        idx = tuple(int(s) for s in subs)
        _bounds_check(node, subs, view_shape, np.ones((), bool))
        ip.machine.clock.charge("host_cm_latency")
        data[idx] = _coerce_to_dtype(value, data.dtype)
        ip.cse_invalidate(node.base)
        return

    mask = ctx.active_mask()
    if not np.any(mask):
        return
    _bounds_check(node, subs, view_shape, mask)
    rc = classify_write(
        subs,
        ctx.grid.shape,
        ctx.grid.axis_elems,
        arr.layout,
        positions=ctx.grid.positions,
    )
    charge_ref(ip, ctx, rc, write=True, node=node, layout=arr.layout)

    idx_arrays = []
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            clipped = np.clip(s, 0, view_shape[a] - 1)
        else:
            clipped = np.full(ctx.grid.shape, int(s), dtype=np.int64)
        idx_arrays.append(broadcast(clipped, ctx.grid.shape).reshape(-1))

    flat_mask = mask.reshape(-1)
    flat_idx = np.ravel_multi_index(
        tuple(ia[flat_mask] for ia in idx_arrays), view_shape
    )
    if isinstance(value, np.ndarray):
        vals = broadcast(value, ctx.grid.shape).reshape(-1)[flat_mask]
    else:
        vals = np.full(int(flat_mask.sum()), value)
    vals = _cast_array(vals, data.dtype)

    _check_single_assignment(
        node,
        flat_idx,
        vals,
        grid_shape=ctx.grid.shape,
        flat_mask=flat_mask,
        view_shape=view_shape,
        construct=getattr(ip, "current_construct", None),
    )
    if getattr(ip, "sanitizer", None) is not None:
        ip.sanitizer.record_write(node, has_duplicates(flat_idx))
    data.reshape(-1)[flat_idx] = vals
    ip.cse_invalidate(node.base)


def _check_single_assignment(
    node: ast.Index,
    flat_idx: np.ndarray,
    vals: np.ndarray,
    *,
    grid_shape,
    flat_mask,
    view_shape,
    construct,
) -> None:
    """The paper's §3.4 rule: colliding writes must carry identical values.

    The keywords only enrich the error message: ``view_shape`` names the
    written element by its multi-index, ``grid_shape`` + ``flat_mask``
    recover the two colliding VP coordinates, and ``construct`` points
    back at the enclosing ``par``.
    """
    if flat_idx.size < 2:
        return
    order = np.argsort(flat_idx, kind="stable")
    si = flat_idx[order]
    sv = vals[order]
    bad = (si[1:] == si[:-1]) & (sv[1:] != sv[:-1])
    if not np.any(bad):
        return
    j = int(np.flatnonzero(bad)[0])
    elem = "".join(f"[{int(c)}]" for c in np.unravel_index(int(si[j + 1]), view_shape))
    active = np.flatnonzero(flat_mask)
    vp_a = np.unravel_index(int(active[order[j]]), grid_shape)
    vp_b = np.unravel_index(int(active[order[j + 1]]), grid_shape)
    detail = (
        f"values {sv[j].item()!r} and {sv[j + 1].item()!r} from VPs "
        f"{tuple(int(c) for c in vp_a)} and {tuple(int(c) for c in vp_b)}"
    )
    at = ""
    if construct is not None and getattr(construct, "line", 0):
        at = f" in the '{construct.kind}' at line {construct.line}"
    raise UCMultipleAssignmentError(
        f"[UC101] par assigns multiple distinct values to {node.base!r} "
        f"(element {node.base}{elem}: {detail}){at}; make the non-determinism explicit "
        "with the $, operator (paper §3.4)",
        node.line,
        node.col,
    )


def _coerce_to_dtype(value: Value, dtype: np.dtype):
    if np.issubdtype(dtype, np.integer):
        return int(value)
    return float(value)


def _cast_array(vals: np.ndarray, dtype: np.dtype) -> np.ndarray:
    if dtype.kind in "iu" and vals.dtype.kind == "f":
        return np.trunc(vals).astype(dtype)
    return vals.astype(dtype)


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def eval_assign(ip, node: ast.Assign, ctx: ExecContext) -> Value:
    value = eval_expr(ip, node.value, ctx)
    if node.op:
        current = eval_expr(ip, node.target, ctx)
        charge_grid_op(ip, ctx)
        value = apply_binop(node.op, current, value, node)

    target = node.target
    if isinstance(target, ast.Index):
        eval_scatter(ip, target, value, ctx)
        return value
    # a scalar or a parallel local: semantics._check_target admits no other
    binding = ctx.env.try_lookup(target.ident)
    if isinstance(binding, ScalarVar):
        _assign_scalar(ip, binding, value, ctx, node)
    else:
        _assign_parallel_local(ip, binding, value, ctx, node)
    return value


def _assign_scalar(ip, var: ScalarVar, value: Value, ctx: ExecContext, node: ast.Assign) -> None:
    if not isinstance(value, np.ndarray):  # every host expression is a scalar
        ip.machine.clock.charge("host")
        var.value = coerce_scalar(var.ctype, value, node)
        ip.cse_invalidate(var.name)
        return
    # parallel write to a front-end scalar: all enabled lanes must agree
    mask = ctx.active_mask()
    vals = broadcast(value, ctx.grid.shape)[mask]
    if vals.size == 0:
        return
    if np.any(vals != vals.reshape(-1)[0]):
        flat = vals.reshape(-1)
        other = flat[flat != flat[0]][0]
        raise UCMultipleAssignmentError(
            f"[UC101] par assigns multiple distinct values to scalar "
            f"{var.name!r} (values {flat[0].item()!r} and {other.item()!r}); "
            "reduce the grid value first ($+, $min, ...) or make the choice "
            "explicit with the $, operator (paper §3.4)",
            node.line,
            node.col,
        )
    ip.machine.clock.charge("host_cm_latency")
    var.value = coerce_scalar(var.ctype, vals.reshape(-1)[0], node)
    ip.cse_invalidate(var.name)


def _assign_parallel_local(
    ip, var: ParallelLocal, value: Value, ctx: ExecContext, node: ast.Assign
) -> None:
    charge_grid_op(ip, ctx)  # a local is only in scope on its grid or a nested one
    mask = ctx.active_mask()
    if ctx.grid.rank == var.grid_rank:
        arr = broadcast(value, ctx.grid.shape)
        var.data[mask] = _cast_array(np.asarray(arr)[mask], var.data.dtype)
        ip.cse_invalidate(var.name)
        return
    # assignment from an extended grid: values must agree along the extra axes
    extra = tuple(range(var.grid_rank, ctx.grid.rank))
    arr = broadcast(value, ctx.grid.shape)
    any_mask = mask.any(axis=extra)
    mn = np.where(mask, arr, np.asarray(np.inf)).min(axis=extra)
    mx = np.where(mask, arr, np.asarray(-np.inf)).max(axis=extra)
    if np.any(any_mask & (mn != mx)):
        raise UCMultipleAssignmentError(
            f"[UC101] par assigns multiple distinct values to {var.name!r} "
            "(the extended axes disagree); make the non-determinism "
            "explicit with the $, operator (paper §3.4)",
            node.line,
            node.col,
        )
    var.data[any_mask] = _cast_array(mn[any_mask], var.data.dtype)
    ip.cse_invalidate(var.name)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def eval_reduction(ip, node: ast.Reduction, ctx: ExecContext) -> Value:
    """Evaluate a reduction (§3.2), returning a parent-shaped value."""
    from .sendreduce import try_send_reduce  # local: avoids an import cycle

    optimized = try_send_reduce(ip, node, ctx)
    if optimized is not None:
        return optimized
    sets = [ip.resolve_index_set(name, ctx, at=node) for name in node.index_sets]
    inner = ctx.extend(sets)
    inner_grid = inner.grid
    base_mask = inner.active_mask()
    inner = inner.with_mask(base_mask)

    reduce_axes = tuple(range(ctx.grid.rank, inner_grid.rank))
    reduce_extent = int(np.prod([len(s) for s in sets]))
    vps = ip.grid_vpset(inner_grid.shape)
    ip.machine.clock.charge_scan(reduce_extent, vp_ratio=vps.vp_ratio)
    if node.op != "arbitrary":
        # shard accounting consults the UC5xx verdict: UC501-proven sites
        # pre-combine per shard, unproven sites ship ordered partials
        ip.machine.clock.note_shard_reduce(
            node.op,
            ip.reduction_order_safe(node),
            reduce_extent,
            vps.vp_ratio,
            inner_grid.shape,
        )
    if ctx.grid.is_host:
        ip.machine.clock.charge("host_cm_latency")

    arm_values: List[np.ndarray] = []
    arm_masks: List[np.ndarray] = []
    pred_union: Optional[np.ndarray] = None
    for arm in node.arms:
        if arm.pred is None:
            arm_mask = base_mask
        else:
            pred_v = eval_expr(ip, arm.pred, inner)
            pv = broadcast(np.asarray(truthy(pred_v)), inner_grid.shape)
            arm_mask = base_mask & pv
            pred_union = pv if pred_union is None else (pred_union | pv)
        val = eval_expr(ip, arm.expr, inner.with_mask(arm_mask))
        arm_values.append(broadcast(np.asarray(val), inner_grid.shape))
        arm_masks.append(arm_mask)
    if node.others is not None:
        others_mask = base_mask & (
            ~pred_union if pred_union is not None else np.zeros(inner_grid.shape, bool)
        )
        val = eval_expr(ip, node.others, inner.with_mask(others_mask))
        arm_values.append(broadcast(np.asarray(val), inner_grid.shape))
        arm_masks.append(others_mask)

    if node.op == "arbitrary":
        result = _reduce_arbitrary(ip, arm_values, arm_masks, reduce_axes, ctx)
    else:
        result = _reduce_op(node.op, arm_values, arm_masks, reduce_axes)
        if getattr(ip, "sanitizer", None) is not None:
            ip.sanitizer.check_reduction(
                node, arm_values, arm_masks, reduce_axes, result
            )

    if ctx.grid.is_host:
        return result.item() if isinstance(result, np.ndarray) and result.ndim == 0 else result
    return result


def _result_dtype(op: str, arm_values: List[np.ndarray]) -> np.dtype:
    if op in ("logand", "logor", "logxor"):
        return np.dtype(np.int64)
    if any(v.dtype.kind == "f" for v in arm_values):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def _reduce_op(
    op: str,
    arm_values: List[np.ndarray],
    arm_masks: List[np.ndarray],
    axes: Tuple[int, ...],
):
    ufunc = _RED_UFUNC[op]
    ident = identity_of(op)
    dtype = _result_dtype(op, arm_values)
    total = None
    for val, mask in zip(arm_values, arm_masks):
        if op in ("logand", "logor", "logxor"):
            v = val.astype(bool)
            filled = np.where(mask, v, np.asarray(bool(ident)))
        else:
            v = val.astype(dtype) if val.dtype != dtype else val
            filled = np.where(mask, v, np.asarray(ident, dtype=dtype))
        part = ufunc.reduce(filled, axis=axes) if axes else filled
        total = part if total is None else ufunc(total, part)
    assert total is not None
    if op in ("logand", "logor", "logxor"):
        total = np.asarray(total).astype(np.int64)
    else:
        total = np.asarray(total).astype(dtype)
    # lanes with no enabled operand anywhere keep the identity (already do)
    return total


def _reduce_arbitrary(
    ip,
    arm_values: List[np.ndarray],
    arm_masks: List[np.ndarray],
    axes: Tuple[int, ...],
    ctx: ExecContext,
):
    """The ``$,`` operator: pick any one enabled operand per parent lane."""
    stacked_v = np.stack(arm_values, axis=0).astype(np.float64)
    stacked_m = np.stack(arm_masks, axis=0)
    keys = ip.rng.random(stacked_v.shape)
    keys = np.where(stacked_m, keys, -1.0)
    # collapse the arm axis plus the reduction axes
    coll = (0,) + tuple(a + 1 for a in axes)
    moved = np.moveaxis(keys, coll, range(len(coll)))
    flatk = moved.reshape(int(np.prod(moved.shape[: len(coll)])), -1)
    movev = np.moveaxis(stacked_v, coll, range(len(coll)))
    flatv = movev.reshape(flatk.shape)
    movem = np.moveaxis(stacked_m, coll, range(len(coll)))
    flatm = movem.reshape(flatk.shape)
    pick = np.argmax(flatk, axis=0)
    chosen = flatv[pick, np.arange(flatv.shape[1])]
    any_enabled = flatm.any(axis=0)
    out = np.where(any_enabled, chosen, identity_of("arbitrary"))
    parent_shape = tuple(
        s for d, s in enumerate(stacked_v.shape[1:]) if d not in axes
    )
    out = out.reshape(parent_shape)
    if np.all(out == np.trunc(out)):
        out = out.astype(np.int64)
    return out

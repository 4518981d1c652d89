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
        cond = np.asarray(cond, dtype=bool)
        if cond.shape != self.grid.shape:
            cond = np.broadcast_to(cond, self.grid.shape)
        if self.mask is None:
            return self.with_mask(cond)
        return self.with_mask(self.mask & cond)


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
    if (
        ip.cse_cache is not None
        and isinstance(expr, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))
        and not ctx.grid.is_host
    ):
        cached = _cse_lookup(ip, expr, ctx)
        if cached is not _CSE_MISS:
            return cached
        value = _eval_uncached(ip, expr, ctx)
        _cse_store(ip, expr, ctx, value)
        return value
    return _eval_uncached(ip, expr, ctx)


_CSE_MISS = object()


def _cse_key(ip, expr: ast.Expr) -> Optional[str]:
    """Structural key for a pure expression; None if uncacheable."""
    key = ip.cse_keys.get(id(expr))
    if key is not None:
        return key or None
    pure = True
    reads = set()
    for node in ast.walk(expr):
        if isinstance(node, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction)):
            pure = False
            break
        if isinstance(node, ast.Name):
            reads.add(node.ident)
        elif isinstance(node, ast.Index):
            reads.add(node.base)
    if not pure:
        ip.cse_keys[id(expr)] = ""
        return None
    from ..compiler.cstar_gen import expr_to_text

    text = expr_to_text(expr)
    ip.cse_keys[id(expr)] = text
    # the read-set lets cse_invalidate(name) drop only entries that can
    # observe a write to `name`
    ip.cse_text_names[text] = frozenset(reads)
    return text


def _cse_lookup(ip, expr: ast.Expr, ctx: ExecContext):
    key = _cse_key(ip, expr)
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
    key = _cse_key(ip, expr)
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
    if isinstance(expr, ast.StringLit):
        return expr.value  # type: ignore[return-value]  (printf only)
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
    if isinstance(expr, ast.IncDec):
        one = ast.IntLit(line=expr.line, col=expr.col, value=1)
        op = "+" if expr.op == "++" else "-"
        return eval_assign(
            ip,
            ast.Assign(line=expr.line, col=expr.col, target=expr.target, op=op, value=one),
            ctx,
        )
    raise UCRuntimeError(
        f"cannot evaluate {type(expr).__name__}", expr.line, expr.col
    )


def _eval_name(ip, expr: ast.Name, ctx: ExecContext) -> Value:
    binding = ctx.env.try_lookup(expr.ident)
    if binding is None:
        raise UCRuntimeError(
            f"undefined identifier {expr.ident!r} at run time", expr.line, expr.col
        )
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


def _truthy(v: Value) -> Value:
    if isinstance(v, np.ndarray):
        return v.astype(bool)
    return bool(v)


def _eval_unary(ip, expr: ast.Unary, ctx: ExecContext) -> Value:
    v = eval_expr(ip, expr.operand, ctx)
    charge_grid_op(ip, ctx)
    if expr.op == "-":
        return -v
    if expr.op == "!":
        if isinstance(v, np.ndarray):
            return np.logical_not(v.astype(bool)).astype(np.int64)
        return int(not v)
    if expr.op == "~":
        if isinstance(v, np.ndarray):
            return np.invert(v.astype(np.int64))
        return ~int(v)
    raise UCRuntimeError(f"bad unary {expr.op!r}", expr.line, expr.col)


_SIMPLE_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def apply_binop(op: str, a: Value, b: Value, node: ast.Node) -> Value:
    """C semantics for one binary operator on scalars or arrays."""
    arrayish = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    if op in _SIMPLE_BINOPS:
        out = _SIMPLE_BINOPS[op](a, b)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return out.astype(np.int64) if isinstance(out, np.ndarray) else int(out)
        return out
    if op == "/":
        return _c_divide(a, b, node, arrayish)
    if op == "%":
        return _c_mod(a, b, node, arrayish)
    if op == "&&":
        out = np.logical_and(_truthy(a), _truthy(b))
        return out.astype(np.int64) if isinstance(out, np.ndarray) else int(out)
    if op == "||":
        out = np.logical_or(_truthy(a), _truthy(b))
        return out.astype(np.int64) if isinstance(out, np.ndarray) else int(out)
    raise UCRuntimeError(f"bad binary operator {op!r}", node.line, node.col)


def _is_int_like(v: Value) -> bool:
    if isinstance(v, np.ndarray):
        return np.issubdtype(v.dtype, np.integer) or v.dtype == bool
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) or isinstance(v, bool)


def _c_divide(a: Value, b: Value, node: ast.Node, arrayish: bool) -> Value:
    if _is_int_like(a) and _is_int_like(b):
        if arrayish:
            bb = np.asarray(b)
            safe = np.where(bb == 0, 1, bb)
            with np.errstate(divide="ignore"):
                q = np.floor_divide(a, safe)
                r = np.remainder(a, safe)
            adjust = (r != 0) & ((np.asarray(a) < 0) != (bb < 0))
            return q + adjust
        if b == 0:
            raise UCRuntimeError("integer division by zero", node.line, node.col)
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(a, b) if arrayish else float(a) / float(b)


def _c_mod(a: Value, b: Value, node: ast.Node, arrayish: bool) -> Value:
    if arrayish:
        bb = np.asarray(b)
        safe = np.where(bb == 0, 1, bb)
        r = np.remainder(a, safe)
        adjust = (r != 0) & ((np.asarray(a) < 0) != (bb < 0))
        return r - adjust * safe
    if b == 0:
        raise UCRuntimeError("integer mod by zero", node.line, node.col)
    q = _c_divide(a, b, node, False)
    return a - q * b


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
        right = _truthy(eval_expr(ip, expr.right, ctx))
        if isinstance(right, np.ndarray):
            return right.astype(np.int64)
        return int(right)
    lbool = np.broadcast_to(np.asarray(_truthy(left)), ctx.grid.shape)
    # evaluate the right side only where the left side leaves it live
    live = lbool if expr.op == "&&" else ~lbool
    sub = ctx.refine(live)
    right = eval_expr(ip, expr.right, sub)
    rbool = np.broadcast_to(np.asarray(_truthy(right)), ctx.grid.shape)
    if expr.op == "&&":
        return (lbool & rbool).astype(np.int64)
    return (lbool | rbool).astype(np.int64)


def _eval_ternary(ip, expr: ast.Ternary, ctx: ExecContext) -> Value:
    cond = eval_expr(ip, expr.cond, ctx)
    if ctx.grid.is_host or not isinstance(cond, np.ndarray):
        charge_grid_op(ip, ctx)
        return eval_expr(ip, expr.then, ctx) if cond else eval_expr(ip, expr.els, ctx)
    cbool = np.broadcast_to(np.asarray(_truthy(cond)), ctx.grid.shape)
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
    if binding is None:
        raise UCRuntimeError(
            f"undefined identifier {node.base!r} at run time", node.line, node.col
        )
    if isinstance(binding, ArrayVar):
        return binding, (), binding.data
    if isinstance(binding, SliceParam):
        return binding.array, binding.prefix, binding.view()
    if isinstance(binding, ParallelLocal):
        raise UCRuntimeError(
            f"parallel local {node.base!r} is a scalar, not an array",
            node.line,
            node.col,
        )
    raise UCRuntimeError(f"{node.base!r} is not an array", node.line, node.col)


def _eval_subscripts(ip, node: ast.Index, ctx: ExecContext) -> List[Value]:
    return [eval_expr(ip, s, ctx) for s in node.subs]


def _bounds_check(
    node: ast.Index,
    subs: Sequence[Value],
    shape: Tuple[int, ...],
    mask: np.ndarray,
) -> None:
    """Raise if any *active* lane indexes out of bounds."""
    for a, s in enumerate(subs):
        extent = shape[a]
        if isinstance(s, np.ndarray):
            bad = ((s < 0) | (s >= extent)) & mask
            if np.any(bad):
                val = int(s[bad][0]) if s[bad].size else -1
                raise UCRuntimeError(
                    f"subscript {a} of {node.base!r} out of range "
                    f"(value {val}, extent {extent})",
                    node.line,
                    node.col,
                )
        else:
            if not 0 <= int(s) < extent:
                raise UCRuntimeError(
                    f"subscript {a} of {node.base!r} out of range "
                    f"(value {int(s)}, extent {extent})",
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

    if tier == "news" and ip.config.comm_tiers:
        shifts = commtiers.shift_descriptor(rc, view_shape, ctx.grid.shape)
        if shifts is not None:
            # vectorised NEWS shift: bit-identical to the clipped gather
            # below, but without materialising grid-shaped index arrays
            return commtiers.run_shifts(data, shifts)

    idx_arrays = []
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            clipped = np.clip(s, 0, view_shape[a] - 1)
        else:
            clipped = np.full(ctx.grid.shape, int(s), dtype=np.int64)
        idx_arrays.append(np.broadcast_to(clipped, ctx.grid.shape))
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
        idx_arrays.append(np.broadcast_to(clipped, ctx.grid.shape).reshape(-1))

    flat_mask = mask.reshape(-1)
    flat_idx = np.ravel_multi_index(
        tuple(ia[flat_mask] for ia in idx_arrays), view_shape
    )
    if isinstance(value, np.ndarray):
        vals = np.broadcast_to(value, ctx.grid.shape).reshape(-1)[flat_mask]
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
    grid_shape=None,
    flat_mask=None,
    view_shape=None,
    construct=None,
) -> None:
    """The paper's §3.4 rule: colliding writes must carry identical values.

    The optional keywords only enrich the error message: ``view_shape``
    names the written element by its multi-index, ``grid_shape`` +
    ``flat_mask`` recover the two colliding VP coordinates, and
    ``construct`` points back at the enclosing ``par``.
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
    where = int(si[j + 1])
    if view_shape is not None:
        elem = "".join(
            f"[{int(c)}]" for c in np.unravel_index(where, view_shape)
        )
        place = f"element {node.base}{elem}"
    else:
        place = f"flat element {where}"
    detail = f"values {sv[j].item()!r} and {sv[j + 1].item()!r}"
    if grid_shape is not None and flat_mask is not None:
        active = np.flatnonzero(flat_mask)
        vp_a = np.unravel_index(int(active[order[j]]), grid_shape)
        vp_b = np.unravel_index(int(active[order[j + 1]]), grid_shape)
        detail += (
            f" from VPs {tuple(int(c) for c in vp_a)} and "
            f"{tuple(int(c) for c in vp_b)}"
        )
    at = ""
    if construct is not None and getattr(construct, "line", 0):
        at = f" in the '{construct.kind}' at line {construct.line}"
    raise UCMultipleAssignmentError(
        f"[UC101] par assigns multiple distinct values to {node.base!r} "
        f"({place}: {detail}){at}; make the non-determinism explicit "
        "with the $, operator (paper §3.4)",
        node.line,
        node.col,
    )


def _coerce_to_dtype(value: Value, dtype: np.dtype):
    if np.issubdtype(dtype, np.integer):
        return int(value)
    return float(value)


def _cast_array(vals: np.ndarray, dtype: np.dtype) -> np.ndarray:
    if np.issubdtype(dtype, np.integer) and np.issubdtype(vals.dtype, np.floating):
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
    assert isinstance(target, ast.Name)
    binding = ctx.env.try_lookup(target.ident)
    if binding is None:
        raise UCRuntimeError(
            f"assignment to undefined identifier {target.ident!r}",
            node.line,
            node.col,
        )
    if isinstance(binding, ScalarVar):
        _assign_scalar(ip, binding, value, ctx, node)
        return value
    if isinstance(binding, ParallelLocal):
        _assign_parallel_local(ip, binding, value, ctx, node)
        return value
    if isinstance(binding, ElementBinding):
        raise UCRuntimeError(
            f"cannot assign to index element {target.ident!r}", node.line, node.col
        )
    raise UCRuntimeError(
        f"cannot assign to {target.ident!r}", node.line, node.col
    )


def _assign_scalar(ip, var: ScalarVar, value: Value, ctx: ExecContext, node: ast.Assign) -> None:
    if ctx.grid.is_host or not isinstance(value, np.ndarray):
        if isinstance(value, np.ndarray):
            raise UCRuntimeError(
                f"grid value assigned to scalar {var.name!r} outside a parallel "
                "context",
                node.line,
                node.col,
            )
        ip.machine.clock.charge("host")
        var.value = coerce_scalar(var.ctype, value)
        ip.cse_invalidate(var.name)
        return
    # parallel write to a front-end scalar: all enabled lanes must agree
    mask = ctx.active_mask()
    vals = np.broadcast_to(value, ctx.grid.shape)[mask]
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
    var.value = coerce_scalar(var.ctype, vals.reshape(-1)[0])
    ip.cse_invalidate(var.name)


def _assign_parallel_local(
    ip, var: ParallelLocal, value: Value, ctx: ExecContext, node: ast.Assign
) -> None:
    if ctx.grid.rank < var.grid_rank:
        raise UCRuntimeError(
            f"parallel local {var.name!r} assigned outside its grid",
            node.line,
            node.col,
        )
    charge_grid_op(ip, ctx)
    mask = ctx.active_mask()
    if ctx.grid.rank == var.grid_rank:
        arr = np.broadcast_to(value, ctx.grid.shape)
        var.data[mask] = _cast_array(np.asarray(arr)[mask], var.data.dtype)
        ip.cse_invalidate(var.name)
        return
    # assignment from an extended grid: values must agree along the extra axes
    extra = tuple(range(var.grid_rank, ctx.grid.rank))
    arr = np.broadcast_to(value, ctx.grid.shape)
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
    if ip.config.processor_opt:
        from .sendreduce import try_send_reduce

        optimized = try_send_reduce(ip, node, ctx)
        if optimized is not None:
            return optimized
    sets = [ip.resolve_index_set(name, ctx, at=node) for name in node.index_sets]
    inner_grid = ctx.grid.extend(sets)
    inner_env = ctx.env.child()
    for offset, isv in enumerate(sets):
        axis = ctx.grid.rank + offset
        inner_env.declare(
            isv.elem_name,
            ElementBinding(isv.elem_name, isv.name, "axis", axis=axis),
        )
    parent_mask = ctx.mask
    if parent_mask is not None:
        base_mask = np.broadcast_to(
            parent_mask.reshape(parent_mask.shape + (1,) * len(sets)),
            inner_grid.shape,
        )
    else:
        base_mask = inner_grid.full_mask()
    inner = ExecContext(inner_grid, base_mask, inner_env)

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
            pv = np.broadcast_to(np.asarray(_truthy(pred_v)), inner_grid.shape)
            arm_mask = base_mask & pv
            pred_union = pv if pred_union is None else (pred_union | pv)
        val = eval_expr(ip, arm.expr, inner.with_mask(arm_mask))
        arm_values.append(np.broadcast_to(np.asarray(val), inner_grid.shape))
        arm_masks.append(arm_mask)
    if node.others is not None:
        others_mask = base_mask & (
            ~pred_union if pred_union is not None else np.zeros(inner_grid.shape, bool)
        )
        val = eval_expr(ip, node.others, inner.with_mask(others_mask))
        arm_values.append(np.broadcast_to(np.asarray(val), inner_grid.shape))
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
    if any(np.issubdtype(v.dtype, np.floating) for v in arm_values):
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

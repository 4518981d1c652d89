"""Function calls: builtins and user-defined UC functions.

UC allows C functions (pointers only for passing arrays/slices, §3).  In
a *host* context functions interpret with full control flow.  In a
*parallel* context a call is inlined and vectorised, which restricts the
body to straight-line code (declarations, assignments, one ``return``) —
exactly what the paper's helper functions (``power2``, ``init``) look
like.  ``swap`` is a builtin because its reference semantics (exchanging
two array elements in parallel) cannot be written as a UC value function.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError
from ..lang.semantics import BUILTINS
from .env import Env
from .eval_expr import (
    BUILTIN_VALUES,
    ExecContext,
    Value,
    _cast_array,
    charge_grid_op,
    eval_expr,
    eval_gather,
    eval_scatter,
)
from .statements import ReturnSignal, exec_stmt
from .values import (
    ArrayVar,
    ParallelLocal,
    ScalarVar,
    SliceParam,
    coerce_scalar,
    numpy_ctype,
)

RAND_MAX = 2**31 - 1


def call_function(ip, node: ast.Call, ctx: ExecContext) -> Value:
    name = node.func
    user_func: Optional[ast.FuncDef] = ip.info.functions.get(name)
    if user_func is not None:
        if ctx.grid.is_host:
            return _call_host(ip, user_func, node, ctx)
        return _call_parallel(ip, user_func, node, ctx)
    value = BUILTIN_VALUES.get(name)
    if value is not None:
        args = [eval_expr(ip, a, ctx) for a in node.args]
        charge_grid_op(ip, ctx, count=BUILTINS[name].alu)
        return value(node, *args)
    if name == "rand":
        charge_grid_op(ip, ctx, count=BUILTINS[name].alu)
        if ctx.grid.is_host:
            return int(ip.rng.integers(0, RAND_MAX))
        return ip.rng.integers(0, RAND_MAX, size=ctx.grid.shape)
    if name == "srand":
        seed = eval_expr(ip, node.args[0], ctx)
        ip.reseed(int(seed))
        return 0
    if name == "printf":
        return _builtin_printf(ip, node, ctx)
    return _builtin_swap(ip, node, ctx)  # semantics admits no other callee


# ---------------------------------------------------------------------------
# builtins with statement-like behaviour
# ---------------------------------------------------------------------------


def _builtin_printf(ip, node: ast.Call, ctx: ExecContext) -> Value:
    if not ctx.grid.is_host:
        raise UCRuntimeError("printf is a front-end function", node.line, node.col)
    fmt = node.args[0].value  # a string literal: semantics._check_expr checks it
    args = [eval_expr(ip, a, ctx) for a in node.args[1:]]
    ip.machine.clock.charge("host", count=1 + len(args))
    try:
        text = fmt % tuple(args) if args else fmt
    except (TypeError, ValueError) as exc:
        raise UCRuntimeError(f"printf format error: {exc}", node.line, node.col)
    ip.stdout.append(text)
    return len(text)


def _builtin_swap(ip, node: ast.Call, ctx: ExecContext) -> Value:
    """``swap(x[i], x[j])`` — parallel exchange of two references."""
    lhs, rhs = node.args
    if not isinstance(lhs, ast.Index) or not isinstance(rhs, ast.Index):
        raise UCRuntimeError("swap takes two array references", node.line, node.col)
    a = eval_gather(ip, lhs, ctx)
    b = eval_gather(ip, rhs, ctx)
    eval_scatter(ip, lhs, b, ctx)
    eval_scatter(ip, rhs, a, ctx)
    return 0


# ---------------------------------------------------------------------------
# user functions
# ---------------------------------------------------------------------------


def _bind_argument(ip, param: ast.Param, arg: ast.Expr, ctx: ExecContext) -> Any:
    if param.dims:
        # array (or slice) passed by reference — the only pointer use UC allows
        if isinstance(arg, ast.Name):
            binding = ctx.env.lookup(arg.ident)
            if isinstance(binding, (ArrayVar, SliceParam)):
                return binding
            raise UCRuntimeError(
                f"argument for array parameter {param.name!r} is not an array",
                arg.line,
                arg.col,
            )
        if isinstance(arg, ast.Index):
            binding = ctx.env.lookup(arg.base)  # an array: semantics checked the Index
            if isinstance(binding, SliceParam):
                base, prefix = binding.array, binding.prefix
            else:
                base, prefix = binding, ()
            fixed = tuple(int(_host_value(ip, s, ctx)) for s in arg.subs)
            return SliceParam(base, prefix + fixed)
        raise UCRuntimeError(
            f"argument for array parameter {param.name!r} must be an array "
            "name or slice",
            arg.line,
            arg.col,
        )
    return eval_expr(ip, arg, ctx)


def _host_value(ip, expr: ast.Expr, ctx: ExecContext) -> Value:
    v = eval_expr(ip, expr, ctx)
    if isinstance(v, np.ndarray):
        raise UCRuntimeError("slice subscripts must be scalar", expr.line, expr.col)
    return v


def _call_host(ip, func: ast.FuncDef, node: ast.Call, ctx: ExecContext) -> Value:
    env = Env(ip.global_env)
    for param, arg in zip(func.params, node.args):
        bound = _bind_argument(ip, param, arg, ctx)
        if param.dims:
            env.declare(param.name, bound)
        else:
            value = coerce_scalar(param.ctype, bound, arg)
            env.declare(param.name, ScalarVar(param.name, param.ctype, value))
    ip.machine.clock.charge("host")
    frame = ExecContext(ctx.grid, ctx.mask, env)
    with ip.cse_suspend():  # the frame rebinds parameter names
        try:
            exec_stmt(ip, func.body, frame)
        except ReturnSignal as ret:
            if ret.value is None:
                return 0
            return ret.value
        return 0


def _call_parallel(ip, func: ast.FuncDef, node: ast.Call, ctx: ExecContext) -> Value:
    """Inline a straight-line function body, vectorised over the grid."""
    env = Env(ip.global_env)
    for param, arg in zip(func.params, node.args):
        bound = _bind_argument(ip, param, arg, ctx)
        if param.dims:
            env.declare(param.name, bound)
        else:
            if not isinstance(bound, np.ndarray):  # a uniform argument
                bound = coerce_scalar(param.ctype, bound, arg)
            bound = np.broadcast_to(np.asarray(bound), ctx.grid.shape)
            data = _cast_array(bound, numpy_ctype(param.ctype), arg, live=ctx.active_mask())
            env.declare(
                param.name,
                ParallelLocal(param.name, param.ctype, ctx.grid.rank, data),
            )
    frame = ExecContext(ctx.grid, ctx.mask, env)
    with ip.cse_suspend():  # the frame rebinds parameter names
        result = _run_straightline(ip, func, func.body.stmts, frame, node)
    if result is None:
        return 0
    return result


def _run_straightline(
    ip, func: ast.FuncDef, stmts: List[ast.Stmt], frame: ExecContext, site: ast.Call
) -> Optional[Value]:
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return None
            return eval_expr(ip, stmt.value, frame)
        if isinstance(stmt, (ast.VarDecl, ast.ExprStmt, ast.EmptyStmt)):
            exec_stmt(ip, stmt, frame)
            continue
        if isinstance(stmt, ast.Block):
            result = _run_straightline(ip, func, stmt.stmts, frame.with_env(frame.env.child()), site)
            if result is not None:
                return result
            continue
        raise UCRuntimeError(
            f"function {func.name!r} uses {type(stmt).__name__}, which is not "
            "supported when called from a parallel context (keep parallel "
            "helpers straight-line)",
            site.line,
            site.col,
        )
    return None

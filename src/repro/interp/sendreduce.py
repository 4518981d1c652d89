"""The processor optimization's execution path (paper §4).

For a reduction whose predicate partitions the operands across results —
the paper's digit-count example

    par (J)
        count[j] = $+(I st (samples[i] == j) 1);

— the naive implementation evaluates on the |J|×|I| product grid and
scans; the optimized one runs on the |I| operand grid alone: each operand
VP computes its target address (``samples[i]``) and its contribution, and
one router *send with combining* delivers all results at once.  The VP
requirement drops from ``|J|·|I|`` to ``max(|I|, |J|)`` and every
elementwise instruction is charged at the operand grid's (smaller) VP
ratio.

:func:`try_send_reduce` returns the parent-shaped result when the pattern
applies, or None so the caller falls back to the product-grid evaluation.
Whether it applies is decided in two halves.  :func:`send_reduce_split` is
the static gate: the ``processor_opt`` switch plus the one partition
verdict (:func:`repro.compiler.processor_opt.partition_split`, what
``repro analyze`` reports) in the construct's grid.  The fusion pass
calls it too, so a fused reduction is one the router path can never
take.  :func:`shrinks` is the machine-size test; ``repro analyze`` does
not know the machine, so only a run (or a fused kernel, which is
compiled per machine) applies it.  Beyond both, a partially masked
parent context stays on the product grid.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.processor_opt import partition_split
from ..lang import ast
from ..machine.router import lookup_positions
from ..machine.scan import identity_of
from .values import GridContext

_COMBINE_AT = {
    "add": np.add.at,
    "min": np.minimum.at,
    "max": np.maximum.at,
    "mul": np.multiply.at,
    "logand": np.logical_and.at,
    "logor": np.logical_or.at,
    "logxor": np.logical_xor.at,
}


def send_reduce_split(
    ip, node: ast.Reduction, grid, sets: Sequence
) -> Optional[Tuple[ast.Expr, str, List[ast.Expr]]]:
    """The static gate: the partition split of ``node`` (over the index
    sets ``sets``) evaluated in ``grid``, or None when the router path is
    off or the pattern does not hold."""
    if not ip.config.processor_opt:
        return None
    return partition_split(node, grid.axis_elems, [s.elem_name for s in sets])


def shrinks(ip, grid, sets: Sequence) -> bool:
    """The machine-size test: the operand grid needs fewer VPs per PE than
    the product grid.  A combining send has a higher fixed cost than a
    small scan, so the compiler keeps the naive form while the product
    grid still fits the machine."""
    n_pes = ip.machine.config.n_pes
    operand_vps = math.prod(len(s) for s in sets)
    ratio_naive = max(1, math.ceil(grid.size * operand_vps / n_pes))
    ratio_opt = max(1, math.ceil(max(operand_vps, grid.size) / n_pes))
    return ratio_naive > ratio_opt


def try_send_reduce(ip, node: ast.Reduction, ctx) -> Optional[np.ndarray]:
    """Attempt the optimized path; None if the pattern does not apply."""
    from ..lang.operators import truthy
    from .eval_expr import ExecContext, eval_expr  # local: avoids cycle

    sets = [ip.resolve_index_set(name, ctx, at=node) for name in node.index_sets]
    split = send_reduce_split(ip, node, ctx.grid, sets)
    if split is None:
        return None
    if ctx.mask is not None and not bool(np.all(ctx.mask)):
        return None  # a partial parent context breaks the partition story
    if not shrinks(ip, ctx.grid, sets):
        return None
    address_expr, _par_elem, rest_clauses = split
    arm = node.arms[0]

    # operand grid: the reduction sets alone
    op_ctx = ExecContext(GridContext(), None, ctx.env).extend(sets)
    operand_grid = op_ctx.grid

    # every operand VP computes its destination address and contribution
    addresses = np.broadcast_to(
        np.asarray(eval_expr(ip, address_expr, op_ctx)), operand_grid.shape
    )
    enabled = np.ones(operand_grid.shape, dtype=bool)
    for clause in rest_clauses:
        cv = eval_expr(ip, clause, op_ctx.refine(enabled))
        enabled = enabled & np.broadcast_to(np.asarray(truthy(cv)), operand_grid.shape)
    values = np.broadcast_to(
        np.asarray(eval_expr(ip, arm.expr, op_ctx.with_mask(enabled))),
        operand_grid.shape,
    )

    # one combining send delivers every result
    operand_vps = ip.grid_vpset(operand_grid.shape)
    parent_vps = ip.grid_vpset(ctx.grid.shape)
    ratio = max(operand_vps.vp_ratio, parent_vps.vp_ratio)
    ip.machine.clock.charge("router_send", vp_ratio=ratio)
    ip.machine.clock.count_tier("router")
    # shard accounting consults the site's UC5xx determinism verdict,
    # exactly as the product-grid path does
    ip.machine.clock.note_shard_reduce(
        node.op,
        ip.reduction_order_safe(node),
        operand_grid.size,
        ratio,
        operand_grid.shape,
    )

    parent_values = np.asarray(ctx.grid.axes[0].values)
    ident = identity_of(node.op)
    dtype = np.float64 if values.dtype.kind == "f" else np.int64
    if node.op in ("logand", "logor", "logxor"):
        out = np.full(parent_values.shape, bool(ident), dtype=bool)
        vals = values.astype(bool)
    else:
        out = np.full(parent_values.shape, ident, dtype=dtype)
        vals = values.astype(dtype)

    # map destination addresses to parent-axis positions (drop misses)
    at = lookup_positions(parent_values, addresses.reshape(-1))
    hit = enabled.reshape(-1) & (at >= 0)
    dest = at[hit]
    vals_hit = vals.reshape(-1)[hit]
    _COMBINE_AT[node.op](out, dest, vals_hit)
    if getattr(ip, "sanitizer", None) is not None:
        # order-permutation check: replay the combining send with the
        # (destination, value) pairs jointly permuted
        ip.sanitizer.check_send_reduce(
            node,
            _COMBINE_AT[node.op],
            out.dtype.type(ident) if out.dtype != bool else bool(ident),
            out.dtype,
            dest,
            vals_hit,
            out,
        )
    if node.op in ("logand", "logor", "logxor"):
        out = out.astype(np.int64)
    return out

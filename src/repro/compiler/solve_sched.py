"""Static scheduling of ``solve`` bodies (paper §3.6, reference [14]).

"If the array references within a solve statement only use constants and
index elements, then the statement can be translated into an equivalent
UC program that uses seq and par statements to execute the assignments in
the order of their dependencies."

We implement that translation: when every assignment writes
``target[elems...]`` (identity subscripts over the construct's grid) and
every reference back into a target array is affine ``elem + const`` with
offsets that are non-positive and not all zero, the dependency level of
each grid point is ``L(x) = 1 + max L(x + d)`` over the dependency offset
vectors ``d``.  Execution is then a ``seq`` over levels of masked ``par``
steps — no readiness bookkeeping, which is exactly why the paper calls
the scheduled form more efficient than the guarded ``*par`` translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import UCRuntimeError, UCSemanticError
from ..mapping.maps import AffineSub, affine_subscript


@dataclass
class SolveSchedule:
    """A level-by-level execution plan for a solve body."""

    levels: np.ndarray  # per-grid-point dependency level
    max_level: int
    assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]]
    stmt: Optional[ast.Node] = None  # the solve UCStmt, whose kernel runs the levels

    def execute(self, ip, inner) -> None:
        """Run the schedule: one masked par step per level.

        A level is one masked sweep of the body's fused kernel when
        fusion takes the body, else the oracle runs each assignment in
        turn.  A fused sweep evaluates every predicate before any body,
        so it stands in only where no assignment can see another's
        writes to its predicate: one assignment, or no predicates.  The
        level loop runs outside an armed CSE cache, so the kernel is
        built without the cache simulation.
        """
        from ..interp.eval_expr import _truthy, eval_expr
        from ..interp.fuse import fused_for
        from ..interp.statements import exec_stmt

        fused = None
        if self.stmt is not None and (
            len(self.assignments) == 1
            or all(pred is None for pred, _assign in self.assignments)
        ):
            fused = fused_for(ip, self.stmt, inner, cse=False)

        base = inner.active_mask()
        for level in range(self.max_level + 1):
            # the front end drives the level loop
            ip.machine.clock.charge("host_cm_latency")
            level_mask = base & (self.levels == level)
            if not np.any(level_mask):
                continue
            if fused is not None:
                fused.run_body(ip, inner, fused.begin_sweep(ip, level_mask))
                continue
            for pred, assign in self.assignments:
                mask = level_mask
                if pred is not None:
                    pv = eval_expr(ip, pred, inner.with_mask(level_mask))
                    mask = level_mask & np.broadcast_to(
                        np.asarray(_truthy(pv)), inner.grid.shape
                    )
                if np.any(mask):
                    exec_stmt(
                        ip,
                        ast.ExprStmt(line=assign.line, col=assign.col, expr=assign),
                        inner.with_mask(mask),
                    )


def try_schedule(
    ip,
    stmt: ast.UCStmt,
    assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]],
    inner,
) -> Optional[SolveSchedule]:
    """Build a static schedule, or None when the body is not analysable."""
    grid = inner.grid
    elems = {axis.elem: axis.set_name for axis in grid.axes}
    targets: Set[str] = set()
    for _pred, assign in assignments:
        t = assign.target
        if not isinstance(t, ast.Index):
            return None  # scalar targets have no per-element schedule
        targets.add(t.base)

    # map each target's array axes onto grid axes via its identity subscripts
    elem_to_axis: Dict[str, int] = {axis.elem: k for k, axis in enumerate(grid.axes)}
    deps: List[Tuple[int, ...]] = []
    try:
        for _pred, assign in assignments:
            t = assign.target
            assert isinstance(t, ast.Index)
            axis_of_sub: List[int] = []
            for sub in t.subs:
                a = affine_subscript(sub, elems, ip.info.constants)
                if a.elem is None or a.scale != 1 or a.offset != 0:
                    return None  # target subscripts must be bare elements
                axis_of_sub.append(elem_to_axis[a.elem])
            for d in _dependency_offsets(
                assign.value, _pred, targets, elems, ip.info.constants, axis_of_sub, grid.rank
            ):
                deps.append(d)
    except (_NotSchedulable, UCSemanticError):
        return None

    levels = _dependency_levels(grid.shape, deps)
    if levels is None:
        return None
    return SolveSchedule(
        levels=levels,
        max_level=int(levels.max()),
        assignments=assignments,
        stmt=stmt,
    )


class _NotSchedulable(Exception):
    pass


def affine_ref_axes(
    node: ast.Index,
    elems: Dict[str, str],
    constants: Dict[str, int],
) -> Optional[Tuple[Tuple[Optional[str], int], ...]]:
    """Per-subscript ``(elem, offset)`` pairs for an affine array reference.

    One entry per subscript of ``node``: ``(elem_name, offset)`` where
    ``elem_name`` is ``None`` for a compile-time-constant subscript (the
    offset is then the constant's value).  Returns ``None`` when any
    subscript is not affine ``elem + const`` with scale 1 — negated
    elements, element products, or data-dependent subscripts.  Shared by
    the static scheduler below and the frontier engine's change-mask
    dilation (:mod:`repro.interp.frontier`), which both reason about
    which grid points a reference can reach.
    """
    out: List[Tuple[Optional[str], int]] = []
    for sub in node.subs:
        try:
            a = affine_subscript(sub, elems, constants)
        except UCSemanticError:
            return None
        if a.elem is not None and a.scale != 1:
            return None
        out.append((a.elem, int(a.offset)))
    return tuple(out)


def _dependency_offsets(
    value: ast.Expr,
    pred: Optional[ast.Expr],
    targets: Set[str],
    elems: Dict[str, str],
    constants: Dict[str, int],
    axis_of_sub: List[int],
    grid_rank: int,
):
    """Offset vectors (grid-axis space) of references back into targets."""
    nodes: List[ast.Node] = [value]
    if pred is not None:
        nodes.append(pred)
    grid_axis_of = {e: ax for ax, e in enumerate(elems)}
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Reduction):
                # rebinding inside reductions makes the offsets ambiguous
                if _references_targets(node, targets):
                    raise _NotSchedulable()
            if isinstance(node, ast.Index) and node.base in targets:
                axes = affine_ref_axes(node, elems, constants)
                if axes is None:
                    raise _NotSchedulable()
                offsets = [0] * grid_rank
                nonzero = False
                for elem, off in axes:
                    if elem is None:
                        raise _NotSchedulable()
                    # elems preserves insertion order == grid axis order
                    offsets[grid_axis_of[elem]] += off
                    if off != 0:
                        nonzero = True
                if any(o > 0 for o in offsets):
                    raise _NotSchedulable()
                if nonzero:
                    yield tuple(offsets)
                # offset all-zero = reading the element being defined in the
                # same statement; with distinct target arrays per statement
                # (the proper-set rule) a zero offset on *another* target is
                # an instantaneous dependency: treat as schedulable only if
                # it refers to the statement's own target is impossible —
                # conservatively fall back
                elif node.base in targets and len(targets) > 1:
                    raise _NotSchedulable()


def _references_targets(node: ast.Node, targets: Set[str]) -> bool:
    return any(
        isinstance(n, ast.Index) and n.base in targets for n in ast.walk(node)
    )


def _dependency_levels(
    shape: Tuple[int, ...], deps: List[Tuple[int, ...]]
) -> Optional[np.ndarray]:
    """``L(x) = 1 + max L(x+d)`` solved by fixed-point sweeps."""
    levels = np.zeros(shape, dtype=np.int64)
    if not deps:
        return levels
    max_passes = int(sum(shape)) + 2
    for _ in range(max_passes):
        best = np.zeros(shape, dtype=np.int64)
        for d in deps:
            shifted = _shift_levels(levels, d)
            np.maximum(best, shifted + 1, out=best)
        if np.array_equal(best, levels):
            return levels
        levels = best
    return None  # did not converge: forward/circular dependencies


def _shift_levels(levels: np.ndarray, d: Tuple[int, ...]) -> np.ndarray:
    """``out[x] = levels[x + d]`` with out-of-range treated as level -1."""
    out = np.full_like(levels, -1)
    src = []
    dst = []
    for axis, off in enumerate(d):
        n = levels.shape[axis]
        if off == 0:
            src.append(slice(None))
            dst.append(slice(None))
        elif off < 0:
            src.append(slice(0, n + off))
            dst.append(slice(-off, n))
        else:
            src.append(slice(off, n))
            dst.append(slice(0, n - off))
    out[tuple(dst)] = levels[tuple(src)]
    return out

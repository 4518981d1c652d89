"""Static scheduling of ``solve`` bodies (paper §3.6, reference [14]).

"If the array references within a solve statement only use constants and
index elements, then the statement can be translated into an equivalent
UC program that uses seq and par statements to execute the assignments in
the order of their dependencies."

A body's dependence facts come from one table, :func:`dependence_table`,
read by this scheduler, the guarded frontier's worklist
(:mod:`repro.interp.frontier`) and the UC201 lint
(:mod:`repro.analysis.solvechecks`).  Each reference is read by
:func:`repro.mapping.maps.read_subscript`, the one subscript reader:
any subscript it realises exactly along at most one grid axis — an
offset ``i-1``, a mirror ``N-1-i``, a wrap ``(i+1)%N``, ``i/2`` — has
per-lane landing positions.  When every target is an identity target
and every reference has a *grid-position* shift ``d <= 0`` (the same at
every lane), not all zero, the level of grid point ``x`` is
``L(x) = 1 + max L(x + d)``.
Execution is then a ``seq`` over levels of masked ``par`` steps — no
readiness bookkeeping, which is exactly why the paper calls the
scheduled form more efficient than the guarded ``*par`` translation.
Anything else declines to guarded, the reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lang import ast
from ..machine.router import has_duplicates, lookup_positions
from ..mapping.maps import grid_reader, read_reference


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
        from ..interp.eval_expr import eval_expr
        from ..lang.operators import truthy
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
                        np.asarray(truthy(pv)), inner.grid.shape
                    )
                if np.any(mask):
                    exec_stmt(
                        ip,
                        ast.ExprStmt(line=assign.line, col=assign.col, expr=assign),
                        inner.with_mask(mask),
                    )


def try_schedule(
    stmt: ast.UCStmt,
    assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]],
    axes: Sequence,
    constants: Dict[str, int],
) -> Optional[SolveSchedule]:
    """A static schedule over the grid ``axes``, or None when a target is
    not an identity target or a reference sits in a reduction or has a
    shift that is not uniform, not ``<= 0`` or all zero.  A predicate
    may read only its own element (shift zero): the lane tests it before
    writing it under either strategy, where guarded could test another
    lane's element before or after that lane defines it."""
    deps: List[Tuple[int, ...]] = []
    for eq in dependence_table(assignments, axes, constants):
        if eq.target is None:
            return None
        for ref in eq.refs:
            d = ref.shift
            if ref.in_reduction or d is None or max(d) > 0:
                return None
            if ref.role == "pred":
                if any(d) or ref.node.base != eq.assign.target.base:
                    return None
            elif any(d):
                deps.append(d)
            else:
                return None
    levels = _dependency_levels(tuple(len(axis.values) for axis in axes), deps)
    return SolveSchedule(
        levels=levels,
        max_level=int(levels.max()),
        assignments=assignments,
        stmt=stmt,
    )


# ---------------------------------------------------------------------------
# the dependence table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveRef:
    """One reference into a solve target (see :func:`dependence_table`)."""

    node: ast.Index
    #: per subscript, its realised descriptor (``classify_affine``'s
    #: ``('u', v)`` / ``('a', g, vals)``); None unless every one is exact
    descs: Optional[Tuple[Tuple, ...]]
    in_reduction: bool
    in_arm: bool  # in a ternary's then/else arm
    role: str  # "value", "pred" or "target" (in a target subscript)
    #: per grid axis, to the lane that defines the element read; None
    #: when the landing lanes disagree or none lands
    shift: Optional[Tuple[int, ...]]

    @property
    def blocks(self) -> bool:
        """A guarded lane is not ready until the element it reads is
        defined: the value, outside ternary arms and reductions."""
        return self.role == "value" and not (self.in_arm or self.in_reduction)


@dataclass(frozen=True)
class SolveEquation:
    """One assignment of a solve body and its references into the targets."""

    assign: ast.Assign
    target: Optional[Tuple[int, ...]]  # identity_target, or None
    refs: Tuple[SolveRef, ...]


def identity_target(
    target: ast.Index, axes: Sequence, constants: Dict[str, int]
) -> Optional[Tuple[int, ...]]:
    """The grid axis of each subscript of ``target`` when every subscript
    takes the values of a grid element (``i``, ``i+0``, ...), each grid
    axis is used at most once and its values are distinct (one lane per
    element), else None."""
    reader = grid_reader(axes)
    descs = read_reference(target, reader, constants)
    vals = dict(reader.values())  # grid axis -> its element values
    if descs is None or any(d[0] != "a" or not np.array_equal(d[2], vals[d[1]]) for d in descs):
        return None
    grid = tuple(d[1] for d in descs)
    if len(set(grid)) != len(grid) or any(has_duplicates(d[2]) for d in descs):
        return None
    return grid


def dependence_table(
    assignments: Sequence[Tuple[Optional[ast.Expr], ast.Assign]],
    axes: Sequence,
    constants: Dict[str, int],
) -> List[SolveEquation]:
    """The one walk of a solve body for its references into its targets,
    over grid ``axes`` (anything with ``elem``, ``set_name``, ``values``).

    A shift counts grid positions, not element values: the reference is
    realised over the axis values and each index looked up among the
    positions of the target that defines it, ignoring lanes whose index
    lands outside it.  Over ``{0,2,4,6}``, ``a[i-2]`` has shift ``(-1,)``;
    ``a[N-1-i]`` over ``{0..N-1}`` has none (its lanes land at different
    distances).
    """
    reader = grid_reader(axes)
    vals = [np.asarray(axis.values, dtype=np.int64) for axis in axes]
    maps = {
        assign.target.base: identity_target(assign.target, axes, constants)
        for _pred, assign in assignments
        if isinstance(assign.target, ast.Index)
    }
    table: List[SolveEquation] = []
    for pred, assign in assignments:
        t = assign.target
        roots = [(assign.value, "value"), (pred, "pred")]
        roots += [(sub, "target") for sub in getattr(t, "subs", ())]
        refs = []
        for root, role in roots:
            for node, in_reduction, in_arm in _target_refs(root, maps):
                descs = read_reference(node, reader, constants)
                tmap = maps[node.base]
                shift = None
                if descs is not None and tmap is not None and len(descs) == len(tmap):
                    shift = _position_shift(descs, tmap, vals)
                refs.append(SolveRef(node, descs, in_reduction, in_arm, role, shift))
        target = maps[t.base] if isinstance(t, ast.Index) else None
        table.append(SolveEquation(assign, target, tuple(refs)))
    return table


def _target_refs(expr: Optional[ast.Node], targets, in_reduction=False, in_arm=False):
    """``(node, in_reduction, in_arm)`` for every reference into
    ``targets`` at or below ``expr``, in pre-order."""
    if expr is None:
        return
    if isinstance(expr, ast.Index) and expr.base in targets:
        yield expr, in_reduction, in_arm
    in_reduction = in_reduction or isinstance(expr, ast.Reduction)
    for child in ast.children(expr):
        arm = in_arm or (isinstance(expr, ast.Ternary) and child is not expr.cond)
        yield from _target_refs(child, targets, in_reduction, arm)


def _position_shift(descs, tmap, vals) -> Optional[Tuple[int, ...]]:
    """The uniform shift of the reference ``descs`` into a target whose
    subscripts sit on grid axes ``tmap``, or None."""
    pos = np.indices(tuple(len(v) for v in vals))
    shift = np.zeros_like(pos)
    hit = np.ones(pos.shape[1:], dtype=bool)
    for d, g in zip(descs, tmap):
        idx = d[1] if d[0] == "u" else d[2][pos[d[1]]]
        at = lookup_positions(vals[g], idx)
        hit &= at >= 0
        shift[g] = at - pos[g]
    d = shift[:, hit]
    if not d.size or (d != d[:, :1]).any():
        return None
    return tuple(int(x) for x in d[:, 0])


def _dependency_levels(shape: Tuple[int, ...], deps: List[Tuple[int, ...]]) -> np.ndarray:
    """``L(x) = 1 + max L(x+d)`` solved by fixed-point sweeps (every ``d``
    is ``<= 0`` and nonzero, so they settle within ``sum(shape)``)."""
    levels = np.zeros(shape, dtype=np.int64)
    while deps:
        best = np.zeros(shape, dtype=np.int64)
        for d in deps:
            np.maximum(best, _shift_levels(levels, d) + 1, out=best)
        if np.array_equal(best, levels):
            break
        levels = best
    return levels


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

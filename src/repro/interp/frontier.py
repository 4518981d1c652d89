"""Frontier (active-set) execution of iterated fixed-point constructs.

The paper's processor optimizations deduce *minimal virtual-processor
sets*: the machine activates — and pays for — only the elements that can
still make progress.  This module realises that optimization for the
iterated constructs ``*solve`` and ``*par`` (plus a worklist restriction
for guarded ``solve``): each sweep records a per-element change mask for
every written array, and the next sweep's active set is the dilation of
those masks through the statically extracted affine reference offsets
(``elem + const``, the same reference shapes
:mod:`repro.compiler.solve_sched` builds schedules from).  A lane whose
inputs did not change cannot change, so the sweep runs *compressed*:
the Clock is charged at the VP ratio of the active set instead of the
full grid.  That is the whole of what the simulated machine sees; how
the *host* computes the same values is a separate, per-sweep choice
(see **Evaluation** below).

Correctness strategy — decide-before-execute behind a measured guard:

* **Analysis** (cached in the plan cache under kind ``"frontier"``,
  keyed by the construct node and grid axes) accepts a restricted
  grammar: arms that are single direct assignments to
  identity-subscripted canonical arrays, affine array references, pure
  operators and builtins, and (at the root of a value) a single-set
  ``min``/``max``/``add``-family reduction.  Anything else — permuted
  or folded layouts, user calls, ``rand``, scalar or parallel-local
  targets, op-assignments, nested constructs, non-affine subscripts —
  falls back to full sweeps, bit-identical to the non-frontier build.
* **Charging**: a compressed sweep's cost is described by a static
  charge plan whose entries replay through
  :func:`repro.interp.commtiers.charge_tier_at` — the same recipe both
  engines use — first against a local estimator clock and then, only if
  the estimate undercuts the *measured* cost of the last full sweep,
  against the real :class:`~repro.machine.cost.Clock`.  Charges precede
  writes, preserving the fault-injection charge-before-mutate
  invariant, and the guard makes the frontier Clock never higher than
  the full-sweep Clock.
* **Values** are bit-identical by construction: inactive lanes would
  recompute exactly their current values, and active lanes run the same
  numpy operator semantics (:func:`repro.interp.eval_expr.apply_binop`,
  ``_reduce_op``, ``_cast_array``) the engines use.
* **Evaluation** is picked per compressed sweep from what the session
  already knows.  A sparse active set is evaluated lane by lane through
  ``plan.lane_gather`` fancy indexing (O(active) data moved, but ~10x
  the per-slot cost of a strided view).  When the active slots times
  :data:`_DENSE_COST_RATIO` reach the domain's slots and the construct
  has a validated fused kernel without unfused segments
  (:func:`repro.interp.fuse.fused_for`), the sweep instead issues its
  compressed charge sequence up front and runs the fused register
  program *compute-only* over the whole grid, deriving the change masks
  from a before/after diff exactly as a full sweep does.  Same arrays,
  same masks, same Clock; the choice stands down wherever fusion does
  (armed faults, sanitizer, tier log, ``REPRO_NO_FUSION``).
* **Delta reductions**: when a value is exactly ``$<``/``$>`` over one
  index set, the body is monotone in the modified arrays (references
  reachable only through ``+``/``min``/``max``), and last sweep's
  changes all moved in the reduction's direction, the sweep combines
  the stored result with a scan over only the *changed* reduction
  slots — the minimal VP set in the reduction dimension too.

``REPRO_NO_FRONTIER=1`` / ``UCProgram(frontier=False)`` disables all of
this and restores today's full-sweep fingerprints exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compiler.solve_sched import affine_ref_axes
from ..lang import ast
from ..machine.config import HOST_KINDS
from ..machine.scan import INF
from ..machine.vpset import ratio_for
from ..mapping.locality import classify_affine, classify_write_affine
from . import commtiers, fuse
from .eval_expr import _RED_UFUNC, _reduce_op, apply_binop
from .plan import lane_gather, lane_scatter
from .values import ArrayVar, ElementBinding, ScalarVar

__all__ = [
    "star_session",
    "guarded_frontier",
    "StarSession",
    "GuardedFrontier",
]


class _NotFrontierable(Exception):
    """Raised during analysis when a construct cannot run compressed."""


_FALLBACK = "frontier-fallback"

#: reduction ops eligible for the delta (changed-slots-only) scan
_DELTA_OPS = ("min", "max")

#: G — measured host cost of one lane-slot through the sparse evaluator
#: (per-lane address resolution in ``plan.lane_gather``) relative to one
#: grid slot through the fused kernel's strided views: ≈ 24 ns against
#: ≈ 2 ns on the ``apsp_dense`` n=128 sweeps of ``benchmarks/e2e``.  A
#: compressed sweep is *evaluated* densely when its active slots times G
#: reach the full domain's slots; what it *charges* never depends on G.
_DENSE_COST_RATIO = 10

_CALL_CHARGES = {"power2": 1, "abs": 1, "ABS": 1, "fabs": 1, "sqrt": 4, "min": 1, "max": 1}


def _enabled(ip) -> bool:
    if not getattr(ip, "frontier_enabled", False):
        return False
    # per-reference tier logging records every dispatched reference;
    # compressed sweeps replay charges without walking references, so
    # keep the log complete by running full sweeps while it is armed
    return getattr(ip, "tier_log", None) is None


# ---------------------------------------------------------------------------
# expression text (CSE-simulation keys)
# ---------------------------------------------------------------------------


def _text(e: ast.Expr) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.FloatLit):
        return repr(e.value)
    if isinstance(e, ast.InfLit):
        return "INF"
    if isinstance(e, ast.Name):
        return e.ident
    if isinstance(e, ast.Unary):
        return f"({e.op}{_text(e.operand)})"
    if isinstance(e, ast.Binary):
        return f"({_text(e.left)}{e.op}{_text(e.right)})"
    if isinstance(e, ast.Ternary):
        return f"({_text(e.cond)}?{_text(e.then)}:{_text(e.els)})"
    if isinstance(e, ast.Index):
        return e.base + "".join(f"[{_text(s)}]" for s in e.subs)
    if isinstance(e, ast.Call):
        return f"{e.func}({','.join(_text(a) for a in e.args)})"
    return f"<{type(e).__name__}@{id(e)}>"


def _pure(e: ast.Expr) -> bool:
    return not any(
        isinstance(n, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction))
        for n in ast.walk(e)
    )


# ---------------------------------------------------------------------------
# the estimator clock
# ---------------------------------------------------------------------------


class _EstClock:
    """Accumulates time exactly like :class:`~repro.machine.cost.Clock`
    (per-call dispatch for CM kinds, host kinds flat) without counters,
    regions or fault hooks.  Replaying a charge plan through this and
    through the real clock yields identical totals by construction."""

    __slots__ = ("costs", "time_us")

    def __init__(self, costs) -> None:
        self.costs = costs
        self.time_us = 0.0

    def charge(self, kind: str, *, count: int = 1, vp_ratio: int = 1) -> None:
        base = getattr(self.costs, kind)
        if kind in HOST_KINDS:
            self.time_us += base * count
        else:
            self.time_us += base * count * max(1, vp_ratio) + self.costs.dispatch

    def charge_scan(self, n_vps: int, *, vp_ratio: int = 1, steps_per_level: int = 1) -> None:
        levels = max(1, math.ceil(math.log2(max(2, n_vps))))
        self.charge("scan_step", count=levels * steps_per_level, vp_ratio=vp_ratio)

    def count_tier(self, tier: str) -> None:  # observability no-op
        pass


# ---------------------------------------------------------------------------
# lanes: the compressed evaluation substrate
# ---------------------------------------------------------------------------


class _Lanes:
    """Active lanes of one arm: element values plus a liveness mask.

    ``shape`` is ``(L,)`` for plain bodies or ``(L, K)`` inside a
    reduction; ``vals`` maps element names to int64 arrays broadcastable
    to ``shape``; ``live`` masks the lanes whose bounds actually matter
    (ternary/short-circuit refinement, mirroring the engines)."""

    __slots__ = ("shape", "vals", "live")

    def __init__(self, shape, vals, live) -> None:
        self.shape = shape
        self.vals = vals
        self.live = live

    def with_live(self, live) -> "_Lanes":
        return _Lanes(self.shape, self.vals, live)


def _truthy_arr(v) -> np.ndarray:
    return np.asarray(v) != 0


# ---------------------------------------------------------------------------
# analysis structures
# ---------------------------------------------------------------------------


class _RefInfo:
    """One affine reference into a *modified* array, for dilation."""

    __slots__ = ("base", "axes", "in_red", "dplan")

    def __init__(self, base: str, axes, in_red: bool) -> None:
        self.base = base
        self.axes = axes  # per array axis: (elem_name | None, const offset)
        self.in_red = in_red
        # memoised dilation recipe (index vectors, collapse/transpose
        # spec); everything in it is static per analysis, so it is built
        # on first use and replayed every sweep
        self.dplan = None


class _RedInfo:
    """A value-root reduction eligible for compressed evaluation."""

    __slots__ = (
        "op",
        "set_name",
        "elem",
        "values",
        "extent",
        "body_fn",
        "entries",
        "delta_ok",
        "delta_refs",
        "delta_vecs",
        "full_refs",
        "read_arrays",
        "node",
    )

    def __init__(self) -> None:
        self.delta_refs: List[Tuple[str, int, int]] = []  # (base, array axis, const)
        self.full_refs: List[str] = []  # modified arrays referenced without the elem
        self.read_arrays: Set[str] = set()
        #: memoised per-delta-ref clipped index vectors (static per analysis)
        self.delta_vecs = None


class _ArmInfo:
    """One construct arm: optional predicate plus one direct assignment."""

    __slots__ = (
        "pred_fn",
        "pred_entries",
        "value_fn",
        "red",
        "value_entries",
        "scatter_entry",
        "target",
        "target_axes",
        "refs",
        "node",
        "slots_ident",
    )

    def __init__(self) -> None:
        #: lazily computed: True when the write targets exactly the grid
        #: (identity subscripts), so the written-slot bound IS the active
        #: mask and the scatter simulation can be skipped
        self.slots_ident: Optional[bool] = None


class _Analysis:
    """Cached per (construct node, grid axes): everything needed to plan
    and run compressed sweeps, minus per-execution bindings."""

    def __init__(self, grid, kind: str) -> None:
        self.kind = kind  # 'solve' | 'par'
        self.grid_shape = grid.shape
        self.rank = grid.rank
        self.axis_vals = [
            np.asarray(axis.values, dtype=np.int64) for axis in grid.axes
        ]
        self.grid_axis_of = {axis.elem: g for g, axis in enumerate(grid.axes)}
        self.elem_of_axis = [axis.elem for axis in grid.axes]
        self.arms: List[_ArmInfo] = []
        self.modified: List[str] = []
        self.array_shapes: Dict[str, Tuple[int, ...]] = {}
        self.scalar_names: Set[str] = set()
        self.elem_kinds: Dict[str, int] = {}  # elem name -> grid axis


# ---------------------------------------------------------------------------
# analysis: restricted-grammar compilation
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, ip, inner, an: _Analysis, modified: Set[str]) -> None:
        self.ip = ip
        self.inner = inner
        self.an = an
        self.modified = modified
        self.cse_enabled = bool(getattr(ip, "cse_enabled", False))
        self.cse_seen: Set[str] = set()
        self.refs: List[_RefInfo] = []
        self.red_ctx: Optional[dict] = None  # {'elem', 'grid', 'values'}

    # -- helpers ----------------------------------------------------------

    def _elems_dict(self) -> Dict[str, str]:
        elems = {axis.elem: axis.set_name for axis in self.inner.grid.axes}
        if self.red_ctx is not None:
            elems[self.red_ctx["elem"]] = self.red_ctx["set_name"]
        return elems

    def _scope(self) -> str:
        return "red" if self.red_ctx is not None else "lane"

    def _register_array(self, name: str) -> ArrayVar:
        binding = self.inner.env.try_lookup(name)
        if not isinstance(binding, ArrayVar):
            raise _NotFrontierable()
        if not binding.layout.is_canonical:
            raise _NotFrontierable()  # permute/fold/copy maps: full sweeps
        known = self.an.array_shapes.get(name)
        if known is not None and known != binding.shape:
            raise _NotFrontierable()
        self.an.array_shapes[name] = binding.shape
        return binding

    def _classify(self, node: ast.Index, axes_desc, arr: ArrayVar, *, write: bool):
        """Tier-classify the reference exactly as the engines would — but
        through the O(extent) affine fast path: every subscript we accept
        is single-axis affine, so 1-D value arrays carry the same verdict
        as the materialised full-grid subscripts the engines classify."""
        grid = self.red_ctx["grid"] if self.red_ctx is not None else self.inner.grid
        descs = []
        for elem, c in axes_desc:
            if elem is None:
                descs.append(("u", int(c)))
            else:
                if self.red_ctx is not None and elem == self.red_ctx["elem"]:
                    axis = grid.rank - 1
                else:
                    axis = self.an.grid_axis_of[elem]
                vals = np.asarray(grid.axes[axis].values, dtype=np.int64)
                descs.append(("a", axis, vals + c if c else vals))
        classify = classify_write_affine if write else classify_affine
        rc = classify(descs, grid.shape, grid.axis_elems, arr.layout)
        tier = commtiers.decide_tier(
            rc,
            self.ip.machine.clock.costs,
            write=write,
            enabled=self.ip.comm_tiers_enabled,
        )
        return tier, rc, tuple(grid.shape)

    # -- expression compilation ------------------------------------------

    def compile(self, expr: ast.Expr, entries: List, *, value_root: bool = False):
        """Returns (fn(S, lanes) -> value, is_array)."""
        if (
            self.cse_enabled
            and isinstance(expr, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))
            and _pure(expr)
        ):
            key = (self._scope(), _text(expr))
            if key in self.cse_seen:
                # the engine serves this subtree from its CSE cache: no
                # charges, but the compressed evaluator still recomputes
                return self._compile_node(expr, [], value_root=value_root)
            out = self._compile_node(expr, entries, value_root=value_root)
            self.cse_seen.add(key)
            return out
        return self._compile_node(expr, entries, value_root=value_root)

    def _compile_node(self, expr: ast.Expr, entries: List, *, value_root: bool = False):
        scope = self._scope()
        if isinstance(expr, ast.IntLit):
            v = int(expr.value)
            return (lambda S, lanes: v), False
        if isinstance(expr, ast.FloatLit):
            v = float(expr.value)
            return (lambda S, lanes: v), False
        if isinstance(expr, ast.InfLit):
            return (lambda S, lanes: INF), False
        if isinstance(expr, ast.Name):
            return self._compile_name(expr)
        if isinstance(expr, ast.Index):
            return self._compile_index(expr, entries)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, entries)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, entries)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr, entries)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, entries)
        if isinstance(expr, ast.Reduction) and value_root and self.red_ctx is None:
            raise _Reduce(expr)  # handled by the arm compiler
        raise _NotFrontierable()

    def _compile_name(self, expr: ast.Name):
        name = expr.ident
        binding = self.inner.env.try_lookup(name)
        if self.red_ctx is not None and name == self.red_ctx["elem"]:
            return (lambda S, lanes: lanes.vals[name]), True
        if isinstance(binding, ElementBinding) and binding.kind == "axis":
            axis = binding.axis
            if self.an.grid_axis_of.get(name) != axis:
                raise _NotFrontierable()
            self.an.elem_kinds[name] = axis
            return (lambda S, lanes: lanes.vals[name]), True
        if isinstance(binding, (ScalarVar, int, float, np.integer, np.floating)) or (
            isinstance(binding, ElementBinding) and binding.kind == "scalar"
        ):
            self.an.scalar_names.add(name)
            return (lambda S, lanes: S["scalars"][name]), False
        raise _NotFrontierable()

    def _compile_index(self, expr: ast.Index, entries: List):
        arr = self._register_array(expr.base)
        elems = self._elems_dict()
        axes_desc = affine_ref_axes(expr, elems, self.ip.info.constants)
        if axes_desc is None or len(axes_desc) != len(arr.shape):
            raise _NotFrontierable()
        seen_elems = [e for e, _c in axes_desc if e is not None]
        if len(seen_elems) != len(set(seen_elems)):
            raise _NotFrontierable()  # a[i][i]: dilation geometry ambiguous
        in_red = self.red_ctx is not None
        if expr.base in self.modified:
            ref = _RefInfo(expr.base, axes_desc, in_red)
            self.refs.append(ref)
            if in_red:
                red: _RedInfo = self.red_ctx["info"]
                red.read_arrays.add(expr.base)
                bound = [
                    (a, c)
                    for a, (e, c) in enumerate(axes_desc)
                    if e == self.red_ctx["elem"]
                ]
                if bound:
                    for a, c in bound:
                        red.delta_refs.append((expr.base, a, c))
                else:
                    red.full_refs.append(expr.base)
        tier, rc, gshape = self._classify(expr, axes_desc, arr, write=False)
        entries.append(("ref", tier, rc, False, self._scope(), gshape, arr.layout))
        base = expr.base
        node = expr

        def fn(S, lanes):
            data = S["arrays"][base]
            subs = []
            for elem, c in axes_desc:
                if elem is None:
                    subs.append(int(c))
                else:
                    v = lanes.vals[elem]
                    subs.append(v + c if c else v)
            return lane_gather(data, subs, node, lanes.live)

        return fn, True

    def _compile_unary(self, expr: ast.Unary, entries: List):
        f, is_arr = self.compile(expr.operand, entries)
        entries.append(("op", 1, self._scope()))
        op = expr.op
        if op not in ("-", "!", "~"):
            raise _NotFrontierable()

        def fn(S, lanes):
            v = f(S, lanes)
            if op == "-":
                return -v
            if op == "!":
                if isinstance(v, np.ndarray):
                    return np.logical_not(v.astype(bool)).astype(np.int64)
                return int(not v)
            if isinstance(v, np.ndarray):
                return np.invert(v.astype(np.int64))
            return ~int(v)

        return fn, is_arr

    def _compile_binary(self, expr: ast.Binary, entries: List):
        if expr.op in ("&&", "||"):
            lf, l_arr = self.compile(expr.left, entries)
            if not l_arr:
                # scalar left side short-circuits in the engines: the
                # charge sequence becomes data-dependent — full sweeps
                raise _NotFrontierable()
            entries.append(("op", 1, self._scope()))
            rf, _r_arr = self.compile(expr.right, entries)
            is_and = expr.op == "&&"

            def fn(S, lanes):
                a = lf(S, lanes)
                ab = np.broadcast_to(_truthy_arr(a), lanes.shape)
                live2 = lanes.live & (ab if is_and else ~ab)
                b = rf(S, lanes.with_live(live2))
                bb = np.broadcast_to(_truthy_arr(b), lanes.shape)
                return ((ab & bb) if is_and else (ab | bb)).astype(np.int64)

            return fn, True
        lf, l_arr = self.compile(expr.left, entries)
        rf, r_arr = self.compile(expr.right, entries)
        entries.append(("op", 1, self._scope()))
        op = expr.op
        node = expr

        def fn(S, lanes):
            return apply_binop(op, lf(S, lanes), rf(S, lanes), node)

        return fn, l_arr or r_arr

    def _compile_ternary(self, expr: ast.Ternary, entries: List):
        cf, c_arr = self.compile(expr.cond, entries)
        if not c_arr:
            raise _NotFrontierable()  # host cond picks one branch: data-dependent
        tf, _ = self.compile(expr.then, entries)
        ef, _ = self.compile(expr.els, entries)
        entries.append(("op", 2, self._scope()))

        def fn(S, lanes):
            c = cf(S, lanes)
            cb = np.broadcast_to(_truthy_arr(c), lanes.shape)
            tv = tf(S, lanes.with_live(lanes.live & cb))
            ev = ef(S, lanes.with_live(lanes.live & ~cb))
            return np.where(cb, tv, ev)

        return fn, True

    def _compile_call(self, expr: ast.Call, entries: List):
        name = expr.func
        if name not in _CALL_CHARGES or name in self.ip.info.functions:
            raise _NotFrontierable()  # user functions (or shadowed builtins)
        want = 2 if name in ("min", "max") else 1
        if len(expr.args) != want:
            raise _NotFrontierable()
        fns = []
        is_arr = False
        for a in expr.args:
            f, arr = self.compile(a, entries)
            fns.append(f)
            is_arr = is_arr or arr
        entries.append(("op", _CALL_CHARGES[name], self._scope()))
        node = expr

        def fn(S, lanes):
            vals = [f(S, lanes) for f in fns]
            arrayish = any(isinstance(v, np.ndarray) for v in vals)
            if name == "power2":
                x = vals[0]
                if arrayish:
                    return np.left_shift(1, np.clip(x, 0, 62))
                return 1 << max(0, int(x))
            if name in ("abs", "ABS", "fabs"):
                x = vals[0]
                if arrayish:
                    return np.abs(x)
                return abs(x) if name != "fabs" else abs(float(x))
            if name == "sqrt":
                x = vals[0]
                if arrayish:
                    return np.sqrt(np.maximum(x, 0).astype(np.float64))
                if x < 0:
                    from ..lang.errors import UCRuntimeError

                    raise UCRuntimeError(
                        "sqrt of a negative value", node.line, node.col
                    )
                return float(x) ** 0.5
            if name == "min":
                a, b = vals
                return np.minimum(a, b) if arrayish else min(a, b)
            a, b = vals
            return np.maximum(a, b) if arrayish else max(a, b)

        return fn, is_arr


class _Reduce(Exception):
    """Internal control flow: a value-root reduction to special-case."""

    def __init__(self, node: ast.Reduction) -> None:
        self.node = node


def _monotone_in_modified(expr: ast.Expr, modified: Set[str]) -> bool:
    """True when every modified-array reference is reachable only through
    operators monotone non-decreasing in that operand (+, min, max)."""

    def touches(e: ast.Expr) -> bool:
        return any(
            isinstance(n, ast.Index) and n.base in modified for n in ast.walk(e)
        )

    def rec(e: ast.Expr) -> bool:
        if isinstance(e, ast.Index):
            return True
        if isinstance(e, ast.Binary) and e.op == "+":
            return rec(e.left) and rec(e.right)
        if isinstance(e, ast.Call) and e.func in ("min", "max") and len(e.args) == 2:
            return rec(e.args[0]) and rec(e.args[1])
        return not touches(e)

    return rec(expr)


def _single_assign(stmt: ast.Stmt) -> Optional[ast.Assign]:
    """The arm's single direct assignment, or None."""
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Assign):
        a = stmt.expr
        return a if not a.op else None
    if isinstance(stmt, ast.Block):
        inner = [s for s in stmt.stmts if not isinstance(s, ast.EmptyStmt)]
        if len(inner) == 1:
            return _single_assign(inner[0])
    return None


def _analyze(ip, stmt: ast.UCStmt, inner, kind: str) -> object:
    """Build the frontier analysis, or the fallback sentinel."""
    try:
        return _analyze_raising(ip, stmt, inner, kind)
    except _NotFrontierable:
        return _FALLBACK


def _analyze_raising(ip, stmt: ast.UCStmt, inner, kind: str) -> _Analysis:
    if stmt.others is not None:
        raise _NotFrontierable()
    grid = inner.grid
    if grid.is_host or grid.rank == 0:
        raise _NotFrontierable()
    # distinct per-axis values make identity writes hit distinct slots
    for axis in grid.axes:
        vals = np.asarray(axis.values, dtype=np.int64)
        if len(np.unique(vals)) != len(vals):
            raise _NotFrontierable()
    an = _Analysis(grid, kind)

    modified: Set[str] = set()
    for block in stmt.blocks:
        assign = _single_assign(block.stmt)
        if assign is None:
            raise _NotFrontierable()
        if not isinstance(assign.target, ast.Index):
            raise _NotFrontierable()
        modified.add(assign.target.base)
    an.modified = sorted(modified)

    for block in stmt.blocks:
        assign = _single_assign(block.stmt)
        arm = _ArmInfo()
        arm.node = assign
        comp = _Compiler(ip, inner, an, modified)
        arm.pred_entries = []
        arm.pred_fn = None
        if block.pred is not None:
            pf, p_arr = comp.compile(block.pred, arm.pred_entries)
            if not p_arr:
                raise _NotFrontierable()  # host predicate: whole-grid semantics
            arm.pred_fn = pf

        # the target: identity subscripts covering every grid axis once
        t = assign.target
        arr = comp._register_array(t.base)
        elems = {axis.elem: axis.set_name for axis in grid.axes}
        t_axes = affine_ref_axes(t, elems, ip.info.constants)
        if t_axes is None or len(t_axes) != len(arr.shape):
            raise _NotFrontierable()
        if len(t_axes) != grid.rank:
            raise _NotFrontierable()
        t_grid_axes = []
        for elem, c in t_axes:
            if elem is None or c != 0 or elem not in an.grid_axis_of:
                raise _NotFrontierable()
            t_grid_axes.append(an.grid_axis_of[elem])
        if len(set(t_grid_axes)) != grid.rank:
            raise _NotFrontierable()
        arm.target = t.base
        arm.target_axes = tuple(t_grid_axes)
        _w_tier, _w_rc, _w_gshape = comp._classify(t, t_axes, arr, write=True)
        arm.scatter_entry = ("ref", _w_tier, _w_rc, True, "lane", _w_gshape, arr.layout)

        arm.value_entries = []
        arm.red = None
        try:
            vf, _v_arr = comp.compile(assign.value, arm.value_entries, value_root=True)
            arm.value_fn = vf
        except _Reduce as r:
            arm.value_fn = None
            arm.red = _compile_reduction(ip, inner, an, comp, r.node, block, modified)
            arm.value_entries = []
        arm.refs = comp.refs
        an.arms.append(arm)
    return an


def _compile_reduction(
    ip, inner, an: _Analysis, comp: _Compiler, node: ast.Reduction, block, modified
) -> _RedInfo:
    if node.op not in _RED_UFUNC:
        raise _NotFrontierable()  # 'arbitrary' draws from the RNG
    if len(node.index_sets) != 1 or len(node.arms) != 1 or node.others is not None:
        raise _NotFrontierable()
    arm = node.arms[0]
    if arm.pred is not None:
        # predicated reductions may divert into the send-with-reduce
        # optimizer, whose charges we do not model — full sweeps
        raise _NotFrontierable()
    isv = ip.resolve_index_set(node.index_sets[0], inner, at=node)
    red = _RedInfo()
    red.node = node
    red.op = node.op
    red.set_name = isv.name
    red.elem = isv.elem_name
    red.values = tuple(int(v) for v in isv.values)
    red.extent = len(red.values)
    if red.extent == 0:
        raise _NotFrontierable()
    ext_grid = inner.grid.extend([isv])
    comp.red_ctx = {
        "elem": red.elem,
        "set_name": red.set_name,
        "grid": ext_grid,
        "info": red,
    }
    red.entries = [("scan", red.extent, "red")]
    try:
        body_fn, _ = comp.compile(arm.expr, red.entries)
    finally:
        comp.red_ctx = None
    red.body_fn = body_fn
    red.delta_ok = (
        node.op in _DELTA_OPS
        and block.pred is None
        and _monotone_in_modified(arm.expr, modified)
    )
    return red


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def _dilate_plan(an: _Analysis, ref: _RefInfo, shape, red_values) -> Tuple:
    """The static part of one reference's dilation: the clipped index
    vectors and the collapse/transpose/reshape spec.  Everything here
    depends only on the analysis (grid geometry, reduction ranges) and
    the array shape, so it is computed once per reference and replayed
    every sweep — only the change mask varies."""
    vecs = []
    out_grid_axes: List[Optional[int]] = []  # grid axis per kept output axis
    identity = True
    for a_ax, (elem, c) in enumerate(ref.axes):
        extent = shape[a_ax]
        if elem is None:
            vecs.append(np.array([min(max(int(c), 0), extent - 1)], dtype=np.int64))
            out_grid_axes.append(None)
            identity = False
        elif elem in an.grid_axis_of:
            g = an.grid_axis_of[elem]
            vecs.append(np.clip(an.axis_vals[g] + c, 0, extent - 1))
            out_grid_axes.append(g)
        else:  # reduction element: any changed slot along its range
            rv = np.asarray(red_values, dtype=np.int64)
            vecs.append(np.clip(rv + c, 0, extent - 1))
            out_grid_axes.append(-1)
        if identity and not (
            len(vecs[-1]) == extent
            and np.array_equal(vecs[-1], np.arange(extent))
        ):
            identity = False
    # collapse reduction-bound and constant axes to a presence bit each,
    # keep grid-bound axes; reorder those into grid-axis order and
    # broadcast over the grid axes the reference does not constrain
    collapse = tuple(i for i, g in enumerate(out_grid_axes) if g is None or g < 0)
    grid_axes = [g for g in out_grid_axes if g is not None and g >= 0]
    order = tuple(sorted(range(len(grid_axes)), key=lambda i: grid_axes[i]))
    kept_lens = [
        len(vecs[i]) for i, g in enumerate(out_grid_axes) if g is not None and g >= 0
    ]
    bshape = [1] * an.rank
    for i in order:
        bshape[grid_axes[i]] = kept_lens[i]
    return (identity, tuple(vecs), collapse, order, tuple(bshape))


def _dilate_ref(an: _Analysis, ref: _RefInfo, ch: np.ndarray, red_values) -> Optional[np.ndarray]:
    """Grid-shaped bool: lanes whose reference can see a changed slot."""
    if not ch.any():
        return None
    plan = ref.dplan
    if plan is None:
        plan = ref.dplan = _dilate_plan(an, ref, ch.shape, red_values)
    identity, vecs, collapse, order, bshape = plan
    # identity index vectors select the whole mask: skip the fancy gather
    sub = ch if identity else ch[np.ix_(*vecs)]
    if collapse:
        sub = sub.any(axis=collapse)
    sub = np.transpose(sub, order)
    sub = sub.reshape(bshape)
    return np.broadcast_to(sub, an.grid_shape)


def _slots_of(an: _Analysis, arm: _ArmInfo, act: np.ndarray, shape) -> np.ndarray:
    """Array-shaped bool bound on the slots ``arm`` can write from ``act``."""
    if arm.slots_ident is None:
        arm.slots_ident = (
            tuple(arm.target_axes) == tuple(range(an.rank))
            and tuple(shape) == tuple(an.grid_shape)
            and all(
                np.array_equal(an.axis_vals[g], np.arange(shape[a]))
                for a, g in enumerate(arm.target_axes)
            )
        )
    if arm.slots_ident:
        # identity write: the written slots ARE the active lanes (callers
        # only read the result, so returning the mask itself is safe)
        return act
    out = np.zeros(shape, dtype=bool)
    if not act.any():
        return out
    idx = np.nonzero(act)
    subs = tuple(
        np.clip(an.axis_vals[g][idx[g]], 0, shape[a] - 1)
        for a, g in enumerate(arm.target_axes)
    )
    out[subs] = True
    return out


# ---------------------------------------------------------------------------
# per-sweep state and charge replay
# ---------------------------------------------------------------------------


class _ArmState:
    __slots__ = ("L", "act", "lane_ratio", "K_eff", "red_ratio", "delta_on", "red_sel")

    def ratio(self, scope: str) -> int:
        return self.red_ratio if scope == "red" else self.lane_ratio

    def scan_extent(self, full_extent: int) -> int:
        return self.K_eff if self.K_eff is not None else full_extent


def _replay(clk, entries: Sequence, st: _ArmState) -> None:
    for e in entries:
        tag = e[0]
        if tag == "op":
            clk.charge("alu", count=e[1], vp_ratio=st.ratio(e[2]))
        elif tag == "ref":
            # e[5]/e[6] carry the full-grid geometry to the shard sink:
            # slab exchanges are bulk per sweep, so the split is over the
            # whole grid even on compressed sweeps (the estimator lacks
            # the hook and is unaffected)
            commtiers.charge_tier_at(
                clk, e[1], e[2], write=e[3], vp_ratio=st.ratio(e[4]),
                grid_shape=e[5], layout=e[6],
            )
        else:  # scan
            clk.charge_scan(st.scan_extent(e[1]), vp_ratio=st.ratio("red"))


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class StarSession:
    """Per-execution frontier driver for one ``*solve`` / ``*par``."""

    def __init__(self, ip, stmt: ast.UCStmt, inner, kind: str, plans=None) -> None:
        self.ip = ip
        self.stmt = stmt
        self.inner = inner
        self.kind = kind
        #: the construct's compiled plans (None on the tree-walker): what
        #: ``fuse.fused_for`` needs to hand out the dense evaluator
        self.plans = plans
        clock = ip.machine.clock
        clock.count_frontier("constructs")
        an = ip.plan_cache.get_or_build(
            "frontier", stmt, inner.grid.axes, lambda: _analyze(ip, stmt, inner, kind)
        )
        self.an: Optional[_Analysis] = None
        self.S: Optional[dict] = None
        if an is _FALLBACK or not self._bind(an):
            clock.count_frontier("fallbacks")
            return
        self.an = an
        self.vps = ip.grid_vpset(inner.grid.shape)
        self.base = inner.active_mask()
        self.domain = int(np.count_nonzero(self.base))
        self.prev: Optional[Dict[str, np.ndarray]] = None
        self.dirs: Dict[str, Tuple[bool, bool]] = {}  # name -> (any_up, any_down)
        self.reference: Optional[float] = None
        self.ref_pes: Optional[int] = None
        self._full_t0: Optional[float] = None
        self._full_alloc0 = 0
        self._full_snapshot: Optional[Dict[str, np.ndarray]] = None
        self.last_stats: Dict[str, Tuple[int, int]] = {}
        self.par_masks: Optional[List[np.ndarray]] = None

    # -- binding ----------------------------------------------------------

    def _bind(self, an) -> bool:
        if an is _FALLBACK:
            return False
        arrays: Dict[str, np.ndarray] = {}
        scalars: Dict[str, object] = {}
        env = self.inner.env
        for name, shape in an.array_shapes.items():
            b = env.try_lookup(name)
            if not isinstance(b, ArrayVar) or b.shape != shape or not b.layout.is_canonical:
                return False
            arrays[name] = b.data
        for name in an.scalar_names:
            b = env.try_lookup(name)
            if isinstance(b, ScalarVar):
                scalars[name] = b.value
            elif isinstance(b, ElementBinding) and b.kind == "scalar":
                scalars[name] = b.value
            elif isinstance(b, (int, float, np.integer, np.floating)):
                scalars[name] = b
            else:
                return False
        for name, axis in an.elem_kinds.items():
            b = env.try_lookup(name)
            if not (isinstance(b, ElementBinding) and b.kind == "axis" and b.axis == axis):
                return False
        for arm in an.arms:
            if arm.red is not None:
                isv = self.ip.resolve_index_set(
                    arm.red.set_name, self.inner, at=arm.red.node
                )
                if tuple(int(v) for v in isv.values) != arm.red.values:
                    return False
        self.S = {"arrays": arrays, "scalars": scalars}
        return True

    @property
    def active(self) -> bool:
        return self.an is not None

    # -- full-sweep bracketing --------------------------------------------

    def full_begin(self) -> None:
        if not self.active:
            return
        clock = self.ip.machine.clock
        self._full_t0 = clock.time_us
        self._full_alloc0 = clock.count("alloc")
        self._full_snapshot = self._snapshot()

    def full_end(self) -> None:
        if not self.active or self._full_t0 is None:
            return
        clock = self.ip.machine.clock
        costs = clock.costs
        alloc_extra = clock.count("alloc") - self._full_alloc0
        # a first sweep allocates VP sets the steady state reuses; do not
        # bake that one-off into the per-sweep reference cost
        self.reference = (clock.time_us - self._full_t0) - alloc_extra * (
            costs.alloc + costs.dispatch
        )
        self.ref_pes = self.ip.machine.n_live_pes
        self._note_diff(self._full_snapshot)
        self._full_t0 = None
        self._full_snapshot = None
        clock.count_frontier("full_sweeps")

    def _snapshot(self) -> Dict[str, np.ndarray]:
        return {name: self.S["arrays"][name].copy() for name in self.an.modified}

    def _note_diff(self, snapshot: Dict[str, np.ndarray]) -> bool:
        """Seed the next sweep's frontier (``prev``/``dirs``/``last_stats``)
        from a whole-sweep before/after diff; returns whether anything
        changed."""
        prev: Dict[str, np.ndarray] = {}
        stats: Dict[str, Tuple[int, int]] = {}
        for name, before in snapshot.items():
            curr = self.S["arrays"][name]
            changed = before != curr
            prev[name] = changed
            stats[name] = (int(np.count_nonzero(changed)), int(changed.size))
            self.dirs[name] = (
                bool(np.any(curr > before)),
                bool(np.any(curr < before)),
            )
        self.prev = prev
        self.last_stats = stats
        return any(n for n, _size in stats.values())

    def note_par_masks(self, masks: List[np.ndarray]) -> None:
        if self.active:
            self.par_masks = [np.array(m, dtype=bool, copy=True) for m in masks]

    # -- sweep planning ----------------------------------------------------

    def plan_compressed(self) -> Optional[List[_ArmState]]:
        """Active sets + delta decisions + estimate guard for one sweep.
        Returns the per-arm states, or None when the sweep must run full."""
        if not self.active or self.prev is None or self.reference is None:
            return None
        if self.ip.machine.n_live_pes != self.ref_pes:
            return None  # degraded relayout: re-measure on a full sweep
        if self.kind == "par" and self.par_masks is None:
            return None
        an = self.an
        machine = self.ip.machine
        # the write simulation below rebinds pseudo[target] to a fresh
        # array (never mutates in place), so a dict copy suffices
        pseudo = dict(self.prev)
        states: List[_ArmState] = []
        for arm in an.arms:
            st = _ArmState()
            act = np.zeros(an.grid_shape, dtype=bool)
            for ref in arm.refs:
                m = _dilate_ref(
                    an,
                    ref,
                    pseudo[ref.base],
                    arm.red.values if (ref.in_red and arm.red is not None) else None,
                )
                if m is not None:
                    act |= m
            act &= self.base
            st.act = act
            st.L = int(np.count_nonzero(act))
            st.lane_ratio = ratio_for(st.L, machine) if st.L else 1
            st.K_eff = None
            st.red_sel = None
            st.delta_on = False
            st.red_ratio = st.lane_ratio
            if arm.red is not None and st.L:
                red = arm.red
                delta_valid = red.delta_ok
                if delta_valid:
                    want_down = red.op == "min"
                    for name in red.read_arrays:
                        up, down = self.dirs.get(name, (False, False))
                        if (want_down and up) or (not want_down and down):
                            delta_valid = False
                            break
                if delta_valid:
                    sel = np.zeros(red.extent, dtype=bool)
                    full_k = False
                    for name in red.full_refs:
                        if pseudo[name].any():
                            full_k = True
                            break
                    if full_k:
                        sel[:] = True
                    else:
                        if red.delta_vecs is None:
                            rv = np.asarray(red.values, dtype=np.int64)
                            red.delta_vecs = [
                                (
                                    base_name,
                                    a_ax,
                                    np.clip(
                                        rv + c,
                                        0,
                                        pseudo[base_name].shape[a_ax] - 1,
                                    ),
                                )
                                for base_name, a_ax, c in red.delta_refs
                            ]
                        for base_name, a_ax, idx_vec in red.delta_vecs:
                            ch = pseudo[base_name]
                            if not ch.any():
                                continue
                            other = tuple(
                                x for x in range(ch.ndim) if x != a_ax
                            )
                            vec = ch.any(axis=other) if other else ch
                            sel |= vec[idx_vec]
                    k_eff = int(np.count_nonzero(sel))
                    if k_eff == 0:
                        st.L = 0  # nothing feeds this reduction: arm is a no-op
                        st.act = np.zeros(an.grid_shape, dtype=bool)
                    st.delta_on = True
                    st.K_eff = max(1, k_eff)
                    st.red_sel = sel
                else:
                    st.K_eff = red.extent
                    st.red_sel = None
                st.red_ratio = (
                    ratio_for(st.L * max(1, st.K_eff), machine) if st.L else 1
                )
            states.append(st)
            if st.L:
                pseudo[arm.target] = pseudo[arm.target] | _slots_of(
                    an, arm, st.act, pseudo[arm.target].shape
                )
        est = _EstClock(machine.clock.costs)
        self._charge_sweep(est, states)
        if est.time_us >= self.reference:
            return None
        return states

    def _charge_sweep(self, clk, states: List[_ArmState]) -> None:
        """The complete, ordered charge sequence of one compressed sweep —
        replayed identically for the estimate and for the real clock."""
        self._charge_preds(clk, states)
        self._charge_bodies(clk, states)

    def _charge_preds(self, clk, states: List[_ArmState]) -> None:
        """Up to and including a ``*par``'s termination test."""
        full_ratio = self.vps.vp_ratio
        an = self.an
        if self.kind == "solve":
            clk.charge("alu", count=len(an.modified) or 1, vp_ratio=full_ratio)
        for arm, st in zip(an.arms, states):
            if st.L and arm.pred_entries:
                _replay(clk, arm.pred_entries, st)
        if self.kind == "par":
            clk.charge("global_or", vp_ratio=full_ratio)
            clk.charge("host_cm_latency")

    def _charge_bodies(self, clk, states: List[_ArmState]) -> None:
        """The arm bodies and a ``*solve``'s fixed-point test."""
        for arm, st in zip(self.an.arms, states):
            if st.L:
                self._charge_arm(clk, arm, st)
        if self.kind == "solve":
            clk.charge("global_or", vp_ratio=self.vps.vp_ratio)
            clk.charge("host_cm_latency")

    @staticmethod
    def _charge_arm(clk, arm: _ArmInfo, st: _ArmState) -> None:
        if arm.red is not None:
            _replay(clk, arm.red.entries, st)
            if st.delta_on:
                clk.charge("alu", vp_ratio=st.lane_ratio)  # combine with old
        else:
            _replay(clk, arm.value_entries, st)
        _replay(clk, [arm.scatter_entry], st)

    # -- compressed execution ---------------------------------------------

    def run_compressed(self, states: List[_ArmState]) -> bool:
        """One compressed sweep.  For ``*solve``: returns whether anything
        changed.  For ``*par``: returns whether any arm predicate held
        (False = the construct terminates, bodies skipped).

        What the sweep *charges* is fixed by ``states``; how the host
        *evaluates* it is chosen here: the fused kernel over the whole
        grid when the active set is nearly all of it, the active lanes
        alone otherwise.  Both leave identical arrays, change masks and
        Clock."""
        fused = self._dense_kernel(states)
        if fused is not None:
            return self._run_dense(states, fused)
        return self._run_lanes(states)

    def _trace(self, states: List[_ArmState], *, dense: bool) -> None:
        arms = max(1, len(self.an.arms)) if self.kind == "par" else 1
        self.ip.machine.clock.trace_frontier(
            sum(st.L for st in states), self.domain * arms, dense=dense
        )

    def _dense_kernel(self, states: List[_ArmState]):
        """The construct's fused kernel when evaluating the whole grid
        through it is cheaper than resolving the active lanes one by one
        (active slots x G >= domain slots), else None.  ``fused_for``
        stands down under armed faults, the sanitizer, the tier log and
        ``fusion=False``, so those runs keep the lane path."""
        an = self.an
        if self.plans is None:
            return None
        if len(an.modified) != len(an.arms):
            # two arms write one array: a slot written twice has a
            # per-write change mask the net before/after diff cannot give
            return None
        active = full = 0
        for arm, st in zip(an.arms, states):
            extent = arm.red.extent if arm.red is not None else 1
            active += st.L * st.scan_extent(extent)
            full += self.domain * extent
        if active * _DENSE_COST_RATIO < full:
            return None
        fused = fuse.fused_for(self.ip, self.stmt, self.inner, self.plans)
        if fused is None or fused.unfused_count:
            return None  # an unfused segment would charge the full grid
        return fused

    def _run_dense(self, states: List[_ArmState], fused) -> bool:
        """Charge the compressed sweep, then evaluate it compute-only on
        the fused kernel.  Inactive lanes recompute their current values,
        so the before/after diff is exactly the active lanes' changes."""
        ip, inner = self.ip, self.inner
        clock = ip.machine.clock
        before = self._snapshot()
        self._charge_preds(clock, states)
        sweep = fused.begin_sweep(ip, inner, charge=False)
        if self.kind == "par":
            self._trace(states, dense=True)
            self.note_par_masks(sweep.masks)
            if not any(np.any(m) for m in sweep.masks):
                self._note_diff(before)
                return False
        self._charge_bodies(clock, states)
        fused.run_body(ip, inner, sweep, charge=False)
        if self.kind == "solve":
            self._trace(states, dense=True)
        changed = self._note_diff(before)
        return self.kind == "par" or changed

    def _run_lanes(self, states: List[_ArmState]) -> bool:
        """Evaluate the sweep on the active lanes only, charging each
        arm just before it writes."""
        an = self.an
        clock = self.ip.machine.clock
        full_ratio = self.vps.vp_ratio
        S = self.S
        cur: Dict[str, np.ndarray] = {
            name: np.zeros_like(m) for name, m in self.prev.items()
        }
        new_dirs: Dict[str, List[bool]] = {name: [False, False] for name in cur}
        stats: Dict[str, Tuple[int, int]] = {
            name: (0, int(m.size)) for name, m in cur.items()
        }

        if self.kind == "solve":
            clock.charge("alu", count=len(an.modified) or 1, vp_ratio=full_ratio)

        # predicates first (the engines evaluate every arm's predicate
        # before any body runs)
        pred_ok: List[Optional[np.ndarray]] = []
        act_idx: List[Optional[Tuple[np.ndarray, ...]]] = []
        for k, (arm, st) in enumerate(zip(an.arms, states)):
            if not st.L:
                pred_ok.append(None)
                act_idx.append(None)
                continue
            idx = np.nonzero(st.act)
            act_idx.append(idx)
            if arm.pred_fn is None:
                pred_ok.append(np.ones(st.L, dtype=bool))
            else:
                _replay(clock, arm.pred_entries, st)
                vals = {
                    an.elem_of_axis[g]: an.axis_vals[g][idx[g]]
                    for g in range(an.rank)
                }
                lanes = _Lanes((st.L,), vals, np.ones(st.L, dtype=bool))
                pv = arm.pred_fn(S, lanes)
                pb = np.broadcast_to(_truthy_arr(pv), lanes.shape)
                pred_ok.append(np.asarray(pb, dtype=bool))
                if self.kind == "par":
                    self.par_masks[k][idx] = pb & self.base[idx]

        if self.kind == "par":
            clock.charge("global_or", vp_ratio=full_ratio)
            clock.charge("host_cm_latency")
            self._trace(states, dense=False)
            if not any(np.any(m) for m in self.par_masks):
                self.prev = cur
                self.last_stats = stats
                return False

        for k, (arm, st) in enumerate(zip(an.arms, states)):
            if not st.L:
                continue
            idx = act_idx[k]
            ok = pred_ok[k]
            if self.kind == "par":
                ok = ok & self.par_masks[k][idx]
            self._charge_arm(clock, arm, st)
            if not np.any(ok):
                continue
            w_idx = tuple(v[ok] for v in idx)
            w_vals = {
                an.elem_of_axis[g]: an.axis_vals[g][w_idx[g]]
                for g in range(an.rank)
            }
            Lw = int(w_idx[0].size)
            if arm.red is not None:
                value = self._eval_reduction(arm, st, w_vals, Lw)
            else:
                w_lanes = _Lanes((Lw,), w_vals, np.ones(Lw, dtype=bool))
                value = arm.value_fn(S, w_lanes)
            data = S["arrays"][arm.target]
            subs = [
                w_vals[an.elem_of_axis[g]] for g in arm.target_axes
            ]
            changed, old, new = lane_scatter(data, subs, value, arm.node.target)
            if np.any(changed):
                ch_subs = tuple(s[changed] for s in subs)
                cur[arm.target][ch_subs] = True
                oc, nc = old[changed], new[changed]
                d = new_dirs[arm.target]
                d[0] = d[0] or bool(np.any(nc > oc))
                d[1] = d[1] or bool(np.any(nc < oc))

        if self.kind == "solve":
            clock.charge("global_or", vp_ratio=full_ratio)
            clock.charge("host_cm_latency")
            self._trace(states, dense=False)

        any_change = False
        for name, m in cur.items():
            n = int(np.count_nonzero(m))
            stats[name] = (n, int(m.size))
            if n:
                any_change = True
        self.prev = cur
        self.last_stats = stats
        self.dirs = {
            name: (d[0], d[1]) for name, d in new_dirs.items()
        }
        if self.kind == "par":
            return True
        return any_change

    def _eval_reduction(self, arm: _ArmInfo, st: _ArmState, w_vals, Lw: int):
        red = arm.red
        S = self.S
        rv = np.asarray(red.values, dtype=np.int64)
        if st.red_sel is not None and st.delta_on:
            rv_sel = rv[st.red_sel]
        else:
            rv_sel = rv
        Ke = int(rv_sel.size)
        vals = {name: v[:, None] for name, v in w_vals.items()}
        vals[red.elem] = np.broadcast_to(rv_sel[None, :], (Lw, Ke))
        lanes = _Lanes((Lw, Ke), vals, np.ones((Lw, Ke), dtype=bool))
        body = red.body_fn(S, lanes)
        body = np.broadcast_to(np.asarray(body), (Lw, Ke))
        part = _reduce_op(
            red.op, [body], [np.ones((Lw, Ke), dtype=bool)], axes=(1,)
        )
        if st.delta_on:
            data = S["arrays"][arm.target]
            subs = tuple(w_vals[self.an.elem_of_axis[g]] for g in arm.target_axes)
            old = data[subs]
            ufunc = _RED_UFUNC[red.op]
            return ufunc(old, part)
        return part

    # -- diagnostics -------------------------------------------------------

    def delta_summary(self) -> str:
        parts = []
        for name in sorted(self.last_stats):
            n, total = self.last_stats[name]
            if n:
                parts.append(f"{name} (frontier {n} of {total} elements)")
        return "; ".join(parts) if parts else "nothing (oscillation across sweeps?)"


def star_session(
    ip, stmt: ast.UCStmt, inner, kind: str, plans=None
) -> Optional[StarSession]:
    """A frontier session for one ``*solve``/``*par`` execution, or None
    when frontier execution is disabled for this interpreter."""
    if not _enabled(ip):
        return None
    sess = StarSession(ip, stmt, inner, kind, plans)
    return sess if sess.active else None


# ---------------------------------------------------------------------------
# guarded solve: worklist restriction from newly-defined elements
# ---------------------------------------------------------------------------


class GuardedFrontier:
    """Per-assignment affine references into the solve targets; dilating
    the newly-defined flags through them names the only lanes whose
    readiness (or predicate) can have changed since last sweep."""

    def __init__(self, an: _Analysis, refs: List[List[_RefInfo]]) -> None:
        self.an = an
        self.refs = refs

    def candidates(self, k: int, newly: Dict[str, np.ndarray]) -> np.ndarray:
        """Grid mask of lanes assignment ``k`` must re-examine."""
        out = np.zeros(self.an.grid_shape, dtype=bool)
        for ref in self.refs[k]:
            ch = newly.get(ref.base)
            if ch is None:
                continue
            m = _dilate_ref(self.an, ref, ch, None)
            if m is not None:
                out |= m
        return out


def _guarded_analyze(ip, stmt, assignments, inner) -> object:
    grid = inner.grid
    if grid.is_host or grid.rank == 0:
        return _FALLBACK
    if len(assignments) < 2:
        # With one assignment, skipping it only fires when the sweep would
        # define nothing — exactly the no-progress error case — so the
        # per-sweep dilation bookkeeping can never pay for itself.
        return _FALLBACK
    targets: Set[str] = set()
    for _pred, assign in assignments:
        t = assign.target
        if not isinstance(t, ast.Index):
            return _FALLBACK  # scalar targets define whole variables at once
        targets.add(t.base)
    an = _Analysis(grid, "guarded")
    elems = {axis.elem: axis.set_name for axis in grid.axes}
    refs: List[List[_RefInfo]] = []
    for pred, assign in assignments:
        mine: List[_RefInfo] = []
        roots: List[ast.Node] = [assign.value, assign.target]
        if pred is not None:
            roots.append(pred)
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Reduction):
                    if any(
                        isinstance(n, ast.Index) and n.base in targets
                        for n in ast.walk(node)
                    ):
                        return _FALLBACK  # rebinding obscures the offsets
                if isinstance(node, ast.Index) and node.base in targets:
                    if node is assign.target:
                        continue
                    axes = affine_ref_axes(node, elems, ip.info.constants)
                    if axes is None:
                        return _FALLBACK
                    if any(
                        e is not None and e not in an.grid_axis_of for e, _c in axes
                    ):
                        return _FALLBACK
                    seen = [e for e, _c in axes if e is not None]
                    if len(seen) != len(set(seen)):
                        return _FALLBACK
                    mine.append(_RefInfo(node.base, axes, False))
        refs.append(mine)
    return GuardedFrontier(an, refs)


def guarded_frontier(ip, stmt, assignments, inner) -> Optional[GuardedFrontier]:
    """Frontier worklist support for one guarded ``solve``, or None."""
    if not _enabled(ip):
        return None
    clock = ip.machine.clock
    gf = ip.plan_cache.get_or_build(
        "frontier",
        stmt,
        inner.grid.axes,
        lambda: _guarded_analyze(ip, stmt, assignments, inner),
    )
    if gf is _FALLBACK:
        clock.count_frontier("fallbacks")
        return None
    # defined-flag shapes must still match the bound arrays (same program
    # point can rebind arrays across calls)
    for mine in gf.refs:
        for ref in mine:
            b = inner.env.try_lookup(ref.base)
            if not isinstance(b, ArrayVar) or len(b.shape) != len(ref.axes):
                clock.count_frontier("fallbacks")
                return None
    clock.count_frontier("guarded_constructs")
    return gf

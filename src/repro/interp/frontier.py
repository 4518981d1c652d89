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
* **Planning**: each arm's distinct references into the modified arrays
  carry a static dilation recipe — per-axis ``take``s with the clipped
  subscript vectors, cut at analysis time (:func:`_dilation_recipe`) —
  so a sweep's active set costs one small ``take`` per shifted axis of
  each distinct reference, whatever the body repeats.  Guarded ``solve``
  worklists (:class:`GuardedFrontier`) ride the same recipe.
* **Charging**: a compressed sweep's cost is a static, pre-bound charge
  list per arm: at analysis time the real cost helpers
  (:func:`repro.interp.commtiers.charge_tier_at` — the same recipe both
  engines use) run once against a recorder, and a sweep replays the
  recorded primitives at its active VP ratios (:func:`_replay`) — first
  against a local estimator clock and then, only if the estimate
  undercuts the *measured* cost of the last full sweep, against the real
  :class:`~repro.machine.cost.Clock`.  The estimate is a pure function
  of the arms' charge keys (``L > 0``, lane and reduction VP ratios,
  effective reduction extent, delta on/off), so a session replays the
  estimator once per distinct key.  Charges precede writes, preserving
  the fault-injection charge-before-mutate invariant, and the guard
  makes the frontier Clock never higher than the full-sweep Clock.
* **Values** are bit-identical by construction: inactive lanes would
  recompute exactly their current values, and active lanes run the same
  numpy operator semantics (:func:`repro.interp.eval_expr.apply_binop`,
  ``_reduce_op``, ``_cast_array``) the engines use.
* **Evaluation** is picked per compressed sweep from what the session
  already knows.  A sparse active set is evaluated lane by lane: one
  lane context per arm (:class:`_Lanes`) resolves each distinct
  ``(element, offset, extent)`` subscript once per sweep — value vector,
  range verdict, clipped vector, out-of-range mask
  (:func:`repro.interp.plan.lane_sub`) — for the predicate and the body
  alike, subscripts that are in range for every value their element can
  take skip even the probe, and a reference then costs one
  ``plan.lane_gather`` (O(active) data moved).  When the active slots
  times :data:`_DENSE_COST_RATIO` reach the domain's slots and the
  construct has a validated fused kernel without unfused segments
  (:func:`repro.interp.fuse.fused_for`), the sweep instead issues its
  compressed charge sequence up front and runs the fused register
  program *compute-only* over the whole grid, deriving the change masks
  from a before/after diff exactly as a full sweep does.  Same arrays,
  same masks, same Clock; the choice stands down wherever fusion does.
* **Delta reductions**: when a value is exactly ``$<``/``$>`` over one
  index set, the body is monotone in the modified arrays (references
  reachable only through ``+``/``min``/``max``), and last sweep's
  changes all moved in the reduction's direction, the sweep combines
  the stored result with a scan over only the *changed* reduction
  slots — the minimal VP set in the reduction dimension too.

With ``config.frontier_sweeps`` off (see "Configuration" in
``docs/PERFORMANCE.md``) the pre-frontier fingerprints come back exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compiler.solve_sched import affine_ref_axes
from ..lang import ast
from ..lang.errors import UCRuntimeError
from ..machine.config import HOST_KINDS
from ..machine.router import has_duplicates
from ..machine.scan import INF
from ..machine.vpset import ratio_for
from ..mapping.locality import classify_affine, classify_write_affine
from . import commtiers, fuse
from .eval_expr import _RED_UFUNC, _reduce_op, apply_binop
from .plan import lane_gather, lane_scatter, lane_sub
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

#: G — host cost of one lane-slot through the sparse evaluator (per-lane
#: address resolution in ``plan.lane_gather``) relative to one grid slot
#: through the fused kernel.  A compressed sweep is *evaluated* densely
#: when its active slots times G reach the full domain's slots; what it
#: *charges* never depends on G.  Measured at n=128: ≈ 28 ns per
#: lane-slot (a perturbed converged graph, 2–4 % occupancy) against
#: ≈ 1.1 ns per grid slot (the compressed 8th sweep of ``apsp_dense``,
#: snapshot and diff included) since the reduction is strip-mined — a
#: ratio of ≈ 26, break-even at 4 % occupancy.  G stays at the 10 it
#: was set to when the dense side cost ≈ 2 ns: a larger G sends the
#: 4–10 % sweeps of *every* construct to ``fuse.fused_for``, and the
#: obstacle grid of ``grid_frontier`` — unfusable, never above 5 % — has
#: 13–19 such sweeps per run that today stop at the comparison below.
#: Raising it wants a fusability verdict the session can test first
#: (ROADMAP, "Collapse the engine ladder"); until then a fusable sweep
#: in that band pays at most 2.5x on the lane path.
_DENSE_COST_RATIO = 10

_CALL_CHARGES = {"power2": 1, "abs": 1, "ABS": 1, "fabs": 1, "sqrt": 4, "min": 1, "max": 1}


def _call_power2(node, x):
    if isinstance(x, np.ndarray):
        return np.left_shift(1, np.clip(x, 0, 62))
    return 1 << max(0, int(x))


def _call_abs(node, x):
    return np.abs(x) if isinstance(x, np.ndarray) else abs(x)


def _call_fabs(node, x):
    return np.abs(x) if isinstance(x, np.ndarray) else abs(float(x))


def _call_sqrt(node, x):
    if isinstance(x, np.ndarray):
        return np.sqrt(np.maximum(x, 0).astype(np.float64))
    if x < 0:
        raise UCRuntimeError("sqrt of a negative value", node.line, node.col)
    return float(x) ** 0.5


def _call_min(node, a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _call_max(node, a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


#: the builtins' lane implementations (scalars stay scalars, as in the engines)
_CALL_IMPLS = {
    "power2": _call_power2,
    "abs": _call_abs,
    "ABS": _call_abs,
    "fabs": _call_fabs,
    "sqrt": _call_sqrt,
    "min": _call_min,
    "max": _call_max,
}


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

    def note_shard_ref(self, tier, rc, layout, grid_shape, write) -> None:
        pass  # shard sinks observe the real clock only


# ---------------------------------------------------------------------------
# lanes: the compressed evaluation substrate
# ---------------------------------------------------------------------------


class _Lanes:
    """Active lanes of one arm: the per-sweep address-resolution context.

    ``shape`` is ``(L,)`` for plain bodies or ``(L, K)`` inside a
    reduction; ``vals`` maps element names to int64 arrays broadcastable
    to ``shape``; ``live`` masks the lanes whose bounds actually matter
    (ternary/short-circuit refinement, mirroring the engines) — ``None``
    while every lane is live.

    ``subs`` resolves each distinct ``(element, offset, extent)``
    subscript once per sweep (:func:`repro.interp.plan.lane_sub`): every
    reference to ``a[i-1][j]`` in the predicate and in the body shares
    one value vector, one range verdict and one clipped vector.  Live
    refinements share the table; the body's lanes (:meth:`select`, the
    lanes the predicate passed) start from its entries."""

    __slots__ = ("shape", "vals", "live", "subs")

    def __init__(self, shape, vals, live=None, subs=None) -> None:
        self.shape = shape
        self.vals = vals
        self.live = live
        self.subs = {} if subs is None else subs

    def refine(self, cond: np.ndarray) -> "_Lanes":
        """These lanes with ``live`` narrowed to where ``cond`` holds."""
        live = cond if self.live is None else self.live & cond
        return _Lanes(self.shape, self.vals, live, self.subs)

    def select(self, sel: np.ndarray, n: int) -> "_Lanes":
        """The ``n`` lanes ``sel`` keeps (1-D lanes only), all live.  A
        subset of resolved lanes keeps each verdict and each clipping."""
        subs = {}
        for key, (index, oob, raw) in self.subs.items():
            index = index[sel]
            subs[key] = (
                (index, None, index) if oob is None else (index, oob[sel], raw[sel])
            )
        return _Lanes((n,), {name: v[sel] for name, v in self.vals.items()}, None, subs)

    def sub(self, key, in_range: bool):
        """The resolved subscript ``key = (element, offset, extent)``;
        ``in_range`` is the static verdict that skips the range probe."""
        r = self.subs.get(key)
        if r is None:
            elem, c, extent = key
            v = self.vals[elem]
            if c:
                v = v + c
            r = self.subs[key] = (v, None, v) if in_range else lane_sub(v, extent)
        return r


def _bool_lanes(v, shape) -> np.ndarray:
    """``v != 0`` as a ``shape``-d bool array."""
    b = np.asarray(v) != 0
    return b if b.shape == shape else np.broadcast_to(b, shape)


# ---------------------------------------------------------------------------
# analysis structures
# ---------------------------------------------------------------------------


class _RefInfo:
    """One distinct affine reference into a *modified* array, with its
    static dilation recipe (see :func:`_dilation_recipe`)."""

    __slots__ = ("base", "axes", "takes", "collapse", "order", "bshape")

    def __init__(self, base: str, axes, recipe) -> None:
        self.base = base
        self.axes = axes  # per array axis: (elem_name | None, const offset)
        self.takes, self.collapse, self.order, self.bshape = recipe

    def dilate(self, ch: np.ndarray) -> np.ndarray:
        """Bool mask broadcastable to the grid: the lanes whose reference
        can see a changed slot of ``ch`` (caller skips all-false masks)."""
        for axis, vec in self.takes:
            ch = ch.take(vec, axis=axis)
        if self.collapse:
            ch = ch.any(axis=self.collapse, keepdims=True)
        if self.order is not None:
            ch = ch.transpose(self.order)
        return ch.reshape(self.bshape)


class _RedInfo:
    """A value-root reduction eligible for compressed evaluation."""

    __slots__ = (
        "op",
        "set_name",
        "elem",
        "values",
        "values_arr",
        "extent",
        "body_fn",
        "delta_ok",
        "delta_refs",
        "full_refs",
        "read_arrays",
        "node",
    )

    def __init__(self) -> None:
        #: (base, array axis, clipped index vector) per distinct reference
        #: whose subscript on that axis is the reduction element
        self.delta_refs: List[Tuple[str, int, np.ndarray]] = []
        self.full_refs: List[str] = []  # modified arrays referenced without the elem
        self.read_arrays: Set[str] = set()


class _ArmInfo:
    """One construct arm: optional predicate plus one direct assignment."""

    __slots__ = (
        "pred_fn",
        "pred_charges",
        "value_fn",
        "red",
        "body_charges",
        "target",
        "target_axes",
        "slots_ident",
        "refs",
        "node",
    )


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


_LANE, _RED = 0, 1  # the vp-ratio scope of a pre-bound charge (see _replay)


class _Compiler:
    def __init__(self, ip, inner, an: _Analysis, modified: Set[str]) -> None:
        self.ip = ip
        self.inner = inner
        self.an = an
        self.modified = modified
        self.cse_seen: Set[str] = set()
        #: distinct references into modified arrays, keyed (base, axes)
        self.refs: Dict[Tuple, _RefInfo] = {}
        self.red_ctx: Optional[dict] = None  # {'elem', 'set_name', 'grid', 'info', 'seen'}

    # -- helpers ----------------------------------------------------------

    def _elems_dict(self) -> Dict[str, str]:
        elems = {axis.elem: axis.set_name for axis in self.inner.grid.axes}
        if self.red_ctx is not None:
            elems[self.red_ctx["elem"]] = self.red_ctx["set_name"]
        return elems

    def _scope(self) -> int:
        return _RED if self.red_ctx is not None else _LANE

    def _charge_op(self, rec, count: int) -> None:
        rec.charge("alu", count=count, vp_ratio=self._scope())

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
            enabled=self.ip.config.comm_tiers,
        )
        return tier, rc, tuple(grid.shape)

    # -- expression compilation ------------------------------------------

    def compile(self, expr: ast.Expr, rec, *, value_root: bool = False):
        """Returns (fn(S, lanes) -> value, is_array); the charges the
        engines issue for ``expr`` are recorded, pre-bound, into ``rec``
        (see :func:`_replay`)."""
        if (
            self.ip.config.cse
            and isinstance(expr, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))
            and _pure(expr)
        ):
            key = (self._scope(), _text(expr))
            if key in self.cse_seen:
                # the engine serves this subtree from its CSE cache: no
                # charges, but the compressed evaluator still recomputes
                return self._compile_node(expr, fuse._Recorder(), value_root=value_root)
            out = self._compile_node(expr, rec, value_root=value_root)
            self.cse_seen.add(key)
            return out
        return self._compile_node(expr, rec, value_root=value_root)

    def _compile_node(self, expr: ast.Expr, rec, *, value_root: bool = False):
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
            return self._compile_index(expr, rec)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, rec)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, rec)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr, rec)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, rec)
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

    def _compile_index(self, expr: ast.Index, rec):
        arr = self._register_array(expr.base)
        elems = self._elems_dict()
        axes_desc = affine_ref_axes(expr, elems, self.ip.info.constants)
        if axes_desc is None or len(axes_desc) != len(arr.shape):
            raise _NotFrontierable()
        seen_elems = [e for e, _c in axes_desc if e is not None]
        if len(seen_elems) != len(set(seen_elems)):
            raise _NotFrontierable()  # a[i][i]: dilation geometry ambiguous
        red: Optional[_RedInfo] = self.red_ctx["info"] if self.red_ctx else None
        base = expr.base
        key = (base, axes_desc)
        if base in self.modified and key not in self.refs:
            self.refs[key] = _RefInfo(
                base, axes_desc, _dilation_recipe(self.an, axes_desc, arr.shape, red)
            )
        if base in self.modified and red is not None and key not in self.red_ctx["seen"]:
            self.red_ctx["seen"].add(key)
            red.read_arrays.add(base)
            bound = [a for a, (e, _c) in enumerate(axes_desc) if e == red.elem]
            for a in bound:
                c = axes_desc[a][1]
                red.delta_refs.append(
                    (base, a, np.clip(red.values_arr + c, 0, arr.shape[a] - 1))
                )
            if not bound:
                red.full_refs.append(base)
        tier, rc, gshape = self._classify(expr, axes_desc, arr, write=False)
        # gshape/layout carry the full-grid geometry to the shard sink:
        # slab exchanges are bulk per sweep, so the split is over the
        # whole grid even on compressed sweeps
        commtiers.charge_tier_at(
            rec, tier, rc, write=False, vp_ratio=self._scope(),
            grid_shape=gshape, layout=arr.layout,
        )  # fmt: skip
        # resolve what is static now: constant subscripts stay ints, element
        # subscripts become lane-context keys plus the verdict "every value
        # this element can take lands inside the extent" (no probe needed)
        subs = []
        for a, (elem, c) in enumerate(axes_desc):
            if elem is None:
                subs.append(int(c))
                continue
            if red is not None and elem == red.elem:
                vals = red.values_arr
            else:
                vals = self.an.axis_vals[self.an.grid_axis_of[elem]]
            extent = arr.shape[a]
            in_range = bool(vals.size) and bool(
                vals.min() + c >= 0 and vals.max() + c < extent
            )
            subs.append(((elem, c, extent), in_range))
        node = expr

        def fn(S, lanes):
            return lane_gather(
                S["arrays"][base],
                [s if s.__class__ is int else lanes.sub(*s) for s in subs],
                node,
                lanes.live,
            )

        return fn, True

    def _compile_unary(self, expr: ast.Unary, rec):
        f, is_arr = self.compile(expr.operand, rec)
        self._charge_op(rec, 1)
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

    def _compile_binary(self, expr: ast.Binary, rec):
        if expr.op in ("&&", "||"):
            lf, l_arr = self.compile(expr.left, rec)
            if not l_arr:
                # scalar left side short-circuits in the engines: the
                # charge sequence becomes data-dependent — full sweeps
                raise _NotFrontierable()
            self._charge_op(rec, 1)
            rf, _r_arr = self.compile(expr.right, rec)
            is_and = expr.op == "&&"

            def fn(S, lanes):
                ab = _bool_lanes(lf(S, lanes), lanes.shape)
                b = rf(S, lanes.refine(ab if is_and else ~ab))
                bb = _bool_lanes(b, lanes.shape)
                return ((ab & bb) if is_and else (ab | bb)).astype(np.int64)

            return fn, True
        lf, l_arr = self.compile(expr.left, rec)
        rf, r_arr = self.compile(expr.right, rec)
        self._charge_op(rec, 1)
        op = expr.op
        node = expr

        def fn(S, lanes):
            return apply_binop(op, lf(S, lanes), rf(S, lanes), node)

        return fn, l_arr or r_arr

    def _compile_ternary(self, expr: ast.Ternary, rec):
        cf, c_arr = self.compile(expr.cond, rec)
        if not c_arr:
            raise _NotFrontierable()  # host cond picks one branch: data-dependent
        tf, _ = self.compile(expr.then, rec)
        ef, _ = self.compile(expr.els, rec)
        self._charge_op(rec, 2)

        def fn(S, lanes):
            cb = _bool_lanes(cf(S, lanes), lanes.shape)
            tv = tf(S, lanes.refine(cb))
            ev = ef(S, lanes.refine(~cb))
            return np.where(cb, tv, ev)

        return fn, True

    def _compile_call(self, expr: ast.Call, rec):
        name = expr.func
        if name not in _CALL_CHARGES or name in self.ip.info.functions:
            raise _NotFrontierable()  # user functions (or shadowed builtins)
        want = 2 if name in ("min", "max") else 1
        if len(expr.args) != want:
            raise _NotFrontierable()
        fns = []
        is_arr = False
        for a in expr.args:
            f, arr = self.compile(a, rec)
            fns.append(f)
            is_arr = is_arr or arr
        self._charge_op(rec, _CALL_CHARGES[name])
        impl = _CALL_IMPLS[name]
        node = expr
        if want == 2:
            fa, fb = fns

            def fn(S, lanes):
                return impl(node, fa(S, lanes), fb(S, lanes))

        else:
            (fa,) = fns

            def fn(S, lanes):
                return impl(node, fa(S, lanes))

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
        if has_duplicates(np.asarray(axis.values, dtype=np.int64)):
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
        pred_rec, body_rec = fuse._Recorder(), fuse._Recorder()
        arm.pred_fn = None
        if block.pred is not None:
            pf, p_arr = comp.compile(block.pred, pred_rec)
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
        # True when the write targets exactly the grid (identity
        # subscripts): the written-slot bound IS the active mask and the
        # scatter simulation can be skipped
        arm.slots_ident = (
            arm.target_axes == tuple(range(an.rank))
            and tuple(arr.shape) == tuple(an.grid_shape)
            and all(
                np.array_equal(an.axis_vals[g], np.arange(arr.shape[a]))
                for a, g in enumerate(arm.target_axes)
            )
        )
        arm.red = None
        try:
            vf, _v_arr = comp.compile(assign.value, body_rec, value_root=True)
            arm.value_fn = vf
        except _Reduce as r:
            arm.value_fn = None
            arm.red = _compile_reduction(
                ip, inner, an, comp, r.node, block, modified, body_rec
            )
            # the delta scan's combine-with-stored-result rides the list
            # as its own entry, charged on the sweeps that take the delta
            body_rec.entries.append(("d",))
        w_tier, w_rc, w_gshape = comp._classify(t, t_axes, arr, write=True)
        commtiers.charge_tier_at(
            body_rec, w_tier, w_rc, write=True, vp_ratio=_LANE,
            grid_shape=w_gshape, layout=arr.layout,
        )  # fmt: skip
        arm.pred_charges = pred_rec.entries
        arm.body_charges = body_rec.entries
        arm.refs = list(comp.refs.values())
        an.arms.append(arm)
    return an


def _compile_reduction(
    ip, inner, an: _Analysis, comp: _Compiler, node: ast.Reduction, block, modified, rec
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
    red.values_arr = np.asarray(red.values, dtype=np.int64)
    red.extent = len(red.values)
    if red.extent == 0:
        raise _NotFrontierable()
    ext_grid = inner.grid.extend([isv])
    comp.red_ctx = {
        "elem": red.elem,
        "set_name": red.set_name,
        "grid": ext_grid,
        "info": red,
        "seen": set(),
    }
    rec.entries.append(("k",))  # the scan over the sweep's effective extent
    try:
        body_fn, _ = comp.compile(arm.expr, rec)
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


def _dilation_recipe(an: _Analysis, axes, shape, red: Optional[_RedInfo]) -> Tuple:
    """The static dilation recipe of one reference ``base[axes]`` into an
    array of ``shape``: ``(takes, collapse, order, bshape)``.

    A lane can see a changed slot when, axis by axis, its clipped
    subscript lands on it — and clipping is separable, so the dilation of
    a change mask is a chain of per-axis ``take``s with the clipped
    subscript vectors (``takes``; an axis whose vector is the identity
    needs none), an ``any`` over the axes bound to the reduction element
    (``collapse``: any changed slot along its range), and a transpose
    (``order``) plus reshape (``bshape``) that put the grid-bound axes in
    grid order, broadcastable over the grid axes the reference does not
    constrain.  Everything depends only on the analysis (grid geometry,
    reduction range) and the array shape, so it is built once per
    distinct reference at analysis time; no table is larger than one axis
    of the mask it indexes."""
    takes = []
    collapse = []
    bound = []  # (grid axis, array axis)
    for a, (elem, c) in enumerate(axes):
        extent = shape[a]
        if elem is None:
            vec = np.array([min(max(int(c), 0), extent - 1)], dtype=np.int64)
        elif red is not None and elem == red.elem:
            vec = np.clip(red.values_arr + c, 0, extent - 1)
            collapse.append(a)
        else:
            g = an.grid_axis_of[elem]
            vec = np.clip(an.axis_vals[g] + c, 0, extent - 1)
            bound.append((g, a))
        if not (len(vec) == extent and np.array_equal(vec, np.arange(extent))):
            takes.append((a, vec))
    bound.sort()
    # constant and collapsed axes have length one by the time the mask is
    # transposed, so only the relative order of the grid-bound axes counts
    kept = [a for _g, a in bound]
    order = tuple(a for a in range(len(axes)) if a not in kept) + tuple(kept)
    bshape = [1] * an.rank
    for g, _a in bound:
        bshape[g] = len(an.axis_vals[g])
    return (
        tuple(takes),
        tuple(collapse),
        None if order == tuple(range(len(axes))) else order,
        tuple(bshape),
    )


def _slots_of(an: _Analysis, arm: _ArmInfo, act: np.ndarray, shape) -> np.ndarray:
    """Array-shaped bool bound on the slots ``arm`` can write from ``act``."""
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
    """What one arm does in one compressed sweep: its active lanes and
    everything its charges depend on (:attr:`key`)."""

    __slots__ = ("L", "act", "lane_ratio", "K_eff", "red_ratio", "delta_on", "red_sel")

    def __init__(self, act: Optional[np.ndarray], L: int, lane_ratio: int) -> None:
        self.act = act
        self.L = L
        self.lane_ratio = lane_ratio
        self.red_ratio = lane_ratio
        self.K_eff: Optional[int] = None
        self.red_sel: Optional[np.ndarray] = None
        self.delta_on = False

    @property
    def key(self) -> Tuple:
        """The arm's full charge key: equal keys replay equal charges."""
        return (self.L > 0, self.lane_ratio, self.red_ratio, self.K_eff, self.delta_on)

    def scan_extent(self, full_extent: int) -> int:
        return self.K_eff if self.K_eff is not None else full_extent


#: an arm with no active lanes this sweep: evaluates and charges nothing
_IDLE = _ArmState(None, 0, 1)


def _replay(clk, charges: Sequence, st: _ArmState) -> None:
    """Issue one arm's pre-bound charges at the sweep's VP ratios — the
    same loop for the estimator and for the real clock.

    The list is what the real cost helpers (``charge_tier_at`` and
    friends) recorded at analysis time, so it is the genuine charge
    sequence by construction.  Entries follow
    :meth:`repro.machine.cost.Clock.replay`'s table format, except that
    the vp-ratio slot holds a *scope* (:data:`_LANE` or :data:`_RED`)
    resolved here against the sweep's state, and two tags are per-sweep:
    ``("k",)`` is the reduction scan over the sweep's effective extent
    and ``("d",)`` the delta combine."""
    ratios = (st.lane_ratio, st.red_ratio)
    charge = clk.charge
    for e in charges:
        tag = e[0]
        if tag == "c":
            charge(e[1], count=e[2], vp_ratio=ratios[e[3]])
        elif tag == "t":
            clk.count_tier(e[1])
        elif tag == "x":
            clk.note_shard_ref(e[1], e[2], e[3], e[4], e[5])
        elif tag == "s":
            clk.charge_scan(e[1], vp_ratio=ratios[e[2]], steps_per_level=e[3])
        elif tag == "k":
            clk.charge_scan(st.K_eff, vp_ratio=st.red_ratio)
        elif st.delta_on:  # "d": combine the delta scan with the stored result
            charge("alu", vp_ratio=st.lane_ratio)


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
        #: estimator totals by sweep charge key (see ``plan_compressed``)
        self._estimates: Dict[Tuple, float] = {}

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
        dirty = {name: bool(m.any()) for name, m in pseudo.items()}
        states: List[_ArmState] = []
        for arm in an.arms:
            act = np.zeros(an.grid_shape, dtype=bool)
            for ref in arm.refs:
                if dirty[ref.base]:
                    act |= ref.dilate(pseudo[ref.base])
            act &= self.base
            L = int(np.count_nonzero(act))
            if not L:
                states.append(_IDLE)
                continue
            st = _ArmState(act, L, ratio_for(L, machine))
            if arm.red is not None:
                st = self._plan_reduction(arm.red, st, pseudo, dirty)
            states.append(st)
            if st.L:
                target = pseudo[arm.target]
                pseudo[arm.target] = target | _slots_of(an, arm, st.act, target.shape)
                dirty[arm.target] = True
        # the estimate is a pure function of the arms' charge keys: replay
        # the estimator only for a key this session has not costed yet
        key = tuple(st.key for st in states)
        est = self._estimates.get(key)
        if est is None:
            clk = _EstClock(machine.clock.costs)
            self._charge_preds(clk, states)
            self._charge_bodies(clk, states)
            est = self._estimates[key] = clk.time_us
        if est >= self.reference:
            return None
        return states

    def _plan_reduction(self, red: _RedInfo, st: _ArmState, pseudo, dirty) -> _ArmState:
        """Decide the delta scan for one active reduction arm: which
        reduction slots it must rescan and what VP ratio that costs."""
        machine = self.ip.machine
        delta_valid = red.delta_ok
        if delta_valid:
            want_down = red.op == "min"
            for name in red.read_arrays:
                up, down = self.dirs.get(name, (False, False))
                if (want_down and up) or (not want_down and down):
                    delta_valid = False
                    break
        if not delta_valid:
            st.K_eff = red.extent
        else:
            if any(dirty[name] for name in red.full_refs):
                sel = np.ones(red.extent, dtype=bool)
            else:
                sel = np.zeros(red.extent, dtype=bool)
                for base_name, a_ax, idx_vec in red.delta_refs:
                    if not dirty[base_name]:
                        continue
                    ch = pseudo[base_name]
                    other = tuple(x for x in range(ch.ndim) if x != a_ax)
                    vec = ch.any(axis=other) if other else ch
                    sel |= vec[idx_vec]
            k_eff = int(np.count_nonzero(sel))
            if k_eff == 0:
                return _IDLE  # nothing feeds this reduction: arm is a no-op
            st.delta_on = True
            st.K_eff = k_eff
            st.red_sel = sel
        st.red_ratio = ratio_for(st.L * st.K_eff, machine)
        return st

    def _charge_preds(self, clk, states: List[_ArmState]) -> None:
        """The sweep's ordered charge sequence up to and including a
        ``*par``'s termination test — replayed identically for the
        estimate and for the real clock."""
        full_ratio = self.vps.vp_ratio
        an = self.an
        if self.kind == "solve":
            clk.charge("alu", count=len(an.modified) or 1, vp_ratio=full_ratio)
        for arm, st in zip(an.arms, states):
            if st.L:
                _replay(clk, arm.pred_charges, st)
        if self.kind == "par":
            clk.charge("global_or", vp_ratio=full_ratio)
            clk.charge("host_cm_latency")

    def _charge_bodies(self, clk, states: List[_ArmState]) -> None:
        """The rest of the sequence: the arm bodies and a ``*solve``'s
        fixed-point test."""
        for arm, st in zip(self.an.arms, states):
            if st.L:
                _replay(clk, arm.body_charges, st)
        if self.kind == "solve":
            clk.charge("global_or", vp_ratio=self.vps.vp_ratio)
            clk.charge("host_cm_latency")

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
        S = self.S
        cur: Dict[str, np.ndarray] = {
            name: np.zeros_like(m) for name, m in self.prev.items()
        }
        new_dirs: Dict[str, List[bool]] = {name: [False, False] for name in cur}

        # predicates first (the engines evaluate every arm's predicate
        # before any body runs); one lane context per arm resolves each
        # subscript once for the predicate and the body alike
        if self.kind == "solve":
            clock.charge("alu", count=len(an.modified) or 1, vp_ratio=self.vps.vp_ratio)
        todo: List[Tuple[_ArmInfo, _ArmState, _Lanes, Optional[np.ndarray]]] = []
        for k, (arm, st) in enumerate(zip(an.arms, states)):
            if not st.L:
                continue
            idx = np.nonzero(st.act)
            lanes = _Lanes(
                (st.L,),
                {elem: an.axis_vals[g][idx[g]] for g, elem in enumerate(an.elem_of_axis)},
            )
            ok = None
            if arm.pred_fn is not None:
                _replay(clock, arm.pred_charges, st)
                ok = _bool_lanes(arm.pred_fn(S, lanes), lanes.shape)
                if self.kind == "par":
                    self.par_masks[k][idx] = ok  # active lanes lie inside base
            todo.append((arm, st, lanes, ok))

        if self.kind == "par":
            clock.charge("global_or", vp_ratio=self.vps.vp_ratio)
            clock.charge("host_cm_latency")
            self._trace(states, dense=False)
            if not any(np.any(m) for m in self.par_masks):
                self._note_lanes(cur, new_dirs)
                return False

        for arm, st, lanes, ok in todo:
            _replay(clock, arm.body_charges, st)
            if ok is not None:
                n_ok = int(np.count_nonzero(ok))
                if not n_ok:
                    continue
                if n_ok < st.L:
                    lanes = lanes.select(ok, n_ok)
            if arm.red is not None:
                value = self._eval_reduction(arm, st, lanes)
            else:
                value = arm.value_fn(S, lanes)
            subs = [lanes.vals[an.elem_of_axis[g]] for g in arm.target_axes]
            changed, old, new = lane_scatter(
                S["arrays"][arm.target], subs, value, arm.node.target
            )
            if np.any(changed):
                cur[arm.target][tuple(s[changed] for s in subs)] = True
                oc, nc = old[changed], new[changed]
                d = new_dirs[arm.target]
                d[0] = d[0] or bool(np.any(nc > oc))
                d[1] = d[1] or bool(np.any(nc < oc))

        if self.kind == "solve":
            clock.charge("global_or", vp_ratio=self.vps.vp_ratio)
            clock.charge("host_cm_latency")
            self._trace(states, dense=False)
        return self._note_lanes(cur, new_dirs) or self.kind == "par"

    def _note_lanes(self, cur: Dict[str, np.ndarray], dirs: Dict[str, List[bool]]) -> bool:
        """Seed the next sweep's frontier from a lane sweep's change
        masks; returns whether anything changed."""
        self.prev = cur
        self.last_stats = {
            name: (int(np.count_nonzero(m)), int(m.size)) for name, m in cur.items()
        }
        self.dirs = {name: (d[0], d[1]) for name, d in dirs.items()}
        return any(n for n, _size in self.last_stats.values())

    def _eval_reduction(self, arm: _ArmInfo, st: _ArmState, lanes: _Lanes):
        """The arm's reduction over ``lanes`` x the (delta-selected)
        reduction range."""
        red = arm.red
        rv = red.values_arr[st.red_sel] if st.delta_on else red.values_arr
        shape = (lanes.shape[0], int(rv.size))
        vals = {name: v[:, None] for name, v in lanes.vals.items()}
        vals[red.elem] = rv[None, :]
        body = np.asarray(red.body_fn(self.S, _Lanes(shape, vals)))
        if body.shape != shape:
            body = np.broadcast_to(body, shape)
        part = _reduce_op(red.op, [body], [np.True_], axes=(1,))
        if st.delta_on:
            data = self.S["arrays"][arm.target]
            old = data[tuple(lanes.vals[self.an.elem_of_axis[g]] for g in arm.target_axes)]
            return _RED_UFUNC[red.op](old, part)
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
    if not ip.config.frontier_sweeps:
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
        self.refs = refs  # per assignment, distinct by (base, axes)

    def candidates(self, k: int, newly: Dict[str, np.ndarray]) -> np.ndarray:
        """Grid mask of lanes assignment ``k`` must re-examine."""
        out = np.zeros(self.an.grid_shape, dtype=bool)
        for ref in self.refs[k]:
            ch = newly.get(ref.base)
            if ch is not None and ch.any():
                out |= ref.dilate(ch)
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
    for name in targets:
        b = inner.env.try_lookup(name)
        if not isinstance(b, ArrayVar):
            return _FALLBACK
        an.array_shapes[name] = b.shape
    elems = {axis.elem: axis.set_name for axis in grid.axes}
    refs: List[List[_RefInfo]] = []
    for pred, assign in assignments:
        mine: Dict[Tuple, _RefInfo] = {}
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
                    shape = an.array_shapes[node.base]
                    if len(axes) != len(shape):
                        return _FALLBACK
                    if (node.base, axes) not in mine:
                        mine[node.base, axes] = _RefInfo(
                            node.base, axes, _dilation_recipe(an, axes, shape, None)
                        )
        refs.append(list(mine.values()))
    return GuardedFrontier(an, refs)


def guarded_frontier(ip, stmt, assignments, inner) -> Optional[GuardedFrontier]:
    """Frontier worklist support for one guarded ``solve``, or None."""
    if not ip.config.frontier_sweeps:
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
    # the dilation recipes are cut for the analysed array shapes (same
    # program point can rebind arrays across calls)
    for name, shape in gf.an.array_shapes.items():
        b = inner.env.try_lookup(name)
        if not isinstance(b, ArrayVar) or b.shape != shape:
            clock.count_frontier("fallbacks")
            return None
    clock.count_frontier("guarded_constructs")
    return gf

"""Kernel fusion: lower a construct body to whole-array NumPy programs.

The compiled-plan engine (:mod:`repro.interp.plan`) already memoises the
expensive per-statement analyses (index recipes, tier decisions, charge
recipes), but the steady-state sweep loop still walks one Python closure
per expression node per sweep.  This pass goes one step further, in the
spirit of the paper's "UC compiles to tight data-parallel code" claim:
for an iterated construct it compiles the whole charge-and-compute
statement sequence once, into

* a **register program**: a flat list of steps over preallocated value
  slots (``regs``).  Gathers and scatters embed the same ``np.ix_`` /
  NEWS-shift recipes the plan memos would build, arithmetic becomes
  direct ``numpy`` calls, guards become boolean mask registers; and
* a **static charge table**: the exact ``Clock.charge`` /
  ``charge_scan`` / ``count_tier`` sequence each statement would issue,
  recorded once at compile time by running the real cost helpers against
  a recorder, and replayed per sweep with three tuple reads per entry.

Because every charge a fused statement can issue is provably
data-independent (that is what the fusability checks below establish),
replaying the table is *bit-identical* to the unfused engine — the
differential suites hold ``fusion=True`` to the tree-walker's exact
fingerprint.  Statements the pass cannot prove static (host calls,
dynamic subscripts, data-dependent short-circuits, send-reduce
candidates...) become **unfused segments**: the fused sweep drops back to
the ordinary compiled-plan closure for just that statement, keeping the
rest of the body on the fast path.

Compile cost is independent of grid size: address resolution works on
the compact per-axis form of each static subscript (``plan._compact``).
``_full_idx`` clips those vectors and hands out grid-shaped *views*, the
broadcast-axis test reads strides, scatter uniqueness is proved from
duplicate-free per-axis vectors, and a dense index tuple is materialised
only when the fancy-index fallback is what a ``_Gather`` stores (recipes
are still verified against the dense gather below ``_VERIFY_LIMIT``).
What a step *keeps* is sized by what it replays each sweep — a reduced
index over the axes a reference varies along, a scatter's flat address
vector over the statement's own grid — never by an enclosing reduction.

Correctness subtleties worth naming:

* **CSE simulation.**  Inside a construct the engine arms a
  common-subexpression cache whose hits *remove* charges.  Fusion must
  predict every hit and miss exactly, in both directions, so the
  compiler simulates the cache statically: cache keys are the same
  ``(expr text, grid shape)`` pairs, and each store is tagged with a
  *mask token* describing the chain of predicate refinements under which
  it was computed.  A lookup whose token extends the store's token is a
  guaranteed runtime hit (its mask is pointwise contained in the stored
  mask); any other present-key lookup is data-dependent and demotes the
  statement to an unfused segment.  Writes drop entries by read-set,
  exactly like ``Interpreter.cse_invalidate``; an invalidation issued
  from a *conditional* arm tombstones the key, and a later lookup from a
  different arm bails the whole construct (at run time the killer arm
  may be skipped, leaving the entry live).  Texts reachable from both
  fused and unfused parts of one body bail the construct too — the two
  cache worlds must never overlap.
* **Error paths.**  Charges replay before the statement's value steps
  run, so a statement that *raises* (bounds, UC101, division by zero)
  leaves slightly different partial charges than the unfused engine.
  Those errors abort the run — the fingerprint of a completed run is
  unaffected — and the differential tests only assert messages there.
* **Compressed frontier sweeps.**  A sweep the frontier engine runs
  compressed is *charged* by that engine at the active VP count, never
  from a table recorded here.  When its active set is dense the same
  register program still *evaluates* it: ``begin_sweep``/``run_body``
  take ``charge=False`` and run compute-only (no table replay, no
  ``fusion.*`` counters), see :mod:`repro.interp.frontier`.
* **Reductions are strip-mined.**  ``reduce(a ∘ b)`` over a large inner
  grid never materialises ``a ∘ b``: :func:`_strip_reduce` walks strips
  of the compact operands through one cache-sized temporary, reordering
  and narrowing to int32 only under the site's UC501 verdict.  It is the
  only such kernel ("Reduction kernel" in ``docs/PERFORMANCE.md``).
* **One evaluator, solo or lane-stacked.**  :mod:`repro.interp.batch`
  runs these same steps over a chunk of ``run_batch`` lanes; each step
  reads the leading lane axis off its operands (see the register-program
  section below).
* **Off switch.**  ``config.fused`` (see "Configuration" in
  ``docs/PERFORMANCE.md``); the tree-walking oracle remains the ground
  truth either way.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..compiler.cstar_gen import expr_to_text
from ..lang import ast
from ..lang.errors import UCMultipleAssignmentError, UCRuntimeError
from ..lang.scope import IndexSetValue
from ..machine.router import has_duplicates
from ..machine.scan import INF
from ..mapping.locality import classify_reference, classify_write
from . import commtiers
from . import eval_expr as E
from .plan import (
    _VERIFY_LIMIT,
    _build_index_recipe,
    _compact,
    _IndexRecipe,
    _oob_masks,
    _UnaryPlan,
    compile_stmt,
)
from .values import (
    ArrayVar,
    ElementBinding,
    LaneScalars,
    ScalarVar,
    coerce_scalar,
    lanewise,
    lift,
)

__all__ = ["fused_for", "FusedConstruct"]

#: cached sentinel for constructs the pass declined to fuse
_UNFUSABLE = object()

#: marker for register values not known at compile time
_DYN = object()


class _Bail(Exception):
    """The whole construct cannot be fused."""


class _Demote(Exception):
    """The current statement cannot be fused (falls back per-statement)."""


# ---------------------------------------------------------------------------
# charge tables
# ---------------------------------------------------------------------------


class _Recorder:
    """Clock stand-in that records the charge recipe instead of charging.

    The compiler runs the *real* cost helpers (``charge_tier_at`` and
    friends) against this recorder, so the table is the genuine charge
    sequence by construction, not a reimplementation of it.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Tuple] = []

    def charge(self, kind: str, *, count: int = 1, vp_ratio: int = 1) -> float:
        self.entries.append(("c", kind, count, vp_ratio))
        return 0.0

    def charge_scan(
        self, n_vps: int, *, vp_ratio: int = 1, steps_per_level: int = 1
    ) -> float:
        self.entries.append(("s", n_vps, vp_ratio, steps_per_level))
        return 0.0

    def count_tier(self, tier: str) -> None:
        self.entries.append(("t", tier))

    def note_shard_ref(self, tier, rc, layout, grid_shape, write) -> None:
        # recorded unconditionally so compiled charge tables are identical
        # for every shard count (the compile store shares them); replay
        # ignores the entry unless a shard sink is installed
        self.entries.append(("x", tier, rc, layout, grid_shape, write))

    def note_shard_reduce(self, op, order_safe, n_vps, vp_ratio, grid_shape) -> None:
        # same story for reduction observations (the "r" tag): the UC5xx
        # verdict rides the table so sharded replay can gate pre-combining
        self.entries.append(("r", op, order_safe, n_vps, vp_ratio, grid_shape))


def _replay(clock, entries) -> None:
    """Re-issue a recorded charge table against the real clock."""
    clock.replay(entries)


# ---------------------------------------------------------------------------
# register-program steps
# ---------------------------------------------------------------------------
# Each step is ``run(ip, regs)``: read source registers, write ``dst``.
# Mask registers hold boolean arrays; everything else holds whatever the
# unfused evaluator would have produced (scalars or grid-shaped arrays).
#
# The same ``run`` serves a ``run_batch`` chunk of lanes: there every
# mask register and every array read from a program variable carries a
# leading lane axis, ``(n,) + shape``, and a step reads that axis off its
# operands (``lead`` = the mask's or the data's extra dimensions; 0 solo).
# Lane-uniform values stay solo-shaped and broadcast; scalars that differ
# between lanes are LaneScalars (:func:`~repro.interp.values.lanewise`).
# The bound variables are then the chunk's LaneVars (see
# :meth:`FusedConstruct._rebind`).


def _run(ip, regs, steps) -> None:
    for s in steps:
        s.run(ip, regs)


def _bool_view(v, shape):
    """``broadcast(truthy(v))`` over a mask register's ``shape``."""
    return np.broadcast_to(np.asarray(E._truthy(lift(v, len(shape)))), shape)


def _truthy_int(v):
    v = E._truthy(v)
    return v.astype(np.int64) if isinstance(v, np.ndarray) else int(v)


def _check_bounds(step, m) -> None:
    """Raise the bounds error of a gather/scatter whose live VPs index out
    of range; a lane stack reports its first offending lane, as that
    lane's solo run would."""
    for ob in step.oob:
        if ob is not None and np.any(ob & m):
            if m.ndim > ob.ndim:
                m = m[int(np.argmax((ob & m).reshape(len(m), -1).any(axis=1)))]
            E._bounds_check(step.node, step.subs, step.view_shape, m)


class _ReadScalar:
    __slots__ = ("dst", "var")

    def __init__(self, dst: int, var: ScalarVar) -> None:
        self.dst = dst
        self.var = var

    def run(self, ip, regs) -> None:
        regs[self.dst] = self.var.value


class _Unary:
    __slots__ = ("dst", "src", "node")

    def __init__(self, dst: int, src: int, node: ast.Unary) -> None:
        self.dst = dst
        self.src = src
        self.node = node

    def run(self, ip, regs) -> None:
        regs[self.dst] = lanewise(_UnaryPlan._apply, 0, self.node, regs[self.src])


class _Binary:
    __slots__ = ("dst", "a", "b", "node", "mask")

    def __init__(self, dst: int, a: int, b: int, node: ast.Binary, mask: int) -> None:
        self.dst = dst
        self.a = a
        self.b = b
        self.node = node
        self.mask = mask

    def run(self, ip, regs) -> None:
        regs[self.dst] = lanewise(
            E.apply_binop, regs[self.mask].ndim,
            self.node.op, regs[self.a], regs[self.b], self.node,
        )  # fmt: skip


class _Bool:
    """``dst = broadcast(truthy(src))`` — a predicate's boolean view."""

    __slots__ = ("dst", "src", "mask")

    def __init__(self, dst: int, src: int, mask: int) -> None:
        self.dst = dst
        self.src = src
        self.mask = mask

    def run(self, ip, regs) -> None:
        regs[self.dst] = _bool_view(regs[self.src], regs[self.mask].shape)


class _Mask:
    """``dst = base & cond`` (or ``& ~cond``): one context refinement."""

    __slots__ = ("dst", "base", "cond", "invert")

    def __init__(self, dst: int, base: int, cond: int, invert: bool) -> None:
        self.dst = dst
        self.base = base
        self.cond = cond
        self.invert = invert

    def run(self, ip, regs) -> None:
        c = regs[self.cond]
        regs[self.dst] = regs[self.base] & (~c if self.invert else c)


class _TruthyInt:
    """Scalar-left short-circuit result: ``int(truthy(v))`` / int64 array."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: int, src: int) -> None:
        self.dst = dst
        self.src = src

    def run(self, ip, regs) -> None:
        regs[self.dst] = lanewise(_truthy_int, 0, regs[self.src])


class _Combine:
    """Array short-circuit combine: ``(lbool op rbool).astype(int64)``."""

    __slots__ = ("dst", "lbool", "right", "is_and", "mask")

    def __init__(self, dst, lbool, right, is_and, mask) -> None:
        self.dst = dst
        self.lbool = lbool
        self.right = right
        self.is_and = is_and
        self.mask = mask

    def run(self, ip, regs) -> None:
        lbool = regs[self.lbool]
        rbool = _bool_view(regs[self.right], regs[self.mask].shape)
        if self.is_and:
            regs[self.dst] = (lbool & rbool).astype(np.int64)
        else:
            regs[self.dst] = (lbool | rbool).astype(np.int64)


class _Where:
    __slots__ = ("dst", "cbool", "then", "els", "mask")

    def __init__(self, dst, cbool, then, els, mask) -> None:
        self.dst = dst
        self.cbool = cbool
        self.then = then
        self.els = els
        self.mask = mask

    def run(self, ip, regs) -> None:
        regs[self.dst] = lanewise(
            np.where, regs[self.mask].ndim,
            regs[self.cbool], regs[self.then], regs[self.els],
        )  # fmt: skip


class _Gather:
    """One memoised array read, mirroring ``_GatherPlan``'s hit path."""

    __slots__ = (
        "dst",
        "node",
        "arr",
        "subs",
        "view_shape",
        "oob",
        "mask",
        "shift",
        "recipe",
        "idx",
        "view_ok",
    )

    def __init__(
        self, dst, node, arr, subs, view_shape, oob, mask, shift, recipe, idx, view_ok
    ) -> None:
        self.dst = dst
        self.node = node
        self.arr = arr
        self.subs = subs
        self.view_shape = view_shape
        self.oob = oob
        self.mask = mask
        self.shift = shift
        self.recipe = recipe
        self.idx = idx
        self.view_ok = view_ok

    def run(self, ip, regs) -> None:
        data = self.arr.data
        lead = data.ndim - len(self.view_shape)
        if self.oob is not None:
            _check_bounds(self, regs[self.mask])
        if self.shift is not None:
            shift = self.shift
            if lead:
                shift = [(a + lead, s, e) for a, s, e in shift]
            regs[self.dst] = commtiers.run_shifts(data, shift)
            return
        if self.recipe is not None:
            recipe = self.recipe
            if lead:
                recipe = _lane_recipe(recipe, len(data))
            out = recipe.take(data)
            regs[self.dst] = out if self.view_ok else out.copy()
            return
        if lead:
            lanes = np.arange(len(data)).reshape((-1,) + (1,) * self.idx[0].ndim)
            regs[self.dst] = data[(lanes,) + self.idx]
            return
        regs[self.dst] = data[self.idx]


def _lane_recipe(r: _IndexRecipe, n: int) -> _IndexRecipe:
    """``r`` over a stack of ``n`` lanes: the lane axis rides in front as
    one more ``np.ix_`` vector.  Pure advanced indexing keeps the copy
    C-contiguous (a leading slice would mix basic and advanced indexing
    and interleave the lane axis innermost, which wrecks the memory
    layout of every downstream ufunc and reduction)."""

    def up(axes):
        return tuple(a + 1 for a in axes)

    return _IndexRecipe(
        (np.arange(n),) + tuple(r.vecs),
        None if r.perm is None else (0,) + up(r.perm),
        up(r.squeeze),
        up(r.expand),
        (n,) + tuple(r.shape),
    )


class _Scatter:
    """One memoised masked write, mirroring ``_ScatterPlan``'s hit path."""

    __slots__ = (
        "node",
        "arr",
        "val",
        "mask",
        "grid_shape",
        "view_shape",
        "subs",
        "oob",
        "flat",
        "unique",
        "identity",
    )

    def __init__(
        self, node, arr, val, mask, grid_shape, view_shape, subs, oob, flat, unique
    ) -> None:
        self.node = node
        self.arr = arr
        self.val = val
        self.mask = mask
        self.grid_shape = grid_shape
        self.view_shape = view_shape
        self.subs = subs
        self.oob = oob
        self.flat = flat
        self.unique = unique
        #: the grid writes every element in storage order: under an
        #: all-true mask the store is one cast copy, no fancy indexing
        self.identity = flat.size == math.prod(view_shape) and bool(
            np.array_equal(flat, np.arange(flat.size))
        )

    def run(self, ip, regs) -> None:
        data = self.arr.data
        mask = regs[self.mask]
        if self.oob is not None:
            _check_bounds(self, mask)
        value = lift(regs[self.val], mask.ndim)
        if self.identity and isinstance(value, np.ndarray) and mask.all():
            np.copyto(
                data.reshape(mask.shape),
                E._cast_array(np.broadcast_to(value, mask.shape), data.dtype),
            )
            ip.cse_invalidate(self.node.base)
            return
        flat_mask = mask.reshape(-1)
        flat = self.flat
        if mask.ndim > len(self.grid_shape):
            # a lane stack: each lane's addresses offset into its own block
            # (unique per lane, screened, and the blocks are disjoint)
            lanes = np.arange(len(mask))[:, None] * math.prod(self.view_shape)
            flat = (lanes + flat).reshape(-1)
        flat_idx = flat[flat_mask]
        if isinstance(value, np.ndarray):
            vals = np.broadcast_to(value, mask.shape).reshape(-1)[flat_mask]
        else:
            vals = np.full(int(flat_mask.sum()), value)
        vals = E._cast_array(vals, data.dtype)
        if not self.unique:
            E._check_single_assignment(
                self.node,
                flat_idx,
                vals,
                grid_shape=self.grid_shape,
                flat_mask=flat_mask,
                view_shape=self.view_shape,
                construct=getattr(ip, "current_construct", None),
            )
        data.reshape(-1)[flat_idx] = vals
        ip.cse_invalidate(self.node.base)


class _AssignScalar:
    """Masked parallel write to a front-end scalar (all VPs must agree).

    A scalar value is written whenever the statement runs, so on a lane
    stack it goes to the lanes whose ``unit`` — the mask of the arm body
    (or predicate) holding the statement — has a live VP."""

    __slots__ = ("var", "val", "mask", "grid_shape", "node", "unit")

    def __init__(self, var, val, mask, grid_shape, node, unit) -> None:
        self.var = var
        self.val = val
        self.mask = mask
        self.grid_shape = grid_shape
        self.node = node
        self.unit = unit

    def run(self, ip, regs) -> None:
        value = regs[self.val]
        mask = regs[self.mask]
        var = self.var
        if mask.ndim == len(self.grid_shape):
            v = self._agreed(value, mask)
            if v is None:
                return
            var.value = coerce_scalar(var.ctype, v)
        else:  # a lane stack: ``var`` is the chunk's LaneVar
            if isinstance(value, LaneScalars):
                per = value.values
            elif isinstance(value, np.ndarray):
                per = np.broadcast_to(value, mask.shape)
            else:
                per = [value] * len(mask)
            unit = regs[self.unit]
            for j in np.flatnonzero(unit.reshape(len(unit), -1).any(axis=1)):
                v = self._agreed(per[j], mask[j])
                if v is not None:
                    var.lanes[j].value = coerce_scalar(var.ctype, v)
        ip.cse_invalidate(var.name)

    def _agreed(self, value, mask):
        """The one value a write of ``value`` under ``mask`` stores (None:
        no VP live); UC101 when the live VPs disagree."""
        if not isinstance(value, np.ndarray):
            return value
        vals = np.broadcast_to(value, mask.shape)[mask]
        if vals.size == 0:
            return None
        flat = vals.reshape(-1)
        if np.any(flat != flat[0]):
            other = flat[flat != flat[0]][0]
            raise UCMultipleAssignmentError(
                f"[UC101] par assigns multiple distinct values to scalar "
                f"{self.var.name!r} (values {flat[0].item()!r} and "
                f"{other.item()!r}); reduce the grid value first ($+, $min, "
                "...) or make the choice explicit with the $, operator "
                "(paper §3.4)",
                self.node.line,
                self.node.col,
            )
        return flat[0]


# ---------------------------------------------------------------------------
# the reduction kernel
# ---------------------------------------------------------------------------
# One strip-mined ``reduce(a ∘ b)`` for the solo sweep and the batched
# lanes alike ("Reduction kernel" in docs/PERFORMANCE.md).  The CM-2 never
# holds a reduction's N^3 virtual processors at once either: it
# time-slices its physical PEs over the VP ratio.

#: elementwise binary ops apply_binop maps 1:1 onto a ufunc with no
#: dtype munging — eligible to fuse into the strip-mined reduction
_BLOCKED_BINOPS = frozenset({"+", "-", "*", "&", "|", "^", "<<", ">>"})

_LOGICAL_REDUCTIONS = ("logand", "logor", "logxor")

#: byte budget of the strip temporary: big enough to amortise the python
#: loop, small enough to stay in cache instead of making the DRAM round
#: trip the unblocked evaluation pays (int32 narrowing doubles the
#: elements that fit)
_STRIP_BYTES = 1 << 19

#: a reduction whose whole operand fits two int64 strips is already
#: cache-sized; strip-mining it only adds overhead
_STRIP_MIN_ELEMS = 2 * _STRIP_BYTES // 8

#: an operand with more real elements than this is read in place — never
#: scanned for narrowing bounds, cast or re-laid out: one pass over a
#: materialised operand costs more than it saves
_COMPACT_MAX = 1 << 17

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_I32 = np.dtype(np.int32)


def _int32_window(op: str, red_op: str, bounds_a, bounds_b, red_extent: int):
    """True when evaluating ``a op b`` then ``red_op``-reducing in int32
    is bit-identical to int64: interval arithmetic proves every operand,
    every elementwise result and every partial reduction fits in int32
    (so no wraparound can occur in either width)."""
    lo_a, hi_a = bounds_a
    lo_b, hi_b = bounds_b
    for x in (lo_a, hi_a, lo_b, hi_b):
        if not (_INT32_MIN <= x <= _INT32_MAX):
            return False
    if op == "+":
        lo, hi = lo_a + lo_b, hi_a + hi_b
    elif op == "-":
        lo, hi = lo_a - hi_b, hi_a - lo_b
    elif op == "*":
        prods = (lo_a * lo_b, lo_a * hi_b, hi_a * lo_b, hi_a * hi_b)
        lo, hi = min(prods), max(prods)
    elif op in ("&", "|", "^"):
        # int32-representable operands are closed under bitwise ops
        # (sign extension commutes with &, | and ^)
        lo, hi = _INT32_MIN, _INT32_MAX
    else:
        return False  # shifts: overflow analysis not worth the cases
    if not (_INT32_MIN <= lo and hi <= _INT32_MAX):
        return False
    if red_op in ("min", "max"):
        return True  # result stays within the element bounds
    if red_op == "add":
        # every partial sum is bounded by extent x the signed extremes
        return (
            _INT32_MIN <= red_extent * min(lo, 0)
            and red_extent * max(hi, 0) <= _INT32_MAX
        )
    return False  # "mul": products explode past any useful bound


def _strip_reduce(bin_op, red_op, a, b, shape, n_red, order_safe):
    """``red_op``-reduce ``a bin_op b`` over the trailing ``n_red`` axes
    of ``shape`` without ever materialising the ``shape``-sized operand.

    ``a`` and ``b`` are scalars or arrays broadcastable to ``shape`` —
    the solo inner grid, or the lane-stacked ``(n,) + inner_shape`` of a
    batch chunk: the lane axis is just the first non-reduced axis.  Each
    is taken **compact** (broadcast axes collapsed to extent 1, so
    O(real data); a scalar is all extent 1) and, when small, cast and
    laid out contiguously once;
    the loop then walks strips of the leading non-reduced axes,
    ``tmp = a_strip ∘ b_strip`` into one reused buffer of at most
    :data:`_STRIP_BYTES` and ``reduce(tmp)`` straight into the result.
    Every output element still reduces its complete input run in one
    ufunc call.  Two legality classes:

    * **int64 under the site's UC501 verdict** (``order_safe``, stamped
      at fuse-compile time from ``repro.analysis.determinism`` — min/max
      always; int add/mul, exact mod 2^64): the combine may be reordered,
      so the reduced axes go *outermost* — numpy then accumulates over
      long contiguous output rows instead of one short run per output
      element — and when interval bounds prove that every operand,
      elementwise result and partial reduction fits in int32
      (:func:`_int32_window`) the strips run in int32, half the traffic,
      and the result is upcast exactly.
    * **float64, and int64 without a proof**: reduced axes stay
      innermost and contiguous, which is the grouping (hence numpy's
      pairwise float summation order) of the unblocked evaluation
      whenever that evaluation's intermediate would be C-ordered — numpy
      is asked, on a 2-per-axis corner of the operands; for any other
      operand layout the kernel declines.  Bit-identical for every dtype.

    Returns the reduced array, or None when the operands are outside the
    pattern (the caller then evaluates ``a bin_op b`` and reduces it
    unblocked, which is the definition the kernel is held to).
    """
    rank = len(shape)
    n_out = rank - n_red
    if n_out == 0:
        return None  # nothing to strip-mine
    ops = []
    for v in (a, b):
        if isinstance(v, np.ndarray):
            if v.dtype != _I64 and v.dtype != _F64:
                return None
        elif isinstance(v, (bool, np.bool_)):
            return None
        elif isinstance(v, (int, np.integer)):
            if not -(2**63) <= int(v) < 2**63:
                return None  # numpy would object-promote
            v = np.int64(v)
        elif isinstance(v, (float, np.floating)):
            v = np.float64(v)
        else:
            return None
        ops.append(_compact(np.broadcast_to(v, shape)))
    dtype = np.result_type(*ops)  # int64 or float64
    bin_ufunc = E._SIMPLE_BINOPS[bin_op]
    red_ufunc = E._RED_UFUNC[red_op]
    reorder = order_safe and dtype == _I64
    work = dtype
    if reorder:
        if all(o.size <= _COMPACT_MAX for o in ops) and _int32_window(
            bin_op,
            red_op,
            *((int(o.min()), int(o.max())) for o in ops),
            math.prod(shape[n_out:]),
        ):
            work = _I32
        perm = tuple(range(n_out, rank)) + tuple(range(n_out))
        lead = n_red  # strip-order position of the first non-reduced axis
        red_axes = tuple(range(n_red))
    else:
        corner = (slice(0, 2),) * rank
        if not bin_ufunc(ops[0][corner], ops[1][corner]).flags.c_contiguous:
            return None
        perm = tuple(range(rank))
        lead = 0
        red_axes = tuple(range(-n_red, 0))
    for k, o in enumerate(ops):
        o = o.transpose(perm)
        ops[k] = np.ascontiguousarray(o, dtype=work) if o.size <= _COMPACT_MAX else o
    # a strip is ``width`` steps of non-reduced axis ``p`` — the first one
    # whose unit slab fits the budget — times every later axis in full
    budget = _STRIP_BYTES // work.itemsize
    per = math.prod(shape)
    for p in range(n_out):
        per //= shape[p]
        if per <= budget:
            break
    extent = shape[p]
    width = max(1, min(extent, budget // per))
    slab = (width,) + tuple(shape[p + 1 : n_out])
    red_shape = tuple(shape[n_out:])
    tmp = np.empty(red_shape + slab if reorder else slab + red_shape, dtype=work)
    result = np.empty(shape[:n_out], dtype=work)
    pre = (slice(None),) * lead

    def strip(o, head, sl):
        """Operand ``o`` over one strip; its extent-1 axes broadcast."""
        full = [d > 1 for d in o.shape[lead:]]
        return o[
            pre
            + tuple(h if full[q] else 0 for q, h in enumerate(head))
            + (sl if full[p] else slice(None),)
        ]

    for head in np.ndindex(*shape[:p]):
        for k0 in range(0, extent, width):
            sl = slice(k0, k0 + width)
            t = tmp[pre + (slice(0, min(width, extent - k0)),)]
            bin_ufunc(strip(ops[0], head, sl), strip(ops[1], head, sl), out=t)
            red_ufunc.reduce(t, axis=red_axes, out=result[head + (sl,)])
    return result if work == dtype else result.astype(dtype)


class _Reduce:
    """A whole ``$op(sets; ...)`` reduction as one composite step."""

    __slots__ = (
        "dst",
        "op",
        "n_sets",
        "inner_shape",
        "mask",
        "base",
        "arms",
        "others",
        "order_safe",
        "single_arm",
        "tail",
    )

    def __init__(
        self,
        dst,
        op,
        n_sets,
        inner_shape,
        mask,
        base,
        arms,
        others,
        order_safe=False,
    ) -> None:
        self.dst = dst
        self.op = op
        self.n_sets = n_sets
        self.inner_shape = inner_shape
        self.mask = mask  # statement-level mask register
        self.base = base  # register receiving the broadcast base mask
        #: [(pred_steps|None, pred_out, arm_mask_reg, expr_steps, expr_out)]
        self.arms = arms
        self.others = others  # (steps, out, others_mask_reg) | None
        #: UC501 determinism verdict: the reduction kernel may reorder the
        #: combine only when the analyzer proved it order-safe
        self.order_safe = order_safe
        #: one unpredicated arm and no ``others``: with every lane enabled
        #: ``np.where(mask, v, identity)`` is the identity map, so the
        #: operand reduces directly (:meth:`reduce_unmasked`)
        self.single_arm = len(arms) == 1 and arms[0][0] is None and others is None
        #: static half of the kernel's acceptance pattern — the trailing
        #: elementwise ``_Binary`` of that arm, which :func:`_strip_reduce`
        #: absorbs — or None
        self.tail = None
        if self.single_arm and n_sets and op not in _LOGICAL_REDUCTIONS:
            _ps, _po, _am, esteps, eout = arms[0]
            last = esteps[-1] if esteps else None
            if (
                isinstance(last, _Binary)
                and last.dst == eout
                and last.node.op in _BLOCKED_BINOPS
            ):
                self.tail = last

    def reduce_unmasked(self, ip, regs, shape):
        """The all-enabled single-arm reduction over ``shape`` — the solo
        inner grid, or the lane-stacked ``(n,) + inner_shape`` of a batch
        chunk (the lane axis is just the first non-reduced axis).

        When the arm ends in an elementwise binary over more than
        :data:`_STRIP_MIN_ELEMS` slots, that step is *not run*: its
        operands go to :func:`_strip_reduce`.  The register it would have
        written is reduction-scope private — CSE keys carry the
        reduction's ``rtoken`` — so nothing downstream can miss it.
        Otherwise (or when the kernel declines) the operand is reduced
        unblocked, through the same astype chain as ``_reduce_op`` →
        identical values and dtype.
        """
        _ps, _po, amreg, esteps, eout = self.arms[0]
        regs[amreg] = regs[self.base]
        rank = len(shape)
        n_red = self.n_sets
        last = self.tail
        if last is not None and math.prod(shape) > _STRIP_MIN_ELEMS:
            _run(ip, regs, esteps[:-1])
            out = _strip_reduce(
                last.node.op, self.op, lift(regs[last.a], rank),
                lift(regs[last.b], rank), shape, n_red, self.order_safe,
            )  # fmt: skip
            if out is not None:
                return out
            _run(ip, regs, esteps[-1:])
        else:
            _run(ip, regs, esteps)
        val = np.broadcast_to(np.asarray(lift(regs[eout], rank)), shape)
        ufunc = E._RED_UFUNC[self.op]
        logical = self.op in _LOGICAL_REDUCTIONS
        dtype = E._result_dtype(self.op, [val])
        v = val.astype(bool) if logical else (
            val.astype(dtype) if val.dtype != dtype else val
        )
        total = ufunc.reduce(v, axis=tuple(range(rank - n_red, rank))) if n_red else v
        return np.asarray(total).astype(np.int64 if logical else dtype)

    def run(self, ip, regs) -> None:
        m = regs[self.mask]
        # the statement mask's extra leading axes (a lane stack) ride along
        shape = m.shape + self.inner_shape[len(self.inner_shape) - self.n_sets :]
        base = np.broadcast_to(m.reshape(m.shape + (1,) * self.n_sets), shape)
        regs[self.base] = base
        if self.single_arm and bool(np.all(m)):
            regs[self.dst] = self.reduce_unmasked(ip, regs, shape)
            return
        arm_values: List[np.ndarray] = []
        arm_masks: List[np.ndarray] = []
        union: Optional[np.ndarray] = None
        rank = len(shape)
        for psteps, pout, amreg, esteps, eout in self.arms:
            if psteps is None:
                am = base
            else:
                _run(ip, regs, psteps)
                pv = _bool_view(regs[pout], shape)
                am = base & pv
                union = pv if union is None else (union | pv)
            regs[amreg] = am
            _run(ip, regs, esteps)
            arm_values.append(
                np.broadcast_to(np.asarray(lift(regs[eout], rank)), shape)
            )
            arm_masks.append(am)
        if self.others is not None:
            osteps, oout, omreg = self.others
            om = base & (~union if union is not None else np.zeros(shape, bool))
            regs[omreg] = om
            _run(ip, regs, osteps)
            arm_values.append(
                np.broadcast_to(np.asarray(lift(regs[oout], rank)), shape)
            )
            arm_masks.append(om)
        regs[self.dst] = E._reduce_op(
            self.op, arm_values, arm_masks, tuple(range(m.ndim, rank))
        )


# ---------------------------------------------------------------------------
# compile-time value descriptors
# ---------------------------------------------------------------------------


class _Val:
    """A compiled expression: its register, arrayness, and static value."""

    __slots__ = ("reg", "is_array", "static")

    def __init__(self, reg: int, is_array: bool, static: Any) -> None:
        self.reg = reg
        self.is_array = is_array
        self.static = static


class _GCtx:
    """Compile-time view of one grid context (construct or reduction)."""

    __slots__ = ("grid", "shape", "vp_ratio", "env_extra")

    def __init__(self, grid, vp_ratio: int, env_extra=None) -> None:
        self.grid = grid
        self.shape = tuple(grid.shape)
        self.vp_ratio = vp_ratio
        #: reduction element names shadowing the construct env: name -> axis
        self.env_extra: Dict[str, int] = env_extra or {}


def _is_prefix(store: Tuple, lookup: Tuple) -> bool:
    return len(store) <= len(lookup) and lookup[: len(store)] == store


def _cacheable(node: ast.Expr) -> bool:
    return isinstance(node, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))


def _pure_reads(node: ast.Expr) -> Optional[frozenset]:
    """Read-set of a pure expression; None if impure (uncacheable)."""
    reads = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction)):
            return None
        if isinstance(n, ast.Name):
            reads.add(n.ident)
        elif isinstance(n, ast.Index):
            reads.add(n.base)
    return frozenset(reads)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Fuser:
    def __init__(self, ip, stmt: ast.UCStmt, inner) -> None:
        self.ip = ip
        self.stmt = stmt
        self.env = inner.env
        self.costs = ip.machine.clock.costs
        top_grid = inner.grid
        self.top = _GCtx(top_grid, ip.grid_vpset(top_grid.shape).vp_ratio)
        # registers
        self.n_regs = 0
        self.consts: List[Tuple[int, Any]] = []
        # per-statement buffers
        self.steps: List[Any] = []
        self.charges: List[Tuple] = []
        # runtime binding checks: (kind, name, expected)
        self.checks: List[Tuple] = []
        self._check_map: Dict[str, Tuple] = {}
        # static CSE simulation
        self.cse_on = ip.config.cse
        self.sim: Dict[Tuple, Tuple[Tuple, _Val]] = {}
        self.tombs: Dict[Tuple, Any] = {}
        self.fused_texts: set = set()
        self.unfused_texts: set = set()
        #: current invalidation context: None (certain) or an arm id
        self.inv_ctx: Any = None
        #: mask register of the predicate / arm body being compiled
        self.unit: Optional[int] = None

    # -- registers ---------------------------------------------------------

    def reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def const(self, value) -> int:
        r = self.reg()
        self.consts.append((r, value))
        return r

    def static_val(self, value) -> _Val:
        return _Val(self.const(value), isinstance(value, np.ndarray), value)

    # -- binding checks ----------------------------------------------------

    def check(self, kind: str, name: str, expected) -> None:
        if name in self._check_map:
            return
        self._check_map[name] = (kind, expected)
        self.checks.append((kind, name, expected))

    # -- CSE simulation ----------------------------------------------------

    def sim_invalidate(self, name: str) -> None:
        """Drop sim entries that can observe a write to ``name``; record a
        tombstone when the drop happens under a conditional arm."""
        if not self.cse_on:
            return
        dead = [
            key
            for key, (_tok, _val, reads) in self.sim.items()
            if name in reads
        ]
        for key in dead:
            del self.sim[key]
            if self.inv_ctx is not None:
                self.tombs[key] = self.inv_ctx
        if self.inv_ctx is None:
            for key in dead:
                self.tombs.pop(key, None)

    def sim_clear(self) -> None:
        """A full invalidation (user call / nested construct)."""
        if not self.cse_on:
            return
        for key in list(self.sim):
            del self.sim[key]
            if self.inv_ctx is not None:
                self.tombs[key] = self.inv_ctx
        if self.inv_ctx is None:
            self.tombs.clear()

    # -- statement-level compilation --------------------------------------

    def compile_construct(self) -> "FusedConstruct":
        stmt = self.stmt
        # global bails: declarations anywhere would give later statements a
        # different environment than the flattened per-statement closures;
        # control transfers out of a construct body are not a thing we can
        # segment.  ``oneof`` never reaches here (its dispatch is separate).
        bodies = [b.stmt for b in stmt.blocks]
        if stmt.others is not None:
            bodies.append(stmt.others)
        for body in bodies:
            for n in ast.walk(body):
                if isinstance(
                    n,
                    (
                        ast.VarDecl,
                        ast.IndexSetDecl,
                        ast.DeclGroup,
                        ast.Return,
                        ast.Break,
                        ast.Continue,
                    ),
                ):
                    raise _Bail()

        base_reg = self.reg()
        arm_mask_regs = [self.reg() for _ in stmt.blocks]
        others_mask_reg = self.reg() if stmt.others is not None else None

        # predicates first, in arm order — exactly the _block_masks order.
        # An unfusable predicate bails the construct: predicates have no
        # per-statement fallback slot.
        pred_progs: List[Optional[Tuple]] = []
        self.unit = base_reg
        for block in stmt.blocks:
            if block.pred is None:
                pred_progs.append(None)
                continue
            self._begin_unit()
            try:
                v = self.compile_expr(block.pred, self.top, base_reg, (), False)
            except _Demote:
                raise _Bail()
            pred_progs.append((tuple(self.charges), tuple(self.steps), v.reg))

        fused_count = 0
        unfused_count = 0
        arm_segments: List[List[Tuple]] = []
        for k, block in enumerate(stmt.blocks):
            conditional = block.pred is not None
            token = ((("a", k),) if conditional else ())
            segs, nf, nu = self._compile_body(
                block.stmt, arm_mask_regs[k], token, ("a", k) if conditional else None
            )
            arm_segments.append(segs)
            fused_count += nf
            unfused_count += nu
        others_segments = None
        if stmt.others is not None:
            segs, nf, nu = self._compile_body(
                stmt.others, others_mask_reg, (("a", -1),), ("a", -1)
            )
            others_segments = segs
            fused_count += nf
            unfused_count += nu

        if fused_count == 0:
            # nothing actually fused: the segmented runner would only add
            # overhead over the plain plan path
            raise _Bail()
        if self.cse_on and (self.fused_texts & self.unfused_texts):
            # one cache world per construct: a text both fused (simulated
            # cache) and unfused (real cache) could hit across the seam
            raise _Bail()

        return FusedConstruct(
            shape=self.top.shape,
            checks=tuple(self.checks),
            n_regs=self.n_regs,
            consts=tuple(self.consts),
            base_reg=base_reg,
            pred_progs=tuple(pred_progs),
            arm_mask_regs=tuple(arm_mask_regs),
            arm_segments=tuple(tuple(s) for s in arm_segments),
            others_mask_reg=others_mask_reg,
            others_segments=(
                tuple(others_segments) if others_segments is not None else None
            ),
            fused_count=fused_count,
            unfused_count=unfused_count,
        )

    def _begin_unit(self) -> None:
        self.steps = []
        self.charges = []

    def _flatten(self, body: ast.Stmt) -> List[ast.Stmt]:
        # one-level deep: with declarations globally bailed, a Block's
        # child environment is indistinguishable from its parent's
        out: List[ast.Stmt] = []
        work = [body]
        while work:
            s = work.pop(0)
            if isinstance(s, ast.Block):
                work = list(s.stmts) + work
            else:
                out.append(s)
        return out

    def _compile_body(
        self, body: ast.Stmt, mask_reg: int, token: Tuple, inv_ctx
    ) -> Tuple[List[Tuple], int, int]:
        """Compile one arm body into ('f', charges, steps) / ('u', plan)
        segments; returns (segments, n_fused, n_unfused)."""
        segs: List[Tuple] = []
        n_fused = 0
        n_unfused = 0
        self.inv_ctx = inv_ctx
        self.unit = mask_reg
        for s in self._flatten(body):
            if isinstance(s, ast.EmptyStmt):
                continue
            if isinstance(s, ast.ExprStmt):
                sim_snap = dict(self.sim)
                tomb_snap = dict(self.tombs)
                nregs_snap = self.n_regs
                consts_snap = len(self.consts)
                self._begin_unit()
                try:
                    self.compile_expr(s.expr, self.top, mask_reg, token, False)
                    segs.append(("f", tuple(self.charges), tuple(self.steps)))
                    n_fused += 1
                    continue
                except _Demote:
                    self.sim = sim_snap
                    self.tombs = tomb_snap
                    self.n_regs = nregs_snap
                    del self.consts[consts_snap:]
            self._note_unfused(s)
            segs.append(("u", compile_stmt(s)))
            n_unfused += 1
        self.inv_ctx = None
        return segs, n_fused, n_unfused

    def _note_unfused(self, s: ast.Stmt) -> None:
        """Apply an unfused statement's effects to the CSE simulation and
        collect its texts for the fused/unfused overlap check."""
        clear = False
        writes: set = set()
        for n in ast.walk(s):
            if isinstance(n, ast.UCStmt):
                clear = True  # nested construct: cse_suspend exit clears all
            elif isinstance(n, ast.Call):
                if self.ip.info.functions.get(n.func) is not None:
                    clear = True  # user call: cse_suspend exit clears all
                elif n.func == "swap":
                    for a in n.args:
                        if isinstance(a, ast.Index):
                            writes.add(a.base)
            elif isinstance(n, (ast.Assign, ast.IncDec)):
                t = n.target
                if isinstance(t, ast.Name):
                    writes.add(t.ident)
                elif isinstance(t, ast.Index):
                    writes.add(t.base)
            if self.cse_on and _cacheable(n):
                reads = _pure_reads(n)
                if reads is not None:
                    self.unfused_texts.add(expr_to_text(n))
        if clear:
            self.sim_clear()
        else:
            for w in writes:
                self.sim_invalidate(w)

    # -- expression compilation -------------------------------------------

    def compile_expr(
        self, node: ast.Expr, g: _GCtx, mask_reg: int, token: Tuple, view_ok: bool
    ) -> _Val:
        if self.cse_on and _cacheable(node):
            reads = _pure_reads(node)
            if reads is not None:
                text = expr_to_text(node)
                key = (text, g.shape)
                ent = self.sim.get(key)
                if ent is not None:
                    store_tok, val, _reads = ent
                    if _is_prefix(store_tok, token):
                        return val
                    raise _Demote()  # data-dependent cross-context hit
                tomb = self.tombs.get(key)
                if tomb is not None and tomb != self.inv_ctx:
                    raise _Demote()  # killer arm may be skipped at run time
                val = self._compile_inner(node, g, mask_reg, token, view_ok)
                self.sim[key] = (token, val, reads)
                self.fused_texts.add(text)
                return val
        return self._compile_inner(node, g, mask_reg, token, view_ok)

    def _compile_inner(
        self, node: ast.Expr, g: _GCtx, mask_reg: int, token: Tuple, view_ok: bool
    ) -> _Val:
        if isinstance(node, ast.IntLit):
            return self.static_val(node.value)
        if isinstance(node, ast.FloatLit):
            return self.static_val(node.value)
        if isinstance(node, ast.InfLit):
            return self.static_val(INF)
        if isinstance(node, ast.Name):
            return self._compile_name(node, g)
        if isinstance(node, ast.Index):
            return self._compile_gather(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Unary):
            return self._compile_unary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Binary):
            if node.op in ("&&", "||"):
                return self._compile_shortcircuit(node, g, mask_reg, token, view_ok)
            return self._compile_binary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Ternary):
            return self._compile_ternary(node, g, mask_reg, token, view_ok)
        if isinstance(node, ast.Reduction):
            return self._compile_reduction(node, g, mask_reg, token)
        if isinstance(node, ast.Assign):
            return self._compile_assign(node, g, mask_reg, token)
        if isinstance(node, ast.IncDec):
            one = ast.IntLit(line=node.line, col=node.col, value=1)
            synth = ast.Assign(
                line=node.line,
                col=node.col,
                target=node.target,
                op="+" if node.op == "++" else "-",
                value=one,
            )
            return self._compile_assign(synth, g, mask_reg, token)
        # Call (host side effects, RNG), StringLit, anything exotic
        raise _Demote()

    def _charge(self, kind: str, count: int = 1, vp_ratio: int = 1) -> None:
        self.charges.append(("c", kind, count, vp_ratio))

    def _alu(self, g: _GCtx, count: int = 1) -> None:
        self._charge("alu", count, g.vp_ratio)

    def _lookup(self, name: str, g: _GCtx):
        if name in g.env_extra:
            return ElementBinding(name, "", "axis", axis=g.env_extra[name])
        b = self.env.try_lookup(name)
        if b is None:
            raise _Demote()
        return b

    def _compile_name(self, node: ast.Name, g: _GCtx) -> _Val:
        b = self._lookup(node.ident, g)
        if isinstance(b, ElementBinding):
            if b.kind != "axis":
                raise _Demote()  # seq element: rebinding per front-end step
            if node.ident not in g.env_extra:
                self.check("axis", node.ident, b.axis)
            return self.static_val(g.grid.axis_values(b.axis))
        if isinstance(b, ScalarVar):
            self.check("scalar", node.ident, b)
            r = self.reg()
            self.steps.append(_ReadScalar(r, b))
            return _Val(r, False, _DYN)
        if isinstance(b, (int, float)) and not isinstance(b, bool):
            self.check("const", node.ident, b)
            return self.static_val(b)
        # ParallelLocal, IndexSetValue, SliceParam...: not fused in v1
        raise _Demote()

    def _compile_unary(self, node, g, mask_reg, token, view_ok) -> _Val:
        v = self.compile_expr(node.operand, g, mask_reg, token, view_ok)
        if node.op not in ("-", "!", "~"):
            raise _Demote()
        self._alu(g)
        if v.static is not _DYN:
            try:
                folded = _UnaryPlan._apply(node, v.static)
            except UCRuntimeError:
                raise _Demote()
            return self.static_val(folded)
        r = self.reg()
        self.steps.append(_Unary(r, v.reg, node))
        return _Val(r, v.is_array, _DYN)

    def _compile_binary(self, node, g, mask_reg, token, view_ok) -> _Val:
        a = self.compile_expr(node.left, g, mask_reg, token, view_ok)
        b = self.compile_expr(node.right, g, mask_reg, token, view_ok)
        self._alu(g)
        if a.static is not _DYN and b.static is not _DYN:
            try:
                folded = E.apply_binop(node.op, a.static, b.static, node)
            except UCRuntimeError:
                raise _Demote()
            return self.static_val(folded)
        r = self.reg()
        self.steps.append(_Binary(r, a.reg, b.reg, node, mask_reg))
        return _Val(r, a.is_array or b.is_array, _DYN)

    def _compile_shortcircuit(self, node, g, mask_reg, token, view_ok) -> _Val:
        a = self.compile_expr(node.left, g, mask_reg, token, view_ok)
        self._alu(g)
        if not a.is_array:
            # scalar left: C short-circuit — which side runs is data-
            # dependent unless the left side is statically known
            if a.static is _DYN:
                raise _Demote()
            if node.op == "&&" and not a.static:
                return self.static_val(0)
            if node.op == "||" and a.static:
                return self.static_val(1)
            b = self.compile_expr(node.right, g, mask_reg, token, view_ok)
            if b.static is not _DYN:
                rv = E._truthy(b.static)
                if isinstance(rv, np.ndarray):
                    return self.static_val(rv.astype(np.int64))
                return self.static_val(int(rv))
            r = self.reg()
            self.steps.append(_TruthyInt(r, b.reg))
            return _Val(r, b.is_array, _DYN)
        # array left: evaluate the right side under the refined context
        if a.static is not _DYN:
            lbool_v = np.broadcast_to(np.asarray(E._truthy(a.static)), g.shape)
            lb = self.static_val(lbool_v)
        else:
            r = self.reg()
            self.steps.append(_Bool(r, a.reg, mask_reg))
            lb = _Val(r, True, _DYN)
        invert = node.op == "||"
        mr = self.reg()
        self.steps.append(_Mask(mr, mask_reg, lb.reg, invert))
        sub_token = token + (("sc", id(node)),)
        b = self.compile_expr(node.right, g, mr, sub_token, view_ok)
        if lb.static is not _DYN and b.static is not _DYN:
            rbool = np.broadcast_to(np.asarray(E._truthy(b.static)), g.shape)
            if node.op == "&&":
                return self.static_val((lb.static & rbool).astype(np.int64))
            return self.static_val((lb.static | rbool).astype(np.int64))
        r = self.reg()
        self.steps.append(_Combine(r, lb.reg, b.reg, node.op == "&&", mask_reg))
        return _Val(r, True, _DYN)

    def _compile_ternary(self, node, g, mask_reg, token, view_ok) -> _Val:
        c = self.compile_expr(node.cond, g, mask_reg, token, view_ok)
        if not c.is_array:
            # scalar condition: which branch runs is data-dependent
            # unless the condition folds
            if c.static is _DYN:
                raise _Demote()
            self._alu(g)
            chosen = node.then if c.static else node.els
            return self.compile_expr(chosen, g, mask_reg, token, view_ok)
        if c.static is not _DYN:
            cbool_v = np.broadcast_to(np.asarray(E._truthy(c.static)), g.shape)
            cb = self.static_val(cbool_v)
        else:
            r = self.reg()
            self.steps.append(_Bool(r, c.reg, mask_reg))
            cb = _Val(r, True, _DYN)
        mr_t = self.reg()
        self.steps.append(_Mask(mr_t, mask_reg, cb.reg, False))
        then_v = self.compile_expr(
            node.then, g, mr_t, token + (("t", id(node), True),), view_ok
        )
        mr_e = self.reg()
        self.steps.append(_Mask(mr_e, mask_reg, cb.reg, True))
        else_v = self.compile_expr(
            node.els, g, mr_e, token + (("t", id(node), False),), view_ok
        )
        self._alu(g, count=2)  # the select
        if (
            cb.static is not _DYN
            and then_v.static is not _DYN
            and else_v.static is not _DYN
        ):
            return self.static_val(
                np.where(cb.static, then_v.static, else_v.static)
            )
        r = self.reg()
        self.steps.append(_Where(r, cb.reg, then_v.reg, else_v.reg, mask_reg))
        return _Val(r, True, _DYN)

    # -- array references --------------------------------------------------

    def _resolve_array(self, node: ast.Index, g: _GCtx) -> ArrayVar:
        b = self._lookup(node.base, g)
        if not isinstance(b, ArrayVar):
            raise _Demote()  # slices / parallel locals: not fused in v1
        self.check("array", node.base, b)
        return b

    def _static_subs(self, node, g, mask_reg, token, view_ok) -> List[Any]:
        subs = []
        for s in node.subs:
            sv = self.compile_expr(s, g, mask_reg, token, view_ok)
            if sv.static is _DYN:
                raise _Demote()  # dynamic subscript: tier could change
            subs.append(sv.static)
        return subs

    def _full_idx(self, subs, view_shape, grid_shape) -> Tuple[np.ndarray, ...]:
        """Clipped subscripts as grid-shaped *views*: only the compact
        form of each subscript (its non-broadcast axes) is clipped and held."""
        idx_arrays = []
        for a, s in enumerate(subs):
            if isinstance(s, np.ndarray):
                compact = _compact(np.broadcast_to(s, grid_shape))
                clipped = np.clip(compact, 0, view_shape[a] - 1)
            else:
                clipped = np.int64(s)
            idx_arrays.append(np.broadcast_to(clipped, grid_shape))
        return tuple(idx_arrays)

    def _compile_gather(self, node, g, mask_reg, token, view_ok) -> _Val:
        arr = self._resolve_array(node, g)
        view_shape = arr.data.shape
        if len(node.subs) != len(view_shape):
            raise _Demote()  # the engine raises; keep the message path
        subs = self._static_subs(node, g, mask_reg, token, view_ok)
        if any(
            not isinstance(s, np.ndarray) and not 0 <= int(s) < view_shape[a]
            for a, s in enumerate(subs)
        ):
            raise _Demote()  # always-raising bounds error
        oob = _oob_masks(subs, view_shape, g.shape)
        rc = classify_reference(
            subs,
            g.shape,
            g.grid.axis_elems,
            arr.layout,
            positions=g.grid.positions,
        )
        tier = commtiers.decide_tier(
            rc, self.costs, write=False, enabled=self.ip.config.comm_tiers
        )
        rec = _Recorder()
        commtiers.charge_tier_at(
            rec, tier, rc, write=False, vp_ratio=g.vp_ratio,
            grid_shape=tuple(g.shape), layout=arr.layout,
        )
        self.charges.extend(rec.entries)
        shift = None
        recipe = None
        idx = None
        if tier == "news":
            shift = commtiers.shift_descriptor(rc, view_shape, g.shape)
        if shift is None:
            recipe = _build_index_recipe(subs, view_shape, g.shape)
            grid_size = int(np.prod(g.shape))
            idx_full = self._full_idx(subs, view_shape, g.shape)
            # grid axes no subscript varies along (spreads, broadcasts,
            # reduction operands): gather one representative slice and
            # let downstream numpy broadcasting replicate it virtually.
            # Values, tier verdict and charges are untouched — every
            # consumer (_Binary/_Reduce/_Scatter/...) broadcasts, and
            # fancy indexing copies, so no view can alias the array.
            bcast = tuple(
                a
                for a in range(len(g.shape))
                if g.shape[a] > 1
                and not any(
                    ia.strides[a] and np.ptp(_compact(ia), axis=a).any()
                    for ia in idx_full
                )
            )
            if bcast:
                sl = tuple(
                    slice(0, 1) if a in bcast else slice(None)
                    for a in range(len(g.shape))
                )
                reduced = tuple(np.ascontiguousarray(ia[sl]) for ia in idx_full)
                if grid_size > _VERIFY_LIMIT or np.array_equal(
                    np.broadcast_to(arr.data[reduced], tuple(g.shape)),
                    arr.data[idx_full],
                ):
                    recipe = None
                    idx = reduced
            if recipe is not None and idx is None and grid_size <= _VERIFY_LIMIT:
                if not np.array_equal(
                    np.asarray(recipe.take(arr.data)), arr.data[idx_full]
                ):
                    recipe = None
            if recipe is None and idx is None:
                # the fancy-index fallback is the only consumer of a dense
                # index tuple: materialise it here and nowhere else
                idx = tuple(np.ascontiguousarray(ia) for ia in idx_full)
        r = self.reg()
        self.steps.append(
            _Gather(
                r, node, arr, subs, view_shape, oob, mask_reg, shift, recipe, idx,
                view_ok,
            )
        )
        return _Val(r, True, _DYN)

    def _compile_scatter(
        self, assign: ast.Assign, value: _Val, g, mask_reg, token
    ) -> None:
        node = assign.target
        arr = self._resolve_array(node, g)
        view_shape = arr.data.shape
        if len(node.subs) != len(view_shape):
            raise _Demote()
        subs = self._static_subs(node, g, mask_reg, token, False)
        if any(
            not isinstance(s, np.ndarray) and not 0 <= int(s) < view_shape[a]
            for a, s in enumerate(subs)
        ):
            raise _Demote()
        oob = _oob_masks(subs, view_shape, g.shape)
        rc = classify_write(
            subs,
            g.shape,
            g.grid.axis_elems,
            arr.layout,
            positions=g.grid.positions,
        )
        tier = commtiers.decide_tier(
            rc, self.costs, write=True, enabled=self.ip.config.comm_tiers
        )
        rec = _Recorder()
        commtiers.charge_tier_at(
            rec, tier, rc, write=True, vp_ratio=g.vp_ratio,
            grid_shape=tuple(g.shape), layout=arr.layout,
        )
        self.charges.extend(rec.entries)
        full_flat = np.ravel_multi_index(
            self._full_idx(subs, view_shape, g.shape), view_shape
        ).reshape(-1)
        # duplicate-free per-axis vectors that claim every grid axis make
        # the write injective; anything else is settled on the flat index
        recipe = _build_index_recipe(subs, view_shape, g.shape)
        unique = (
            recipe is not None
            and all(g.shape[a] == 1 for a in recipe.expand)
            and not any(has_duplicates(v) for v in recipe.vecs)
        ) or not has_duplicates(full_flat)
        self.steps.append(
            _Scatter(
                node, arr, value.reg, mask_reg, g.shape, view_shape, subs, oob,
                full_flat, unique,
            )
        )
        self.sim_invalidate(node.base)

    def _compile_assign(self, node: ast.Assign, g, mask_reg, token) -> _Val:
        value = self.compile_expr(node.value, g, mask_reg, token, False)
        if node.op:
            current = self.compile_expr(node.target, g, mask_reg, token, False)
            self._alu(g)
            if current.static is not _DYN and value.static is not _DYN:
                try:
                    folded = E.apply_binop(node.op, current.static, value.static, node)
                except UCRuntimeError:
                    raise _Demote()
                value = self.static_val(folded)
            else:
                r = self.reg()
                self.steps.append(
                    _Binary(
                        r,
                        current.reg,
                        value.reg,
                        ast.Binary(
                            line=node.line,
                            col=node.col,
                            op=node.op,
                            left=node.target,
                            right=node.value,
                        ),
                        mask_reg,
                    )
                )
                value = _Val(r, current.is_array or value.is_array, _DYN)
        target = node.target
        if isinstance(target, ast.Index):
            self._compile_scatter(node, value, g, mask_reg, token)
            return value
        if not isinstance(target, ast.Name):
            raise _Demote()
        b = self._lookup(target.ident, g)
        if not isinstance(b, ScalarVar):
            raise _Demote()  # parallel locals / element rebinds: not in v1
        self.check("scalar", target.ident, b)
        if value.is_array:
            self._charge("host_cm_latency")
        else:
            self._charge("host")
        self.steps.append(
            _AssignScalar(b, value.reg, mask_reg, g.shape, node, self.unit)
        )
        self.sim_invalidate(target.ident)
        return value

    # -- reductions --------------------------------------------------------

    def _resolve_sets(self, node: ast.Reduction, g: _GCtx) -> List[IndexSetValue]:
        sets = []
        for name in node.index_sets:
            isv = self.env.try_lookup(name)
            if not isinstance(isv, IndexSetValue):
                isv = self.ip.info.index_sets.get(name)
            if not isinstance(isv, IndexSetValue):
                raise _Demote()  # unknown set: the engine raises
            self.check("iset", name, (isv.elem_name, tuple(isv.values)))
            sets.append(isv)
        return sets

    def _send_reduce_provably_off(self, node, g, sets) -> bool:
        """True when ``try_send_reduce`` provably returns None whatever the
        runtime mask is, so the naive reduction path (the one we fuse) is
        the path the engine takes.  Mirrors the gate cascade of
        :func:`repro.interp.sendreduce.try_send_reduce`; every gate here
        is evaluated before that function's first ``eval_expr``, and the
        only dynamic gate it skips (the partial-mask test) is
        side-effect-free, so a later static gate rejecting is decisive.
        """
        if not self.ip.config.processor_opt:
            return True
        from .sendreduce import _COMBINE_AT, _free_names, _split_partition_pred

        if (
            node.op not in _COMBINE_AT
            or node.others is not None
            or len(node.arms) != 1
        ):
            return True
        arm = node.arms[0]
        if arm.pred is None:
            return True
        if g.grid.rank != 1:
            return True
        red_elems = {s.elem_name for s in sets}
        parent_elems = set(g.grid.axis_elems) - red_elems
        if not parent_elems:
            return True
        if _split_partition_pred(arm.pred, parent_elems, red_elems) is None:
            return True
        n_pes = self.ip.machine.config.n_pes
        product_vps = g.grid.size
        operand_vps = 1
        for s in sets:
            product_vps *= len(s)
            operand_vps *= len(s)
        ratio_naive = max(1, math.ceil(product_vps / n_pes))
        ratio_opt = max(1, math.ceil(max(operand_vps, g.grid.size) / n_pes))
        if ratio_naive <= ratio_opt:
            return True
        split = _split_partition_pred(arm.pred, parent_elems, red_elems)
        if split is not None and split[1] != g.grid.axes[0].elem:
            return True
        if _free_names(arm.expr) & parent_elems:
            return True
        return False

    def _compile_reduction(self, node: ast.Reduction, g, mask_reg, token) -> _Val:
        if node.op == "arbitrary" or node.op not in E._RED_UFUNC:
            raise _Demote()  # RNG / host-side combine
        sets = self._resolve_sets(node, g)
        if not self._send_reduce_provably_off(node, g, sets):
            raise _Demote()  # the send-reduce path could fire at run time
        inner_grid = g.grid.extend(sets)
        extra = dict(g.env_extra)
        for offset, isv in enumerate(sets):
            extra[isv.elem_name] = g.grid.rank + offset
        gi = _GCtx(
            inner_grid, self.ip.grid_vpset(inner_grid.shape).vp_ratio, extra
        )
        n_sets = len(sets)
        reduce_extent = int(np.prod([len(s) for s in sets]))
        order_safe = bool(self.ip.reduction_order_safe(node))
        self.charges.append(("s", reduce_extent, gi.vp_ratio, 1))
        # shard-sink reduction observation (see Clock.replay's "r" tag):
        # carries the UC5xx verdict so sharded replay pre-combines only
        # proven sites
        self.charges.append(
            ("r", node.op, order_safe, reduce_extent, gi.vp_ratio, gi.shape)
        )
        pure = not any(
            isinstance(n, (ast.Call, ast.Assign, ast.IncDec))
            for n in ast.walk(node)
        )
        base_reg = self.reg()
        rtoken = token + (("r", id(node)),)
        arms = []
        for k, arm in enumerate(node.arms):
            if arm.pred is None:
                psteps, pout = None, None
                atoken = rtoken
            else:
                psteps = self._sub_steps(
                    lambda: self.compile_expr(arm.pred, gi, base_reg, rtoken, pure)
                )
                psteps, pv = psteps
                pout = pv.reg
                atoken = rtoken + (("ra", k),)
            amreg = self.reg()
            esteps, ev = self._sub_steps(
                lambda: self.compile_expr(arm.expr, gi, amreg, atoken, pure)
            )
            arms.append((psteps, pout, amreg, esteps, ev.reg))
        others = None
        if node.others is not None:
            omreg = self.reg()
            osteps, ov = self._sub_steps(
                lambda: self.compile_expr(
                    node.others, gi, omreg, rtoken + (("ra", -1),), pure
                )
            )
            others = (osteps, ov.reg, omreg)
        r = self.reg()
        self.steps.append(
            _Reduce(
                r, node.op, n_sets, gi.shape, mask_reg, base_reg,
                tuple(arms), others, order_safe,
            )
        )
        return _Val(r, True, _DYN)

    def _sub_steps(self, fn):
        """Compile ``fn`` with a private step buffer (charges still append
        to the statement's charge table, in program order)."""
        saved = self.steps
        self.steps = []
        try:
            val = fn()
        finally:
            sub, self.steps = self.steps, saved
        return tuple(sub), val


# ---------------------------------------------------------------------------
# the fused construct
# ---------------------------------------------------------------------------


class _Sweep:
    """Per-sweep state: the register file, the base and the arm masks."""

    __slots__ = ("regs", "base", "masks", "union")

    def __init__(self, regs, base, masks, union) -> None:
        self.regs = regs
        self.base = base
        self.masks = masks
        self.union = union


class FusedConstruct:
    """A construct body lowered to register programs + charge tables."""

    __slots__ = (
        "shape",
        "checks",
        "n_regs",
        "consts",
        "base_reg",
        "pred_progs",
        "arm_mask_regs",
        "arm_segments",
        "others_mask_reg",
        "others_segments",
        "fused_count",
        "unfused_count",
        "_bound",
        "_slots",
    )

    def __init__(
        self,
        *,
        shape,
        checks,
        n_regs,
        consts,
        base_reg,
        pred_progs,
        arm_mask_regs,
        arm_segments,
        others_mask_reg,
        others_segments,
        fused_count,
        unfused_count,
    ) -> None:
        self.shape = shape
        self.checks = checks
        self.n_regs = n_regs
        self.consts = consts
        self.base_reg = base_reg
        self.pred_progs = pred_progs
        self.arm_mask_regs = arm_mask_regs
        self.arm_segments = arm_segments
        self.others_mask_reg = others_mask_reg
        self.others_segments = others_segments
        self.fused_count = fused_count
        self.unfused_count = unfused_count
        #: currently bound ScalarVar/ArrayVar per name (starts at the
        #: compile-time bindings; updated when a sweep rebinds)
        self._bound: Dict[str, Any] = {
            name: expected for kind, name, expected in checks
            if kind in ("scalar", "array")
        }
        self._slots: Optional[Dict[str, List[Tuple[Any, str]]]] = None

    # -- validation --------------------------------------------------------

    def validate(self, ip, inner) -> bool:
        """Re-check every binding the compile specialised on.  A False here
        is a per-sweep fallback to the plan engine, not an error.

        Scalar and array bindings are compared structurally, not by
        identity: the kernel may be served from the shared compile store
        to a different interpreter (a later run, another ``UCProgram``
        of the same source, a batch lane), whose environment holds fresh
        but shape/dtype/layout-equal variables.  An equivalent binding
        is spliced into the steps (:meth:`_rebind`); anything else — a
        changed layout object, shape, dtype or ctype — still falls back.
        """
        if inner.mask is not None or tuple(inner.grid.shape) != self.shape:
            return False
        env = inner.env
        for kind, name, expected in self.checks:
            if kind == "iset":
                isv = env.try_lookup(name)
                if not isinstance(isv, IndexSetValue):
                    isv = ip.info.index_sets.get(name)
                if (
                    not isinstance(isv, IndexSetValue)
                    or (isv.elem_name, tuple(isv.values)) != expected
                ):
                    return False
                continue
            b = env.try_lookup(name)
            if kind == "axis":
                if (
                    not isinstance(b, ElementBinding)
                    or b.kind != "axis"
                    or b.axis != expected
                ):
                    return False
            elif kind == "scalar":
                if b is not self._bound[name]:
                    if (
                        not isinstance(b, ScalarVar)
                        or b.ctype != expected.ctype
                    ):
                        return False
                    self._rebind(name, b)
            elif kind == "array":
                if b is not self._bound[name]:
                    # the gather recipes / scatter index vectors baked in
                    # at compile time are functions of layout and shape
                    # only, so any same-layout same-shape array of the
                    # same dtype can be spliced in
                    if (
                        not isinstance(b, ArrayVar)
                        or b.ctype != expected.ctype
                        or b.layout is not expected.layout
                        or b.shape != expected.shape
                        or b.dtype != expected.dtype
                    ):
                        return False
                    self._rebind(name, b)
            else:  # const
                if isinstance(b, bool) or b != expected or type(b) is not type(expected):
                    return False
        return True

    def _rebind(self, name: str, binding: Any) -> None:
        """Point every step that references ``name`` at ``binding`` — an
        equivalent variable of another interpreter, or a ``run_batch``
        chunk's :class:`~repro.interp.values.LaneVar`."""
        if self._slots is None:
            self._slots = self._binding_slots()
        for step, attr in self._slots.get(name, ()):
            setattr(step, attr, binding)
        self._bound[name] = binding

    def _binding_slots(self) -> Dict[str, List[Tuple[Any, str]]]:
        """Map binding name -> the (step, attribute) slots holding it."""
        slots: Dict[str, List[Tuple[Any, str]]] = {}
        for s in self.steps():
            if isinstance(s, (_ReadScalar, _AssignScalar)):
                attr = "var"
            elif isinstance(s, (_Gather, _Scatter)):
                attr = "arr"
            else:
                continue
            slots.setdefault(getattr(s, attr).name, []).append((s, attr))
        return slots

    def steps(self):
        """Every step of the register programs, those nested inside
        :class:`_Reduce` arms included."""

        def walk(steps):
            for s in steps:
                yield s
                if isinstance(s, _Reduce):
                    for psteps, _po, _am, esteps, _eo in s.arms:
                        yield from walk(psteps or ())
                        yield from walk(esteps)
                    if s.others is not None:
                        yield from walk(s.others[0])

        for prog in self.pred_progs:
            if prog is not None:
                yield from walk(prog[1])
        for segs in self.arm_segments + (self.others_segments or (),):
            for seg in segs:
                if seg[0] == "f":
                    yield from walk(seg[2])

    # -- execution ---------------------------------------------------------

    def begin_sweep(self, ip, base, *, charge: bool = True) -> _Sweep:
        """Evaluate arm predicates (the ``_block_masks`` phase) under the
        ``base`` mask: the construct's active mask, or all-true over a
        ``run_batch`` chunk's ``(n,) + shape`` lane stack.

        ``charge=False`` (here and in :meth:`run_body`) runs the register
        program compute-only — no charge-table replay, no ``fusion.*``
        counters — for a caller that has already charged the sweep
        itself (dense evaluation of a compressed frontier sweep; batch
        lanes, each replaying the tables on its own clock).  Only
        meaningful for kernels without unfused segments, whose plan
        closures charge as they run."""
        regs: List[Any] = [None] * self.n_regs
        for r, v in self.consts:
            regs[r] = v
        regs[self.base_reg] = base
        clock = ip.machine.clock
        masks: List[np.ndarray] = []
        union: Optional[np.ndarray] = None
        for prog in self.pred_progs:
            if prog is None:
                masks.append(base)
                continue
            charges, steps, out = prog
            if charge:
                _replay(clock, charges)
                clock.count_fusion("charge_table_hits")
            _run(ip, regs, steps)
            pb = _bool_view(regs[out], base.shape)
            masks.append(base & pb)
            union = pb if union is None else (union | pb)
        return _Sweep(regs, base, masks, union)

    def run_body(self, ip, inner, sweep: _Sweep, *, charge: bool = True) -> bool:
        """Run the arm bodies and others clause; returns whether any ran."""
        regs = sweep.regs
        ran = False
        for k, segs in enumerate(self.arm_segments):
            mask = sweep.masks[k]
            if not np.any(mask):
                continue
            ran = True
            regs[self.arm_mask_regs[k]] = mask
            self._run_segments(ip, inner, regs, segs, mask, charge)
        if self.others_segments is not None:
            base = sweep.base
            om = base & (
                ~sweep.union
                if sweep.union is not None
                else np.zeros(base.shape, bool)
            )
            if np.any(om):
                ran = True
                regs[self.others_mask_reg] = om
                self._run_segments(ip, inner, regs, self.others_segments, om, charge)
        if charge:
            ip.machine.clock.count_fusion("fused_sweeps")
        return ran

    @staticmethod
    def _run_segments(ip, inner, regs, segs, mask, charge: bool) -> None:
        """One arm's segments under ``mask``: fused ones replay their
        charge table (unless the caller already charged) and run their
        steps, unfused ones run their plan closure."""
        clock = ip.machine.clock
        sub = None
        for seg in segs:
            if seg[0] == "f":
                if charge:
                    _replay(clock, seg[1])
                    clock.count_fusion("charge_table_hits")
                _run(ip, regs, seg[2])
            else:
                if sub is None:
                    sub = inner.with_mask(mask)
                seg[1](ip, sub)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build(ip, stmt: ast.UCStmt, inner):
    try:
        return _Fuser(ip, stmt, inner).compile_construct()
    except _Bail:
        return _UNFUSABLE


def _note_fusion(ip, stmt, sig, fused) -> None:
    """Count the per-construct fusion telemetry once per run.

    The kernel itself may come from the shared compile store, already
    built by an earlier run — counting at build time would make a warm
    run report zero constructs.  Counting at first use per (construct,
    grid) per interpreter makes warm and cold runs report identically.
    """
    key = (id(stmt), sig)
    if key in ip.fusion_noted:
        return
    ip.fusion_noted.add(key)
    clock = ip.machine.clock
    if fused is _UNFUSABLE:
        clock.count_fusion("unfusable")
        return
    clock.count_fusion("constructs")
    clock.count_fusion("fused_segments", fused.fused_count)
    clock.count_fusion("unfused_segments", fused.unfused_count)


def fused_for(ip, stmt: ast.UCStmt, inner, plans) -> Optional[FusedConstruct]:
    """The fused kernel for one construct sweep, or None to take the
    ordinary plan path.

    Gates, in order: the static ones (``config.fused``: fusion and
    plans on — fusion builds on the plan memos' semantics — and no tier
    log), no armed faults (a mid-sweep ``fault_point`` must interleave
    with individual charges), and a fully active construct context.  A
    cached kernel still revalidates its binding specialisations every
    sweep.
    """
    if plans is None or not ip.config.fused:
        return None
    machine = ip.machine
    if machine.clock.fault_hook is not None or machine.faults is not None:
        return None
    if inner.mask is not None:
        return None
    sig = tuple(inner.grid.axes)
    fused = ip.plan_cache.get_or_build(
        "fuse", stmt, sig, lambda: _build(ip, stmt, inner)
    )
    _note_fusion(ip, stmt, sig, fused)
    if fused is _UNFUSABLE:
        return None
    if not fused.validate(ip, inner):
        machine.clock.count_fusion("fallback_sweeps")
        return None
    return fused

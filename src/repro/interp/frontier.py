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
(see **Evaluation** below).  A sweep therefore runs on one of three
executors: a full sweep on the construct's fused kernel, or on the
tree-walking oracle where fusion declines; a compressed sweep on this
module's lane programs, or compute-only on that same fused kernel when
its active set is dense.  The oracle (``plans=False``) keeps the lane
programs: they are the frontier engine, not an optimisation of it.

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
  engines use) run once against a :class:`repro.machine.cost.Recorder`
  and the recorded primitives are bound to the cost table as rows
  (:func:`repro.machine.cost.bind_rows`, the fused kernels' format too;
  they live on the cached analysis).  A sweep replays the rows at its
  active VP ratios — first summed by a local estimator and then, only if
  the estimate undercuts the *measured* cost of the last full sweep, on
  the real clock: :meth:`repro.machine.cost.Clock.replay_rows`, the one
  replay loop, which goes back to one ``Clock.charge`` per row whenever
  a fault hook or a shard sink is installed.  The estimate is a
  pure function of the arms' charge keys (``L > 0``, lane and reduction
  VP ratios, effective reduction extent, delta on/off), so a session
  costs each distinct key once.  Charges precede writes, preserving the
  fault-injection charge-before-mutate invariant, and the guard makes
  the frontier Clock never higher than the full-sweep Clock.
* **Values** are bit-identical by construction: inactive lanes would
  recompute exactly their current values, and active lanes run the same
  C operator semantics (:func:`repro.lang.operators.apply_binop`,
  ``_reduce_op``, ``_cast_array``) the engines use.
* **Evaluation** is picked per compressed sweep from what the session
  already knows.  A sparse active set runs each arm's *lane program*: a
  flat list of steps over numbered registers in ``fuse``'s vocabulary
  (:func:`_run_lane_steps`), compiled once per analysis (:class:`_Compiler`),
  the same steps and axis tables in lane scope ``(L,)`` and reduction
  scope ``(L, K)``.  What a sweep need not redo is static: register
  *kinds* (bool stays bool until arithmetic needs the C ``int``);
  *addresses* (each subscript resolved against its extent once, a
  reference is one ``take`` of the flat field, a bounds check under
  invariant guards is proved dead once per session —
  :meth:`_Compiler._address`); *invariant* steps (run once per session
  over the whole grid, gathered by lane position thereafter —
  :meth:`_Compiler._apply`); *shared* subtrees (the body reads what the
  predicate computed — :meth:`_Compiler.compile`).  A session's tables
  are plain data in its register file and die with it, by refcount.
  When the construct is dense-eligible (``_Analysis.dense``: a
  value-root reduction, one arm per written array), the active slots
  times :data:`_DENSE_COST_RATIO` reach the domain's slots and the
  construct has a validated fused kernel without unfused segments
  (:func:`repro.interp.fuse.fused_for`), the sweep instead runs the
  fused register program *compute-only* over the whole grid, derives
  the change masks from a before/after diff exactly as a full sweep
  does, and replays its compressed charge sequence (no fault hook is
  armed where the kernel runs).  Same arrays, same masks, same Clock;
  the choice stands down wherever fusion does.
  A plain stencil is never eligible: without the strip-mined reduction
  kernel, dense evaluation loses to the lanes at every occupancy
  measured.
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

import collections
import functools
import math
import operator
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from ..compiler.solve_sched import affine_ref_axes, dependence_table, identity_target
from ..lang import ast
from ..lang.ast import expr_to_text
from ..lang.operators import BINARY_UFUNCS, COMPARISONS, apply_binop, apply_unary
from ..lang.semantics import BUILTINS
from ..machine.cost import Recorder, bind_rows, charge_row, scan_levels
from ..machine.scan import INF
from ..machine.vpset import ratio_for
from ..mapping.locality import classify_affine, classify_write_affine
from . import commtiers, fuse
from .eval_expr import BUILTIN_VALUES, _RED_UFUNC, _reduce_op, cse_key
from .plan import lane_check, lane_scatter, lane_sub
from .statements import sweep_protocol
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

#: G — host cost of one lane-slot through the lane program relative to
#: one grid slot through the fused kernel.  A compressed sweep of a
#: dense-eligible construct (``_Analysis.dense``) is *evaluated* densely
#: when its active slots times G reach the full domain's slots; what it
#: *charges* never depends on G.  Calibrated on APSP's reduction sweep at
#: n=128: 15–20 ns per lane-slot (a perturbed converged graph, 1–5 %
#: occupancy; reduction scope is bound by the strided ``d[k][j]``
#: gather) against ≈ 0.84 ns per grid slot (the compressed 8th sweep of
#: ``apsp_dense``, snapshot and diff included) — a ratio of ≈ 20,
#: break-even at 5 % occupancy; G = 10 leaves an eligible sweep in the
#: 5–10 % band at most 2x slower on the lane path.  That win is the
#: strip kernel's: on a plain stencil (the obstacle grid, R = 16..128)
#: dense loses at every occupancy, so such constructs are not eligible.
_DENSE_COST_RATIO = 10


# ---------------------------------------------------------------------------
# charge rows and the estimate
# ---------------------------------------------------------------------------

#: the vp-ratio scope of an arm's pre-bound charge row (:func:`repro.machine.cost.bind_rows`):
#: a sweep replays them at ``(active lanes' ratio, active lanes x reduction
#: slots' ratio)``, the protocol rows at the full grid's.  Two entries of an
#: arm's rows stay symbolic because they are per-sweep (:func:`_sweep_rows`):
#: ``("k",)`` is the reduction scan over the sweep's effective extent,
#: ``("d",)`` the delta combine.
_LANE, _RED = 0, 1


def _sweep_rows(arm: "_ArmInfo", st: "_ArmState", costs) -> List[Tuple]:
    """The arm's body rows, a reduction arm's two per-sweep entries resolved."""
    if arm.red is None:
        return arm.body_rows
    out = []
    for r in arm.body_rows:
        if len(r) != 1:
            out.append(r)
        elif r[0] == "k":
            out.append(charge_row(costs, "scan_step", scan_levels(st.K_eff), _RED))
        elif st.delta_on:  # "d": combine the delta scan with the stored result
            out.append(charge_row(costs, "alu", 1, _LANE))
    return out


def _estimate(charges, dispatch: float) -> float:
    """What replaying ``charges`` — ``(rows, ratios)`` pairs — adds to a
    :class:`~repro.machine.cost.Clock`: per-call dispatch for CM kinds,
    host kinds flat, one running total in sequence order."""
    t = 0.0
    for rows, ratios in charges:
        for _kind, _count, bc, scope, _pays in rows:
            if bc is not None:  # tier counts and shard observations cost nothing
                t += bc if scope is None else bc * ratios[scope] + dispatch
    return t


# ---------------------------------------------------------------------------
# lane programs: the compressed evaluation substrate
# ---------------------------------------------------------------------------

#: step opcodes (see :func:`_run_lane_steps`)
_BINARY, _GATHER, _WHERE, _UNARY, _CHECK, _GRID = range(6)

#: register kinds, known at compile time: bool lanes stay bool until an
#: arithmetic consumer needs the C ``int`` (:meth:`_Compiler._num`);
#: numeric lanes are int64 or float64 as NumPy's own promotion decides;
#: host scalars are computed once per session
_B, _N, _S = "bool", "num", "scalar"

#: A compiled value: its register and what is static about it — ``kind``,
#: whether it spans the lanes and the reduction range (an array spanning
#: neither has shape ``(1,)``), and ``inv``: it cannot change between the
#: sweeps of one session, so it sits in the register file as a grid-sized
#: table (or a scalar) filled once by the session prelude.
_Val = collections.namedtuple("_Val", "reg kind lanes red inv", defaults=(False, False, False))

#: the registers a sweep sets before it runs a program: the stacked flat
#: positions of its lanes (as a vector, and as a column for reduction
#: scope), its selection from the reduction range, and the lanes of the
#: predicate's registers its body keeps (``slice(None)``: all of them);
#: ``_SHAPE`` holds the stacked grid shape ``(S,) + grid`` tables span
_POS, _POSCOL, _KSEL, _OK = (
    _Val(0, _N, lanes=True, inv=True),
    _Val(1, _N, lanes=True),
    _Val(2, _N, red=True),
    _Val(3, _B, lanes=True),
)
_SHAPE = 4

_KAXIS = "red"  # where a subscript bound to the reduction element varies

#: how a predicate subtree was reached from the root (:meth:`_Compiler.compile`)
_OFF, _LIVE, _CONJ = range(3)

_as_int = operator.methodcaller("astype", np.int64)


def _run_lane_steps(steps, R) -> None:
    """Run one lane program — a flat list of ``(op, dst, a, b, c)`` steps
    — over the register file ``R``.  The vocabulary is ``fuse``'s: gather
    (a flat field, or a session table, at an address register), unary,
    binary (arithmetic, comparison, the bool combine of ``&&``/``||``,
    subscripting by the sweep's selections), where, and the pure
    builtins' ``eval_expr.BUILTIN_VALUES``.  ``mask`` has no step of its
    own: a live refinement is only consumed by a bounds check, so a check
    is a sub-program that conjoins its guards, skipped once the prelude
    proved it dead."""
    for op, dst, a, b, c in steps:
        if op == _BINARY:
            R[dst] = a(R[b], R[c])
        elif op == _GATHER:
            R[dst] = R[a].take(R[b])
        elif op == _WHERE:
            R[dst] = np.where(R[a], R[b], R[c])
        elif op == _UNARY:
            R[dst] = a(R[b])
        elif op == _CHECK:  # R[dst]: proved dead; steps a leave "out of range and live" in b
            if not R[dst]:
                _run_lane_steps(a, R)
                if R[b].any():
                    _out_of_range(R[b], c, R)
        else:  # _GRID, prelude only: axis table a broadcast over the stacked grid
            R[dst] = np.broadcast_to(a, R[b]).reshape(-1)


def _out_of_range(bad, desc, R) -> None:
    """Raise the full-sweep bounds error for the first lane of ``bad``:
    only now are the unclipped subscripts ``raw`` brought to the lanes
    (``where``: the grid axis's (stride, extent), _KAXIS, None: constant)."""
    a, node, extent, where, raw = desc
    if where == _KAXIS:
        raw = raw[R[_KSEL.reg]]
    elif where is not None:
        raw = raw.take(R[_POS.reg] // where[0] % where[1])
        raw = raw[:, None] if bad.ndim == 2 else raw
    lane_check(a, node, extent, bad, raw)


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
    """A value-root reduction eligible for compressed evaluation: ``op``
    over ``set_name``'s ``values`` (``elem``), its body program ``steps``
    with result register ``reg`` (``full``: already ``(L, K)``-shaped)
    and what the delta scan needs (``delta_ok``, the fields below)."""

    def __init__(self) -> None:
        #: (base, array axis, clipped index vector) per distinct reference
        #: whose subscript on that axis is the reduction element
        self.delta_refs: List[Tuple[str, int, np.ndarray]] = []
        self.full_refs: List[str] = []  # modified arrays referenced without the elem
        self.read_arrays: Set[str] = set()


class _ArmInfo:
    """One construct arm: optional predicate plus one direct assignment
    (``node``) to ``target``.  ``pred_steps``/``steps`` are its lane
    programs, ``pred_reg``/``reg`` their results (a predicate's always
    lane-shaped: every address spans the lanes); a reduction arm (``red``) evaluates ``red.steps`` and
    keeps only the write's bounds checks in ``steps``.  The write goes to
    the addresses in ``target_addr`` (session table ``target_table``);
    ``pred_rows``/``body_rows`` are the bound charges, ``refs`` the
    distinct references into modified arrays."""


class _Analysis:
    """Cached per (construct node, grid axes): everything needed to plan
    and run compressed sweeps, minus per-execution bindings.  Shared by
    every session (through the compile store: every job) that runs the
    construct — complete when published, never mutated after."""

    def __init__(self, grid, kind: str, costs=None) -> None:
        self.kind = kind  # 'solve' | 'par'
        self.costs = costs  # the (frozen) cost table the arms' rows are bound to
        self.grid_shape = grid.shape
        self.rank = grid.rank
        self.axis_vals = [
            np.asarray(axis.values, dtype=np.int64) for axis in grid.axes
        ]
        self.grid_axis_of = {axis.elem: g for g, axis in enumerate(grid.axes)}
        self.arms: List[_ArmInfo] = []
        self.modified: List[str] = []
        self.array_shapes: Dict[str, Tuple[int, ...]] = {}
        #: the register file's initial state (literals in place), where a
        #: session binds its flat array views and scalars, the prelude (every
        #: sweep-invariant step) and the tables only the prelude itself reads
        self.template: List[object] = [None] * 5
        self.array_regs: Dict[str, int] = {}
        self.scalar_regs: Dict[str, int] = {}
        #: per array size: where a session binds each stacked position's
        #: row offset ``row x size``, which addresses into such arrays add
        self.row_bases: Dict[int, int] = {}
        self.prelude: List[Tuple] = []
        self.drop: List[int] = []


# ---------------------------------------------------------------------------
# analysis: restricted-grammar compilation
# ---------------------------------------------------------------------------


def _c_strides(shape) -> List[int]:
    """Element strides of a C-contiguous array of ``shape``."""
    strides = [1]
    for extent in shape[:0:-1]:
        strides.insert(0, strides[0] * extent)
    return strides


class _Compiler:
    """Lowers one construct's arms: records each expression's charges
    against ``rec`` exactly as the engines issue them and emits the steps
    that evaluate it on lanes.  Kinds, addresses, invariance and sharing
    (module docstring, **Evaluation**) are all decided here, once.  An
    exception abandons the compiler with its analysis, so scoped state
    (``chain``, ``steps``, ``mute``, ``red_ctx``) is restored on the normal path only."""

    def __init__(self, ip, inner, an: _Analysis, modified: Set[str]) -> None:
        self.ip = ip
        self.inner = inner
        self.an = an
        self.modified = modified
        self.red_ctx: Optional[dict] = None  # {'elem', 'set_name', 'grid', 'info', 'seen'}
        self.memo: Dict[Tuple, _Val] = {}  # tables and constants, construct-wide
        self.kept: Set[int] = set()  # prelude registers the sweeps read
        self.written: Set[str] = set()  # targets of the arms compiled so far
        #: the address table that is just the lanes' own flat positions
        self.identity_key = None
        if all(np.array_equal(v, np.arange(len(v))) for v in an.axis_vals):
            axes = zip(an.grid_shape, _c_strides(an.grid_shape))
            self.identity_key = tuple((g, 0, n, s) for g, (n, s) in enumerate(axes))

    def begin_arm(self) -> None:
        self.cse_seen: Set[str] = set()
        self.refs: Dict[Tuple, _RefInfo] = {}  # into modified arrays, keyed (base, axes)
        self.spine: Dict[str, _Val] = {}  # predicate subtrees on the && spine, by text
        self.sharing = False  # compiling the body: consult ``spine``
        self.mute = False  # a charges-only pass: allocate and emit nothing

    def begin_program(self) -> List[Tuple]:
        self.steps: List[Tuple] = []
        self.taken: Dict[int, int] = {}  # table register -> its lanes, this program
        self.chain: Tuple = ()  # (guard value, polarity) above the node being compiled
        return self.steps

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
        self.an.array_shapes[name] = binding.shape
        if name not in self.an.array_regs:  # where a session binds the flat data view
            self.an.array_regs[name] = self._new()
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

    # -- emission ---------------------------------------------------------

    def _new(self, value=None) -> int:
        # never muted: a muted subtree's tables and constants are memoised
        # already (``compile`` mutes only text the spine compiled)
        self.an.template.append(value)
        return len(self.an.template) - 1

    def _const(self, value, kind=_S) -> _Val:
        """A register holding ``value`` from session start."""
        content = value if kind == _S else (value.dtype.str, value.shape, value.tobytes())
        key = ("const", kind, type(value), content)
        if key not in self.memo:
            self.memo[key] = _Val(self._new(value), kind, inv=True)
        return self.memo[key]

    def _lanes(self, v: _Val) -> int:
        """The register a step of the current program reads ``v`` from: a
        session table is gathered at the lane positions, once per program."""
        if not v.inv or self.mute:
            return v.reg
        pos = (_POSCOL if self.red_ctx is not None else _POS).reg
        if v.reg == _POS.reg:
            return pos
        self.kept.add(v.reg)
        if not v.lanes:
            return v.reg
        if v.reg not in self.taken:
            self.taken[v.reg] = self._new()
            self.steps.append((_GATHER, self.taken[v.reg], v.reg, pos, None))
        return self.taken[v.reg]

    def _apply(self, kind, op, *args: _Val, fn=None) -> _Val:
        """Emit one step over ``args``: into the session prelude when every
        input is invariant (one that spans a reduction range never is:
        tables are grid-sized, not reduction-sized), else into the current
        program, its invariant inputs brought to the lanes."""
        lanes = red = False
        inv = True
        for a in args:
            lanes, red, inv = lanes or a.lanes, red or a.red, inv and a.inv
        if self.mute:
            return _Val(None, kind, lanes, red, inv)
        out = _Val(self._new(), kind, lanes, red, inv)
        if out.inv:
            regs, steps = [a.reg for a in args], self.an.prelude
        else:
            regs, steps = [self._lanes(a) for a in args], self.steps
        slots = ([fn] if fn is not None else []) + regs
        steps.append((op, out.reg, *slots, *[None] * (3 - len(slots))))
        return out

    def _grid_table(self, key, g: int, tab: np.ndarray, kind=_N) -> _Val:
        """A grid-sized session table: axis table ``tab`` along grid axis
        ``g``, broadcast over the grid."""
        if key not in self.memo:
            shape = [1] * self.an.rank
            shape[g] = -1
            self.memo[key] = _Val(self._new(), kind, lanes=True, inv=True)
            step = (_GRID, self.memo[key].reg, tab.reshape(shape), _SHAPE, None)
            self.an.prelude.append(step)
        return self.memo[key]

    def _red_row(self, tab: np.ndarray, kind=_N) -> _Val:
        """An axis table of the reduction range, at the positions this
        sweep selects."""
        return self._apply(kind, _BINARY, self._const(tab, kind), _KSEL, fn=operator.getitem)

    def _num(self, v: _Val) -> _Val:
        """``v`` as the C ``int`` an arithmetic consumer needs."""
        return self._apply(_N, _UNARY, v, fn=_as_int) if v.kind == _B else v

    def _bool(self, v: _Val) -> _Val:
        """``v != 0`` as bool lanes (a host scalar: as a Python bool)."""
        if v.kind == _B:
            return v
        if v.kind == _S:
            return self._apply(_S, _UNARY, v, fn=bool)
        return self._apply(_B, _BINARY, v, self._const(0), fn=np.not_equal)

    def _guarded(self, cond: _Val, holds: bool, expr, rec, spine: int) -> _Val:
        """Compile ``expr`` under the guard ``cond == holds``."""
        outer, self.chain = self.chain, self.chain + ((cond, holds),)
        out = self.compile(expr, rec, spine=spine)
        self.chain = outer
        return out

    def _check_step(self, node: ast.Index, a: int, extent: int, where, oob, raw, key=None) -> None:
        """Emit the bounds check of subscript ``a`` of ``node``: ``oob``
        marks the out-of-range entries of its axis table (``where``: the
        grid axis, _KAXIS, or None for a constant, checked unconditionally
        as in the engines).  The check is a sub-program conjoining the
        guards above the reference, invariant ones first: the prelude
        leaves the table of lanes out of range *and* live under those,
        and an all-false table proves the check dead for the session."""
        if self.mute:
            return
        outer, self.steps, self.taken = (self.steps, self.taken), [], {}
        if where is None:
            bad, chain = self._const(np.array([True]), _B), ()
        elif where == _KAXIS:
            bad, chain = self._red_row(oob, _B), self.chain
        else:
            bad, chain = self._grid_table(key, where, oob, _B), self.chain
            shape = self.an.grid_shape
            where = (_c_strides(shape)[where], shape[where])
        dead, proof = self._const(False), None
        for cond, holds in sorted(chain, key=lambda guard: not guard[0].inv):
            if not holds:
                cond = self._apply(_B, _UNARY, cond, fn=np.logical_not)
            bad = self._apply(_B, _BINARY, bad, cond, fn=np.bitwise_and)
            proof = bad if bad.inv and bad.lanes else proof
        if proof is not None:  # both steps land in the prelude
            dead = self._apply(_S, _UNARY, self._apply(_S, _UNARY, proof, fn=np.any), fn=operator.not_)
        self.kept.add(dead.reg)
        step = (_CHECK, dead.reg, self.steps, self._lanes(bad), (a, node, extent, where, raw))
        self.steps, self.taken = outer
        self.steps.append(step)

    # -- expression compilation ------------------------------------------

    def compile(self, expr: ast.Expr, rec, *, value_root: bool = False, spine: int = _OFF):
        """The :class:`_Val` of ``expr`` in the current program; the
        charges the engines issue for it are recorded, in order, into
        ``rec`` (see :func:`repro.machine.cost.bind_rows`).

        ``spine``: how a predicate subtree was reached from the root.
        :data:`_CONJ`, through ``&&`` alone (either side): every guard
        above it holds on every passing lane.  :data:`_LIVE`, from there
        on through plain binaries, unaries, call arguments, a ternary's
        condition, an ``||``'s left: evaluated wherever its parent is,
        but an ``&&`` below can be false on a passing lane, so that
        ``&&``'s right side is :data:`_OFF` the spine, like an ``||``'s
        right and a ternary's branches.  A body subtree with the text of
        one on the spine reads that register at the passing lanes — its
        bounds checks ran on a superset of its lanes — unless an earlier
        arm's body writes an array it reads (bodies run after every
        predicate); its charges are still recorded, by a muted pass."""
        shareable = isinstance(expr, (ast.Binary, ast.Index, ast.Unary, ast.Ternary, ast.Call))
        sharing = self.sharing and not self.mute
        if not shareable or self.red_ctx is not None or not (spine or sharing):
            return self._compile_cse(expr, rec, value_root, spine)
        text = expr_to_text(expr)
        hit = self.spine.get(text) if sharing else None
        if hit is None or hit.kind == _S or any(
            isinstance(n, ast.Index) and n.base in self.written for n in ast.walk(expr)
        ):
            out = self._compile_cse(expr, rec, value_root, spine)
            if spine:
                self.spine[text] = out
            return out
        self.mute = True
        self._compile_cse(expr, rec, value_root)
        self.mute = False
        if hit.inv or not hit.lanes:
            return hit
        return self._apply(hit.kind, _BINARY, hit, _OK, fn=operator.getitem)

    def _compile_cse(self, expr, rec, value_root, spine=_OFF) -> _Val:
        text = cse_key(self.ip.frontend, expr) if self.ip.config.cse else None
        if text is not None:
            key = (self._scope(), text)
            if key in self.cse_seen:
                # the engine serves this subtree from its CSE cache: no charges
                return self._compile_node(expr, Recorder(), value_root, spine)
            out = self._compile_node(expr, rec, value_root, spine)
            self.cse_seen.add(key)
            return out
        return self._compile_node(expr, rec, value_root, spine)

    def _compile_node(self, expr: ast.Expr, rec, value_root: bool, spine: int) -> _Val:
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return self._const((int if isinstance(expr, ast.IntLit) else float)(expr.value))
        if isinstance(expr, ast.InfLit):
            return self._const(INF)
        if isinstance(expr, ast.Name):
            return self._compile_name(expr)
        if isinstance(expr, ast.Index):
            return self._compile_index(expr, rec)
        if isinstance(expr, ast.Unary):
            return self._compile_unary(expr, rec, spine)
        if isinstance(expr, ast.Binary):
            return self._compile_binary(expr, rec, spine)
        if isinstance(expr, ast.Ternary):
            return self._compile_ternary(expr, rec, spine)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, rec, spine)
        if isinstance(expr, ast.Reduction) and value_root and self.red_ctx is None:
            raise _Reduce(expr)  # handled by the arm compiler
        raise _NotFrontierable()

    def _compile_name(self, expr: ast.Name) -> _Val:
        name = expr.ident
        an = self.an
        binding = self.inner.env.try_lookup(name)
        if self.red_ctx is not None and name == self.red_ctx["elem"]:
            return self._red_row(self.red_ctx["info"].values_arr)
        if isinstance(binding, ElementBinding) and binding.kind == "axis":
            # ``enter_grid`` numbers the axes as ``grid_axis_of`` does
            axis = binding.axis
            return self._grid_table(("elem", axis), axis, an.axis_vals[axis])
        if isinstance(binding, (ScalarVar, int, float, np.integer, np.floating)) or (
            isinstance(binding, ElementBinding) and binding.kind == "scalar"
        ):
            if name not in an.scalar_regs:
                an.scalar_regs[name] = self._new()
            return _Val(an.scalar_regs[name], _S, inv=True)
        raise _NotFrontierable()

    def _address(self, node: ast.Index, shape, axes_desc) -> Tuple[_Val, bool]:
        """``(flat address, any subscript can leave its extent)`` of the
        reference ``node`` = ``base[axes_desc]`` into an array of ``shape``.

        Each subscript is resolved against its extent once, over the
        values its element can take (:func:`repro.interp.plan.lane_sub`):
        the address is the sum of the clipped subscripts times their
        strides — grid tables for the lane-bound axes (invariant, so the
        sum is one prelude table), an axis table for a reduction-bound
        one — and a subscript that can leave its extent gets a check in
        front of the gather."""
        an = self.an
        red: Optional[_RedInfo] = self.red_ctx["info"] if self.red_ctx else None
        lane, key, row, const, checked = [], [], None, 0, False
        for a, ((elem, c), extent, stride) in enumerate(
            zip(axes_desc, shape, _c_strides(shape))
        ):
            if elem is None:
                index, raw, where = min(max(int(c), 0), extent - 1), int(c), None
                oob = None if index == raw else True
                const += index * stride
            else:
                where = _KAXIS if red is not None and elem == red.elem else an.grid_axis_of[elem]
                vals = red.values_arr if where == _KAXIS else an.axis_vals[where]
                index, oob, raw = lane_sub(vals + c if c else vals, extent)
                if where == _KAXIS:
                    row = index * stride
                else:
                    lane.append((where, index * stride))
                    key.append((where, c, extent, stride))
            if oob is not None:
                checked = True
                self._check_step(node, a, extent, where, oob, raw, ("oob", where, c, extent))
        size = math.prod(shape)
        key = ("addr", tuple(key), const, size)
        if key not in self.memo:
            if key[1:] == (self.identity_key, 0, math.prod(an.grid_shape)):
                self.memo[key] = _POS  # the lanes' own positions
            else:
                # a stacked row reads its own array: every address, a
                # constant one too, carries its row's offset
                if lane:
                    lane[0] = (lane[0][0], lane[0][1] + const)
                tabs = [self._grid_table((key, g), g, tab) for g, tab in lane]
                if size not in an.row_bases:  # bound by the session
                    an.row_bases[size] = self._new()
                tabs.append(_Val(an.row_bases[size], _N, lanes=True, inv=True))
                if const and not lane:
                    tabs.append(self._const(const))
                self.memo[key] = functools.reduce(self._sum, tabs)
        addr = self.memo[key]
        return (addr if row is None else self._sum(addr, self._red_row(row))), checked

    def _sum(self, x: _Val, y: _Val) -> _Val:
        return self._apply(_N, _BINARY, x, y, fn=np.add)

    def _compile_index(self, expr: ast.Index, rec) -> _Val:
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
                base, axes_desc, _dilation_recipe(self.an, axes_desc, arr.shape, red, lead=1)
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
        addr, checked = self._address(expr, arr.shape, axes_desc)
        # invariant: never written by the construct, every subscript in range
        field = _Val(self.an.array_regs[base], _N, inv=base not in self.modified and not checked)
        return self._apply(_N, _GATHER, field, addr)

    def _compile_unary(self, expr: ast.Unary, rec, spine: int) -> _Val:
        x = self.compile(expr.operand, rec, spine=min(spine, _LIVE))
        self._charge_op(rec, 1)
        op = expr.op  # '-', '!' or '~': the parser builds no other
        if op == "!" and x.kind == _B:
            return self._apply(_B, _UNARY, x, fn=np.logical_not)
        if op == "!" and x.kind == _N:
            return self._apply(_B, _BINARY, x, self._const(0), fn=np.equal)
        x = self._num(x)
        return self._apply(x.kind, _UNARY, x, fn=functools.partial(apply_unary, op, node=expr))

    def _compile_binary(self, expr: ast.Binary, rec, spine: int) -> _Val:
        op = expr.op
        live = min(spine, _LIVE)
        if op in ("&&", "||"):
            is_and = op == "&&"
            left = self.compile(expr.left, rec, spine=spine if is_and else live)
            if left.kind == _S:
                # scalar left side short-circuits in the engines: the
                # charge sequence becomes data-dependent — full sweeps
                raise _NotFrontierable()
            self._charge_op(rec, 1)
            lb = self._bool(left)
            # a lane passes a conjunctive && only with its left side true
            right = _CONJ if is_and and spine == _CONJ else _OFF
            rb = self._bool(self._guarded(lb, is_and, expr.right, rec, right))
            return self._apply(_B, _BINARY, lb, rb, fn=np.bitwise_and if is_and else np.bitwise_or)
        left = self._num(self.compile(expr.left, rec, spine=live))
        right = self._num(self.compile(expr.right, rec, spine=live))
        self._charge_op(rec, 1)
        scalar = left.kind == _S and right.kind == _S
        if op in COMPARISONS and not scalar:
            return self._apply(_B, _BINARY, left, right, fn=BINARY_UFUNCS[op])
        fn = None if op in COMPARISONS else BINARY_UFUNCS.get(op)
        if fn is None:  # '/', '%' and scalar comparisons: the C rules
            fn = functools.partial(apply_binop, op, node=expr)
        return self._apply(_S if scalar else _N, _BINARY, left, right, fn=fn)

    def _compile_ternary(self, expr: ast.Ternary, rec, spine: int) -> _Val:
        cond = self.compile(expr.cond, rec, spine=min(spine, _LIVE))
        if cond.kind == _S:
            raise _NotFrontierable()  # host cond picks one branch: data-dependent
        cb = self._bool(cond)
        then = self._guarded(cb, True, expr.then, rec, _OFF)
        els = self._guarded(cb, False, expr.els, rec, _OFF)
        self._charge_op(rec, 2)
        if then.kind == _B and els.kind == _B:
            return self._apply(_B, _WHERE, cb, then, els)
        return self._apply(_N, _WHERE, cb, self._num(then), self._num(els))

    def _compile_call(self, expr: ast.Call, rec, spine: int) -> _Val:
        name = expr.func
        value = BUILTIN_VALUES.get(name)
        if value is None or name in self.ip.info.functions:
            raise _NotFrontierable()  # user functions (or overridden / impure builtins)
        args = [self._num(self.compile(a, rec, spine=min(spine, _LIVE))) for a in expr.args]
        self._charge_op(rec, BUILTINS[name].alu)
        kind = _S if all(a.kind == _S for a in args) else _N
        fn = functools.partial(value, expr)
        return self._apply(kind, _UNARY if len(args) == 1 else _BINARY, *args, fn=fn)


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
    grid = inner.grid  # a construct names at least one index set (parser)
    an = _Analysis(grid, kind, ip.machine.clock.costs)

    modified: Set[str] = set()
    for block in stmt.blocks:
        assign = _single_assign(block.stmt)
        if assign is None:
            raise _NotFrontierable()
        if not isinstance(assign.target, ast.Index):
            raise _NotFrontierable()
        modified.add(assign.target.base)
    an.modified = sorted(modified)

    comp = _Compiler(ip, inner, an, modified)
    for block in stmt.blocks:
        assign = _single_assign(block.stmt)
        arm = _ArmInfo()
        arm.node = assign
        comp.begin_arm()
        pred_rec, body_rec = Recorder(), Recorder()
        arm.pred_steps = None
        if block.pred is not None:
            arm.pred_steps = comp.begin_program()
            pred = comp.compile(block.pred, pred_rec, spine=_CONJ)
            if pred.kind == _S:
                raise _NotFrontierable()  # host predicate: whole-grid semantics
            pred = comp._bool(pred)
            arm.pred_reg = comp._lanes(pred)

        # the target: identity subscripts covering every grid axis once
        # (distinct values, so the writes hit distinct slots)
        t = assign.target
        arr = comp._register_array(t.base)
        t_map = identity_target(t, grid.axes, ip.info.constants)
        if t_map is None or len(t_map) != grid.rank or len(arr.shape) != grid.rank:
            raise _NotFrontierable()
        t_axes = tuple((grid.axes[g].elem, 0) for g in t_map)
        arm.target = t.base
        arm.red = None
        arm.steps = comp.begin_program()
        comp.sharing = True
        try:
            value = comp.compile(assign.value, body_rec, value_root=True)
            arm.reg = comp._lanes(value)
        except _Reduce as r:
            arm.reg = None
            arm.red = _compile_reduction(
                ip, inner, an, comp, r.node, block, modified, body_rec
            )
            # the delta scan's combine-with-stored-result rides the list
            # as its own entry, charged on the sweeps that take the delta
            body_rec.entries.append(("d",))
            arm.steps = comp.begin_program()
        w_tier, w_rc, w_gshape = comp._classify(t, t_axes, arr, write=True)
        commtiers.charge_tier_at(
            body_rec, w_tier, w_rc, write=True, vp_ratio=_LANE,
            grid_shape=w_gshape, layout=arr.layout,
        )  # fmt: skip
        # the write's address and bounds checks close the arm's program
        addr, _checked = comp._address(t, arr.shape, t_axes)
        arm.target_table, arm.target_addr = addr.reg, comp._lanes(addr)
        comp.written.add(t.base)
        arm.pred_rows = bind_rows(pred_rec.entries, an.costs)
        arm.body_rows = bind_rows(body_rec.entries, an.costs)
        arm.refs = list(comp.refs.values())
        an.arms.append(arm)
    an.drop = [step[1] for step in an.prelude if step[1] not in comp.kept]
    an.drop += [reg for reg in an.row_bases.values() if reg not in comp.kept]
    an.proto = sweep_protocol(an.costs, stmt)
    # a slot two arms write has a per-write change mask the net diff of a
    # dense evaluation cannot give; dense wins only through the strip-mined
    # reduction kernel; which way values moved matters to a delta scan only
    an.net = len(an.modified) == len(an.arms)
    an.dense = an.net and any(arm.red is not None for arm in an.arms)
    an.delta = any(arm.red is not None and arm.red.delta_ok for arm in an.arms)
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
    red.extent = len(red.values)  # semantics rejects an empty index set
    ext_grid = inner.grid.extend([isv])
    comp.red_ctx = {
        "elem": red.elem,
        "set_name": red.set_name,
        "grid": ext_grid,
        "info": red,
        "seen": set(),
    }
    rec.entries.append(("k",))  # the scan over the sweep's effective extent
    red.steps = comp.begin_program()
    body = comp._num(comp.compile(arm.expr, rec))
    red.reg, red.full = comp._lanes(body), body.lanes and body.red
    comp.red_ctx = None
    red.delta_ok = (
        node.op in _DELTA_OPS
        and block.pred is None
        and _monotone_in_modified(arm.expr, modified)
    )
    return red


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def _dilation_recipe(an: _Analysis, axes, shape, red: Optional[_RedInfo], lead: int = 0) -> Tuple:
    """The static dilation recipe of one reference ``base[axes]`` into an
    array of ``shape``: ``(takes, collapse, order, bshape)``, for change
    masks with ``lead`` stacked axes in front (a session's rows: one).

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
            takes.append((a + lead, vec))
    bound.sort()
    # constant and collapsed axes have length one by the time the mask is
    # transposed, so only the relative order of the grid-bound axes counts
    kept = [a for _g, a in bound]
    order = tuple(a for a in range(len(axes)) if a not in kept) + tuple(kept)
    order = tuple(range(lead)) + tuple(a + lead for a in order)
    bshape = [-1] * lead + [1] * an.rank
    for g, _a in bound:
        bshape[lead + g] = len(an.axis_vals[g])
    return (
        tuple(takes),
        tuple(a + lead for a in collapse),
        None if order == tuple(range(len(order))) else order,
        tuple(bshape),
    )


# ---------------------------------------------------------------------------
# per-sweep state
# ---------------------------------------------------------------------------


class _ArmState:
    """What one arm does in one row's compressed sweep: how many lanes
    are active and everything its charges depend on (:attr:`key`)."""

    __slots__ = ("L", "lane_ratio", "K_eff", "red_ratio", "delta_on", "red_sel")

    def __init__(self, L: int, lane_ratio: int) -> None:
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
_IDLE = _ArmState(0, 1)


# ---------------------------------------------------------------------------
# what a sweep changed
# ---------------------------------------------------------------------------


def snapshot(values: Dict[str, object]) -> Dict[str, object]:
    """A before-copy of ``values`` (arrays copied, scalars as they are)."""
    return {n: v.copy() if isinstance(v, np.ndarray) else v for n, v in values.items()}


class SweepDiff:
    """What one sweep changed, per modified variable: its change mask
    (``changed``; a bool for a scalar), whether any element moved up or
    down (``dirs``; a compressed sweep tracks them only where a delta
    scan reads them) and how many moved (``counts``: changed, total).

    One diff serves every reader of a sweep: an iterated construct's
    fixed-point test (:meth:`any`), the frontier session's seed for the
    next sweep (:meth:`StarSession.full_end`; ``run_batch`` lanes pass
    diffs of their row slices) and the sweep-limit diagnostic
    (:meth:`summary`).  For the diagnostic, which reads them before the
    next sweep writes, a full sweep's diff (:meth:`between`) keeps its
    before-copy and after-state, and a one-row session's compressed sweep
    its writes: per array, ``(flat addresses, old values)`` in write
    order (a batch past the limit reruns sequentially)."""

    __slots__ = ("changed", "dirs", "counts", "before", "after", "writes")

    def __init__(self, changed, dirs, before=None, after=None, writes=None) -> None:
        self.changed = changed
        self.dirs = dirs
        self.counts = {
            n: (int(np.count_nonzero(m)), getattr(m, "size", 1)) for n, m in changed.items()
        }
        self.before = before
        self.after = after
        self.writes = writes

    @classmethod
    def between(cls, before: Dict[str, object], after: Dict[str, object]) -> "SweepDiff":
        """The diff of ``after`` (any superset of names) against ``before``."""
        changed, dirs, now = {}, {}, {}
        for name, old in before.items():
            new = now[name] = after[name]
            changed[name] = old != new
            dirs[name] = (bool(np.any(new > old)), bool(np.any(new < old)))
        return cls(changed, dirs, before, now)

    def any(self) -> bool:
        return any(n for n, _size in self.counts.values())

    def summary(self) -> str:
        """What still moved (the sweep-limit diagnostic): each variable's
        *frontier* — how many of its elements changed, so a diverging
        construct shows at a glance whether the instability is local or
        global — and a numeric array's largest change or a scalar's
        move."""
        parts = []
        for name in sorted(self.changed):
            n, size = self.counts[name]
            if not n:
                continue
            frontier = f"frontier {n} of {size} elements"
            if self.before is None:  # a compressed sweep: each written slot's first old value
                addr = np.concatenate([a for a, _o in self.writes[name]])
                first = np.unique(addr, return_index=True)[1]
                old = np.concatenate([o for _a, o in self.writes[name]])[first]
                new = self.after[name].reshape(-1)[addr[first]]
            else:
                old, new = self.before[name], self.after[name]
                if not isinstance(old, np.ndarray):
                    parts.append(f"{name} ({old!r} -> {new!r})")
                    continue
            # an int64 or float64 array
            width = np.abs(np.asarray(new, dtype=np.float64) - np.asarray(old, dtype=np.float64)).max()
            parts.append(f"{name} ({frontier}, max |delta| {width:g})")
        return "; ".join(parts) if parts else "nothing (oscillation across sweeps?)"


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class SweepPlan(NamedTuple):
    """One sweep of every row: per row the compressed sweep's ``(states,
    preds, bodies)`` (the halves: :meth:`StarSession._charges`) or None,
    a full sweep; per arm the ``(S,) + grid`` active lanes (None: none)."""

    rows: List[Optional[Tuple]]
    acts: Optional[List[np.ndarray]]


class StarSession:
    """Per-execution frontier driver for one ``*solve`` / ``*par`` over
    ``S >= 1`` rows — a solo run is one, a ``run_batch`` construct one per
    live lane — each with its own plan, reference and Clock; one dilation
    pass and one lane-program pass serve them all.  The register file is
    the row-wise concatenation of the solo files (array registers are the
    flattened lane stacks, a position is ``row x grid size + grid
    position``, every address adds its row's offset: ``an.row_bases``),
    so the lane programs and the cached analysis are the solo ones.  Host
    scalars are one per file: rows whose scalars differ (not
    :attr:`uniform`) cannot share a lane pass."""

    def __init__(self, ips, stmt: ast.UCStmt, inners, stacks=None) -> None:
        ip, inner = ips[0], inners[0]
        self.ips = ips
        self.stmt = stmt
        self.inner = inner
        self.kind = kind = stmt.kind
        an = ip.plan_cache.get_or_build(
            "frontier",
            stmt,
            inner.grid.axes,
            lambda: _analyze(ip, stmt, inner, kind),
            ip.build_tally,
        )
        self.an: Optional[_Analysis] = None
        # the lanes of a batch passed one fused kernel's binding checks:
        # equal shapes and layouts, so they bind alike
        scalars = [None if an is _FALLBACK else self._bind(an, x) for x in inners]
        for row_ip, bound in zip(ips, scalars):
            row_ip.machine.clock.count_frontier("constructs")
            if bound is None:
                row_ip.machine.clock.count_frontier("fallbacks")
        if None in scalars:
            return
        self.an = an
        self.scalars = scalars[0]
        self.uniform = all(s == self.scalars for s in scalars)
        env = inner.env
        #: the ``(S,) + shape`` stacks the rows read and write
        self.arrays = stacks or {n: env.try_lookup(n).data[None] for n in an.array_shapes}
        #: the lane programs' register file (:meth:`_registers`): plain
        #: data, so a session and its tables die by refcount
        self._R: Optional[List[object]] = None
        #: the ratios the protocol rows replay at: the full grid's
        self.full = (ip.grid_vpset(inner.grid.shape).vp_ratio,)
        #: the construct's active VPs, with a leading row axis
        self.base = inner.active_mask()[None]
        self.domain = int(np.count_nonzero(self.base))
        S = len(ips)
        self.shape = (S,) + an.grid_shape  # the stacked grid
        #: per row: what its last sweep changed (its next frontier), its
        #: last full sweep's cost and live PEs, an open full sweep's marks
        self.last: List[Optional[SweepDiff]] = [None] * S
        self.reference: List[Optional[float]] = [None] * S
        self.ref_pes: List[Optional[int]] = [None] * S
        self._full_marks: List[Optional[Tuple[float, int]]] = [None] * S
        #: a *par's per-arm predicate masks, stacked over the rows
        self.par_masks = [np.zeros(self.shape, dtype=bool) for _ in an.arms if kind == "par"]
        #: the rows' last change masks, stacked, when one lane pass set all
        self._changed: Optional[Dict[str, np.ndarray]] = None
        #: estimator totals and the two replay halves, by sweep charge key
        self._estimates: Dict[Tuple, Tuple] = {}
        #: the construct's fused kernel has an unfused segment: never dense
        self._unfused = False

    # -- binding ----------------------------------------------------------

    @staticmethod
    def _bind(an, inner) -> Optional[Dict[str, object]]:
        """A row's scalar bindings, or None when its arrays do not fit."""
        env = inner.env
        for name, shape in an.array_shapes.items():
            b = env.try_lookup(name)
            if not isinstance(b, ArrayVar) or b.shape != shape or not b.layout.is_canonical:
                return None
        # the analysis is cached per construct and grid axes: its names
        # resolve to declarations of the same kind, its sets to the same
        # constant values; only an array parameter can change shape
        scalars = {}
        for name in an.scalar_regs:
            b = env.try_lookup(name)
            scalars[name] = b if isinstance(b, (int, float, np.integer, np.floating)) else b.value
        return scalars

    def keep_rows(self, keep: List[int]) -> None:
        """Only rows ``keep`` go on; the stacks dict was compacted."""
        for attr in ("ips", "last", "reference", "ref_pes", "_full_marks"):
            setattr(self, attr, [getattr(self, attr)[r] for r in keep])
        self.par_masks = [m[keep] for m in self.par_masks]
        self.shape = (len(keep),) + self.an.grid_shape
        self._R = self._changed = None

    # -- full-sweep bracketing --------------------------------------------

    def full_begin(self, row: int = 0) -> None:
        """Open a full sweep of ``row``: its cost becomes the reference the
        row's next compressed sweep must undercut (:meth:`full_end`)."""
        clock = self.ips[row].machine.clock
        self._full_marks[row] = (clock.time_us, clock.count("alloc"))

    def full_end(self, diff: SweepDiff, row: int = 0) -> None:
        """Close a full sweep of ``row``: measure its cost and seed its
        next frontier from ``diff`` (the caller's one diff of the sweep:
        a solo loop's, a ``run_batch`` lane's from its row slices)."""
        ip = self.ips[row]
        clock = ip.machine.clock
        costs = clock.costs
        t0, alloc0 = self._full_marks[row]
        # a first sweep allocates VP sets the steady state reuses; do not
        # bake that one-off into the per-sweep reference cost
        alloc_extra = clock.count("alloc") - alloc0
        self.reference[row] = (clock.time_us - t0) - alloc_extra * (costs.alloc + costs.dispatch)
        self.ref_pes[row] = ip.machine.n_live_pes
        self.last[row] = diff
        self._changed = None
        self._full_marks[row] = None
        clock.count_frontier("full_sweeps")

    def note_par_masks(self, masks: List[np.ndarray], row: int = 0) -> None:
        for k, m in enumerate(masks):
            self.par_masks[k][row] = m

    # -- sweep planning ----------------------------------------------------

    def plan(self) -> "SweepPlan":
        """Active sets + delta decisions + estimate guard for one sweep of
        every row (:class:`SweepPlan`)."""
        S = len(self.ips)
        # a row plans once a full sweep measured its reference on the PEs
        # still live (else a degraded relayout: re-measure on a full sweep)
        ok = [pes is not None and ip.machine.n_live_pes == pes for ip, pes in zip(self.ips, self.ref_pes)]
        plans: List[Optional[Tuple]] = [None] * S
        if True not in ok:
            return SweepPlan(plans, None)
        an, lasts = self.an, self.last  # a *par's masks are noted with ``last``
        # the write simulation below rebinds pseudo[target] to a fresh
        # array (never mutates in place): a view of ``last`` suffices
        pseudo, dirty = dict(self._changed or {}), {}
        for name in an.modified:
            if name not in pseudo:
                none = np.zeros(an.array_shapes[name], dtype=bool)
                changed = [l.changed[name] if o else none for l, o in zip(lasts, ok)]
                pseudo[name] = changed[0][None] if S == 1 else np.stack(changed)
            dirty[name] = [o and l.counts[name][0] > 0 for l, o in zip(lasts, ok)]
        states: List[List[_ArmState]] = [[] for _ in ok]
        acts = []
        for arm in an.arms:
            act = np.zeros(self.shape, dtype=bool)
            for ref in arm.refs:
                if True in dirty[ref.base]:
                    act |= ref.dilate(pseudo[ref.base])
            act &= self.base
            if S == 1:
                Ls = [int(np.count_nonzero(act))]
            else:
                Ls = act.reshape(S, -1).sum(axis=1).tolist()
            live = False
            for r, L in enumerate(Ls):
                st = _IDLE
                if L:
                    st = _ArmState(L, ratio_for(L, self.ips[r].machine))
                    if arm.red is not None:
                        st = self._plan_reduction(arm.red, st, r, pseudo, dirty)
                        act[r] &= st.L > 0  # nothing feeds the reduction: no lanes
                    if st.L:
                        dirty[arm.target][r] = live = True
                states[r].append(st)
            if live:
                pseudo[arm.target] = pseudo[arm.target] | self._slots_of(arm, act)
            acts.append(act if live else None)
        # the estimate is a pure function of the arms' charge keys: replay
        # the estimator only for a key this session has not costed yet
        for r, sts in enumerate(states):
            key = tuple([st.key for st in sts])
            hit = self._estimates.get(key)
            if hit is None:
                preds, bodies = self._charges(sts)
                est = _estimate(preds + bodies, an.costs.dispatch)
                hit = self._estimates[key] = (est, preds, bodies)
            if ok[r] and hit[0] < self.reference[r]:
                plans[r] = (sts, hit[1], hit[2])
        return SweepPlan(plans, acts)

    def _slots_of(self, arm: _ArmInfo, act: np.ndarray) -> np.ndarray:
        """Stacked bool bound on the slots ``arm`` can write from the
        lanes ``act`` (callers only read the result)."""
        if arm.target_table == _POS.reg:
            return act  # identity write: the written slots ARE the active lanes
        out = np.zeros((len(self.ips),) + self.an.array_shapes[arm.target], dtype=bool)
        out.reshape(-1)[self._registers()[arm.target_table][act.reshape(-1)]] = True
        return out

    def _plan_reduction(self, red: _RedInfo, st: _ArmState, row: int, pseudo, dirty) -> _ArmState:
        """Decide the delta scan for one active reduction arm of ``row``:
        which reduction slots it must rescan and what VP ratio that costs."""
        machine = self.ips[row].machine
        delta_valid = red.delta_ok
        if delta_valid:
            want_down = red.op == "min"
            for name in red.read_arrays:
                up, down = self.last[row].dirs[name]
                if (want_down and up) or (not want_down and down):
                    delta_valid = False
                    break
        if not delta_valid:
            st.K_eff = red.extent
        else:
            if any(dirty[name][row] for name in red.full_refs):
                sel = np.ones(red.extent, dtype=bool)
            else:
                sel = np.zeros(red.extent, dtype=bool)
                # a delta scan is its construct's one arm (no predicate), so
                # its refs are into its target, dirty when the arm is active
                for base_name, a_ax, idx_vec in red.delta_refs:
                    ch = pseudo[base_name][row]
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

    def _charges(self, states: List[_ArmState]) -> Tuple[List[Tuple], List[Tuple]]:
        """A row's ordered charge sequence as ``(rows, ratios)`` pairs, in
        two halves — the protocol's entry rows, the predicates and its
        after-predicates rows (a ``*par``'s termination test), then the arm
        bodies and its after-bodies rows (a ``*solve``'s fixed-point test)
        — summed for the estimate and replayed on the real clock identically."""
        an, full = self.an, self.full
        proto = an.proto  # the construct's per-sweep protocol rows
        preds, bodies = [(proto.entry, full)], []
        for arm, st in zip(an.arms, states):
            if st.L:
                ratios = (st.lane_ratio, st.red_ratio)
                preds.append((arm.pred_rows, ratios))
                bodies.append((_sweep_rows(arm, st, an.costs), ratios))
        preds.append((proto.after_preds, full))
        bodies.append((proto.after_bodies, full))
        return [p for p in preds if p[0]], [b for b in bodies if b[0]]

    # -- compressed execution ---------------------------------------------

    def run_compressed(self, plan: "SweepPlan") -> bool:
        """One compressed sweep of a one-row session: whether a ``*solve``
        changed anything, whether a ``*par``'s predicates held (False: it
        terminates, bodies skipped).  Its plan fixes the charges; the host
        evaluates on the fused kernel where :meth:`dense` says so (and
        ``fuse.fused_for`` has a kernel: not under faults or the oracle),
        compute-only — inactive lanes recompute their values, so the
        before/after diff is the active lanes' changes — else on the
        active lanes, with identical arrays, masks and Clock."""
        ip, inner = self.ips[0], self.inner
        fused = fuse.fused_for(ip, self.stmt, inner) if self.dense(plan.rows[0][0]) else None
        if fused is not None and fused.unfused_count:
            # an unfused segment would charge the full grid: a static
            # fact of the kernel, so the session stops asking
            self._unfused = True
        elif fused is not None:
            rows = {name: self.arrays[name][0] for name in self.an.modified}
            before = snapshot(rows)
            sweep = fused.begin_sweep(ip, inner.active_mask(), charge=False)
            fused.run_body(ip, inner, sweep, charge=False)
            diff = SweepDiff.between(before, rows)
            return self.settle(0, plan.rows[0], sweep.masks, diff, dense=True)
        return self._run_lanes(plan)[0]

    def _trace(self, row: int, states: List[_ArmState], dense: bool) -> None:
        arms = max(1, len(self.an.arms)) if self.kind == "par" else 1
        self.ips[row].machine.clock.trace_frontier(
            sum(st.L for st in states), self.domain * arms, dense=dense
        )

    def dense(self, states: List[_ArmState]) -> bool:
        """Evaluate a compressed sweep on the fused kernel: the construct
        is dense-eligible (``an.dense``) and active slots x G reach the
        domain's slots.  It moves no value or charge; a row's trace
        records its verdict."""
        an = self.an
        if not an.dense or self._unfused:
            return False
        active = full = 0
        for arm, st in zip(an.arms, states):
            extent = arm.red.extent if arm.red is not None else 1
            active += st.L * st.scan_extent(extent)
            full += self.domain * extent
        return active * _DENSE_COST_RATIO >= full

    def settle(self, row: int, plan, masks, diff: SweepDiff, *, dense: bool) -> bool:
        """Close ``row``'s compressed sweep, evaluated on the fused kernel
        (its per-arm ``masks`` and before/after ``diff``): replay its
        halves; whether the row goes on.  ``dense``: its verdict."""
        states, preds, bodies = plan
        clock = self.ips[row].machine.clock
        for rows, ratios in preds:
            clock.replay_rows(rows, ratios)
        self.last[row] = diff
        self._changed = None
        if self.kind == "par":
            self._trace(row, states, dense)
            self.note_par_masks(masks, row)
            if not any(np.any(m) for m in masks):
                return False
        for rows, ratios in bodies:
            clock.replay_rows(rows, ratios)
        if self.kind == "solve":
            self._trace(row, states, dense)
        return self.kind == "par" or diff.any()

    def _registers(self) -> List[object]:
        """The lane programs' register file, built when a lane sweep first
        needs it: flat views of the stacked arrays, the scalars, each
        position's row offsets, then the prelude — every sweep-invariant
        step, once over the stacked grid, bounds-check proofs included.
        Tables only the prelude read are dropped."""
        R = self._R
        if R is None:
            an = self.an
            S, G = len(self.ips), self.base.size
            R = self._R = an.template.copy()
            for name, reg in an.array_regs.items():
                R[reg] = self.arrays[name].reshape(-1)
            for name, reg in an.scalar_regs.items():
                R[reg] = self.scalars[name]
            for size, reg in an.row_bases.items():
                R[reg] = np.repeat(np.arange(0, S * size, size), G)
            R[_SHAPE] = (S,) + an.grid_shape
            R[_POS.reg] = np.arange(S * G)
            _run_lane_steps(an.prelude, R)
            for reg in an.drop:
                R[reg] = None
        return R

    def _run_lanes(self, plan: "SweepPlan") -> Dict[int, bool]:
        """The compressed sweeps of the rows ``plan`` holds, on their
        active lanes only: one lane-program pass over the union of their
        stacked positions, each row replaying its halves (predicates
        before any predicate runs, bodies before any write).  Returns
        ``{row: whether it goes on}``."""
        an = self.an
        R = self._registers()
        par = self.kind == "par"
        plans, acts = plan
        S, G = len(plans), self.base.size
        rows = [r for r, p in enumerate(plans) if p is not None] if S > 1 else [0]
        if len(rows) < S:  # lanes of the other rows stay out of the pass
            on = np.zeros((S,) + (1,) * an.rank, dtype=bool)
            on[rows] = True
            acts = [act if act is None else act & on for act in acts]
        for r in rows:
            clock = self.ips[r].machine.clock
            for rows_, ratios in plans[r][1]:
                clock.replay_rows(rows_, ratios)
        cur = {name: np.zeros((S,) + an.array_shapes[name], dtype=bool) for name in an.modified}
        # per row: name -> (any_up, any_down), tracked for a delta scan only
        blank = dict.fromkeys(cur, (False, False))
        dirs = {r: dict(blank) for r in rows} if an.delta else dict.fromkeys(rows, blank)
        # what the solo loop's sweep-limit diagnostic reads
        writes = {name: [] for name in cur} if S == 1 else None

        # predicates first (the engines evaluate every arm's predicate before
        # any body runs); their registers stay in the file for the bodies
        todo: List[Tuple[int, np.ndarray, Optional[np.ndarray], int]] = []
        any_ok = False
        for k, arm in enumerate(an.arms):
            if acts[k] is None:
                continue
            R[_POS.reg] = pos = acts[k].reshape(-1).nonzero()[0]
            ok, n_ok = None, len(pos)
            if arm.pred_steps is not None:
                _run_lane_steps(arm.pred_steps, R)
                ok = R[arm.pred_reg]
                n_ok = int(np.count_nonzero(ok))
                if par:
                    self.par_masks[k].reshape(-1)[pos] = ok  # active lanes lie inside base
                    any_ok = any_ok or n_ok > 0
            todo.append((k, pos, ok, n_ok))

        go = dict.fromkeys(rows, True)
        if par:
            for r in rows:
                self._trace(r, plans[r][0], dense=False)
            # a fresh passing lane settles a one-row session without a
            # whole-grid test
            if S > 1 or not any_ok:
                held = functools.reduce(
                    operator.or_, [np.logical_or.reduce(m.reshape(S, -1), axis=1) for m in self.par_masks]
                )
                for r in rows:
                    if not held[r]:
                        go[r] = False
                        self.last[r] = SweepDiff({n: c[r] for n, c in cur.items()}, dirs[r])
        for r in rows:
            if go[r]:
                clock = self.ips[r].machine.clock
                for rows_, ratios in plans[r][2]:
                    clock.replay_rows(rows_, ratios)

        for k, pos, ok, n_ok in todo:
            if not n_ok:
                continue
            arm = an.arms[k]
            # every lane passed: selects read the predicate's registers whole
            R[_OK.reg] = ok if n_ok < len(pos) else slice(None)
            R[_POS.reg] = pos = pos[R[_OK.reg]]
            red, delta = arm.red, False
            if red is not None:  # the same steps, on (L, 1) columns and (K,) rows
                # a delta row's stored result combines with any superset of
                # its slots; a row without one needs the whole range
                sts = [plans[r][0][k] for r in rows if plans[r][0][k].L]
                delta = all(st.delta_on for st in sts)
                sel = functools.reduce(operator.or_, [st.red_sel for st in sts]) if delta else slice(None)
                R[_POSCOL.reg] = pos[:, None]
                R[_KSEL.reg] = sel
                _run_lane_steps(red.steps, R)
                body = R[red.reg]
                if not red.full:
                    K = int(np.count_nonzero(sel)) if delta else red.extent
                    body = np.broadcast_to(np.asarray(body), (n_ok, K))
                value = _reduce_op(red.op, [body], [np.True_], axes=(1,))
            _run_lane_steps(arm.steps, R)
            if red is None:
                value = R[arm.reg]
            flat = R[an.array_regs[arm.target]]
            addr = R[arm.target_addr]
            if delta:  # combine the delta scan with the stored result
                value = _RED_UFUNC[red.op](flat.take(addr), value)
            changed, old, new = lane_scatter(flat, addr, value)
            n_changed = int(np.count_nonzero(changed))
            if n_changed:
                where = addr if n_changed == n_ok else addr[changed]
                cur[arm.target].reshape(-1)[where] = True
            if writes is not None:
                writes[arm.target].append((addr, old))
            if not (n_changed and an.delta):
                continue
            if S == 1:
                segs = ((0, old, new),)
            else:  # each row's lanes are one run of the stacked positions
                cuts = np.searchsorted(pos, np.arange(0, (S + 1) * G, G)).tolist()
                segs = [(r, old[cuts[r] : cuts[r + 1]], new[cuts[r] : cuts[r + 1]]) for r in rows]
            for r, o, nw in segs:
                up, down = dirs[r][arm.target]  # unchanged lanes compare equal: no select
                dirs[r][arm.target] = (up or bool((nw > o).any()), down or bool((nw < o).any()))

        for r in rows:
            if go[r]:
                changed = {n: c[r] for n, c in cur.items()}
                last = self.last[r] = SweepDiff(changed, dirs[r], after=self.arrays, writes=writes)
                if not par:
                    self._trace(r, plans[r][0], dense=False)
                go[r] = par or last.any()
        # every row's change masks are rows of ``cur``: the next plan's stack
        self._changed = cur if len(rows) == S else None
        return go


def star_session(ips, stmt: ast.UCStmt, inners, stacks=None) -> Optional[StarSession]:
    """A frontier session for one ``*solve``/``*par`` execution over the
    rows ``ips``/``inners`` (``stacks``: a ``run_batch`` construct's lane
    stacks), or None when frontier execution is disabled for these
    interpreters."""
    if not ips[0].config.frontier_sweeps:
        return None
    sess = StarSession(ips, stmt, inners, stacks)
    return sess if sess.an is not None else None


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
    if len(assignments) < 2:
        # With one assignment, skipping it only fires when the sweep would
        # define nothing — exactly the no-progress error case — so the
        # per-sweep dilation bookkeeping can never pay for itself.
        return _FALLBACK
    if not all(isinstance(assign.target, ast.Index) for _pred, assign in assignments):
        return _FALLBACK  # scalar targets define whole variables at once
    an = _Analysis(inner.grid, "guarded")
    for _pred, assign in assignments:  # arrays: _exec_solve_guarded raised otherwise
        name = assign.target.base
        an.array_shapes[name] = inner.env.try_lookup(name).shape
    refs: List[List[_RefInfo]] = []
    for eq in dependence_table(assignments, inner.grid.axes, ip.info.constants):
        mine: Dict[Tuple, _RefInfo] = {}
        for ref in eq.refs:
            axes, shape = ref.axes, an.array_shapes[ref.node.base]
            if ref.in_reduction or axes is None or len(axes) != len(shape):
                return _FALLBACK  # rebinding or a non-affine subscript obscures the lanes
            seen = [e for e, _c in axes if e is not None]
            if len(seen) != len(set(seen)):
                return _FALLBACK
            if (ref.node.base, axes) not in mine:
                mine[ref.node.base, axes] = _RefInfo(
                    ref.node.base, axes, _dilation_recipe(an, axes, shape, None)
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
        ip.build_tally,
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

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
  engines use) run once against a recorder and the recorded primitives
  are bound to the cost table as rows (:func:`_bind_rows`; they live on
  the cached analysis).  A sweep replays the rows at its active VP
  ratios — first summed by a local estimator clock and then, only if the
  estimate undercuts the *measured* cost of the last full sweep, on the
  real clock: :meth:`repro.machine.cost.Clock.replay_rows`, one inlined
  loop in recorded order that goes back to one ``Clock.charge`` per row
  whenever a fault hook or a shard sink is installed.  The estimate is a
  pure function of the arms' charge keys (``L > 0``, lane and reduction
  VP ratios, effective reduction extent, delta on/off), so a session
  costs each distinct key once.  Charges precede writes, preserving the
  fault-injection charge-before-mutate invariant, and the guard makes
  the frontier Clock never higher than the full-sweep Clock.
* **Values** are bit-identical by construction: inactive lanes would
  recompute exactly their current values, and active lanes run the same
  numpy operator semantics (:func:`repro.interp.eval_expr.apply_binop`,
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
  When the active slots times :data:`_DENSE_COST_RATIO` reach the
  domain's slots and the construct has a validated fused kernel without
  unfused segments (:func:`repro.interp.fuse.fused_for`), the sweep
  instead issues its compressed charge sequence up front and runs the
  fused register program *compute-only* over the whole grid, deriving
  the change masks from a before/after diff exactly as a full sweep
  does.  Same arrays, same masks, same Clock; the choice stands down
  wherever fusion does.
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
import operator
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..compiler.cstar_gen import expr_to_text
from ..compiler.solve_sched import affine_ref_axes
from ..lang import ast
from ..lang.errors import UCRuntimeError
from ..machine.config import HOST_KINDS
from ..machine.cost import scan_levels
from ..machine.router import has_duplicates
from ..machine.scan import INF
from ..machine.vpset import ratio_for
from ..mapping.locality import classify_affine, classify_write_affine
from . import commtiers, fuse
from .eval_expr import _RED_UFUNC, _SIMPLE_BINOPS, _reduce_op, apply_binop
from .plan import lane_check, lane_scatter, lane_sub
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
#: one grid slot through the fused kernel.  A compressed sweep is
#: *evaluated* densely when its active slots times G reach the full
#: domain's slots; what it *charges* never depends on G.  Measured at
#: n=128: 15–20 ns per lane-slot (a perturbed converged graph, 1–5 %
#: occupancy; reduction scope is bound by the strided ``d[k][j]`` gather,
#: which resolving addresses ahead of time does not change) against
#: ≈ 0.84 ns per grid slot (the compressed 8th sweep of ``apsp_dense``,
#: snapshot and diff included) — a ratio of ≈ 20, break-even at 5 %
#: occupancy.  G stays at 10: a larger G sends the 5–10 % sweeps of
#: *every* construct to ``fuse.fused_for``, and asking counts
#: (``fusion.*``), so raising it wants a fusability verdict the session
#: can test first (ROADMAP item 1a); until then a fusable sweep in that
#: band pays at most 2x on the lane path.
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
# CSE simulation (keys are the engines' own: ``expr_to_text``)
# ---------------------------------------------------------------------------


def _pure(e: ast.Expr) -> bool:
    return not any(
        isinstance(n, (ast.Call, ast.Assign, ast.IncDec, ast.Reduction))
        for n in ast.walk(e)
    )


# ---------------------------------------------------------------------------
# charge rows and the estimate
# ---------------------------------------------------------------------------

#: the vp-ratio scope of a pre-bound charge: a sweep replays rows at
#: ``(active lanes' ratio, active lanes x reduction slots' ratio, full grid's)``
_LANE, _RED, _FULL = 0, 1, 2


def _row(costs, kind: str, count: int, scope: int) -> Tuple:
    """One charge in :meth:`Clock.replay_rows`' row format."""
    bc = getattr(costs, kind) * count
    if kind in HOST_KINDS:
        return (kind, count, bc, None, False)
    return (kind, count, bc, scope, kind != "dispatch")


def _bind_rows(entries: Sequence, costs) -> List[Tuple]:
    """Bind one arm's recorded charge list to the cost table, once: what
    the real cost helpers (``charge_tier_at`` and friends) recorded at
    analysis time, so the genuine charge sequence by construction, in
    recorded order.  The vp-ratio slot of an entry holds a *scope*
    (:data:`_LANE` or :data:`_RED`) each sweep resolves against its
    state.  Two tags stay symbolic because they are per-sweep
    (:func:`_sweep_rows`): ``("k",)`` is the reduction scan over the
    sweep's effective extent and ``("d",)`` the delta combine."""
    rows = []
    for e in entries:
        tag = e[0]
        if tag == "c":
            rows.append(_row(costs, e[1], e[2], e[3]))
        elif tag == "s":
            rows.append(_row(costs, "scan_step", scan_levels(e[1]) * e[3], e[2]))
        elif tag == "t":
            rows.append((e[1], 0, None, None, None))
        elif tag == "x":
            rows.append((None, 0, None, None, e[1:]))
        else:
            rows.append(e)
    return rows


def _sweep_rows(arm: "_ArmInfo", st: "_ArmState", costs) -> List[Tuple]:
    """The arm's body rows, a reduction arm's two per-sweep entries resolved."""
    if arm.red is None:
        return arm.body_rows
    out = []
    for r in arm.body_rows:
        if len(r) != 1:
            out.append(r)
        elif r[0] == "k":
            out.append(_row(costs, "scan_step", scan_levels(st.K_eff), _RED))
        elif st.delta_on:  # "d": combine the delta scan with the stored result
            out.append(_row(costs, "alu", 1, _LANE))
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

#: the registers a sweep sets before it runs a program: the flat grid
#: positions of its lanes (as a vector, and as a column for reduction
#: scope), its selection from the reduction range, and the lanes of the
#: predicate's registers its body keeps (``slice(None)``: all of them)
_POS, _POSCOL, _KSEL, _OK = (
    _Val(0, _N, lanes=True, inv=True),
    _Val(1, _N, lanes=True),
    _Val(2, _N, red=True),
    _Val(3, _B, lanes=True),
)

_KAXIS = "red"  # where a subscript bound to the reduction element varies

_COMPARE = ("==", "!=", "<", "<=", ">", ">=")

#: how a predicate subtree was reached from the root (:meth:`_Compiler.compile`)
_OFF, _LIVE, _CONJ = range(3)

_as_int = operator.methodcaller("astype", np.int64)


def _invert(v):
    return np.invert(v.astype(np.int64, copy=False))


def _run_lane_steps(steps, R) -> None:
    """Run one lane program — a flat list of ``(op, dst, a, b, c)`` steps
    — over the register file ``R``.  The vocabulary is ``fuse``'s: gather
    (a flat field, or a session table, at an address register), unary,
    binary (arithmetic, comparison, the bool combine of ``&&``/``||``,
    subscripting by the sweep's selections), where, and calls through
    ``_CALL_IMPLS``.  ``mask`` has no step of its own: a live refinement
    is only consumed by a bounds check, so a check is a sub-program that
    conjoins its guards, skipped once the prelude proved it dead."""
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
        else:  # _GRID, prelude only: axis table a broadcast over the grid b
            R[dst] = np.broadcast_to(a, b).reshape(-1)


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
    programs, ``pred_reg``/``reg`` their results (``pred_full``: already
    lane-shaped); a reduction arm (``red``) evaluates ``red.steps`` and
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
        self.elem_kinds: Dict[str, int] = {}  # elem name -> grid axis
        #: the register file's initial state (literals in place), where a
        #: session binds its flat array views and scalars, the prelude (every
        #: sweep-invariant step) and the tables only the prelude itself reads
        self.template: List[object] = [None] * 4
        self.array_regs: Dict[str, int] = {}
        self.scalar_regs: Dict[str, int] = {}
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
        known = self.an.array_shapes.get(name)
        if known is not None and known != binding.shape:
            raise _NotFrontierable()
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
        if self.mute:  # every table and constant of a shared subtree exists already
            raise _NotFrontierable()
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
            step = (_GRID, self.memo[key].reg, tab.reshape(shape), self.an.grid_shape, None)
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
        ``rec`` (see :func:`_bind_rows`).

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
            out = self._compile_cse(expr, rec, value_root, spine, text)
            if spine:
                self.spine[text] = out
            return out
        self.mute = True
        self._compile_cse(expr, rec, value_root, text=text)
        self.mute = False
        if hit.inv or not hit.lanes:
            return hit
        return self._apply(hit.kind, _BINARY, hit, _OK, fn=operator.getitem)

    def _compile_cse(self, expr, rec, value_root, spine=_OFF, text=None) -> _Val:
        if (
            self.ip.config.cse
            and isinstance(expr, (ast.Binary, ast.Index, ast.Unary, ast.Ternary))
            and _pure(expr)
        ):
            key = (self._scope(), text or expr_to_text(expr))
            if key in self.cse_seen:
                # the engine serves this subtree from its CSE cache: no charges
                return self._compile_node(expr, fuse._Recorder(), value_root, spine)
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
            axis = binding.axis
            if an.grid_axis_of.get(name) != axis:
                raise _NotFrontierable()
            an.elem_kinds[name] = axis
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
        key = ("addr", tuple(key), const)
        if not lane:
            addr = self._const(np.array([const]), _N) if row is None else self._red_row(row + const)
            return addr, checked
        if key not in self.memo:
            if key[1:] == (self.identity_key, 0):
                self.memo[key] = _POS  # the lanes' own positions
            else:
                lane[0] = (lane[0][0], lane[0][1] + const)
                tabs = [self._grid_table((key, g), g, tab) for g, tab in lane]
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
        addr, checked = self._address(expr, arr.shape, axes_desc)
        # invariant: never written by the construct, every subscript in range
        field = _Val(self.an.array_regs[base], _N, inv=base not in self.modified and not checked)
        return self._apply(_N, _GATHER, field, addr)

    def _compile_unary(self, expr: ast.Unary, rec, spine: int) -> _Val:
        x = self.compile(expr.operand, rec, spine=min(spine, _LIVE))
        self._charge_op(rec, 1)
        op = expr.op
        if op not in ("-", "!", "~"):
            raise _NotFrontierable()
        if op == "!":
            if x.kind == _B:
                return self._apply(_B, _UNARY, x, fn=np.logical_not)
            if x.kind == _N:
                return self._apply(_B, _BINARY, x, self._const(0), fn=np.equal)
            return self._apply(_S, _UNARY, x, fn=lambda v: int(not v))
        x = self._num(x)
        if op == "-":
            return self._apply(x.kind, _UNARY, x, fn=operator.neg)
        return self._apply(x.kind, _UNARY, x, fn=_invert if x.kind == _N else lambda v: ~int(v))

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
        if op in _COMPARE and not scalar:
            return self._apply(_B, _BINARY, left, right, fn=_SIMPLE_BINOPS[op])
        fn = None if op in _COMPARE else _SIMPLE_BINOPS.get(op)
        if fn is None:  # '/', '%' and scalar comparisons: the C rules

            def fn(a, b, op=op, node=expr):
                return apply_binop(op, a, b, node)

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
        if name not in _CALL_CHARGES or name in self.ip.info.functions:
            raise _NotFrontierable()  # user functions (or shadowed builtins)
        want = 2 if name in ("min", "max") else 1
        if len(expr.args) != want:
            raise _NotFrontierable()
        args = [self._num(self.compile(a, rec, spine=min(spine, _LIVE))) for a in expr.args]
        self._charge_op(rec, _CALL_CHARGES[name])
        kind = _S if all(a.kind == _S for a in args) else _N
        fn = functools.partial(_CALL_IMPLS[name], expr)
        return self._apply(kind, _UNARY if want == 1 else _BINARY, *args, fn=fn)


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
        pred_rec, body_rec = fuse._Recorder(), fuse._Recorder()
        arm.pred_steps = None
        if block.pred is not None:
            arm.pred_steps = comp.begin_program()
            pred = comp.compile(block.pred, pred_rec, spine=_CONJ)
            if pred.kind == _S:
                raise _NotFrontierable()  # host predicate: whole-grid semantics
            pred = comp._bool(pred)
            arm.pred_reg, arm.pred_full = comp._lanes(pred), pred.lanes

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
        arm.pred_rows = _bind_rows(pred_rec.entries, an.costs)
        arm.body_rows = _bind_rows(body_rec.entries, an.costs)
        arm.refs = list(comp.refs.values())
        an.arms.append(arm)
    an.drop = [step[1] for step in an.prelude if step[1] not in comp.kept]
    # at the full grid's ratio: a *solve's snapshot up front; the termination test
    head = [_row(an.costs, "alu", len(an.modified) or 1, _FULL)]
    an.head_rows = head if kind == "solve" else []
    an.test_rows = [_row(an.costs, "global_or", 1, _FULL), _row(an.costs, "host_cm_latency", 1, _FULL)]
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


# ---------------------------------------------------------------------------
# per-sweep state
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
        #: the lane programs' register file (:meth:`_registers`): plain
        #: data, so a session and its tables die by refcount
        self._R: Optional[List[object]] = None
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
        arrays: Dict[str, np.ndarray] = {}
        scalars: Dict[str, object] = {}
        env = self.inner.env
        for name, shape in an.array_shapes.items():
            b = env.try_lookup(name)
            if not isinstance(b, ArrayVar) or b.shape != shape or not b.layout.is_canonical:
                return False
            arrays[name] = b.data
        for name in an.scalar_regs:
            b = env.try_lookup(name)
            if isinstance(b, ScalarVar) or (isinstance(b, ElementBinding) and b.kind == "scalar"):
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
        dirty = {name: self.last_stats[name][0] > 0 for name in pseudo}
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
                pseudo[arm.target] = target | self._slots_of(arm, st, target.shape)
                dirty[arm.target] = True
        # the estimate is a pure function of the arms' charge keys: replay
        # the estimator only for a key this session has not costed yet
        key = tuple(st.key for st in states)
        est = self._estimates.get(key)
        if est is None:
            preds, bodies = self._charges(states)
            est = self._estimates[key] = _estimate(preds + bodies, an.costs.dispatch)
        if est >= self.reference:
            return None
        return states

    def _slots_of(self, arm: _ArmInfo, st: _ArmState, shape) -> np.ndarray:
        """Array-shaped bool bound on the slots ``arm`` can write from
        ``st``'s lanes (callers only read the result)."""
        if arm.target_table == _POS.reg:
            return st.act  # identity write: the written slots ARE the active lanes
        out = np.zeros(shape, dtype=bool)
        out.reshape(-1)[self._registers()[arm.target_table][st.act.reshape(-1)]] = True
        return out

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

    def _charges(self, states: List[_ArmState]) -> Tuple[List[Tuple], List[Tuple]]:
        """The sweep's ordered charge sequence as ``(rows, ratios)`` pairs,
        in two halves — up to and including a ``*par``'s termination test,
        then the arm bodies and a ``*solve``'s fixed-point test — summed
        for the estimate and replayed on the real clock identically."""
        an, full = self.an, self.vps.vp_ratio
        preds, bodies = [(an.head_rows, (1, 1, full))], []
        for arm, st in zip(an.arms, states):
            if st.L:
                ratios = (st.lane_ratio, st.red_ratio)
                preds.append((arm.pred_rows, ratios))
                bodies.append((_sweep_rows(arm, st, an.costs), ratios))
        (preds if self.kind == "par" else bodies).append((an.test_rows, (1, 1, full)))
        return preds, bodies

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
        preds, bodies = self._charges(states)
        for rows, ratios in preds:
            clock.replay_rows(rows, ratios)
        sweep = fused.begin_sweep(ip, inner.active_mask(), charge=False)
        if self.kind == "par":
            self._trace(states, dense=True)
            self.note_par_masks(sweep.masks)
            if not any(np.any(m) for m in sweep.masks):
                self._note_diff(before)
                return False
        for rows, ratios in bodies:
            clock.replay_rows(rows, ratios)
        fused.run_body(ip, inner, sweep, charge=False)
        if self.kind == "solve":
            self._trace(states, dense=True)
        changed = self._note_diff(before)
        return self.kind == "par" or changed

    def _registers(self) -> List[object]:
        """The register file of this session's lane programs, built when
        a lane sweep first needs it: flat views of the bound arrays, the bound
        scalars, then the prelude — every sweep-invariant step, once over
        the whole grid (at most that subtree's share of the full sweep the
        session has just run), bounds-check proofs included.  Tables only
        the prelude read are dropped."""
        R = self._R
        if R is None:
            an = self.an
            R = self._R = an.template.copy()
            for name, reg in an.array_regs.items():
                R[reg] = self.S["arrays"][name].reshape(-1)
            for name, reg in an.scalar_regs.items():
                R[reg] = self.S["scalars"][name]
            R[_POS.reg] = np.arange(self.base.size)
            _run_lane_steps(an.prelude, R)
            for reg in an.drop:
                R[reg] = None
        return R

    def _run_lanes(self, states: List[_ArmState]) -> bool:
        """Evaluate the sweep on the active lanes only, charging each
        arm just before it writes."""
        an = self.an
        clock = self.ip.machine.clock
        R = self._registers()
        par = self.kind == "par"
        cur: Dict[str, np.ndarray] = {
            name: np.zeros(m.shape, dtype=bool) for name, m in self.prev.items()
        }
        dirs = dict.fromkeys(cur, (False, False))  # name -> (any_up, any_down)

        # predicates first (the engines evaluate every arm's predicate before
        # any body runs); their registers stay in the file for the bodies
        full = (1, 1, self.vps.vp_ratio)
        clock.replay_rows(an.head_rows, full)
        todo: List[Tuple[int, np.ndarray, Optional[np.ndarray], int]] = []
        any_ok = False
        for k, (arm, st) in enumerate(zip(an.arms, states)):
            if not st.L:
                continue
            ok, n_ok = None, st.L
            R[_POS.reg] = pos = st.act.reshape(-1).nonzero()[0]
            if arm.pred_steps is not None:
                clock.replay_rows(arm.pred_rows, (st.lane_ratio, st.red_ratio))
                _run_lane_steps(arm.pred_steps, R)
                ok = R[arm.pred_reg]
                if not arm.pred_full:
                    ok = np.broadcast_to(ok, pos.shape)
                n_ok = int(np.count_nonzero(ok))
                if par:
                    self.par_masks[k].reshape(-1)[pos] = ok  # active lanes lie inside base
                    any_ok = any_ok or n_ok > 0
            todo.append((k, pos, ok, n_ok))

        if par:
            clock.replay_rows(an.test_rows, full)
            self._trace(states, dense=False)
            # a fresh passing lane settles it without a whole-grid test
            if not any_ok and not any(np.any(m) for m in self.par_masks):
                self._note_lanes(cur, dirs)
                return False

        for k, pos, ok, n_ok in todo:
            arm, st = an.arms[k], states[k]
            clock.replay_rows(_sweep_rows(arm, st, an.costs), (st.lane_ratio, st.red_ratio))
            if not n_ok:
                continue
            # every lane passed: selects read the predicate's registers whole
            R[_OK.reg] = ok if n_ok < st.L else slice(None)
            R[_POS.reg] = pos = pos[R[_OK.reg]]
            red = arm.red
            if red is not None:  # the same steps, on (L, 1) columns and (K,) rows
                R[_POSCOL.reg] = pos[:, None]
                R[_KSEL.reg] = st.red_sel if st.delta_on else slice(None)
                _run_lane_steps(red.steps, R)
                body = R[red.reg]
                if not red.full:
                    body = np.broadcast_to(np.asarray(body), (len(pos), st.K_eff))
                value = _reduce_op(red.op, [body], [np.True_], axes=(1,))
            _run_lane_steps(arm.steps, R)
            if red is None:
                value = R[arm.reg]
            flat = R[an.array_regs[arm.target]]
            addr = R[arm.target_addr]
            if st.delta_on:  # combine the delta scan with the stored result
                value = _RED_UFUNC[red.op](flat.take(addr), value)
            changed, old, new = lane_scatter(flat, addr, value)
            n_changed = int(np.count_nonzero(changed))
            if n_changed:
                where = addr if n_changed == n_ok else addr[changed]
                cur[arm.target].reshape(-1)[where] = True
                up, down = dirs[arm.target]  # unchanged lanes compare equal: no select
                dirs[arm.target] = (up or bool((new > old).any()), down or bool((new < old).any()))

        if not par:
            clock.replay_rows(an.test_rows, full)
            self._trace(states, dense=False)
        return self._note_lanes(cur, dirs) or par

    def _note_lanes(self, cur: Dict[str, np.ndarray], dirs: Dict[str, Tuple[bool, bool]]) -> bool:
        """Seed the next sweep's frontier from a lane sweep's change
        masks; returns whether anything changed."""
        self.prev, self.dirs = cur, dirs
        self.last_stats = {
            name: (int(np.count_nonzero(m)), int(m.size)) for name, m in cur.items()
        }
        return any(n for n, _size in self.last_stats.values())

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

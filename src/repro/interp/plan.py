"""Shared address recipes: static gathers as ``np.ix_`` takes, lane-space
subscripts for the frontier engine.

Two consumers resolve array addresses once per construct instead of once
per sweep, and both read them from here:

* :mod:`repro.interp.fuse` bakes a gather whose subscripts are static
  into an :class:`_IndexRecipe`: an N-d fancy gather over the grid
  collapses to a take over one vector per varying axis plus a broadcast
  (``dist[i][k]`` over an (i,j,k) grid: a 64x64 take instead of a 64^3
  gather).  Address work runs on :func:`_compact` views, so it is sized
  by the program text, not by the grid.
* :mod:`repro.interp.frontier` resolves the subscripts of a compressed
  sweep's active lanes with :func:`lane_sub` / :func:`lane_check` and
  writes them with :func:`lane_scatter`.

Everything else a construct needs is evaluated by the fused kernel, the
frontier lane program or the tree-walking oracle
(:mod:`repro.interp.eval_expr`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..lang import ast
from . import eval_expr as E
from .values import broadcast


# ---------------------------------------------------------------------------
# np.ix_ take recipes for static fancy indices
# ---------------------------------------------------------------------------


def _compact(arr: np.ndarray) -> np.ndarray:
    """Smallest same-rank view of a (possibly broadcast) array holding
    every value.

    Axes with stride 0 carry no information; slicing them to one element
    turns work over a huge broadcast view into work over the underlying
    vector, and the result broadcasts back to ``arr.shape`` as a view.
    """
    return arr[tuple(slice(None) if st else slice(0, 1) for st in arr.strides)]


def _vary_axis(arr: np.ndarray, used) -> Optional[int]:
    """The single unused grid axis ``arr`` varies along; -1 if constant;
    None if it varies along several (or only already-claimed) axes."""
    # stride fast path: an axis with stride 0 (or extent 1) cannot vary,
    # so a broadcast view varying along one real axis is detected without
    # touching the data (axis_values grids are exactly this shape)
    varying = [
        g
        for g, st in enumerate(arr.strides)
        if st != 0 and arr.shape[g] > 1
    ]
    if not varying:
        return -1
    if len(varying) == 1:
        g = varying[0]
        return None if g in used else g
    first = arr[(0,) * arr.ndim]
    if bool((arr == first).all()):
        return -1
    for g in range(arr.ndim):
        if g in used:
            continue
        others = tuple(k for k in range(arr.ndim) if k != g)  # ndim >= 2 here
        if bool((arr.max(axis=others) == arr.min(axis=others)).all()):
            return g
    return None


class _IndexRecipe:
    """``data[tuple(idx_arrays)]`` replayed as an ``np.ix_`` take.

    Valid when every index array is constant or varies along exactly one
    distinct grid axis; the take touches one element per (varying-axis
    product) instead of one per grid point, and the result broadcasts
    back to the grid shape as a readonly view.
    """

    __slots__ = ("vecs", "perm", "squeeze", "expand", "shape", "ix")

    def __init__(self, vecs, perm, squeeze, expand, shape) -> None:
        self.vecs = vecs
        self.perm = perm
        self.squeeze = squeeze
        self.expand = expand
        self.shape = shape
        self.ix = np.ix_(*vecs)

    def take(self, data: np.ndarray) -> np.ndarray:
        small = data[self.ix]
        if self.perm is not None:
            small = small.transpose(self.perm)
        if self.squeeze:
            small = small.squeeze(axis=self.squeeze)
        if self.expand:
            small = np.expand_dims(small, axis=self.expand)
        return broadcast(small, self.shape)


#: verify recipes against the fancy-gather result only below this size —
#: the construction is size-independent, so the small-grid differential
#: suites exercise it while big production grids skip the O(grid) compare
_VERIFY_LIMIT = 1 << 16


def _build_index_recipe(subs, view_shape, grid_shape) -> Optional[_IndexRecipe]:
    """Recipe from the *raw* subscript values (pre-clip).

    Working from the raw subs keeps axis_values broadcast views intact so
    ``_vary_axis`` can answer from strides alone; clipping then touches
    only the per-axis vectors instead of full grid-shaped arrays.
    """
    rank = len(grid_shape)
    vecs: List[np.ndarray] = []
    assoc: List[Optional[int]] = []
    used: set = set()
    for a, s in enumerate(subs):
        hi = view_shape[a] - 1
        if not isinstance(s, np.ndarray):
            vecs.append(np.asarray([min(max(int(s), 0), hi)], dtype=np.int64))
            assoc.append(None)
            continue
        sb = broadcast(s, grid_shape)
        g = _vary_axis(sb, used)
        if g is None:
            return None
        if g == -1:
            v = min(max(int(sb[(0,) * rank]), 0), hi)
            vecs.append(np.asarray([v], dtype=np.int64))
            assoc.append(None)
        else:
            used.add(g)
            slicer = tuple(slice(None) if k == g else 0 for k in range(rank))
            vec = np.clip(sb[slicer], 0, hi).astype(np.int64, copy=False)
            vecs.append(np.ascontiguousarray(vec))
            assoc.append(g)
    linked = sorted((g, a) for a, g in enumerate(assoc) if g is not None)
    perm = tuple(a for _g, a in linked) + tuple(
        a for a, g in enumerate(assoc) if g is None
    )
    perm_t: Optional[Tuple[int, ...]] = perm
    if perm == tuple(range(len(perm))):
        perm_t = None
    linked_gs = {g for g, _a in linked}
    squeeze = tuple(range(len(linked), len(assoc)))
    expand = tuple(g for g in range(rank) if g not in linked_gs)
    return _IndexRecipe(tuple(vecs), perm_t, squeeze, expand, tuple(grid_shape))


def _oob_masks(subs, view_shape, grid_shape):
    """Per-axis out-of-bounds masks for static subscripts (None = clean).

    Range-checks run on the compact view (the underlying vector for
    broadcast subscripts); full grid-shaped masks are built only for axes
    that actually hold out-of-range values.
    """
    out: List[Optional[np.ndarray]] = []
    any_bad = False
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            sb = broadcast(s, grid_shape)
            comp = _compact(sb)
            ext = view_shape[a]
            if comp.size and (int(comp.min()) < 0 or int(comp.max()) >= ext):
                out.append(broadcast((sb < 0) | (sb >= ext), grid_shape))
                any_bad = True
            else:
                out.append(None)
        else:
            out.append(None)
    return out if any_bad else None


# ---------------------------------------------------------------------------
# frontier-restricted recipes
# ---------------------------------------------------------------------------
#
# The frontier engine (:mod:`repro.interp.frontier`) evaluates compressed
# sweeps over *lane vectors* — the active subset of the grid — instead of
# grid-shaped arrays.  These helpers are the lane-space analogues of the
# ``np.ix_`` take recipes above: same bounds-check messages, same
# clipped-gather semantics, same value casting, but indexed by the active
# lanes only, so a sweep touching L of N lanes moves O(L) data.
#
# Address resolution happens once, not per sweep: :func:`lane_sub`
# resolves one subscript vector against an axis extent — range probe,
# clipped vector, out-of-range mask — and the frontier analysis calls it
# over the *values an index element can take*.  A sweep holds one flat
# address per lane (clipped subscripts times strides), so the gather is a
# ``take`` of the flat field in the frontier's step loop;
# :func:`lane_check` is the bounds error a live out-of-range lane raises
# and :func:`lane_scatter` the write.


def lane_sub(s: np.ndarray, extent: int):
    """Resolve one subscript vector against an axis extent.

    Returns ``(index, oob, raw)``: the vector to index with, the mask of
    entries outside ``0..extent-1`` and the unclipped values the error
    message quotes.  A subscript that stays in range everywhere — the
    common case, decided by one min/max probe — resolves to
    ``(s, None, s)``: nothing to report, nothing to clip.
    """
    if not s.size or (s.min() >= 0 and s.max() < extent):
        return s, None, s
    return np.clip(s, 0, extent - 1), (s < 0) | (s >= extent), s


def lane_check(a: int, node: ast.Index, extent: int, bad, raw) -> None:
    """Raise the bounds error of subscript ``a`` of ``node`` when a lane
    of ``bad`` is set — out of range *and* live under the guards above
    the reference — with :func:`repro.interp.eval_expr.out_of_range`,
    quoting the first such lane's unclipped value from ``raw``.
    Out-of-range lanes under a false guard read their clipped address."""
    if bad.any():
        E.out_of_range(a, node, extent, bad, raw)


def lane_scatter(flat: np.ndarray, addr: np.ndarray, value):
    """Scatter ``value`` into the flat field at per-lane addresses.

    All lanes are active writers (the frontier engine has already applied
    the predicate and checked the target's bounds), and the caller
    guarantees distinct slots (identity target subscripts over distinct
    axis values), so the §3.4 single-assignment collision check is
    vacuous and skipped.  Returns ``(changed, old, new)`` lane vectors —
    the change mask seeds the next sweep's frontier and the old/new pair
    tracks reduction direction.
    """
    n = addr.size
    if not isinstance(value, np.ndarray):
        value = np.full(n, value)
    elif value.shape != (n,):
        value = broadcast(value, (n,))
    new = value if value.dtype == flat.dtype else E._cast_array(value, flat.dtype)
    old = flat.take(addr)
    flat[addr] = new
    return old != new, old, new

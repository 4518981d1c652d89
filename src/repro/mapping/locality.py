"""Reference classification: what does an array access cost?

Given the *values* each subscript takes across a parallel grid, classify
the reference into the CM-2's communication tiers:

* ``local``     — every VP reads/writes its own memory (ALU cost only);
* ``news``      — a constant-offset neighbour fetch (cheap grid shifts);
* ``spread``    — the value is constant along some grid axes: a log-depth
  spread/copy-scan supplies it (e.g. ``d[i][k]`` inside an ``(i,j,k)``
  grid, or row reads ``b[k][i]`` with a scalar ``k``);
* ``broadcast`` — one element for everybody (front-end broadcast);
* ``router``    — data-dependent or permuting access (general router).

Classification is *numeric*: the interpreter hands in the realised
subscript arrays, and we compare them against the grid coordinates.  This
makes the classifier exact for any expression the program can write —
including dynamic shifts like ``a[i - power2(j)]`` whose distance is only
known at run time — at the price of a small amount of arithmetic per
executed statement (vectorised, so it stays cheap).

The active :class:`~repro.mapping.layout.Layout` adjusts the verdict:
permute offsets cancel shifts, folds legitimise mirror/wrap accesses, and
copies absorb spreads along their replication element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .layout import Layout

Subscript = Union[int, float, np.ndarray]


@dataclass(frozen=True)
class RefClass:
    """Verdict for one array reference."""

    kind: str  # 'local' | 'news' | 'spread' | 'broadcast' | 'router'
    news_distance: int = 0
    spread_extent: int = 1  # product of extents the value must be spread over
    detail: str = ""
    #: per-subscript structure, in subscript order — ``('u', value)`` for a
    #: uniform subscript, ``('i', grid_axis, raw_shift)`` for an identity
    #: match, ``('m', grid_axis, param)`` for a mirror.  ``None`` when the
    #: access is data-dependent (no analytic structure exists).  The
    #: communication-tier dispatcher uses this to build NEWS shift recipes.
    axes: Optional[Tuple[Tuple, ...]] = None
    #: True when the reference is a pure axis-order transpose under an
    #: active ``permute`` map — eligible for the precomputed-permutation
    #: tier instead of the general router.
    permutable: bool = False

    @property
    def is_remote(self) -> bool:
        return self.kind != "local"


@dataclass
class _AxisVerdict:
    kind: str  # 'uniform' | 'identity' | 'mirror' | 'data'
    grid_axis: int = -1
    shift: int = 0
    mirror_param: int = 0


def _constant_of(arr: np.ndarray) -> Optional[int]:
    """The single value of ``arr`` if it is constant, else None."""
    if arr.size == 0:
        return 0
    flat = arr.reshape(-1)
    first = flat[0]
    if np.all(flat == first):
        return int(first)
    return None


def _axis_verdict(
    sub: Subscript,
    positions,
    used: List[bool],
    grid_shape: Tuple[int, ...],
) -> _AxisVerdict:
    """Classify one subscript against the grid position coordinates.

    ``positions`` is a zero-argument callable yielding the coordinate
    grids (``np.indices``) — only the slow path below materialises them.
    """
    if not isinstance(sub, np.ndarray):
        return _AxisVerdict("uniform", shift=int(sub))
    # Stride fast path: a broadcast view varying along at most one grid
    # axis (axis_values grids, and anything sliced from them) answers the
    # full-grid constancy probes from its 1-D underlying vector.  For any
    # other axis g' the probe ``sub - pos[g']`` varies along the view's
    # own axis, so only the varying axis can match — the verdict is
    # identical to the materialised comparison at O(extent) cost.
    if sub.ndim == len(grid_shape) and sub.shape == tuple(grid_shape):
        varying = [
            g
            for g, st in enumerate(sub.strides)
            if st != 0 and sub.shape[g] > 1
        ]
        if len(varying) <= 1:
            line = sub[
                tuple(
                    slice(None) if g in varying else 0
                    for g in range(sub.ndim)
                )
            ].reshape(-1)
            const = _constant_of(line)
            if const is not None:
                return _AxisVerdict("uniform", shift=const)
            g = varying[0]
            if not used[g]:
                coords = np.arange(line.size, dtype=np.int64)
                diff = _constant_of(line - coords)
                if diff is not None:
                    return _AxisVerdict("identity", grid_axis=g, shift=diff)
                summ = _constant_of(line + coords)
                if summ is not None:
                    return _AxisVerdict(
                        "mirror", grid_axis=g, mirror_param=summ
                    )
            return _AxisVerdict("data")
    const = _constant_of(sub)
    if const is not None:
        return _AxisVerdict("uniform", shift=const)
    for g, pos in enumerate(positions()):
        if used[g]:
            continue
        diff = _constant_of(sub - pos)
        if diff is not None:
            return _AxisVerdict("identity", grid_axis=g, shift=diff)
        summ = _constant_of(sub + pos)
        if summ is not None:
            return _AxisVerdict("mirror", grid_axis=g, mirror_param=summ)
    return _AxisVerdict("data")


def classify_reference(
    subs: Sequence[Subscript],
    grid_shape: Tuple[int, ...],
    axis_elems: Sequence[str],
    layout: Layout,
    *,
    positions=None,
) -> RefClass:
    """Classify an array read.

    Parameters
    ----------
    subs:
        Realised subscript values, one per array axis — scalars or arrays
        shaped like the grid.
    grid_shape / axis_elems:
        The parallel grid's shape and the element identifier bound to each
        grid axis.
    layout:
        The referenced array's layout.
    positions:
        Pre-computed ``np.indices(grid_shape)`` — either the list itself
        or a zero-argument callable returning it (e.g. the grid context's
        cached ``positions`` method).  Passing the callable keeps the
        O(grid) coordinate arrays unmaterialised when every subscript
        takes the stride fast path, which is the common case.
    """
    if not grid_shape:
        # host (scalar) context: the front end reads one element
        return RefClass("broadcast", detail="host read")
    _pos_cache: List = []

    def pos_fn():
        if not _pos_cache:
            if positions is None:
                _pos_cache.append(list(np.indices(grid_shape)))
            elif callable(positions):
                _pos_cache.append(list(positions()))
            else:
                _pos_cache.append(list(positions))
        return _pos_cache[0]

    used = [False] * len(grid_shape)
    verdicts: List[_AxisVerdict] = []
    for sub in subs:
        v = _axis_verdict(sub, pos_fn, used, grid_shape)
        if v.kind == "data":
            return RefClass("router", detail="data-dependent subscript", axes=None)
        if v.grid_axis >= 0:
            used[v.grid_axis] = True
        verdicts.append(v)

    return _from_verdicts(verdicts, used, grid_shape, axis_elems, layout)


def _from_verdicts(
    verdicts: List[_AxisVerdict],
    used: List[bool],
    grid_shape: Tuple[int, ...],
    axis_elems: Sequence[str],
    layout: Layout,
) -> RefClass:
    """Turn per-subscript axis verdicts into the final :class:`RefClass`.

    Shared between the numeric classifier above and the analytic
    :func:`classify_affine` fast path below — both produce the same
    verdict structures, so the tier decision is identical.
    """
    axes: Tuple[Tuple, ...] = tuple(
        ("u", v.shift)
        if v.kind == "uniform"
        else ("m", v.grid_axis, v.mirror_param)
        if v.kind == "mirror"
        else ("i", v.grid_axis, v.shift)
        for v in verdicts
    )

    if all(v.kind == "uniform" for v in verdicts):
        return RefClass("broadcast", detail="single element for all VPs", axes=axes)

    perm = layout.axis_perm or tuple(range(layout.rank))
    fold = layout.fold

    news_distance = 0
    needs_router = False
    mirror_router = False
    detail_bits: List[str] = []
    matched: List[Tuple[int, int]] = []  # (layout slot, grid axis)

    for a, v in enumerate(verdicts):
        if v.kind == "uniform":
            # slice read: handled below together with unused axes (spread)
            continue
        if v.kind == "mirror":
            if (
                fold is not None
                and fold.axis == a
                and fold.kind == "mirror"
                and fold.param == v.mirror_param
            ):
                detail_bits.append(f"axis {a}: mirror absorbed by fold")
                matched.append((perm.index(a), v.grid_axis))
                continue
            needs_router = True
            mirror_router = True
            detail_bits.append(f"axis {a}: mirrored access")
            continue
        # identity with shift
        eff = v.shift + layout.offsets[a]
        if (
            fold is not None
            and fold.axis == a
            and fold.kind == "wrap"
            and v.shift == fold.param
        ):
            eff = layout.offsets[a]
            detail_bits.append(f"axis {a}: wrap absorbed by fold")
        matched.append((perm.index(a), v.grid_axis))
        news_distance += abs(int(eff))

    # the matched grid axes must respect the layout's physical axis order:
    # walking the array's physical slots in order, the grid axes they bind
    # to must increase — otherwise the access permutes data (router).
    by_slot = sorted(matched)
    grid_axes_in_slot_order = [g for _s, g in by_slot]
    order_router = grid_axes_in_slot_order != sorted(grid_axes_in_slot_order)
    if order_router:
        needs_router = True
        detail_bits.append(
            f"axis order {grid_axes_in_slot_order} permutes the grid alignment"
        )

    # grid axes not consumed by any subscript: the value is constant along
    # them and must be spread (unless a copy layout already replicated it)
    spread_extent = 1
    for g, elem in enumerate(axis_elems):
        if used[g] or grid_shape[g] == 1:
            continue
        if layout.copy_elem is not None and elem == layout.copy_elem:
            detail_bits.append(f"grid axis {g} ({elem}): absorbed by copy")
            continue
        spread_extent *= grid_shape[g]

    # uniform subscripts on some axes while others match: a slice is
    # fetched — model as a spread over the matched geometry
    has_uniform_axis = any(
        v.kind == "uniform" for v in verdicts
    ) and layout.rank > 0 and len(verdicts) > 1
    if has_uniform_axis and spread_extent == 1:
        if not (layout.copy_elem is not None):
            spread_extent = max(
                2, min(grid_shape)
            )  # slice must travel across at least one axis
            detail_bits.append("slice read via spread")

    if needs_router:
        # a pure axis-order transpose under an active permute map can be
        # serviced by a precomputed permutation recipe instead of the
        # general router (the map proves the pattern is a bijection)
        permutable = (
            order_router and not mirror_router and layout.axis_perm is not None
        )
        return RefClass(
            "router", detail="; ".join(detail_bits), axes=axes, permutable=permutable
        )
    if spread_extent > 1:
        return RefClass(
            "spread",
            news_distance=news_distance,
            spread_extent=spread_extent,
            detail="; ".join(detail_bits) or "value constant along unused grid axes",
            axes=axes,
        )
    if news_distance > 0:
        return RefClass(
            "news", news_distance=news_distance, detail="; ".join(detail_bits), axes=axes
        )
    return RefClass("local", detail="; ".join(detail_bits), axes=axes)


def classify_write(
    subs: Sequence[Subscript],
    grid_shape: Tuple[int, ...],
    axis_elems: Sequence[str],
    layout: Layout,
    *,
    positions=None,
) -> RefClass:
    """Classify an array write.

    Same analysis as reads; the interpreter charges ``router_send`` for
    anything that is not local/news (scatters combine in the router), and
    collision checking (the single-assignment rule) happens separately.
    """
    rc = classify_reference(
        subs, grid_shape, axis_elems, layout, positions=positions
    )
    if rc.kind in ("broadcast", "spread"):
        # a non-injective write pattern goes through the router
        return RefClass("router", detail=f"write: {rc.detail}", axes=rc.axes)
    return rc


def classify_affine(
    descs: Sequence[Tuple],
    grid_shape: Tuple[int, ...],
    axis_elems: Sequence[str],
    layout: Layout,
) -> RefClass:
    """Classify a reference whose subscripts are *known* single-axis affine.

    ``descs`` holds one entry per subscript:

    * ``('u', value)`` — a uniform (grid-constant) subscript;
    * ``('a', grid_axis, values)`` — the subscript equals ``values[k]`` at
      coordinate ``k`` of ``grid_axis`` and is constant along every other
      grid axis (``values`` is the 1-D int array of realised values, any
      offset already applied).

    This is the O(extent) analogue of :func:`classify_reference`: because
    each subscript varies along at most one grid axis, the full-grid
    constancy probes (``sub - pos[g]`` / ``sub + pos[g]``) collapse to 1-D
    comparisons against ``arange`` — a subscript varying along axis ``g``
    cannot be constant relative to any other axis, and a grid-constant one
    is uniform outright.  The verdicts are therefore *identical* to what
    the numeric classifier would return on the materialised subscript
    arrays, at a fraction of the cost.  The frontier engine's sweep
    analysis uses this to price references without building full-grid
    subscripts (see ``repro.interp.frontier``).
    """
    if not grid_shape:
        return RefClass("broadcast", detail="host read")
    used = [False] * len(grid_shape)
    verdicts: List[_AxisVerdict] = []
    for desc in descs:
        if desc[0] == "u":
            verdicts.append(_AxisVerdict("uniform", shift=int(desc[1])))
            continue
        _tag, g, vals = desc
        arr = np.asarray(vals)
        const = _constant_of(arr)
        if const is not None:
            verdicts.append(_AxisVerdict("uniform", shift=const))
            continue
        v = _AxisVerdict("data")
        if not used[g]:
            coords = np.arange(arr.size, dtype=arr.dtype)
            diff = _constant_of(arr - coords)
            if diff is not None:
                v = _AxisVerdict("identity", grid_axis=g, shift=diff)
            else:
                summ = _constant_of(arr + coords)
                if summ is not None:
                    v = _AxisVerdict("mirror", grid_axis=g, mirror_param=summ)
                else:  # known values off unit stride: a strided or unordered set
                    step = _constant_of(np.diff(arr))
                    detail = (
                        f"element stride {step} along {axis_elems[g]}" if step is not None
                        else f"irregular element values along {axis_elems[g]}"
                    )  # fmt: skip
                    return RefClass("router", detail=detail, axes=None)
        if v.kind == "data":
            return RefClass("router", detail="data-dependent subscript", axes=None)
        used[g] = True
        verdicts.append(v)

    return _from_verdicts(verdicts, used, grid_shape, axis_elems, layout)


def classify_write_affine(
    descs: Sequence[Tuple],
    grid_shape: Tuple[int, ...],
    axis_elems: Sequence[str],
    layout: Layout,
) -> RefClass:
    """Write-side :func:`classify_affine` (same remap as classify_write)."""
    rc = classify_affine(descs, grid_shape, axis_elems, layout)
    if rc.kind in ("broadcast", "spread"):
        return RefClass("router", detail=f"write: {rc.detail}", axes=rc.axes)
    return rc

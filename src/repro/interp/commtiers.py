"""The communication-tier dispatcher shared by both execution engines.

The paper's central efficiency claim is that data mappings turn router
traffic into cheap NEWS shifts, spreads and local references.  This
module is the single place where a classified array reference
(:class:`~repro.mapping.locality.RefClass`) is mapped to the
communication tier the machine actually uses:

``local``      ALU only — every VP reads its own memory;
``news``       constant-offset grid shift, ``|offset|`` hops
               (vectorised via :func:`repro.machine.news.shift_array`);
``spread``     value constant along grid axes — one log-depth spread;
``broadcast``  one element for everybody, from the front end;
``permute``    axis-order transpose under an active ``permute`` map —
               a precomputed bijective message schedule, charged the
               cheaper ``router_permute`` cycle;
``router``     everything else: the general router.

The tree-walking oracle (:mod:`repro.interp.eval_expr`) calls
:func:`decide_tier` / :func:`charge_tier` per sweep; the fused kernels
and frontier lane programs record the same helpers once at compile time
(:func:`charge_tier_at`), which keeps their Clock fingerprints
bit-identical by construction.  With ``config.comm_tiers`` off (see
"Configuration" in ``docs/PERFORMANCE.md``) every remote reference is
serviced — and charged — through the general router, which is the
pre-tier behaviour the benchmarks compare against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..machine.config import CostTable
from ..machine.scan import SPREAD_STEPS_PER_LEVEL
from ..mapping.locality import RefClass

#: every tier the dispatcher can choose, plus ``intershard``: the tier a
#: reference lands in when the shard placement proves it crosses a shard
#: boundary of a partitioned machine.  ``decide_tier`` never returns it —
#: the within-machine tier is decided first, then the placement splits
#: the reference into intra-shard work (the decided tier, charged on the
#: owning shard) and cross-shard slabs (``intershard`` cycles, charged
#: above ``router`` — see docs/COSTMODEL.md)
TIERS = ("local", "news", "spread", "broadcast", "permute", "router", "intershard")


def decide_tier(rc: RefClass, costs: CostTable, *, write: bool, enabled: bool = True) -> str:
    """Pick the communication tier for one classified reference.

    With the dispatcher disabled, anything remote is a router cycle (the
    pre-tier engine).  Otherwise the verdict's own kind is used, with two
    adjustments the real compilers made:

    * a long constant-offset shift whose hop count is dearer than one
      router cycle is demoted to the router;
    * a pure axis-order transpose under an active ``permute`` map is
      promoted from the router to the precomputed-permutation tier
      (reads only — scatters still need the router's combining).
    """
    if not enabled:
        return "local" if rc.kind == "local" else "router"
    if rc.kind == "news":
        news_cost = costs.news * max(1, rc.news_distance)
        router_cost = costs.router_send if write else costs.router_get
        if news_cost > router_cost:
            return "router"
    if rc.kind == "router" and rc.permutable and not write:
        return "permute"
    return rc.kind


def charge_tier(
    ip, ctx, tier: str, rc: RefClass, *, write: bool, layout=None
) -> None:
    """Charge the machine clock for one reference serviced by ``tier``."""
    vps = ip.grid_vpset(ctx.grid.shape)
    charge_tier_at(
        ip.machine.clock,
        tier,
        rc,
        write=write,
        vp_ratio=vps.vp_ratio,
        grid_shape=ctx.grid.shape,
        layout=layout,
    )


def charge_tier_at(
    clock,
    tier: str,
    rc: RefClass,
    *,
    write: bool,
    vp_ratio: int,
    spread_extent: Optional[int] = None,
    grid_shape: Optional[Tuple[int, ...]] = None,
    layout=None,
) -> None:
    """Charge one reference serviced by ``tier`` at an explicit VP ratio.

    The frontier engine's compressed sweeps pay for the active VP set
    only, so they cannot derive the ratio from the grid's VP set; they
    replay the same charge recipe here against either the real
    :class:`~repro.machine.cost.Clock` or the frontier estimator (any
    object with ``charge``/``charge_scan``/``count_tier``), which keeps
    compressed estimates and compressed charges identical by
    construction.  ``spread_extent`` overrides the classified extent
    (delta reductions scan only the changed slice).

    ``grid_shape``/``layout`` carry the reference's geometry to a shard
    sink when one is installed (see :mod:`repro.machine.shards`): the
    observation happens *after* the charges, so a fault raised
    mid-charge rolls back cleanly, and never mutates this clock — the
    charge stream (and therefore the fingerprint) is shard-count
    independent.  Clock-likes without the hook (the frontier estimator,
    the fusion recorder's bare replays) skip it.
    """
    clock.count_tier(tier)
    if tier == "local":
        clock.charge("alu", vp_ratio=vp_ratio)
    elif tier == "news":
        clock.charge("news", count=max(1, rc.news_distance), vp_ratio=vp_ratio)
    elif tier == "spread":
        clock.charge_scan(
            spread_extent if spread_extent is not None else rc.spread_extent,
            vp_ratio=vp_ratio,
            steps_per_level=SPREAD_STEPS_PER_LEVEL,
        )
        if rc.news_distance:
            clock.charge("news", count=rc.news_distance, vp_ratio=vp_ratio)
    elif tier == "broadcast":
        clock.charge("host_cm_latency")
        clock.charge("broadcast", vp_ratio=vp_ratio)
    elif tier == "permute":
        clock.charge("router_permute", vp_ratio=vp_ratio)
    else:  # router
        clock.charge("router_send" if write else "router_get", vp_ratio=vp_ratio)
    if grid_shape is not None:
        note = getattr(clock, "note_shard_ref", None)
        if note is not None:
            note(tier, rc, layout, grid_shape, write)


def shift_descriptor(
    rc: RefClass,
    view_shape: Tuple[int, ...],
    grid_shape: Tuple[int, ...],
) -> Optional[Tuple[Tuple[int, int, int], ...]]:
    """NEWS window recipe for a gather, or None when the fast path cannot
    reproduce the general gather bit-identically.

    Valid when every subscript is the identity on its own grid axis plus
    a constant raw offset: the gather is ``data[clip(pos + offset)]``
    with ``pos`` the 0-based grid coordinate along each axis, which
    equals a chain of per-axis clamped window copies (per-axis clipping
    is separable) — this covers interior-grid stencils, where the grid
    is a strict sub-range of the array.  Returns ``(axis, start,
    extent)`` triples for the axes that are not a full identity slice —
    possibly empty, meaning a plain copy (a reference whose NEWS
    distance comes entirely from layout offsets).
    """
    # a news verdict always carries its axes (mapping.locality._from_verdicts)
    if len(rc.axes) != len(grid_shape) or len(view_shape) != len(grid_shape):
        return None
    windows = []
    for a, entry in enumerate(rc.axes):
        if entry[0] != "i" or entry[1] != a:
            return None
        start = int(entry[2])
        extent = int(grid_shape[a])
        if start != 0 or extent != int(view_shape[a]):
            windows.append((a, start, extent))
    return tuple(windows)


def run_shifts(data, windows: Sequence[Tuple[int, int, int]]):
    """Apply a :func:`shift_descriptor` recipe: chained clamped windows.

    Returns a fresh writable array even for an empty recipe, so callers
    (notably the oracle's CSE cache, which stores values uncopied) can
    hand the result out safely.
    """
    from ..machine.news import window_array

    if not windows:
        return data.copy()
    out = data
    for axis, start, extent in windows:
        out = window_array(out, axis, start, extent)
    return out

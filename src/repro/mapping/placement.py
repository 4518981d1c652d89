"""Map-driven shard placement: which shard owns each VP / array element.

A :class:`Placement` partitions every VP set and every array of a run
across ``K`` simulated CM-2 shards.  The rule is the PGAS/UPC block
distribution (arxiv 1309.2328): pick one partition axis, and the owner
of a coordinate ``c`` on an axis of extent ``e`` is the affine
``(c * K) // e`` — an O(1) computation with no per-element tables, so
local-vs-remote resolution at the shard boundary is as cheap as UPC's
address mapping.

*Arrays* are partitioned by **physical** position: the program's ``map``
section (permute offsets, axis transposes, folds, copies — see
:mod:`repro.mapping.layout`) is applied before the owner is computed.
That is what makes placement map-driven: a ``permute`` map that
transposes an array moves its elements to different shards, a ``fold``
map co-locates the wrapped halves on the same shard, and a ``copy`` map
replicates the array so reads are shard-local everywhere (the tier
classifier already turns those reads ``local``, which the shard splitter
treats as intra-shard by definition).

*VP sets* (construct grids) are partitioned along
``min(axis, rank - 1)`` of their own geometry, so one placement choice
coherently bands every grid and array of the run.

:func:`Placement.split` is the single source of truth for how one
remote reference divides into intra-shard work and cross-shard slabs —
the runtime sink (:class:`repro.machine.shards.ShardedMachine`), the
static lint (UC305 in :mod:`repro.analysis.commlints`) and the
placement search below all call it, so lint and engines can never
disagree.  Splits are memoized per ``(rc, layout, grid_shape, write)``:
steady-state sweeps pay one dict hit, never a re-partitioning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .layout import Layout

__all__ = [
    "ShardSplit",
    "Placement",
    "derive_placement",
    "score_axes",
]


class ShardSplit:
    """How one reference's traffic divides across shard owners.

    ``pairs`` holds ``((src, dst), elems)`` for every ordered shard pair
    with traffic: the unique source elements that must be gathered into
    the ``src → dst`` slab for one bulk exchange per sweep.  ``intra`` is
    the unique elements serviced inside their owner shard, and
    ``dst_counts[s]`` is how many referencing VPs shard ``s`` hosts
    (sized for per-shard tier charges).
    """

    __slots__ = ("intra", "cross", "pairs", "dst_counts")

    def __init__(
        self,
        intra: int,
        pairs: Tuple[Tuple[Tuple[int, int], int], ...],
        dst_counts: Tuple[int, ...],
    ) -> None:
        self.intra = int(intra)
        self.pairs = pairs
        self.cross = int(sum(c for _p, c in pairs))
        self.dst_counts = dst_counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardSplit(intra={self.intra}, cross={self.cross}, pairs={self.pairs})"


class Placement:
    """One partition of the machine into ``n_shards`` block shards.

    Its two memos — reference splits (``_splits``) and per-shard band
    sizes (``_dst_counts_memo``) — stay per run on purpose: both key on
    the live-shard set, which a whole-shard fault mutates mid-run, and
    :meth:`retire` / :meth:`restore_all` clear them.  What is a fact
    about the program text, the partition axis, is searched once per
    program (``FrontendEntry.placement_axis``).
    """

    def __init__(self, n_shards: int, axis: int = 0, policy: str = "block") -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.axis = int(axis)
        self.policy = policy
        #: shard ids still in service; whole-shard faults retire entries
        self.live: Tuple[int, ...] = tuple(range(n_shards))
        self._splits: Dict[Tuple, ShardSplit] = {}
        self._dst_counts_memo: Dict[Tuple, Tuple[int, ...]] = {}

    # -- owner computation --------------------------------------------------

    def grid_axis(self, rank: int) -> int:
        """Partition axis for a geometry of the given rank."""
        return min(self.axis, max(0, rank - 1))

    def owners_along(self, extent: int) -> np.ndarray:
        """Owner (index into ``live``) of every coordinate on one axis."""
        L = len(self.live)
        return (np.arange(int(extent), dtype=np.int64) * L) // max(1, int(extent))

    def owner_of(self, coord: int, extent: int) -> int:
        """O(1) affine owner of one coordinate — the UPC address map."""
        L = len(self.live)
        return self.live[(int(coord) * L) // max(1, int(extent))]

    def retire(self, shard: int) -> None:
        """Take one shard out of service; survivors absorb its bands."""
        if shard not in self.live:
            return
        if len(self.live) == 1:
            raise ValueError("cannot retire the last live shard")
        self.live = tuple(s for s in self.live if s != shard)
        self._splits.clear()
        self._dst_counts_memo.clear()

    def restore_all(self) -> None:
        """All shards back in service (cold boot)."""
        self.live = tuple(range(self.n_shards))
        self._splits.clear()
        self._dst_counts_memo.clear()

    # -- reference splitting ------------------------------------------------

    def split(
        self,
        rc,
        layout: Optional[Layout],
        grid_shape: Tuple[int, ...],
        write: bool,
    ) -> ShardSplit:
        """Divide one classified reference into intra/cross shard traffic.

        Reads move data ``element owner → referencing VP's shard``;
        writes move it the other way.  Memoized — the hot path is one
        tuple hash.
        """
        key = (rc, layout, tuple(grid_shape), bool(write), self.live)
        hit = self._splits.get(key)
        if hit is not None:
            return hit
        split = self._compute_split(rc, layout, grid_shape, write)
        self._splits[key] = split
        return split

    def dst_counts(self, grid_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Referencing VPs hosted by each live shard (grid band sizes).
        Memoized per ``(grid_shape, live)``."""
        key = (grid_shape, self.live)
        hit = self._dst_counts_memo.get(key)
        if hit is None:
            hit = self._dst_counts_memo[key] = self._band_counts(grid_shape)
        return hit

    def _band_counts(self, grid_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        L = len(self.live)
        total = int(np.prod(grid_shape)) if grid_shape else 1
        if not grid_shape or L == 1:
            return tuple([total] + [0] * (L - 1))
        g_a = self.grid_axis(len(grid_shape))
        ext = grid_shape[g_a]
        bands = np.bincount(self.owners_along(ext), minlength=L)
        per_coord = total // max(1, ext)
        return tuple(int(b) * per_coord for b in bands)

    def _compute_split(self, rc, layout, grid_shape, write) -> ShardSplit:
        L = len(self.live)
        dst_counts = self.dst_counts(tuple(grid_shape))
        if L == 1 or not grid_shape:
            return ShardSplit(int(np.prod(grid_shape)) if grid_shape else 1, (), dst_counts)
        rank = len(layout.shape) if layout is not None else 0
        if rc.axes is None or layout is None or rank == 0 or len(rc.axes) != rank:
            return self._split_opaque(grid_shape, dst_counts)
        return self._split_affine(rc, layout, grid_shape, write, dst_counts)

    def _split_opaque(self, grid_shape, dst_counts) -> ShardSplit:
        """Data-dependent (general router) traffic: no analytic structure,
        so model a uniform all-to-all — each shard's addresses land on
        every shard in proportion.  Deterministic by construction."""
        L = len(self.live)
        total = int(np.prod(grid_shape))
        per_pair = total // (L * L)
        pairs = tuple(
            ((self.live[a], self.live[b]), per_pair)
            for a in range(L)
            for b in range(L)
            if a != b and per_pair > 0
        )
        intra = total - per_pair * L * (L - 1)
        return ShardSplit(intra, pairs, dst_counts)

    def _split_affine(self, rc, layout, grid_shape, write, dst_counts) -> ShardSplit:
        L = len(self.live)
        g_a = self.grid_axis(len(grid_shape))

        # grid axes the element coordinates range over: the mesh below
        # enumerates each unique element exactly once per destination
        elem_axes = sorted({d[1] for d in rc.axes if d[0] in ("i", "m")})
        if elem_axes:
            mesh = np.meshgrid(
                *(np.arange(grid_shape[g], dtype=np.int64) for g in elem_axes),
                indexing="ij",
            )
            coord = dict(zip(elem_axes, mesh))
            cells = mesh[0].shape
        else:
            coord = {}
            cells = (1,)

        # physical coordinate of each element along the partition slot:
        # the map section is applied exactly as Layout.physical_position
        perm = layout.axis_perm or tuple(range(rank_of(layout)))
        p_slot = min(self.axis, rank_of(layout) - 1)
        a_log = perm[p_slot]
        ext = max(1, layout.shape[a_log])
        d = rc.axes[a_log]
        if d[0] == "u":
            logical = np.full(cells, int(d[1]), dtype=np.int64)
        elif d[0] == "i":
            logical = coord[d[1]] + int(d[2])
        else:  # mirror
            logical = int(d[2]) - coord[d[1]]
        fold = layout.fold
        pos = logical
        if fold is not None and fold.axis == a_log:
            if fold.kind == "wrap":
                pos = np.where(pos >= fold.param, pos - fold.param, pos)
            else:
                pos = np.where(2 * pos > fold.param, fold.param - pos, pos)
        off = layout.offsets[a_log] if layout.offsets else 0
        pos = np.clip(pos + off, 0, ext - 1)
        src = np.broadcast_to((pos * L) // ext, cells)

        pair_counts = np.zeros(L * L, dtype=np.int64)
        if g_a in coord:
            # the referencing VP's band is bound to an element coordinate
            dst = (coord[g_a] * L) // grid_shape[g_a]
            dst = np.broadcast_to(dst, cells)
            np.add.at(pair_counts, (src * L + dst).ravel(), 1)
        else:
            # every shard's VPs need the same elements: each element is
            # slabbed once toward every live destination band
            hist = np.bincount(src.ravel(), minlength=L)
            for b in range(L):
                pair_counts[np.arange(L) * L + b] += hist
        mat = pair_counts.reshape(L, L)
        intra = int(np.trace(mat))
        pairs = []
        for a in range(L):
            for b in range(L):
                if a == b or mat[a, b] == 0:
                    continue
                pair = (self.live[a], self.live[b])
                if write:
                    pair = (pair[1], pair[0])  # writer shard pushes the slab
                pairs.append((pair, int(mat[a, b])))
        return ShardSplit(intra, tuple(pairs), dst_counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement(n_shards={self.n_shards}, axis={self.axis}, "
            f"policy={self.policy!r}, live={self.live})"
        )


def rank_of(layout: Layout) -> int:
    return max(1, len(layout.shape))


def score_axes(
    verdicts,
    layout_table,
    n_shards: int,
    axes: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int]]:
    """Predicted cross-shard slab elements per sweep for each candidate
    partition axis, as ``(cross_total, axis)`` sorted best-first.

    Takes the static reference verdicts (the same realisation the linter
    and sanitizer trust) and pushes them through :meth:`Placement.split`,
    so the search optimizes exactly the quantity the runtime ledger
    reports.  The UC305 lint calls this with the verdicts its pass
    already holds, the runtime with its frontend entry's, so the lint and
    the axis search can never score a program differently.
    """
    from ..interp.commtiers import decide_tier
    from ..machine.config import CostTable

    costs = CostTable()
    max_rank = 1
    for v in verdicts:
        max_rank = max(max_rank, len(v.ref.axes))
    candidates = list(axes) if axes is not None else list(range(max_rank))
    scored: List[Tuple[int, int]] = []
    for axis in candidates:
        pl = Placement(n_shards, axis=axis, policy="map")
        cross = 0
        for v in verdicts:
            grid_shape = tuple(a.extent for a in v.ref.axes)
            for write, rc in ((False, v.rc), (True, v.rc_write)):
                if rc is None:
                    continue
                tier = decide_tier(rc, costs, write=write)
                if tier in (None, "local", "broadcast"):
                    continue
                layout = (
                    layout_table.get(v.ref.node.base)
                    if v.ref.node.base in layout_table
                    else None
                )
                cross += pl.split(rc, layout, grid_shape, write).cross
            # operand-grid realisations (reduction operands) ride the
            # same verdicts: rc already covers the product grid, which
            # is the geometry the runtime splits over
        scored.append((cross, axis))
    scored.sort()
    return scored


def derive_placement(frontend, n_shards: int, policy: str = "map") -> Placement:
    """Build the placement for one program.

    ``frontend`` is the program's
    :class:`~repro.interp.compile_store.FrontendEntry` (its layouts and
    static verdicts; the entry memoizes the chosen axis per
    ``(n_shards, policy)``).  ``"block"`` is the naive baseline: band
    everything along axis 0, layouts ignored for the axis choice (they
    still position elements).  ``"map"`` searches candidate partition
    axes under the program's own ``map``-section layouts and keeps the
    axis with the least predicted cross-shard slab traffic — placement
    as a performance lever.
    """
    if policy == "block" or n_shards == 1:
        return Placement(n_shards, axis=0, policy=policy)
    if policy != "map":
        raise ValueError(f"unknown placement policy {policy!r}")
    try:
        scored = score_axes(frontend.verdicts(), frontend.layouts, n_shards)
    except Exception:
        scored = []
    axis = scored[0][1] if scored else 0
    return Placement(n_shards, axis=axis, policy="map")

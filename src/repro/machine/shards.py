"""Sharded execution: K resident CM-2 shards behind one global machine.

The real CM-2 was a partitionable machine — up to four front-end buses
could each drive a section of the backplane.  :class:`ShardedMachine`
scales the simulator the same way: the program still executes on one
*base* :class:`~repro.machine.machine.Machine` (so results and the
global Clock fingerprint are bit-identical for every shard count), while
``K`` resident shard Machines account where the work and the traffic
would physically land under a :class:`~repro.mapping.placement.Placement`.

The wiring is one hook: the sharded machine installs itself as the base
clock's ``shard_sink``, and every remote reference the tier dispatcher
charges — identically in the tree-walking oracle, the frontier
engine and the fusion backend — arrives here via
``observe_ref``.  The placement splits the reference into intra-shard
work (charged on the owning shard's clock at that shard's own VP ratio)
and cross-shard slabs (per ordered shard pair, charged as ``intershard``
cycles on the sending shard).  Nothing is ever charged on the base
clock, which is what keeps ``fingerprint()`` shard-count independent by
construction; the base clock only gets an ``intershard`` tier *count*
(observability, excluded from the fingerprint like every tier count).

Whole-shard faults: when a fault plan kills every PE of one shard's
range (``shardkill`` in :mod:`repro.machine.faults`), the sink notices
the base machine's grown ``dead_pes`` set and retires the shard — the
survivors absorb its bands and subsequent splits route around it.

Accounting model: slab exchanges are bulk, once per shard pair per
sweep, sized by the *unique* source elements of the reference — also
for frontier-compressed sweeps (a halo exchange ships the slab whether
or not every lane is active).  Cross-shard reductions arrive through
``observe_reduce`` carrying their site's UC5xx determinism verdict
(:mod:`repro.analysis.determinism`): only a **UC501-proven** site —
commutative *and* associative, per the MapReduce-commutativity result,
arxiv 1605.01497 — may pre-combine its partials locally so that just
K-1 partials per output ride the global scan tree.  Unproven sites
(float ``$+``/``$*`` under UC502, unprovable bodies under UC503) are
demoted to the ordered path: every non-owning shard ships its raw band
through the intershard tier to the first live shard, which runs the
full order-preserving combine.  The demotion is pure accounting — the
base machine computes the value either way, bit-identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..mapping.placement import Placement
from .machine import Machine
from .vpset import ratio_for

__all__ = ["ShardedMachine"]

#: element width of one slab entry on the inter-shard link, in bytes
SLAB_ELEM_BYTES = 8


class ShardedMachine:
    """K resident shard Machines rolled up behind one base machine."""

    def __init__(self, base: Machine, n_shards: int, placement: Placement) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if placement.n_shards != n_shards:
            raise ValueError("placement was derived for a different shard count")
        self.base = base
        self.n_shards = int(n_shards)
        self.placement = placement
        per = max(1, base.config.n_pes // n_shards)
        self.pes_per_shard = per
        self.shards: List[Machine] = [
            Machine(
                replace(
                    base.config,
                    n_pes=per,
                    name=f"{base.config.name} shard {s}/{n_shards}",
                ),
                seed=base._seed,
            )
            for s in range(n_shards)
        ]
        #: cross-shard slab ledger: (src, dst) -> unique elements shipped
        self.pair_elems: Dict[Tuple[int, int], int] = {}
        self.intershard_elems = 0
        self.intra_elems = 0
        self.refs_observed = 0
        self.cross_refs = 0
        #: reductions whose UC501 proof allowed local pre-combining
        self.reductions_precombined = 0
        #: reductions demoted to the ordered intershard path (UC502/UC503)
        self.reductions_ordered = 0
        self._dead_seen = -1
        base.clock.shard_sink = self
        # whole-shard fault plumbing: faults.py resolves `shardkill:<s>`
        # to this range table on the base machine
        base.shard_ranges = self.shard_ranges()

    # -- geometry -----------------------------------------------------------

    def shard_ranges(self) -> List[Tuple[int, int]]:
        """Physical PE range [lo, hi) backing each shard of the base."""
        per = self.pes_per_shard
        return [(s * per, min((s + 1) * per, self.base.config.n_pes))
                for s in range(self.n_shards)]

    def _refresh_live(self) -> None:
        """Retire shards whose entire PE range the fault plan killed."""
        n_dead = len(self.base.dead_pes)
        if n_dead == self._dead_seen:
            return
        self._dead_seen = n_dead
        if not n_dead:
            return
        dead = self.base.dead_pes
        for s, (lo, hi) in enumerate(self.shard_ranges()):
            if s not in self.placement.live:
                continue
            if len(self.placement.live) > 1 and all(p in dead for p in range(lo, hi)):
                self.placement.retire(s)

    # -- the sink -----------------------------------------------------------

    def observe_ref(self, tier, rc, layout, grid_shape, write) -> None:
        """Account one remote-reference tier charge across the shards.

        Called (indirectly) by ``commtiers.charge_tier_at`` on the base
        clock — and by charge-table replay in the fusion/batch engines —
        for every reference of every engine.  Never touches the base
        clock's charge stream.
        """
        from ..interp import commtiers  # lazy: commtiers imports machine

        self._refresh_live()
        self.refs_observed += 1
        grid_shape = tuple(grid_shape)
        if tier in ("local", "broadcast"):
            # perfectly distributed (local) or front-end fed (broadcast):
            # each live shard runs its band at its own VP ratio
            for s, c in self._band_sizes(grid_shape):
                commtiers.charge_tier_at(
                    self.shards[s].clock, tier, rc, write=write,
                    vp_ratio=ratio_for(c, self.shards[s]),
                )
            return
        split = self.placement.split(rc, layout, grid_shape, write)
        for s, c in zip(self.placement.live, split.dst_counts):
            if c <= 0:
                continue
            commtiers.charge_tier_at(
                self.shards[s].clock, tier, rc, write=write,
                vp_ratio=ratio_for(c, self.shards[s]),
            )
        if split.cross:
            self.cross_refs += 1
            for (a, b), c in split.pairs:
                self.shards[a].clock.charge("intershard", count=c)
                self.pair_elems[(a, b)] = self.pair_elems.get((a, b), 0) + c
            self.intershard_elems += split.cross
            # observability on the global clock: tier counts are excluded
            # from the fingerprint, so this is shard-count safe
            self.base.clock.count_tier("intershard")
        self.intra_elems += split.intra

    def observe_reduce(self, op, order_safe, n_vps, vp_ratio, grid_shape) -> None:
        """Account one reduction across the shards, gated on its verdict.

        ``order_safe`` is the site's UC5xx legality bit (True only for
        UC501-proven commutative+associative sites).  Proven sites
        pre-combine: each live shard runs a log-depth scan over its own
        band and only K-1 partials per output ride the global tree.
        Unproven sites take the ordered path: every non-owning shard
        ships its raw band through the intershard tier (same ledger as
        slab exchanges: pair elems, per-shard clocks, global counter all
        agree) and the first live shard runs the full combine in written
        operand order.  Never touches the base clock's charge stream.
        """
        self._refresh_live()
        grid_shape = tuple(grid_shape)
        bands = self._band_sizes(grid_shape)
        if order_safe:
            self.reductions_precombined += 1
            for s, c in bands:
                self.shards[s].clock.charge_scan(
                    c, vp_ratio=ratio_for(c, self.shards[s])
                )
            return
        self.reductions_ordered += 1
        owner = bands[0][0] if bands else next(iter(self.placement.live))
        total = 0
        shipped = 0
        for s, c in bands:
            total += c
            if s == owner:
                continue
            self.shards[s].clock.charge("intershard", count=c)
            self.pair_elems[(s, owner)] = self.pair_elems.get((s, owner), 0) + c
            shipped += c
        self.shards[owner].clock.charge_scan(
            max(1, total), vp_ratio=ratio_for(total, self.shards[owner])
        )
        if shipped:
            self.intershard_elems += shipped
            # observability on the global clock: tier counts are excluded
            # from the fingerprint, so this is shard-count safe
            self.base.clock.count_tier("intershard")

    def _band_sizes(self, grid_shape):
        counts = self.placement.dst_counts(grid_shape)
        return [(s, c) for s, c in zip(self.placement.live, counts) if c > 0]

    # -- reporting ----------------------------------------------------------

    def intershard_bytes(self) -> int:
        return self.intershard_elems * SLAB_ELEM_BYTES

    def stats(self) -> dict:
        """The ``--stats`` shard section: per-shard Clock totals,
        intershard cycles, and bytes exchanged per shard pair."""
        return {
            "n_shards": self.n_shards,
            "policy": self.placement.policy,
            "axis": self.placement.axis,
            "live": list(self.placement.live),
            "refs": self.refs_observed,
            "cross_refs": self.cross_refs,
            "intra_elems": self.intra_elems,
            "reductions_precombined": self.reductions_precombined,
            "reductions_ordered": self.reductions_ordered,
            "intershard_cycles": self.intershard_elems,
            "intershard_bytes": self.intershard_bytes(),
            "pairs": {
                f"{a}->{b}": {
                    "elems": c,
                    "bytes": c * SLAB_ELEM_BYTES,
                }
                for (a, b), c in sorted(self.pair_elems.items())
            },
            "per_shard": [
                {
                    "shard": s,
                    "live": s in self.placement.live,
                    "time_us": m.clock.time_us,
                    "intershard_cycles": m.clock.count("intershard"),
                }
                for s, m in enumerate(self.shards)
            ],
        }

    # -- checkpoint/restore (rides the base clock's dump_state) -------------

    def dump_state(self) -> dict:
        return {
            "clocks": [m.clock.dump_state() for m in self.shards],
            "pair_elems": dict(self.pair_elems),
            "intershard_elems": self.intershard_elems,
            "intra_elems": self.intra_elems,
            "refs_observed": self.refs_observed,
            "cross_refs": self.cross_refs,
            "reductions_precombined": self.reductions_precombined,
            "reductions_ordered": self.reductions_ordered,
        }

    def load_state(self, state: dict) -> None:
        for m, st in zip(self.shards, state["clocks"]):
            m.clock.load_state(st)
        self.pair_elems = dict(state["pair_elems"])
        self.intershard_elems = state["intershard_elems"]
        self.intra_elems = state["intra_elems"]
        self.refs_observed = state["refs_observed"]
        self.cross_refs = state["cross_refs"]
        self.reductions_precombined = state.get("reductions_precombined", 0)
        self.reductions_ordered = state.get("reductions_ordered", 0)

    def reset(self) -> None:
        """Zero all shard accounting (rides the base clock's reset)."""
        for m in self.shards:
            m.clock.reset()
        self.pair_elems.clear()
        self.intershard_elems = 0
        self.intra_elems = 0
        self.refs_observed = 0
        self.cross_refs = 0
        self.reductions_precombined = 0
        self.reductions_ordered = 0
        self._dead_seen = -1
        if not self.base.dead_pes:
            self.placement.restore_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedMachine(K={self.n_shards}, placement={self.placement!r}, "
            f"intershard={self.intershard_elems})"
        )

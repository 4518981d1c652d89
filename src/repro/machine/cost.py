"""Elapsed-time accounting for the simulated machine.

Every Paris-level operation charges the machine :class:`Clock`.  The clock
keeps both the running total (simulated microseconds) and per-class
counters so tests can assert *which* kind of traffic a program generated —
the mapping experiments hinge on "this program issued zero router ops".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Tuple

from .config import COST_KINDS, HOST_KINDS, CostTable


def scan_levels(n_vps: int) -> int:
    """Depth of one log-depth scan/reduction over ``n_vps`` processors."""
    return max(1, math.ceil(math.log2(max(2, n_vps))))


@dataclass
class CostRecord:
    """One aggregated line of the cost ledger."""

    kind: str
    count: int = 0
    time_us: float = 0.0


class Clock:
    """Accumulates simulated elapsed time and per-class op counters.

    The clock also supports *regions*: named nested intervals used by the
    benchmark harness to attribute time to program phases
    (initialisation vs. iteration, UC overhead vs. Paris work).
    """

    def __init__(self, costs: CostTable) -> None:
        self.costs = costs
        self._time_us: float = 0.0
        self._records: Dict[str, CostRecord] = {
            kind: CostRecord(kind) for kind in COST_KINDS
        }
        self._region_stack: List[Tuple[str, float]] = []
        self.regions: Dict[str, float] = {}
        #: communication-tier dispatch counters ('local'/'news'/'spread'/
        #: 'broadcast'/'permute'/'router' -> times chosen).  Observability
        #: only — deliberately excluded from :meth:`fingerprint` so both
        #: engines stay comparable whatever their dispatch bookkeeping.
        self.tier_counts: Dict[str, int] = {}
        #: frontier-engine counters ('constructs'/'fallbacks'/'full_sweeps'/
        #: 'compressed_sweeps'/'dense_sweeps'/'active_lanes'/'domain_lanes'/
        #: ...).  Like
        #: ``tier_counts`` these are observability only and excluded from
        #: :meth:`fingerprint`, but they checkpoint/restore with the clock
        #: so replayed sweeps are not double-counted.
        self.frontier_counts: Dict[str, int] = {}
        #: kernel-fusion counters ('constructs'/'unfusable'/'fused_segments'/
        #: 'unfused_segments'/'fused_sweeps'/'fallback_sweeps'/
        #: 'charge_table_hits').  Observability only, excluded from
        #: :meth:`fingerprint`, checkpointed like ``frontier_counts``.
        self.fusion_counts: Dict[str, int] = {}
        #: per-compressed-sweep ``(active, domain)`` lane counts, in
        #: execution order — the --stats shrink-ratio report reads this.
        self.frontier_trace: List[Tuple[int, int]] = []
        #: fault-injection observer, installed by
        #: :meth:`repro.machine.machine.Machine.install_faults`; called as
        #: ``hook(kind, count)`` before each charge is applied.  ``None``
        #: (the default) costs one pointer test per charge.
        self.fault_hook = None
        #: sharded-execution observer, installed by
        #: :class:`repro.machine.shards.ShardedMachine`; receives every
        #: remote-reference tier charge via :meth:`note_shard_ref` so
        #: per-shard clocks and the intershard ledger can account the
        #: reference without touching this clock's charge stream (the
        #: global fingerprint stays bit-identical for every shard count).
        self.shard_sink = None

    # -- charging ----------------------------------------------------------

    def charge(self, kind: str, *, count: int = 1, vp_ratio: int = 1) -> float:
        """Charge ``count`` operations of class ``kind``.

        CM-side charges scale with the VP ratio (virtual processors are
        time-sliced over the physical ones) and each ``charge`` call of a
        CM-side kind additionally pays one front-end ``dispatch`` (a
        Paris instruction is issued once, however many micro-steps it
        sequences).  Returns the time charged, dispatch included.
        """
        if kind not in self._records:
            raise KeyError(f"unknown cost kind: {kind!r}")
        if self.fault_hook is not None:
            # observe before any accounting: a fault raised here leaves the
            # clock (and the fields the caller was about to touch) untouched
            self.fault_hook(kind, count)
        base = getattr(self.costs, kind)
        if kind in HOST_KINDS:
            dt = base * count
        else:
            dt = base * count * max(1, vp_ratio)
        self._time_us += dt
        rec = self._records[kind]
        rec.count += count
        rec.time_us += dt
        if kind not in HOST_KINDS and kind != "dispatch":
            drec = self._records["dispatch"]
            ddt = self.costs.dispatch
            self._time_us += ddt
            drec.count += 1
            drec.time_us += ddt
            dt += ddt
        return dt

    def count_tier(self, tier: str) -> None:
        """Record that one array reference was dispatched to ``tier``."""
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1

    def note_shard_ref(self, tier, rc, layout, grid_shape, write) -> None:
        """Forward one remote-reference observation to the shard sink.

        No-op (one pointer test) on unsharded machines.  Sharded runs
        route the observation to ``ShardedMachine.observe_ref``, which
        splits the reference across shard owners and charges the
        per-shard clocks — never this clock, so fingerprints are
        shard-count independent by construction.
        """
        sink = self.shard_sink
        if sink is not None:
            sink.observe_ref(tier, rc, layout, grid_shape, write)

    def note_shard_reduce(
        self, op, order_safe, n_vps, vp_ratio, grid_shape
    ) -> None:
        """Forward one reduction observation to the shard sink.

        Like :meth:`note_shard_ref`, a no-op on unsharded machines.
        Sharded runs route it to ``ShardedMachine.observe_reduce``, which
        consults the site's UC5xx determinism verdict (``order_safe``):
        UC501-proven sites pre-combine per-shard partials locally, while
        unproven sites ship their partials through the intershard tier in
        shard order — never touching this clock, so the base fingerprint
        stays shard-count independent.
        """
        sink = self.shard_sink
        if sink is not None:
            sink.observe_reduce(op, order_safe, n_vps, vp_ratio, grid_shape)

    def count_frontier(self, key: str, n: int = 1) -> None:
        """Bump one frontier-engine counter (observability only)."""
        self.frontier_counts[key] = self.frontier_counts.get(key, 0) + n

    def count_fusion(self, key: str, n: int = 1) -> None:
        """Bump one kernel-fusion counter (observability only)."""
        self.fusion_counts[key] = self.fusion_counts.get(key, 0) + n

    def trace_frontier(self, active: int, domain: int, *, dense: bool = False) -> None:
        """Record one compressed sweep's active-set size vs its domain.
        ``dense`` marks a sweep the host evaluated on the fused kernel
        over the whole grid (same charges, see ``interp.frontier``)."""
        self.frontier_trace.append((int(active), int(domain)))
        self.count_frontier("compressed_sweeps")
        self.count_frontier("dense_sweeps", int(dense))
        self.count_frontier("active_lanes", int(active))
        self.count_frontier("domain_lanes", int(domain))

    def charge_scan(self, n_vps: int, *, vp_ratio: int = 1, steps_per_level: int = 1) -> float:
        """Charge one log-depth scan/reduction over ``n_vps`` processors."""
        return self.charge(
            "scan_step", count=scan_levels(n_vps) * steps_per_level, vp_ratio=vp_ratio
        )

    def replay(self, entries) -> None:
        """Re-issue a recorded charge table.

        Entries are the tuples the fusion compiler records while tracing
        one sweep: ``("c", kind, count, vp_ratio)`` for a plain charge,
        ``("s", n_vps, vp_ratio, steps_per_level)`` for a scan,
        ``("t", tier)`` for a communication-tier dispatch count, and
        ``("x", tier, rc, layout, grid_shape, write)`` for a shard-sink
        observation, and ``("r", op, order_safe, n_vps, vp_ratio,
        grid_shape)`` for a shard-sink reduction observation (both
        ignored unless a shard sink is installed, so charge tables are
        shared across shard counts).  Batched execution
        replays the same table once per active lane, which is what keeps
        per-lane fingerprints identical to solo runs.
        """
        for e in entries:
            tag = e[0]
            if tag == "c":
                self.charge(e[1], count=e[2], vp_ratio=e[3])
            elif tag == "s":
                self.charge_scan(e[1], vp_ratio=e[2], steps_per_level=e[3])
            elif tag == "x":
                if self.shard_sink is not None:
                    self.note_shard_ref(e[1], e[2], e[3], e[4], e[5])
            elif tag == "r":
                if self.shard_sink is not None:
                    self.note_shard_reduce(e[1], e[2], e[3], e[4], e[5])
            else:
                self.count_tier(e[1])

    def replay_rows(self, rows, ratios) -> None:
        """Re-issue charges pre-bound to this clock's cost table: rows
        ``(kind, count, base * count, scope, pays_dispatch)`` charged at
        ``ratios[scope]`` (``scope`` None: a host kind, unscaled).

        The frontier engine replays a construct's rows every compressed
        sweep, so the loop is :meth:`charge` inlined — the same
        ``(base * count) * ratio``, ``+= dt``, ``+= dispatch`` on the same
        accumulators, row by row.  *Order is part of the fingerprint*:
        float addition does not associate, so only the per-row products
        are taken ahead of time, never a sum over rows or dispatches.
        Rows without a cost ride in place: ``(tier, 0, None, None, None)``
        counts a tier dispatch, ``(None, 0, None, None, args)`` is a
        :meth:`note_shard_ref` observation.  With a fault hook or a shard
        sink installed each row is one :meth:`charge` /
        :meth:`note_shard_ref` call instead, so a fault still fires before
        the charge it interrupts and shards observe references in order.
        """
        if self.fault_hook is not None or self.shard_sink is not None:
            for kind, count, bc, scope, pays in rows:
                if bc is not None:
                    self.charge(
                        kind, count=count, vp_ratio=1 if scope is None else ratios[scope]
                    )
                elif pays is None:
                    self.count_tier(kind)
                else:
                    self.note_shard_ref(*pays)
            return
        records = self._records
        tiers = self.tier_counts
        drec = records["dispatch"]
        ddt = self.costs.dispatch
        t = self._time_us
        for kind, count, bc, scope, pays in rows:
            if bc is None:
                if pays is None:
                    tiers[kind] = tiers.get(kind, 0) + 1
                continue
            dt = bc if scope is None else bc * ratios[scope]
            t += dt
            rec = records[kind]
            rec.count += count
            rec.time_us += dt
            if pays:
                t += ddt
                drec.count += 1
                drec.time_us += ddt
        self._time_us = t

    def advance(self, dt: float) -> None:
        """Advance the clock by a raw amount (used by the seqc model)."""
        if dt < 0:
            raise ValueError("cannot move the clock backwards")
        self._time_us += dt

    # -- reading -----------------------------------------------------------

    @property
    def time_us(self) -> float:
        """Total simulated elapsed time in microseconds."""
        return self._time_us

    @property
    def time_ms(self) -> float:
        return self._time_us / 1000.0

    @property
    def time_s(self) -> float:
        return self._time_us / 1_000_000.0

    def count(self, kind: str) -> int:
        """Number of operations charged under ``kind`` so far."""
        return self._records[kind].count

    def time_in(self, kind: str) -> float:
        """Simulated time attributed to ``kind`` so far."""
        return self._records[kind].time_us

    def ledger(self) -> List[CostRecord]:
        """All cost records with non-zero counts, most expensive first."""
        recs = [r for r in self._records.values() if r.count]
        return sorted(recs, key=lambda r: -r.time_us)

    def fingerprint(self) -> Tuple:
        """Hashable digest of the full cost state: total time plus every
        (kind, count, time) line, sorted by kind.

        Two executions took the same simulated path iff their fingerprints
        are equal — the differential tests use this to hold the compiled
        plan engine to the tree-walker's exact charge sequence.
        """
        lines = tuple(
            (kind, rec.count, rec.time_us)
            for kind, rec in sorted(self._records.items())
            if rec.count
        )
        return (self._time_us, lines)

    # -- regions -----------------------------------------------------------

    def begin_region(self, name: str) -> None:
        self._region_stack.append((name, self._time_us))

    def end_region(self) -> Tuple[str, float]:
        if not self._region_stack:
            raise RuntimeError("end_region with no open region")
        name, start = self._region_stack.pop()
        elapsed = self._time_us - start
        self.regions[name] = self.regions.get(name, 0.0) + elapsed
        return name, elapsed

    def region(self, name: str) -> "_RegionCtx":
        """Context manager: ``with clock.region("iterate"): ...``"""
        return _RegionCtx(self, name)

    # -- checkpointing -----------------------------------------------------

    def dump_state(self) -> dict:
        """Full mutable state, for checkpoint/restore.  Unlike
        :meth:`snapshot` this captures regions and tier counters too, so
        a restored clock is indistinguishable from one that never ran the
        rolled-back charges."""
        return {
            "time": self._time_us,
            "records": {k: (r.count, r.time_us) for k, r in self._records.items()},
            "region_stack": list(self._region_stack),
            "regions": dict(self.regions),
            "tier_counts": dict(self.tier_counts),
            "frontier_counts": dict(self.frontier_counts),
            "frontier_trace": list(self.frontier_trace),
            "fusion_counts": dict(self.fusion_counts),
            "shard": (
                self.shard_sink.dump_state()
                if self.shard_sink is not None
                else None
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore state captured by :meth:`dump_state`."""
        self._time_us = state["time"]
        for kind, rec in self._records.items():
            count, time_us = state["records"].get(kind, (0, 0.0))
            rec.count = count
            rec.time_us = time_us
        self._region_stack = list(state["region_stack"])
        self.regions = dict(state["regions"])
        self.tier_counts = dict(state["tier_counts"])
        self.frontier_counts = dict(state.get("frontier_counts", {}))
        self.frontier_trace = list(state.get("frontier_trace", []))
        self.fusion_counts = dict(state.get("fusion_counts", {}))
        if self.shard_sink is not None and state.get("shard") is not None:
            self.shard_sink.load_state(state["shard"])

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "ClockSnapshot":
        """Capture current totals; subtract two snapshots to get a delta."""
        return ClockSnapshot(
            time_us=self._time_us,
            counts={k: r.count for k, r in self._records.items()},
            times={k: r.time_us for k, r in self._records.items()},
        )

    def reset(self) -> None:
        """Zero the clock and all counters (new experiment run)."""
        self._time_us = 0.0
        for rec in self._records.values():
            rec.count = 0
            rec.time_us = 0.0
        self._region_stack.clear()
        self.regions.clear()
        self.tier_counts.clear()
        self.frontier_counts.clear()
        self.frontier_trace.clear()
        self.fusion_counts.clear()
        if self.shard_sink is not None:
            self.shard_sink.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(t={self._time_us:.1f}us)"


@dataclass(frozen=True)
class ClockSnapshot:
    """Immutable capture of clock totals; supports delta via subtraction."""

    time_us: float
    counts: Dict[str, int]
    times: Dict[str, float]

    def __sub__(self, earlier: "ClockSnapshot") -> "ClockSnapshot":
        return ClockSnapshot(
            time_us=self.time_us - earlier.time_us,
            counts={
                k: self.counts[k] - earlier.counts.get(k, 0) for k in self.counts
            },
            times={k: self.times[k] - earlier.times.get(k, 0.0) for k in self.times},
        )


class _RegionCtx:
    def __init__(self, clock: Clock, name: str) -> None:
        self._clock = clock
        self._name = name

    def __enter__(self) -> Clock:
        self._clock.begin_region(self._name)
        return self._clock

    def __exit__(self, *exc: object) -> None:
        self._clock.end_region()

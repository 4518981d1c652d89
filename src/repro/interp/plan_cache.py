"""LRU cache of compiled construct artifacts.

What a construct compiles once and replays every sweep — a fused kernel
or a frontier analysis — depends on the construct's AST node and on the
grid it runs over, so entries are cached per
``(kind, id(node), grid signature)``:

* ``kind`` separates the compilation entry points: "fuse" for the
  whole-array register programs of :mod:`repro.interp.fuse`, "sched"
  for the same kernels built for scheduled ``solve`` levels (no CSE
  simulation; :class:`repro.compiler.solve_sched.SolveSchedule`), and
  "frontier" for the active-set sweep analyses of
  :mod:`repro.interp.frontier` — the bound charge rows and lane programs
  of an iterated construct, or the fallback sentinel when the body is not
  frontier-eligible.  A "fuse" or "sched" entry may likewise be the
  unfusable sentinel, which sends the construct to the tree-walking
  oracle;
* ``id(node)`` identifies the AST node — each cache entry keeps a strong
  reference to the node so the id cannot be recycled while the entry is
  alive, and a hit re-checks node identity so a recycled id after an
  eviction can never resurrect a stale entry;
* the grid signature (the tuple of :class:`~repro.interp.values.GridAxis`)
  distinguishes executions of the same construct over different index-set
  geometries, whose addresses and VP ratios differ.

Counter semantics
-----------------
``hits``, ``misses``, ``evictions`` and ``build_seconds`` are
*cumulative over the lifetime of the cache object*:

* a **hit** is a lookup that found a live entry (same node identity);
* a **miss** is a lookup that ran the build callable — every miss is
  exactly one (re)compile, so a run whose miss delta is zero did zero
  recompiles;
* an **eviction** is an entry dropped because the cache exceeded its
  capacity (LRU order);
* ``build_seconds`` accumulates the wall-clock time spent inside build
  callables, per ``kind`` — the compile-phase breakdown that
  ``repro run --stats`` reports.

:meth:`clear` drops the *entries* but deliberately preserves all
counters: the cache may be shared process-wide through the compile
store (:mod:`repro.interp.compile_store`), where the telemetry must
survive capacity resets to stay meaningful across runs.  Use
:meth:`counters` to snapshot the numbers before a run and diff after.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple


class PlanCache:
    """Bounded LRU mapping ``(kind, id(node), sig)`` -> compiled artifact."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, int, Hashable], Tuple[Any, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: wall-clock seconds spent in build callables, per kind
        self.build_seconds: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        kind: str,
        node: Any,
        sig: Hashable,
        build: Callable[[], Any],
    ) -> Any:
        key = (kind, id(node), sig)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is node:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        t0 = time.perf_counter()
        plan = build()
        self.build_seconds[kind] = self.build_seconds.get(kind, 0.0) + (
            time.perf_counter() - t0
        )
        self._entries[key] = (node, plan)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return plan

    def clear(self) -> None:
        """Drop all entries.  Counters survive (see module docstring)."""
        self._entries.clear()

    def counters(self) -> Dict[str, float]:
        """Snapshot of the cumulative counters, for before/after deltas."""
        out: Dict[str, float] = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        for kind, secs in self.build_seconds.items():
            out[f"build_seconds.{kind}"] = secs
        return out

    def stats(self) -> dict:
        out = {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        by_kind: dict = {}
        for kind, _nid, _sig in self._entries:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        for kind in sorted(by_kind):
            out[f"size.{kind}"] = by_kind[kind]
        for kind in sorted(self.build_seconds):
            out[f"build_seconds.{kind}"] = round(self.build_seconds[kind], 6)
        return out

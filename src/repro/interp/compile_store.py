"""Process-wide content-addressed compile store.

The per-run :class:`~repro.interp.plan_cache.PlanCache` memoises
compiled plans by AST node identity, which is only safe within one
program object.  This module lifts the whole compile pipeline to a
shared, size-bounded, *content-addressed* store so parse → semantic
analysis → layout construction → plan/fusion compilation happens once
per distinct program and is reused across :class:`UCProgram` instances,
repeated runs, and batch lanes (see ``UCProgram.run_batch``).

Two levels:

* **Frontend** entries are keyed by the program *content*:
  ``(sha256(source), sorted defines, apply_maps)`` — and hold the
  parsed AST, the :class:`~repro.lang.semantics.ProgramInfo` and the
  :class:`~repro.mapping.layout.LayoutTable`.  Sharing the AST object
  is what makes the plan cache's ``id(node)`` keys line up across
  program instances.

* **Backend** entries are keyed by ``(frontend key, machine signature,
  compile key)`` and hold one shared
  :class:`~repro.interp.plan_cache.PlanCache`.  The machine signature
  is the (hashable, frozen) :class:`~repro.machine.MachineConfig`; the
  compile key is the ``compile_key`` of the run's *resolved*
  :class:`~repro.interp.config.EngineConfig`, because compiled artifacts
  bake in switch-dependent decisions (tier choices, charge tables, VP
  ratios).  Flipping a switch between runs — keyword or environment —
  therefore *misses* and compiles into a separate entry: a stale kernel
  can never serve a run it was not compiled for.

Both levels are bounded LRU; the store is process-wide state intended
for single-threaded use (the interpreter itself is single-threaded).
Entries hold no per-run mutable state: plan closures re-resolve
bindings by name and self-heal their memos, fused kernels re-validate
and re-bind per sweep, frontier analyses re-bind per session.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .plan_cache import PlanCache


#: LRU bounds: program contents; plan caches (and shared programs); plans
#: per cache
FRONTEND_CAPACITY = 32
BACKEND_CAPACITY = 64
PLAN_CAPACITY = 1024


class FrontendEntry:
    """Parsed + analyzed + mapped program, shared read-only."""

    __slots__ = ("ast", "info", "layouts", "source_bytes")

    def __init__(self, ast: Any, info: Any, layouts: Any, source_bytes: int) -> None:
        self.ast = ast
        self.info = info
        self.layouts = layouts
        self.source_bytes = source_bytes


class CompileStore:
    """Two-level LRU store: program content -> frontend -> plan caches."""

    def __init__(self) -> None:
        self._frontends: "OrderedDict[Hashable, FrontendEntry]" = OrderedDict()
        self._backends: "OrderedDict[Hashable, PlanCache]" = OrderedDict()
        self._programs: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.frontend_hits = 0
        self.frontend_misses = 0
        self.frontend_evictions = 0
        self.backend_hits = 0
        self.backend_misses = 0
        self.backend_evictions = 0
        self.program_hits = 0
        self.program_misses = 0
        self.program_evictions = 0

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def frontend_key(
        source: str, defines: Dict[str, int], apply_maps: bool
    ) -> Hashable:
        digest = hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()
        return (digest, tuple(sorted(defines.items())), bool(apply_maps))

    # -- frontend level -----------------------------------------------------

    def frontend(
        self,
        key: Hashable,
        build: Callable[[], Tuple[Any, Any, Any]],
        source_bytes: int = 0,
    ) -> Tuple[FrontendEntry, bool]:
        """Look up (or build) the compiled frontend for ``key``.

        ``build`` returns ``(ast, info, layouts)``.  Returns the entry
        and whether it was already cached.
        """
        entry = self._frontends.get(key)
        if entry is not None:
            self.frontend_hits += 1
            self._frontends.move_to_end(key)
            return entry, True
        self.frontend_misses += 1
        ast, info, layouts = build()
        entry = FrontendEntry(ast, info, layouts, source_bytes)
        self._frontends[key] = entry
        while len(self._frontends) > FRONTEND_CAPACITY:
            self._frontends.popitem(last=False)
            self.frontend_evictions += 1
        return entry, False

    # -- backend level ------------------------------------------------------

    def backend(
        self,
        frontend_key: Hashable,
        machine_sig: Hashable,
        compile_key: Hashable,
    ) -> Tuple[PlanCache, bool]:
        """Shared :class:`PlanCache` for one (program, machine, config).

        Returns the cache and whether it already existed.  A differing
        machine config or compile key always misses — the cross-run
        staleness guard.
        """
        key = (frontend_key, machine_sig, compile_key)
        cache = self._backends.get(key)
        if cache is not None:
            self.backend_hits += 1
            self._backends.move_to_end(key)
            return cache, True
        self.backend_misses += 1
        cache = PlanCache(PLAN_CAPACITY)
        self._backends[key] = cache
        while len(self._backends) > BACKEND_CAPACITY:
            self._backends.popitem(last=False)
            self.backend_evictions += 1
        return cache, False

    # -- program level ------------------------------------------------------

    def shared_program(
        self,
        source: str,
        *,
        defines: Optional[Dict[str, int]] = None,
        machine_config: Any = None,
        **flags: Any,
    ) -> Any:
        """One shared :class:`UCProgram` per distinct program content.

        The execution service funnels every job through this so that
        identical submissions (same source, defines, machine config and
        engine keywords — all of which must be hashable) coalesce onto one
        program object: ``run_batch`` lanes then line up and the plan
        cache's ``id(node)`` keys match across tenants.  Bounded LRU
        like the other levels (the backend capacity bounds it).
        """
        from .program import UCProgram  # local import avoids a cycle

        defines = dict(defines or {})
        key = (
            self.frontend_key(source, defines, flags.get("apply_maps", True)),
            machine_config,
            tuple(sorted(flags.items())),
        )
        prog = self._programs.get(key)
        if prog is not None:
            self.program_hits += 1
            self._programs.move_to_end(key)
            return prog
        self.program_misses += 1
        prog = UCProgram(
            source,
            defines=defines,
            machine_config=machine_config,
            compile_store=self,
            **flags,
        )
        self._programs[key] = prog
        while len(self._programs) > BACKEND_CAPACITY:
            self._programs.popitem(last=False)
            self.program_evictions += 1
        return prog

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries (counters survive, as for PlanCache)."""
        self._frontends.clear()
        self._backends.clear()
        self._programs.clear()

    def stats(self) -> dict:
        """Hit/miss/size counters plus an approximate byte size.

        ``source_bytes`` is the summed length of the cached program
        sources — an honest proxy for frontend footprint; plan closures
        are not meaningfully measurable, so backend size is reported as
        entry and cached-plan counts instead.
        """
        return {
            "frontend_entries": len(self._frontends),
            "frontend_hits": self.frontend_hits,
            "frontend_misses": self.frontend_misses,
            "frontend_evictions": self.frontend_evictions,
            "backend_entries": len(self._backends),
            "backend_hits": self.backend_hits,
            "backend_misses": self.backend_misses,
            "backend_evictions": self.backend_evictions,
            "program_entries": len(self._programs),
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "program_evictions": self.program_evictions,
            "plans_cached": sum(len(c) for c in self._backends.values()),
            "source_bytes": sum(e.source_bytes for e in self._frontends.values()),
        }


#: the process-wide default store (``UCProgram`` uses it unless given
#: another one, or ``compile_store=None`` for a private per-program one)
DEFAULT_STORE = CompileStore()


def default_store() -> CompileStore:
    return DEFAULT_STORE

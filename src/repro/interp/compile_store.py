"""Process-wide content-addressed compile store.

Compilation happens once per distinct program and is reused across
:class:`UCProgram` instances, repeated runs and batch lanes.  One
bounded-LRU class, :class:`LRU`, backs every cache of the pipeline:

* **frontend** entries, keyed by the program *content* —
  ``(sha256(source), sorted defines, apply_maps)`` — hold the
  :class:`~repro.lang.semantics.ProgramInfo` (and with it the parsed
  AST), the :class:`~repro.mapping.layout.LayoutTable` and the
  program's one static analysis (:class:`FrontendEntry`).  Sharing the
  AST object is what makes the plan caches' ``id(node)`` keys line up
  across program instances;
* **backend** entries, keyed by ``(frontend key, machine signature,
  compile key)``, are per-program plan caches — an :class:`LRU` of
  fused kernels and frontier analyses.  The machine signature is the
  (hashable, frozen) :class:`~repro.machine.MachineConfig`; the compile
  key is the ``compile_key`` of the run's *resolved*
  :class:`~repro.interp.config.EngineConfig`, because compiled artifacts
  bake in switch-dependent decisions (tier choices, charge tables, VP
  ratios).  Flipping a switch between runs — keyword or environment —
  therefore *misses* and compiles into a separate entry: a stale kernel
  can never serve a run it was not compiled for;
* **program** entries (:meth:`CompileStore.shared_program`) coalesce
  identical service submissions onto one :class:`UCProgram`;
* a run the store cannot key — a fault plan, an AST-built program,
  ``compile_store=None``, a caller-provided machine — gets a private
  plan cache of its own (``UCProgram.prepare``).

Plan-cache keys
---------------
A plan cache entry is keyed ``(kind, id(node), grid signature)``:

* ``kind`` separates the compilation entry points: "fuse" for the
  whole-array register programs of :mod:`repro.interp.fuse`, "sched"
  for the same kernels built for scheduled ``solve`` levels (no CSE
  simulation), and "frontier" for the active-set sweep analyses of
  :mod:`repro.interp.frontier`.  An entry may be the unfusable or
  fallback sentinel, which sends the construct to the oracle or to full
  sweeps;
* ``id(node)`` identifies the AST node — the entry keeps the node as its
  *anchor*, and a hit re-checks identity, so a recycled id after an
  eviction can never resurrect a stale entry;
* the grid signature (the tuple of :class:`~repro.interp.values.GridAxis`)
  distinguishes executions of the same construct over different
  index-set geometries.

Counters
--------
``hits``, ``misses``, ``evictions`` and ``build_seconds`` (per kind) are
cumulative over the life of an :class:`LRU`; :meth:`LRU.clear` drops
the entries and keeps them.  A shared cache's counters mix every run
that used it, so a run's own compile work is tallied separately: each
lookup may pass a ``tally`` dict that receives the misses and build
seconds of *that* lookup (``Interpreter.build_tally`` feeds
``RunResult.compile``).

The store is process-wide state intended for single-threaded use (the
interpreter itself is single-threaded).  Entries hold no per-run mutable
state: fused kernels re-validate and re-bind per sweep, frontier
analyses re-bind per session.  What stays per run on purpose: the
:class:`~repro.mapping.placement.Placement` memos (they key on live-shard
state a fault run mutates), the CSE cache and ``fusion_noted``.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple


#: LRU bounds: program contents; plan caches (and shared programs);
#: artifacts per plan cache
FRONTEND_CAPACITY = 32
BACKEND_CAPACITY = 64
PLAN_CAPACITY = 1024


class LRU:
    """Bounded LRU ``key -> (anchor, value)`` with build accounting."""

    def __init__(self, capacity: int = PLAN_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[Any, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: wall-clock seconds spent in build callables, per kind
        self.build_seconds: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> List[Any]:
        return [value for _anchor, value in self._entries.values()]

    def lookup(
        self,
        key: Hashable,
        build: Callable[[], Any],
        kind: str,
        anchor: Any = None,
        tally: Optional[Dict[str, float]] = None,
    ) -> Any:
        """The value under ``key``, built (and timed under ``kind``) on a
        miss.  An entry whose anchor is not ``anchor`` is a miss."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] is anchor:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        t0 = time.perf_counter()
        value = build()
        secs = time.perf_counter() - t0
        self.build_seconds[kind] = self.build_seconds.get(kind, 0.0) + secs
        if tally is not None:
            tally["misses"] = tally.get("misses", 0) + 1
            tally[kind] = tally.get(kind, 0.0) + secs
        self._entries[key] = (anchor, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def get_or_build(
        self,
        kind: str,
        node: Any,
        sig: Hashable,
        build: Callable[[], Any],
        tally: Optional[Dict[str, float]] = None,
    ) -> Any:
        """The plan-cache lookup: key ``(kind, id(node), sig)``, anchored
        on ``node``."""
        return self.lookup((kind, id(node), sig), build, kind, node, tally)

    def clear(self) -> None:
        """Drop all entries.  Counters survive."""
        self._entries.clear()

    def counters(self) -> Dict[str, float]:
        """Snapshot of the cumulative counters."""
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
        for key in self._entries:
            by_kind[key[0]] = by_kind.get(key[0], 0) + 1
        for kind in sorted(by_kind):
            out[f"size.{kind}"] = by_kind[kind]
        for kind in sorted(self.build_seconds):
            out[f"build_seconds.{kind}"] = round(self.build_seconds[kind], 6)
        return out


class FrontendEntry:
    """One program's parse, semantics and layouts, shared read-only, and
    its one static analysis, built on first use.

    The analysis is a fact about the program text, so every run of every
    :class:`UCProgram` holding this entry reads the same one: the
    analysis model (:func:`repro.analysis.context.build_model`), the
    per-reference verdicts (sanitizer claims, the shard-axis search), the
    UC5xx reduction verdicts (``Interpreter.reduction_verdict``), the
    chosen partition axis per ``(shards, policy)`` and the oracle's CSE
    key of each expression.  Nothing is imported from
    :mod:`repro.analysis` until a consumer asks.
    """

    __slots__ = (
        "info",
        "layouts",
        "source_bytes",
        "_model",
        "_verdicts",
        "_claims",
        "claims_error",
        "_axes",
        "cse_keys",
        "cse_text_names",
    )

    def __init__(self, info: Any, layouts: Any, source_bytes: int = 0) -> None:
        self.info = info
        self.layouts = layouts
        self.source_bytes = source_bytes
        self._model = None
        self._verdicts = None
        self._claims = None
        #: why the analyzer produced no reduction verdicts ("" = it did)
        self.claims_error = ""
        self._axes: Dict[Tuple[int, str], int] = {}
        #: the oracle's CSE key text per ``id(expr)`` of this entry's own
        #: AST ("" = uncacheable), filled by ``eval_expr.cse_key``; the
        #: entry holds the AST, so no id is recycled while it lives
        self.cse_keys: Dict[int, str] = {}
        #: names each key text reads, for targeted invalidation
        self.cse_text_names: Dict[str, frozenset] = {}

    def model(self):
        if self._model is None:
            from ..analysis.context import build_model

            self._model = build_model(self.info, self.layouts)
        return self._model

    def verdicts(self):
        """Per-reference static verdicts (the linter's, in model order)."""
        if self._verdicts is None:
            from ..analysis.staticref import classify_site

            model = self.model()
            self._verdicts = [classify_site(ref, model) for ref in model.refs]
        return self._verdicts

    def reduction_claims(self) -> dict:
        """UC5xx verdicts keyed by ``id(ast.Reduction)``.  An analyzer
        failure never blocks execution: it yields no verdicts (every site
        takes the ordered path) and records why in ``claims_error``."""
        if self._claims is None:
            try:
                from ..analysis import determinism

                self._claims = determinism.determinism_claims(self.model())
            except Exception as exc:
                self._claims = {}
                self.claims_error = f"{type(exc).__name__}: {exc}"
        return self._claims

    def placement_axis(self, n_shards: int, policy: str) -> int:
        """The shard partition axis, searched once per (K, policy)."""
        key = (n_shards, policy)
        if key not in self._axes:
            from ..mapping.placement import derive_placement

            self._axes[key] = derive_placement(self, n_shards, policy).axis
        return self._axes[key]


class CompileStore:
    """Content-addressed LRU levels: frontends, plan caches, programs."""

    def __init__(self) -> None:
        self.frontends = LRU(FRONTEND_CAPACITY)
        self.backends = LRU(BACKEND_CAPACITY)
        self.programs = LRU(BACKEND_CAPACITY)

    @staticmethod
    def frontend_key(
        source: str, defines: Dict[str, int], apply_maps: bool
    ) -> Hashable:
        digest = hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()
        return (digest, tuple(sorted(defines.items())), bool(apply_maps))

    def backend(
        self,
        frontend_key: Hashable,
        machine_sig: Hashable,
        compile_key: Hashable,
    ) -> LRU:
        """The shared plan cache for one (program, machine, config).  A
        differing machine config or compile key always misses — the
        cross-run staleness guard."""
        return self.backends.lookup(
            (frontend_key, machine_sig, compile_key), LRU, "backend"
        )

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
        cache's ``id(node)`` keys match across tenants.
        """
        from .program import UCProgram  # local import avoids a cycle

        defines = dict(defines or {})
        key = (
            self.frontend_key(source, defines, flags.get("apply_maps", True)),
            machine_config,
            tuple(sorted(flags.items())),
        )
        return self.programs.lookup(
            key,
            lambda: UCProgram(
                source,
                defines=defines,
                machine_config=machine_config,
                compile_store=self,
                **flags,
            ),
            "program",
        )

    def stats(self) -> dict:
        """Hit/miss/size counters per level plus an approximate size.

        ``source_bytes`` is the summed length of the cached program
        sources — an honest proxy for frontend footprint; compiled
        kernels are not meaningfully measurable, so backend size is
        reported as entry and cached-artifact counts instead.
        """
        out: Dict[str, int] = {}
        for name, level in (
            ("frontend", self.frontends),
            ("backend", self.backends),
            ("program", self.programs),
        ):
            out[f"{name}_entries"] = len(level)
            out[f"{name}_hits"] = level.hits
            out[f"{name}_misses"] = level.misses
            out[f"{name}_evictions"] = level.evictions
        out["plans_cached"] = sum(len(c) for c in self.backends.values())
        out["source_bytes"] = sum(e.source_bytes for e in self.frontends.values())
        return out


#: the process-wide default store (``UCProgram`` uses it unless given
#: another one, or ``compile_store=None`` for a private per-program one)
DEFAULT_STORE = CompileStore()


def default_store() -> CompileStore:
    return DEFAULT_STORE

"""Cross-run content-addressed compile store + plan-cache eviction.

Two properties matter: a warm store makes the second program instance
compile-free (``recompiles == 0``), and the store key captures every
effective engine flag — flipping a ``REPRO_*`` variable between runs
must *miss* rather than serve a stale artifact.
"""

import numpy as np
import pytest

from repro.interp.compile_store import CompileStore
from repro.interp.plan_cache import PlanCache
from repro.interp.program import UCProgram

SRC = (
    "int N = 10;\n"
    "index_set I:i = {0..N-1}, J:j = I;\n"
    "int a[10][10];\n"
    "main {\n"
    "    *solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1\n"
    "        : $<(J; a[i-1][j] + 1);\n"
    "}\n"
)


def _inp(seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.integers(0, 9, size=(10, 10)).astype(np.int64)}


class TestWarmStore:
    def test_second_program_compiles_nothing(self):
        store = CompileStore()
        cold = UCProgram(SRC, compile_store=store).run(_inp())
        assert cold.compile["recompiles"] > 0
        assert cold.compile["frontend_cached"] == 0.0
        warm = UCProgram(SRC, compile_store=store).run(_inp())
        assert warm.compile["recompiles"] == 0
        assert warm.compile["frontend_cached"] == 1.0
        assert warm.compile["parse_s"] == 0.0
        assert np.array_equal(cold["a"], warm["a"])
        assert cold.fingerprint == warm.fingerprint

    def test_store_counters_reported(self):
        store = CompileStore()
        UCProgram(SRC, compile_store=store).run(_inp())
        result = UCProgram(SRC, compile_store=store).run(_inp())
        assert result.store["frontend_hits"] == 1
        assert result.store["frontend_misses"] == 1
        assert result.store["backend_hits"] == 1
        assert result.store["backend_misses"] == 1
        assert result.store["frontend_entries"] == 1
        assert result.store["backend_entries"] == 1

    def test_distinct_defines_miss(self):
        store = CompileStore()
        src = (
            "index_set I:i = {0..N-1};\nint a[16];\n"
            "main { par (I) a[i] = i * W; }\n"
        )
        UCProgram(src, defines={"N": 16, "W": 2}, compile_store=store).run(None)
        UCProgram(src, defines={"N": 16, "W": 3}, compile_store=store).run(None)
        assert store.stats()["frontend_misses"] == 2


@pytest.mark.usefixtures("default_engines")
class TestFlagStaleness:
    def test_no_frontier_env_flip_misses_backend(self, monkeypatch):
        """Flipping REPRO_NO_FRONTIER between runs changes how sweeps are
        planned and charged, so the backend entry must not be reused."""
        store = CompileStore()
        UCProgram(SRC, compile_store=store).run(_inp())
        before = store.stats()
        assert before["backend_entries"] == 1

        monkeypatch.setenv("REPRO_NO_FRONTIER", "1")
        flipped = UCProgram(SRC, compile_store=store).run(_inp())
        after = store.stats()
        assert after["backend_misses"] == before["backend_misses"] + 1
        assert after["backend_entries"] == 2
        assert flipped.compile["recompiles"] > 0
        # the frontend (parse/semantics/layouts) is flag-independent
        assert after["frontend_hits"] == before["frontend_hits"] + 1

    def test_engine_kwargs_get_separate_backends(self):
        store = CompileStore()
        UCProgram(SRC, compile_store=store, cse=True).run(_inp())
        UCProgram(SRC, compile_store=store, cse=False).run(_inp())
        assert store.stats()["backend_entries"] == 2

    def test_flag_flip_results_still_correct(self, monkeypatch):
        store = CompileStore()
        plain = UCProgram(SRC, compile_store=store).run(_inp())
        monkeypatch.setenv("REPRO_NO_FRONTIER", "1")
        flipped = UCProgram(SRC, compile_store=store).run(_inp())
        assert np.array_equal(plain["a"], flipped["a"])


class TestPlanCacheEviction:
    """Documented eviction semantics: bounded LRU, counters survive,
    eviction can never resurrect a stale plan."""

    def test_lru_eviction_order_and_counters(self):
        cache = PlanCache(capacity=2)
        n1, n2, n3 = object(), object(), object()
        cache.get_or_build("k", n1, (), lambda: "p1")
        cache.get_or_build("k", n2, (), lambda: "p2")
        cache.get_or_build("k", n1, (), lambda: "p1-again")  # refresh n1
        cache.get_or_build("k", n3, (), lambda: "p3")  # evicts n2 (LRU)
        assert cache.evictions == 1
        assert len(cache) == 2
        built = []
        cache.get_or_build("k", n2, (), lambda: built.append(1) or "p2'")
        assert built, "evicted entry must rebuild, not resurrect"
        assert cache.evictions == 2  # rebuilding n2 pushed out LRU n1
        assert cache.get_or_build("k", n3, (), lambda: "never") == "p3"

    def test_clear_keeps_counters(self):
        cache = PlanCache(capacity=4)
        node = object()
        cache.get_or_build("k", node, (), lambda: "p")
        cache.get_or_build("k", node, (), lambda: "p")
        hits, misses = cache.hits, cache.misses
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_node_identity_guard(self):
        """id() reuse cannot alias: the entry stores the node and
        re-checks it, so a different node object always misses."""
        cache = PlanCache(capacity=4)

        class N:
            pass

        a, b = N(), N()
        cache.get_or_build("k", a, (), lambda: "pa")
        # same key tuple shape, different node object with (potentially)
        # recycled id: the stored-node identity check must force a miss
        entry_key = ("k", id(a), ())
        cache._entries[entry_key] = (b, "stale")
        assert cache.get_or_build("k", a, (), lambda: "rebuilt") == "rebuilt"

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

"""Cross-run content-addressed compile store + the one LRU class.

Four properties matter: a warm store makes the second program instance
compile-free (``recompiles == 0``); the store key captures every
effective engine flag — flipping a ``REPRO_*`` variable between runs
must *miss* rather than serve a stale artifact; a run is charged only
for what its own lookups built; and a program's static analysis is
built once per frontend entry, however many runs read it.
"""

import numpy as np
import pytest

from repro.bench.workloads import RANKSORT_UC
from repro.interp.compile_store import LRU, CompileStore
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
        cache = LRU(capacity=2)
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
        cache = LRU(capacity=4)
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
        cache = LRU(capacity=4)

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
            LRU(capacity=0)


class TestPerRunCompileAttribution:
    def test_interleaved_runs_are_charged_only_their_own_builds(self):
        """Two prepared runs of one program on a shared store: the second
        to execute hits everything the first built meanwhile."""
        prog = UCProgram(SRC, compile_store=CompileStore())
        first, second = prog.prepare(_inp(0)), prog.prepare(_inp(1))
        cold = first.run()
        warm = second.run()
        assert cold.compile["recompiles"] > 0
        assert cold.compile["fuse_s"] + cold.compile["frontier_s"] > 0
        assert warm.compile["recompiles"] == 0
        assert warm.compile["fuse_s"] == warm.compile["frontier_s"] == 0.0
        # the shared cache's own counters still see both runs
        cache = prog.last_interpreter.plan_cache
        assert cache.misses == cold.compile["recompiles"]
        assert cache.hits > 0

    @pytest.mark.usefixtures("default_engines")
    def test_batch_lanes_report_the_batch_builds(self):
        """Lockstep lanes are one run: each reports the batch's builds
        (shards or the sanitizer would send the batch down the solo
        loop, where each lane is charged its own)."""
        prog = UCProgram(SRC, compile_store=CompileStore())
        cold = prog.run_batch([_inp(0), _inp(1)])
        warm = prog.run_batch([_inp(2), _inp(3)])
        assert cold[0].compile["recompiles"] == cold[1].compile["recompiles"] > 0
        assert [r.compile["recompiles"] for r in warm] == [0, 0]


RANKSORT = (RANKSORT_UC, {"N": 32})


def _ranks(seed):
    return {"a": np.random.default_rng(seed).permutation(32)}


class TestOneAnalysisPerProgram:
    """``build_model`` runs once per frontend entry: the interpreter's
    reduction verdicts, the sanitizer's claims and the shard-axis search
    all read the entry's one analysis."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.analysis.context as context

        calls = []
        real = context.build_model

        def counting(info, layouts):
            calls.append(info)
            return real(info, layouts)

        monkeypatch.setattr(context, "build_model", counting)
        return calls

    @pytest.mark.parametrize(
        "kw", [{}, {"sanitize": True}, {"shards": 2}], ids=["plain", "sanitize", "shards"]
    )
    def test_three_runs_build_one_model(self, builds, kw):
        src, defines = RANKSORT
        prog = UCProgram(src, defines=defines, compile_store=CompileStore(), **kw)
        for seed in range(3):
            result = prog.run(_ranks(seed))
            assert sorted(result["a"]) == list(range(32))
        assert len(builds) == 1

    def test_three_batches_build_one_model(self, builds):
        src, defines = RANKSORT
        prog = UCProgram(src, defines=defines, compile_store=CompileStore())
        for rep in range(3):
            prog.run_batch([_ranks(4 * rep + k) for k in range(4)])
        assert len(builds) == 1

    def test_programs_sharing_a_store_share_the_analysis(self, builds):
        src, defines = RANKSORT
        store = CompileStore()
        for seed in range(2):
            UCProgram(src, defines=defines, compile_store=store).run(_ranks(seed))
        assert len(builds) == 1
        # private programs own private entries: one analysis each
        for seed in range(2):
            UCProgram(src, defines=defines, compile_store=None).run(_ranks(seed))
        assert len(builds) == 3

"""Differential tests: the production engines vs the tree-walking oracle.

With ``plans`` on, a construct sweep runs on its fused kernel, a
frontier lane program, or the oracle where fusion declines.  That choice
must be *invisible*: for every program, results, stdout, and the full
cost ledger (``Clock.fingerprint()``) must be bit-identical to the
oracle's (``plans=False``).  These tests run every workload and example
both ways — with the communication-tier dispatcher and on the
router-only machine (``comm_tiers=False``) — and compare everything.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.shortest_path import random_distance_matrix
from repro.bench import workloads as W
from repro.bench.workloads import log2_ceil
from repro.interp.compile_store import LRU
from repro.interp.program import UCProgram

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "uc"
BIG = 1 << 20


def run_both(src, defines=None, inputs=None, seed=20250704, **kw):
    """One run per setting of ``plans``; returns (plans_result, tree_result,
    fingerprints)."""
    prints = []
    results = []
    for plans in (True, False):
        prog = UCProgram(src, defines=defines, plans=plans, **kw)
        results.append(prog.run(dict(inputs or {}), seed=seed))
        prints.append(prog.last_interpreter.machine.clock.fingerprint())
    return results[0], results[1], prints


def assert_identical(src, defines=None, inputs=None, **kw):
    on, off, (fp_on, fp_off) = run_both(src, defines, inputs, **kw)
    assert fp_on == fp_off, "cost ledgers diverge between engines"
    assert on.elapsed_us == off.elapsed_us
    assert on.counts == off.counts
    assert on.stdout == off.stdout
    for name in on.keys():
        va, vb = on[name], off[name]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f"variable {name!r} diverges"
        else:
            assert va == vb, f"variable {name!r} diverges"


RNG = np.random.default_rng(11)


WORKLOADS = {
    "apsp_solve": (W.APSP_SOLVE_UC, {"N": 16}, {"dist": random_distance_matrix(16, seed=3)}, {}),
    "apsp_solve_guarded": (
        W.APSP_SOLVE_UC,
        {"N": 16},
        {"dist": random_distance_matrix(16, seed=3)},
        {"solve_strategy": "guarded"},
    ),
    "apsp_n2": (W.APSP_N2_UC, {"N": 16}, {"d": random_distance_matrix(16, seed=3)}, {}),
    "apsp_n2_selfinit": (W.APSP_N2_UC_SELFINIT, {"N": 16}, None, {}),
    "apsp_n3": (
        W.APSP_N3_UC,
        {"N": 16, "LOGN": log2_ceil(16)},
        {"d": random_distance_matrix(16, seed=3)},
        {},
    ),
    "wavefront": (W.WAVEFRONT_UC, {"N": 10}, None, {}),
    "wavefront_guarded": (W.WAVEFRONT_UC, {"N": 10}, None, {"solve_strategy": "guarded"}),
    "obstacle": (W.OBSTACLE_UC, {"R": 12, "WALL": BIG}, None, {}),
    "prefix_starpar": (W.PREFIX_STARPAR_UC, {"N": 16}, None, {}),
    "prefix_seq": (W.PREFIX_SEQ_UC, {"N": 16, "LOGN": 4}, None, {}),
    "oddeven": (W.ODDEVEN_UC, {"N": 16}, {"x": RNG.integers(0, 99, 16)}, {}),
    "ranksort": (W.RANKSORT_UC, {"N": 16}, {"a": RNG.permutation(16)}, {}),
    "digit_count": (W.DIGIT_COUNT_UC, {"N": 16}, {"samples": RNG.integers(0, 10, 16)}, {}),
    "matmul": (
        W.MATMUL_UC,
        {"N": 8},
        {"a": RNG.integers(0, 9, (8, 8)), "b": RNG.integers(0, 9, (8, 8))},
        {},
    ),
    "apsp_no_cse": (
        W.APSP_SOLVE_UC,
        {"N": 12},
        {"dist": random_distance_matrix(12, seed=3)},
        {"cse": False},
    ),
    "apsp_no_procopt": (
        W.APSP_SOLVE_UC,
        {"N": 12},
        {"dist": random_distance_matrix(12, seed=3)},
        {"processor_opt": False},
    ),
}
# the four mapping kernels, with and without their map sections
WORKLOADS.update(
    (f"{name}_{'mapped' if on else 'unmapped'}",
     (W.with_map(src, m, on), {"N": 16, "REPS": 2}, None, {}))
    for name, src, m in (
        ("shift", W.SHIFT_KERNEL_UC, W.SHIFT_KERNEL_MAP),
        ("transpose", W.TRANSPOSE_KERNEL_UC, W.TRANSPOSE_KERNEL_MAP),
        ("fold", W.FOLD_KERNEL_UC, W.FOLD_KERNEL_MAP),
        ("copy", W.COPY_KERNEL_UC, W.COPY_KERNEL_MAP),
    )
    for on in (True, False)
)


class TestWorkloadsDifferential:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_identical_results_and_clock(self, name):
        src, defines, inputs, kw = WORKLOADS[name]
        for comm_tiers in (True, False):
            assert_identical(src, defines, inputs, comm_tiers=comm_tiers, **kw)

    def test_dynamic_obstacle(self):
        walls = (np.random.default_rng(5).random((10, 10)) < 0.2).astype(np.int64)
        walls[0, 0] = 0
        for comm_tiers in (True, False):
            assert_identical(
                W.DYNAMIC_OBSTACLE_UC, {"R": 10, "WALL": BIG}, {"walls": walls},
                comm_tiers=comm_tiers,
            )


EXAMPLE_CASES = [("apsp.uc", {"N": 8}), ("histogram.uc", {"N": 32}), ("shifted.uc", None)]


class TestExamplesDifferential:
    """Every shipped .uc example behaves identically under both engines
    (same seed -> same rand() stream -> comparable outputs)."""

    @pytest.mark.parametrize("script,defines", EXAMPLE_CASES)
    def test_example(self, script, defines):
        src = (EXAMPLES / script).read_text()
        for comm_tiers in (True, False):
            assert_identical(src, defines, comm_tiers=comm_tiers)


class TestPlanCache:
    def test_iterated_construct_hits_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
        src = """
        index_set I:i = {0..15}, K:k = {0..7};
        int a[16];
        main {
            par (I) a[i] = i;
            seq (K) par (I) a[i] = a[i] + 1;
        }
        """
        prog = UCProgram(src)
        res = prog.run()
        assert list(res["a"]) == [i + 8 for i in range(16)]
        cache = prog.last_interpreter.plan_cache
        stats = cache.stats()
        # the par inside the seq fuses once, then hits on every iteration
        assert stats["misses"] >= 1
        assert stats["hits"] >= 7

    def test_disable_via_constructor(self):
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, plans=False)
        prog.run()
        assert prog.last_interpreter.config.plans is False
        assert len(prog.last_interpreter.plan_cache) == 0

    def test_disable_via_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_PLANS", "1")
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, plans=True)
        prog.run()
        assert prog.last_interpreter.config.plans is False

    def test_node_identity_guard(self):
        """A recycled id() can never resurrect a stale plan."""
        cache = LRU(capacity=4)
        node_a = object()
        plan_a = cache.get_or_build("fuse", node_a, (), lambda: "plan-a")
        assert plan_a == "plan-a"
        # same key coordinates but a different node object -> rebuild
        class Fake:
            pass

        fake = Fake()
        cache._entries[("fuse", id(fake), ())] = (object(), "stale")
        rebuilt = cache.get_or_build("fuse", fake, (), lambda: "fresh")
        assert rebuilt == "fresh"

    def test_lru_eviction(self):
        cache = LRU(capacity=2)
        nodes = [object() for _ in range(3)]
        for k, node in enumerate(nodes):
            cache.get_or_build("fuse", node, (), lambda k=k: f"plan-{k}")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # oldest entry evicted; newest two still hit
        cache.get_or_build("fuse", nodes[2], (), lambda: "rebuilt")
        assert cache.stats()["hits"] == 1

    @pytest.mark.usefixtures("default_engines")
    def test_only_kernels_and_frontier_analyses_are_cached(self):
        """Nothing but fused kernels ("fuse"; "sched" for scheduled solve
        levels) and frontier analyses is compiled."""
        walls = np.zeros((10, 10), dtype=np.int64)
        walls[3, 2:7] = 1
        dynamic = (W.DYNAMIC_OBSTACLE_UC, {"R": 10, "WALL": BIG}, {"walls": walls}, {})
        examples = [((EXAMPLES / f).read_text(), d, None, {}) for f, d in EXAMPLE_CASES]
        kinds = set()
        for src, defines, inputs, kw in [*WORKLOADS.values(), dynamic, *examples]:
            prog = UCProgram(src, defines=defines, compile_store=None, **kw)
            prog.run(dict(inputs or {}))
            stats = prog.last_interpreter.plan_cache.stats()
            kinds |= {key[5:] for key in stats if key.startswith("size.")}
        assert kinds == {"fuse", "sched", "frontier"}


class TestRecipeGeometry:
    """Grids chosen to stress the np.ix_ recipe construction: transposed
    subscripts, constant axes, negative/overflow offsets (oob replay)."""

    def test_transposed_gather(self):
        src = """
        index_set I:i = {0..5}, J:j = {0..6}, K:k = {0..7};
        int a[8][7], out[6][7][8];
        main {
            seq (K) st (k < 4) par (I, J) out[i][j][k] = a[k][j] + i;
        }
        """
        assert_identical(src)

    def test_offset_gather_with_oob_guard(self):
        src = """
        index_set I:i = {0..9}, K:k = {0..2};
        int a[10], b[10];
        main {
            par (I) b[i] = i;
            seq (K) par (I) st (i > 0) a[i] = b[i-1] + a[i] + 1;
        }
        """
        assert_identical(src)

    def test_constant_subscript(self):
        assert_identical(
            """
            index_set I:i = {0..7}, K:k = {0..3};
            int m[4][8], v[8];
            main {
                par (I, K) m[k][i] = i * 4 + k;
                seq (K) par (I) v[i] = v[i] + m[0][i] + m[k][i];
            }
            """
        )

"""Common-subexpression detection tests (§4's code optimization)."""

import numpy as np
import pytest

from repro.interp.program import UCProgram


def both(src, inputs=None, **kw):
    on = UCProgram(src, cse=True, **kw).run(dict(inputs or {}))
    off = UCProgram(src, cse=False, **kw).run(dict(inputs or {}))
    return on, off


RELAX = """
index_set I:i = {0..7}, J:j = I, K:k = I;
int d[8][8];
main {
    seq (K)
      par (I, J)
        st (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
}
"""


class TestEquivalence:
    def test_relaxation_same_results_cheaper(self):
        from repro.algorithms import floyd_warshall, random_distance_matrix

        dist = random_distance_matrix(8, seed=2)
        on, off = both(RELAX, {"d": dist})
        ref = floyd_warshall(dist)
        assert np.array_equal(on["d"], ref)
        assert np.array_equal(off["d"], ref)
        # pred and body share d[i][k] + d[k][j]: two spreads + adds saved
        assert on.elapsed_us < off.elapsed_us
        assert on.counts["scan_step"] < off.counts["scan_step"]

    def test_repeated_subexpression_in_one_statement(self):
        src = (
            "index_set I:i = {0..15};\nint a[16], b[16];\n"
            "main { par (I) a[i] = (b[i] * 3) + (b[i] * 3); }"
        )
        b = np.arange(16)
        on, off = both(src, {"b": b})
        assert np.array_equal(on["a"], b * 6)
        assert np.array_equal(off["a"], b * 6)
        assert on.counts["alu"] < off.counts["alu"]

    def test_obstacle_relaxation_matches(self):
        from repro.algorithms.grid_path import (
            BIG,
            grid_reference_distances,
            obstacle_mask,
        )
        from repro.bench.workloads import OBSTACLE_UC

        on, off = both(OBSTACLE_UC, defines={"R": 16, "WALL": BIG})
        ref = grid_reference_distances(16)
        free = ~obstacle_mask(16)
        assert np.array_equal(np.asarray(on["a"])[free], ref[free])
        assert np.array_equal(np.asarray(off["a"])[free], ref[free])
        assert on.elapsed_us < 0.75 * off.elapsed_us


class TestCorrectnessGuards:
    def test_rand_never_cached(self):
        """Impure expressions must evaluate each time they appear."""
        src = (
            "index_set I:i = {0..63};\nint a[64], b[64];\n"
            "main { par (I) { a[i] = rand() % 1000; b[i] = rand() % 1000; } }"
        )
        on = UCProgram(src, cse=True).run()
        assert not np.array_equal(on["a"], on["b"])

    def test_writes_invalidate_within_a_body(self):
        """The second statement must see the first statement's writes."""
        src = (
            "index_set I:i = {0..7};\nint a[8], b[8], c[8];\n"
            "main { par (I) { b[i] = a[i] + 1; a[i] = 9; c[i] = a[i] + 1; } }"
        )
        on, off = both(src)
        assert on["b"].tolist() == [1] * 8
        assert on["c"].tolist() == [10] * 8
        assert np.array_equal(on["c"], off["c"])

    def test_local_shadowing_invalidates(self):
        """A parallel local shadowing a global must not reuse stale values."""
        src = (
            "index_set I:i = {0..3};\nint x, a[4], b[4];\n"
            "main { x = 5; par (I) { a[i] = x + 1; int x; x = i; "
            "b[i] = x + 1; } }"
        )
        on, off = both(src)
        assert on["a"].tolist() == [6, 6, 6, 6]
        assert on["b"].tolist() == [1, 2, 3, 4]
        assert np.array_equal(on["b"], off["b"])

    def test_seq_rebinding_invalidates(self):
        """Cached expressions naming the seq element must refresh."""
        src = (
            "index_set I:i = {0..3}, K:k = {0..2};\nint m[3][4];\n"
            "main { par (I) seq (K) m[k][i] = k * 10 + i; }"
        )
        on, off = both(src)
        assert np.array_equal(on["m"], off["m"])
        assert on["m"][2][3] == 23

    def test_function_params_not_leaked(self):
        src = (
            "int plus1(int x) { return x + 1; }\n"
            "index_set I:i = {0..3};\nint a[4], b[4];\n"
            "main { par (I) { a[i] = plus1(i); b[i] = plus1(i * 10); } }"
        )
        on, off = both(src)
        assert on["a"].tolist() == [1, 2, 3, 4]
        assert on["b"].tolist() == [1, 11, 21, 31]
        assert np.array_equal(on["b"], off["b"])

    def test_masked_reuse_is_subset_safe(self):
        """A value computed under a narrow mask must not serve a wider one."""
        src = (
            "index_set I:i = {0..7};\nint a[8], b[8];\n"
            "main { par (I) st (i > 3) b[i] = a[i - 2]; "
            "others b[i] = 7; }"
        )
        a = np.arange(10, 18)
        on, off = both(src, {"a": a})
        assert np.array_equal(on["b"], off["b"])
        assert on["b"].tolist() == [7, 7, 7, 7, 12, 13, 14, 15]

    def test_star_par_sweeps_do_not_leak(self):
        """Each *par sweep re-evaluates its predicate against fresh state."""
        src = (
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { par (I) a[i] = i; *par (I) st (a[i] > 0) a[i] = a[i] - 1; }"
        )
        on, off = both(src)
        assert on["a"].tolist() == [0] * 8
        assert np.array_equal(on["a"], off["a"])


class TestBroadEquivalence:
    """Every headline workload must be CSE-invariant."""

    def test_paper_workloads(self):
        from repro.algorithms import (
            floyd_warshall,
            random_distance_matrix,
            wavefront_matrix,
        )
        from repro.bench.workloads import (
            APSP_N3_UC,
            PREFIX_STARPAR_UC,
            RANKSORT_UC,
            WAVEFRONT_UC,
            log2_ceil,
        )

        dist = random_distance_matrix(8, seed=4)
        on, off = both(
            APSP_N3_UC, {"d": dist}, defines={"N": 8, "LOGN": log2_ceil(8)}
        )
        assert np.array_equal(on["d"], off["d"])
        assert np.array_equal(on["d"], floyd_warshall(dist))

        on, off = both(WAVEFRONT_UC, defines={"N": 8})
        assert np.array_equal(on["a"], wavefront_matrix(8))
        assert np.array_equal(on["a"], off["a"])

        on, off = both(PREFIX_STARPAR_UC, defines={"N": 32})
        assert np.array_equal(on["a"], np.cumsum(np.arange(32)))
        assert np.array_equal(on["a"], off["a"])

        data = np.random.default_rng(1).permutation(16)
        on, off = both(RANKSORT_UC, {"a": data}, defines={"N": 16})
        assert on["a"].tolist() == sorted(data.tolist())
        assert np.array_equal(on["a"], off["a"])


class TestTargetedInvalidation:
    """Writes only evict cache entries that *read* the written name — a
    cached subexpression survives writes to unrelated arrays."""

    SRC = (
        "index_set I:i = {0..15};\nint a[16], b[16], c[16], d[16];\n"
        "main { par (I) { b[i] = (a[i] * 3) + 1; c[i] = 7; "
        "d[i] = (a[i] * 3) + 2; } }"
    )
    #: same shape, but the middle write hits the array the subexpression
    #: reads, so the cache entry must die and a[i] * 3 recomputes
    SRC_CLOBBER = (
        "index_set I:i = {0..15};\nint a[16], b[16], c[16], d[16];\n"
        "main { par (I) { b[i] = (a[i] * 3) + 1; a[i] = a[i]; "
        "d[i] = (a[i] * 3) + 2; } }"
    )

    def test_survives_unrelated_write(self):
        a = np.arange(16)
        on, off = both(self.SRC, {"a": a})
        assert np.array_equal(on["d"], a * 3 + 2)
        assert np.array_equal(on["d"], off["d"])
        # a[i] * 3 is computed once under CSE: one multiply saved
        assert on.counts["alu"] < off.counts["alu"]

    def test_dies_on_related_write(self):
        a = np.arange(16)
        keep = UCProgram(self.SRC, cse=True).run({"a": a})
        clobber = UCProgram(self.SRC_CLOBBER, cse=True).run({"a": a})
        assert np.array_equal(keep["d"], clobber["d"])
        # the clobbering variant must recompute the multiply
        assert keep.counts["alu"] < clobber.counts["alu"]


@pytest.mark.usefixtures("default_engines")
class TestPerProgramKeys:
    """The oracle's CSE key texts are a fact about the program text: they
    live on its frontend entry, so warm runs never re-derive them."""

    @pytest.mark.parametrize("plans", [True, False])
    def test_warm_runs_build_no_key_text(self, monkeypatch, plans):
        from repro.algorithms.grid_path import BIG
        from repro.bench.workloads import OBSTACLE_UC
        from repro.lang import ast

        kw = dict(defines={"R": 16, "WALL": BIG}, plans=plans)
        prog = UCProgram(OBSTACLE_UC, **kw)
        first = prog.run()
        calls = []
        real = ast.expr_to_text
        monkeypatch.setattr(
            ast, "expr_to_text", lambda *a: calls.append(a) or real(*a)
        )
        for _ in range(3):
            assert prog.run().fingerprint == first.fingerprint
        assert calls == []
        # a program with a frontend entry of its own derives them afresh
        cold = UCProgram(OBSTACLE_UC, compile_store=None, **kw).run()
        assert calls and cold.fingerprint == first.fingerprint

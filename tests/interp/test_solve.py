"""solve / *solve construct tests (paper §3.6)."""

import numpy as np
import pytest

from repro.algorithms import floyd_warshall, random_distance_matrix, wavefront_matrix
from repro.lang.errors import UCRuntimeError
from tests.conftest import run_uc

WAVEFRONT = (
    "int N = 8;\nindex_set I:i = {0..N-1}, J:j = I;\nint a[8][8];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-1][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestSolve:
    @pytest.mark.parametrize("strategy", ["auto", "scheduled", "guarded"])
    def test_wavefront_all_strategies(self, strategy):
        r = run_uc(WAVEFRONT, solve_strategy=strategy)
        assert np.array_equal(r["a"], wavefront_matrix(8))

    def test_strategies_agree_exactly(self):
        a = run_uc(WAVEFRONT, solve_strategy="scheduled")["a"]
        b = run_uc(WAVEFRONT, solve_strategy="guarded")["a"]
        assert np.array_equal(a, b)

    def test_scheduled_is_cheaper_than_guarded(self):
        s = run_uc(WAVEFRONT, solve_strategy="scheduled")
        g = run_uc(WAVEFRONT, solve_strategy="guarded")
        assert s.elapsed_us < g.elapsed_us

    def test_one_dimensional_recurrence(self):
        src = (
            "index_set I:i = {0..9};\nint f[10];\n"
            "main { solve (I) f[i] = (i < 2) ? 1 : f[i-1] + f[i-2]; }"
        )
        r = run_uc(src)
        assert r["f"].tolist() == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_constant_body(self):
        r = run_uc(
            "index_set I:i = {0..3};\nint a[4];\nmain { solve (I) a[i] = 5; }"
        )
        assert r["a"].tolist() == [5, 5, 5, 5]

    def test_multiple_proper_assignments(self):
        src = (
            "index_set I:i = {0..4};\nint a[5], b[5];\n"
            "main { solve (I) { a[i] = (i == 0) ? 1 : b[i-1] + 1; "
            "b[i] = a[i] * 2; } }"
        )
        r = run_uc(src, solve_strategy="guarded")
        assert r["a"].tolist() == [1, 3, 7, 15, 31]
        assert r["b"].tolist() == [2, 6, 14, 30, 62]

    def test_circular_dependency_detected(self):
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { solve (I) a[i] = a[(i + 1) % 4] + 1; }"
        )
        with pytest.raises(UCRuntimeError):
            run_uc(src, solve_strategy="guarded")

    def test_scheduled_strategy_rejects_unschedulable(self):
        src = (
            "index_set I:i = {0..3};\nint a[4], p[4];\n"
            "main { solve (I) a[i] = (i == 0) ? 1 : a[p[i]] + 1; }"
        )
        with pytest.raises(UCRuntimeError):
            run_uc(src, {"p": np.array([0, 0, 1, 2])}, solve_strategy="scheduled")

    def test_auto_falls_back_to_guarded(self):
        """Data-dependent references are fine under 'auto' if acyclic."""
        src = (
            "index_set I:i = {0..3};\nint a[4], p[4];\n"
            "main { solve (I) a[i] = (i == 0) ? 1 : a[p[i]] + 1; }"
        )
        r = run_uc(src, {"p": np.array([0, 0, 1, 2])})
        assert r["a"].tolist() == [1, 2, 3, 4]

    def test_undefined_read_differs_by_strategy(self):
        """Left open (docs/LANGUAGE.md, solve): a read of a target element
        that no arm defines sees the value from before the solve when
        scheduled, and never becomes ready under guarded."""
        src = (
            "index_set I:i = {1..7};\nint a[8];\n"
            "main { a[0] = 5; solve (I) a[i] = a[i-1] + 1; }"
        )
        assert run_uc(src)["a"].tolist() == list(range(5, 13))
        with pytest.raises(UCRuntimeError, match="cannot make progress"):
            run_uc(src, solve_strategy="guarded")


#: name -> (source, inputs, fused sweeps): a scheduled solve runs each
#: non-empty level as one masked sweep of its body's fused kernel
SCHEDULED = {
    "two_unpredicated": (
        "index_set I:i = {0..7}, J:j = I;\nint a[8][8], b[8][8];\n"
        "main { solve (I, J) {\n"
        "  a[i][j] = (i == 0 || j == 0) ? 1 : a[i-1][j] + b[i][j-1];\n"
        "  b[i][j] = (i == 0) ? 2 : b[i-1][j] + a[i-1][j];\n} }",
        None,
        15,
    ),
    "one_predicated": (
        "index_set I:i = {0..7}, J:j = I;\nint a[8][8];\n"
        "main { solve (I, J) st (a[i][j] % 3 != 0)\n"
        "  a[i][j] = (i == 0 || j == 0) ? 1 : a[i-1][j] + a[i][j-1]; }",
        {"a": np.arange(64).reshape(8, 8)},
        15,
    ),
    # the level loop runs outside an armed CSE cache: a kernel simulating
    # one would charge the repeated factor once, the oracle charges it twice
    "repeated_subexpression": (
        "index_set I:i = {0..15};\nint a[16];\n"
        "main { solve (I) a[i] = (i == 0) ? 1 : (a[i-1] + 3) * (a[i-1] + 3) % 101; }",
        None,
        16,
    ),
    # a fused sweep runs every predicate before any body, so two predicated
    # assignments keep the oracle's one-assignment-at-a-time order
    "two_predicated": (
        "index_set I:i = {0..7};\nint a[8], b[8];\n"
        "main { solve (I) st (i > 0) a[i] = a[i-1] + 1;\n"
        "                 st (i > 1) b[i] = b[i-1] + a[i-1]; }",
        None,
        0,
    ),
}


def _same_run(got, want):
    assert got.fingerprint == want.fingerprint
    assert all(np.array_equal(got[name], want[name]) for name in want.keys())


@pytest.mark.usefixtures("default_engines")
class TestFusedSchedule:
    """Values, Clock and ``fusion.fused_sweeps`` of the fused level loop
    against the oracle's (``plans=False``) per-assignment level loop."""

    @pytest.mark.parametrize("frontier", [True, False])
    @pytest.mark.parametrize("name", sorted(SCHEDULED))
    def test_levels_match_the_oracle(self, name, frontier):
        src, inputs, sweeps = SCHEDULED[name]
        fused, oracle = (
            run_uc(src, inputs, plans=plans, frontier=frontier, solve_strategy="scheduled")
            for plans in (True, False)
        )  # fmt: skip
        _same_run(fused, oracle)
        assert fused.fusion.get("fused_sweeps", 0) == sweeps and not oracle.fusion

    def test_run_batch_lanes_match_the_oracle(self):
        from repro.interp.program import UCProgram

        src, _inputs, sweeps = SCHEDULED["one_predicated"]
        inputs = [{"a": np.arange(64).reshape(8, 8) + k} for k in range(3)]
        for lane, inp in zip(UCProgram(src).run_batch(inputs), inputs):
            _same_run(lane, run_uc(src, inp, plans=False))
            assert lane.fusion["fused_sweeps"] == sweeps


class TestStarSolve:
    def test_apsp_fixed_point(self):
        src = (
            "int N = 8;\nindex_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            "int dist[8][8];\n"
            "main { *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]); }"
        )
        d = random_distance_matrix(8, seed=2)
        r = run_uc(src, {"dist": d})
        assert np.array_equal(r["dist"], floyd_warshall(d))

    def test_already_at_fixed_point_stops_fast(self):
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *solve (I) a[i] = a[i]; }"
        )
        r = run_uc(src)
        assert r.counts["global_or"] <= 2

    def test_star_solve_not_single_assignment_restricted(self):
        """§3.6: *solve statements need not be single-assignment."""
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *solve (I) { a[i] = a[i] + 0; a[i] = (a[i] > 3) ? 3 : a[i]; } }"
        )
        r = run_uc(src, {"a": np.array([1, 9, 2, 8])})
        assert r["a"].tolist() == [1, 3, 2, 3]

"""Communication-tier dispatcher tests.

The tier dispatcher (``repro.interp.commtiers``) must be an invisible
optimization within each mode: both engines pick the same tiers and
produce bit-identical clocks, the NEWS window fast path reproduces the
general gather exactly, and ``comm_tiers=False`` — a model choice, the
machine without the dispatcher — restores router-only charging for the
ablation benchmark.  The static analysis (``repro analyze``'s rows,
``repro.analysis.commlints.reference_rows``) must agree with the runtime
dispatcher on every shipped example.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.analysis.commlints import reference_rows
from repro.analysis.staticref import default_costs
from repro.interp.program import UCProgram
from tests.interp.test_plans import assert_identical, run_both

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "uc"

STENCIL = """
index_set I:i = {1..N-2}, J:j = I, T:t = {0..REPS-1};
int a[N][N], b[N][N];
main {
    seq (T)
        par (I, J) b[i][j] = a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1];
}
"""

PERMUTED = """
index_set I:i = {0..N-1}, J:j = I;
int a[N][N], b[N][N];
map (I, J) { permute (I, J) b[j][i] :- a[i][j]; }
main {
    par (I, J) a[i][j] = a[i][j] + b[i][j];
}
"""

#: ``row[j]`` is constant along ``i``: one spread replaces a router get
BROADCAST = """
index_set I:i = {0..N-1}, J:j = I, T:t = {0..REPS-1};
int c[N][N], row[N];
main {
    seq (T)
        par (I, J) c[i][j] = c[i][j] + row[j];
}
"""


def tier_counts(prog: UCProgram):
    return dict(prog.last_interpreter.machine.clock.tier_counts)


class TestNewsWindowFastPath:
    def test_interior_stencil_dispatches_news(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 2})
        r = prog.run()
        counts = tier_counts(prog)
        assert counts.get("news", 0) > 0
        assert r.counts.get("router_get", 0) == 0
        # the window copy must equal the clipped-gather reference result
        a = np.arange(64, dtype=np.int64).reshape(8, 8)
        prog2 = UCProgram(STENCIL, defines={"N": 8, "REPS": 1})
        got = prog2.run({"a": a})["b"]
        expect = np.zeros((8, 8), dtype=np.int64)
        expect[1:7, 1:7] = (
            a[0:6, 1:7] + a[2:8, 1:7] + a[1:7, 0:6] + a[1:7, 2:8]
        )
        assert np.array_equal(got, expect)

    def test_stencil_identical_across_engines(self):
        assert_identical(STENCIL, {"N": 10, "REPS": 3})

    def test_tier_counts_identical_across_engines(self):
        progs = []
        for plans in (True, False):
            prog = UCProgram(STENCIL, defines={"N": 9, "REPS": 2}, plans=plans)
            prog.run()
            progs.append(prog)
        assert tier_counts(progs[0]) == tier_counts(progs[1])

    def test_full_grid_shift_still_news(self):
        src = (
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "main { par (I) a[i] = b[i + 1]; }"
        )
        prog = UCProgram(src)
        r = prog.run({"b": np.arange(8)})
        assert tier_counts(prog).get("news", 0) >= 1
        assert list(r["a"][:7]) == list(range(1, 8))

    def test_long_shift_demoted_to_router(self):
        # 26 hops at news=100 cost more than one router_get (2500): the
        # dispatcher must fall back to the router, as the compilers did
        src = (
            "index_set I:i = {0..3};\nint a[32], b[32];\n"
            "main { par (I) a[i] = b[i + 26]; }"
        )
        prog = UCProgram(src)
        r = prog.run({"b": np.arange(32)})
        counts = tier_counts(prog)
        assert counts.get("router", 0) >= 1
        assert counts.get("news", 0) == 0
        assert r.counts.get("news", 0) == 0
        assert list(r["a"][:4]) == [26, 27, 28, 29]


class TestPermuteTier:
    def test_transposed_read_under_permute_map_uses_permute_cycle(self):
        prog = UCProgram(PERMUTED, defines={"N": 8})
        b = np.arange(64, dtype=np.int64).reshape(8, 8)
        r = prog.run({"b": b})
        counts = tier_counts(prog)
        assert counts.get("permute", 0) >= 1
        assert r.counts.get("router_permute", 0) >= 1
        assert r.counts.get("router_get", 0) == 0
        assert np.array_equal(r["a"], b)

    def test_permute_cheaper_than_router_but_dearer_than_news(self):
        prog = UCProgram(PERMUTED, defines={"N": 8})
        prog.run()
        costs = prog.last_interpreter.machine.clock.costs
        assert costs.news < costs.router_permute < costs.router_get

    def test_unmapped_transpose_still_router(self):
        src = (
            "index_set I:i = {0..7}, J:j = I;\nint a[8][8], b[8][8];\n"
            "main { par (I, J) a[i][j] = b[j][i]; }"
        )
        prog = UCProgram(src)
        r = prog.run()
        assert tier_counts(prog).get("permute", 0) == 0
        assert r.counts.get("router_get", 0) >= 1

    def test_permuted_identical_across_engines(self):
        assert_identical(PERMUTED, {"N": 8})


class TestEscapeHatch:
    def test_kwarg_disables_tiers(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 2}, comm_tiers=False)
        r = prog.run()
        counts = tier_counts(prog)
        assert set(counts) <= {"local", "router"}
        assert r.counts.get("news", 0) == 0
        assert r.counts.get("router_get", 0) > 0

    def test_results_identical_with_and_without_tiers(self):
        a = np.arange(100, dtype=np.int64).reshape(10, 10)
        on = UCProgram(STENCIL, defines={"N": 10, "REPS": 3}).run({"a": a})
        off = UCProgram(
            STENCIL, defines={"N": 10, "REPS": 3}, comm_tiers=False
        ).run({"a": a})
        assert np.array_equal(on["b"], off["b"])
        # ...but the simulated clock is strictly cheaper with tiers
        assert on.elapsed_us < off.elapsed_us

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    @pytest.mark.parametrize(
        "src, defines, tier",
        [
            (STENCIL, {"N": 16, "REPS": 3}, "news"),
            (BROADCAST, {"N": 16, "REPS": 3}, "spread"),
            (PERMUTED, {"N": 12}, "permute"),
        ],
        ids=["stencil", "broadcast", "transpose"],
    )
    def test_each_tier_beats_router_only_on_the_clock(self, src, defines, tier, plans):
        on_prog = UCProgram(src, defines=defines, plans=plans)
        off_prog = UCProgram(src, defines=defines, plans=plans, comm_tiers=False)
        on, off = on_prog.run(), off_prog.run()
        for var in on.keys():
            assert np.array_equal(on[var], off[var])
        assert tier_counts(on_prog).get(tier, 0) > 0
        assert set(tier_counts(off_prog)) <= {"local", "router"}
        assert on.elapsed_us < off.elapsed_us

    def test_engines_identical_under_ablation(self):
        assert_identical(STENCIL, {"N": 10, "REPS": 3}, comm_tiers=False)
        assert_identical(PERMUTED, {"N": 8}, comm_tiers=False)


class TestTierObservability:
    def test_tier_counts_excluded_from_fingerprint(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 2})
        prog.run()
        clock = prog.last_interpreter.machine.clock
        fp = clock.fingerprint()
        clock.tier_counts.clear()
        assert clock.fingerprint() == fp

    def test_tier_counts_cleared_on_reset(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 2})
        prog.run()
        clock = prog.last_interpreter.machine.clock
        assert clock.tier_counts
        clock.reset()
        assert clock.tier_counts == {}

    def test_tier_log_records_sites(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 2}, sanitize=True)
        prog.run()
        log = prog.last_interpreter.tier_log
        assert log is not None
        assert any("news" in tiers for tiers in log.values())

    def test_tier_log_off_by_default(self):
        prog = UCProgram(STENCIL, defines={"N": 8, "REPS": 1})
        prog.run()
        assert prog.last_interpreter.tier_log is None


class TestStaticRuntimeParity:
    """The static analysis's tier matches the runtime dispatcher on
    every reference of every shipped example (CSE and the processor
    optimization are disabled so every reference actually dispatches)."""

    @pytest.mark.parametrize(
        "name,defines",
        [("apsp.uc", {"N": 8}), ("histogram.uc", {"N": 32}), ("shifted.uc", None)],
    )
    def test_examples_parity(self, name, defines):
        src = (EXAMPLES / name).read_text()
        prog = UCProgram(
            src,
            defines=defines,
            sanitize=True,
            cse=False,
            processor_opt=False,
        )
        prog.run()
        runtime = {
            key: set(tiers)
            for key, tiers in prog.last_interpreter.tier_log.items()
        }
        static = {}
        frontend = prog.frontend
        for node, tier, _note, _hint in reference_rows(
            frontend.model(), frontend.verdicts(), default_costs()
        ):
            static.setdefault((node.line, node.base), set()).add(tier)
        assert runtime == static, (
            f"{name}: static verdicts {static} != runtime tiers {runtime}"
        )

"""Kernel-fusion backend tests (``src/repro/interp/fuse.py``).

The fusion pass lowers a construct's charge-and-compute statement
sequence into whole-array register programs whose Clock cost comes from
a precomputed static charge table.  Its contract is strict: results AND
Clock fingerprints equal the tree-walking oracle's (``plans=False``)
under both frontier modes; statements the pass cannot prove static run
on the oracle as unfused segments inside the fused sweep; and an
armed FaultPlan or the sanitizer stands fusion down entirely (fault
triggers count individual charges, which a table replay would reorder
mid-sweep; the sanitizer's tier log walks every reference).
"""

import numpy as np
import pytest

from repro.interp.program import UCProgram
from tests.conftest import run_uc

#: APSP over two disconnected communities (same fixture as the frontier
#: tests): the clique quiesces after sweep one, the 11-vertex chain keeps
#: relaxing — so both full (fused) and compressed (frontier) sweeps run.
APSP = """
index_set I:i = {0..63}, J:j = I, K:k = I;
int d[64][64];
main {
    *solve (I, J)
        d[i][j] = $<(K; d[i][k] + d[k][j]);
}
"""


def _apsp_input():
    d = np.full((64, 64), 10**9, dtype=np.int64)
    d[11:, 11:] = 3
    np.fill_diagonal(d, 0)
    for v in range(10):
        d[v, v + 1] = d[v + 1, v] = 1
    return {"d": d}


#: wavefront recurrence as *solve: ternary border guard, NEWS gathers
WAVEFRONT_STAR = """
index_set I:i = {0..15}, J:j = I;
int a[16][16];
main {
    *solve (I, J)
        a[i][j] = (i == 0 || j == 0) ? 1
                : a[i-1][j] + a[i-1][j-1] + a[i][j-1];
}
"""

#: predicated arms + others: exercises arm masks and the others segment
PREDICATED = """
index_set I:i = {0..31};
int a[32], b[32];
main {
    par (I)
        st (a[i] % 2 == 0 && a[i] < 60) { a[i] = a[i] + b[i]; }
        others { b[i] = b[i] - 1; }
}
"""

#: a call the inliner refuses (its callee declares a local) splits the
#: body into fused / unfused / fused segments (the call runs as an oracle
#: segment); the call statement shares no cacheable text with the fused
#: ones, so the one-cache-world overlap check lets the construct segment
#: instead of bailing
SPLIT_SEGMENTS = """
index_set I:i = {0..7};
int a[8], b[8], c[8];
int inc(int x) { int y; y = x + 1; return y; }
main {
    par (I) {
        a[i] = i * 2;
        c[i] = inc(i);
        b[i] = a[i] + 1;
    }
}
"""

#: declarations anywhere in a body make the whole construct unfusable
UNFUSABLE_DECL = """
index_set I:i = {0..7};
int a[8];
main {
    par (I) {
        int t;
        t = i * 3;
        a[i] = t;
    }
}
"""


class TestBitEquality:
    @pytest.mark.parametrize(
        "src,inputs",
        [
            (APSP, _apsp_input()),
            (WAVEFRONT_STAR, None),
            (
                PREDICATED,
                {
                    "a": np.arange(0, 64, 2, dtype=np.int64),
                    "b": np.arange(32, dtype=np.int64),
                },
            ),
            (SPLIT_SEGMENTS, None),
            (UNFUSABLE_DECL, None),
        ],
        ids=["apsp", "wavefront", "predicated", "split", "decl"],
    )
    def test_engine_frontier_fusion_product(self, src, inputs):
        ref = None
        for frontier in (True, False):
            oracle, fused = (
                run_uc(src, {k: v.copy() for k, v in (inputs or {}).items()},
                       plans=plans, frontier=frontier)
                for plans in (False, True)
            )  # fmt: skip
            ref = oracle if ref is None else ref
            for var in ref.keys():
                for r in (oracle, fused):
                    assert np.array_equal(r[var], ref[var]), (var, frontier)
            # fingerprints may differ across frontier modes (compressed
            # sweeps charge fewer VPs) but never across engines
            assert fused.fingerprint == oracle.fingerprint, frontier

    def test_fusion_only_runs_on_plan_engine(self):
        r = run_uc(APSP, _apsp_input(), plans=False)
        assert not r.fusion, "tree-walking oracle must never fuse"


@pytest.mark.usefixtures("default_engines")
class TestCounters:
    def test_apsp_fuses_and_replays_charge_tables(self):
        r = run_uc(APSP, _apsp_input(), frontier=False)
        assert r.fusion["constructs"] == 1
        assert r.fusion["fused_segments"] == 1
        assert r.fusion.get("unfused_segments", 0) == 0
        assert r.fusion["fused_sweeps"] >= 2
        assert r.fusion["charge_table_hits"] == r.fusion["fused_sweeps"]

    def test_wavefront_star_solve_fuses(self):
        r = run_uc(WAVEFRONT_STAR)
        assert r.fusion["fused_sweeps"] >= 1
        assert r.fusion.get("unfusable", 0) == 0

    def test_user_call_splits_segments(self):
        r = run_uc(SPLIT_SEGMENTS)
        assert r.fusion["fused_segments"] == 2
        assert r.fusion["unfused_segments"] == 1
        assert r["a"].tolist() == [i * 2 for i in range(8)]
        assert r["c"].tolist() == [i + 1 for i in range(8)]
        assert r["b"].tolist() == [i * 2 + 1 for i in range(8)]

    def test_cache_seam_overlap_bails(self):
        # the unfused call statement reads a[i], which fused statements
        # also cache — one cache world per construct, so the pass must
        # bail rather than risk a cross-seam CSE divergence
        src = (
            "index_set I:i = {0..7};\nint a[8], b[8];\n"
            "int inc(int x) { int y; y = x + 1; return y; }\n"
            "main { par (I) { a[i] = i * 2; b[i] = inc(a[i]); "
            "a[i] = a[i] + b[i]; } }"
        )
        r = run_uc(src)
        assert r.fusion.get("unfusable", 0) >= 1
        oracle = run_uc(src, plans=False)
        assert r.fingerprint == oracle.fingerprint
        assert np.array_equal(r["a"], oracle["a"])

    def test_declaration_bails_whole_construct(self):
        r = run_uc(UNFUSABLE_DECL)
        assert r.fusion.get("unfusable", 0) >= 1
        assert r.fusion.get("fused_segments", 0) == 0
        assert r["a"].tolist() == [i * 3 for i in range(8)]

    def test_disabled_fusion_leaves_no_counters(self):
        # the sanitizer's tier log stands fusion down
        r = run_uc(APSP, _apsp_input(), sanitize=True)
        assert not r.fusion
        assert r.fingerprint == run_uc(APSP, _apsp_input(), frontier=False).fingerprint


@pytest.mark.usefixtures("default_engines")
class TestPredicateConjunction:
    """An arm whose predicate is a top-level ``L && R`` runs under a mask
    inside the one ``R``'s cache entries were stored under, so its body's
    reuse of them is a proven hit (§4, Figure 11); every other
    cross-context reuse stays data-dependent and demotes."""

    HEAD = "index_set I:i = {0..15};\nint a[16], b[16];\n"

    def _vs_oracle(self, src, inputs=None, **kw):
        fused, oracle = (
            run_uc(src, {k: v.copy() for k, v in (inputs or {}).items()}, plans=p, **kw)
            for p in (True, False)
        )
        for var in oracle.keys():
            assert np.array_equal(fused[var], oracle[var]), var
        assert fused.fingerprint == oracle.fingerprint
        return fused

    @pytest.mark.parametrize("r", [16, 32])
    @pytest.mark.parametrize("dynamic", [False, True], ids=["obstacle", "dynamic"])
    def test_figure_11_fuses(self, r, dynamic):
        from repro.bench import workloads as uc

        src = uc.DYNAMIC_OBSTACLE_UC if dynamic else uc.OBSTACLE_UC
        inputs = None
        if dynamic:
            walls = np.zeros((r, r), dtype=np.int64)
            walls[r // 2, 1:] = 1
            a = np.full((r, r), 10**6, dtype=np.int64)
            a[0, 0] = 0
            inputs = {"walls": walls, "a": a}
        defines = {"R": r, "WALL": 10**6}
        fused = self._vs_oracle(src, inputs, defines=defines)
        assert "unfusable" not in fused.fusion
        assert fused.fusion["unfused_segments"] == 0
        # a plain stencil: its compressed sweeps stay on the lane path
        assert fused.frontier["compressed_sweeps"] > 0
        assert fused.frontier["dense_sweeps"] == 0
        # the body's four guarded neighbour reads are cache hits: without
        # the cache the same kernel charges more
        uncached = self._vs_oracle(src, inputs, defines=defines, cse=False)
        assert uncached.elapsed_us > fused.elapsed_us

    def test_right_conjunct_reuse_fuses(self):
        src = self.HEAD + (
            "main { par (I) st (a[i] > 2 && a[i] * 3 < 30) b[i] = a[i] * 3 + 1; }"
        )
        fused = self._vs_oracle(src, {"a": np.arange(16)})
        assert "unfusable" not in fused.fusion
        assert fused["b"].tolist() == [3 * k + 1 if 2 < k < 10 else 0 for k in range(16)]

    @pytest.mark.parametrize(
        "pred, body",
        [
            # stored under the ternary's branch, looked up outside it
            ("a[i] > 2 && (i > 0 ? a[i-1] * 3 : 0) < 30", "a[i-1] * 3"),
            # ``||``: the right side ran where the left was false, the arm
            # runs where either holds
            ("a[i] > 8 || a[i] * 3 > 9", "a[i] * 3"),
            # the left conjunct's own right side: only the top-level
            # ``&&`` refines the arm's token
            ("(a[i] > 2 && a[i] * 3 < 30) && i < 12", "a[i] * 3"),
        ],
        ids=["ternary-branch", "or", "nested-and"],
    )
    def test_other_cross_context_reuse_stays_demoted(self, pred, body):
        src = self.HEAD + f"main {{ par (I) st ({pred}) b[i] = {body}; }}"
        fused = self._vs_oracle(src, {"a": np.arange(16)})
        assert fused.fusion["unfusable"] == 1


class TestEscapeHatches:
    """Fusion has no switch of its own: the oracle's hatch is its only
    off path, by variable or by keyword."""

    def test_env_flag_matches_kwarg(self, monkeypatch):
        base = run_uc(APSP, _apsp_input(), plans=False)
        monkeypatch.setenv("REPRO_NO_PLANS", "1")
        hatch = run_uc(APSP, _apsp_input())
        assert hatch.fingerprint == base.fingerprint
        assert not hatch.fusion

    def test_kwarg_threads_through_ucprogram(self):
        prog = UCProgram(APSP, plans=False)
        assert not prog.run(_apsp_input()).fusion
        assert prog.last_interpreter.config.fused is False


class TestFaultFallback:
    FAULTS = "drop@scan_step#40"

    def test_armed_fault_plan_disables_fusion(self):
        with_faults = run_uc(APSP, _apsp_input(), faults=self.FAULTS)
        assert not with_faults.fusion, (
            "fusion must fall back whenever a FaultPlan is armed"
        )

    def test_faulted_runs_agree_with_fusion_toggle(self):
        a = run_uc(APSP, _apsp_input(), faults=self.FAULTS)
        b = run_uc(APSP, _apsp_input(), faults=self.FAULTS, plans=False)
        assert np.array_equal(a["d"], b["d"])
        assert a.fingerprint == b.fingerprint
        assert a.fault_log == b.fault_log


@pytest.mark.usefixtures("default_engines")
class TestStatsCLI:
    def test_run_stats_prints_fusion_counters(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "fused.uc"
        f.write_text(
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { par (I) a[i] = i * i; }"
        )
        assert main(["run", str(f), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "fusion.constructs" in out
        assert "fusion.fused_sweeps" in out
        assert "fusion.charge_table_hits" in out

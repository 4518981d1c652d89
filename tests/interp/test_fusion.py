"""Kernel-fusion backend tests (``src/repro/interp/fuse.py``).

The fusion pass lowers a compiled construct plan's charge-and-compute
statement sequence into whole-array register programs whose Clock cost
comes from a precomputed static charge table.  Its contract is strict:
results AND Clock fingerprints are bit-identical across every
engine x frontier x fusion combination; statements the pass cannot prove
static run as unfused plan segments inside the fused sweep; an armed
FaultPlan disables fusion entirely (fault triggers count individual
charges, which a table replay would reorder mid-sweep); and
``REPRO_NO_FUSION=1`` / ``UCProgram(fusion=False)`` restores the
per-closure plan engine exactly.
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

#: a user function call splits the body into fused / unfused / fused
#: segments (calls run as interpreted plan closures, never as kernels);
#: the call statement shares no cacheable text with the fused ones, so
#: the one-cache-world overlap check lets the construct segment instead
#: of bailing
SPLIT_SEGMENTS = """
index_set I:i = {0..7};
int a[8], b[8], c[8];
int inc(int x) { return x + 1; }
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


def _product_runs(src, inputs=None, **kw):
    runs = {}
    for plans in (True, False):
        for frontier in (True, False):
            for fusion in (True, False):
                runs[(plans, frontier, fusion)] = run_uc(
                    src,
                    {k: v.copy() for k, v in (inputs or {}).items()},
                    plans=plans,
                    frontier=frontier,
                    fusion=fusion,
                    **kw,
                )
    return runs


class TestBitEquality:
    @pytest.mark.parametrize(
        "src,inputs,kw",
        [
            (APSP, _apsp_input(), {}),
            (WAVEFRONT_STAR, None, {}),
            (
                PREDICATED,
                {
                    "a": np.arange(0, 64, 2, dtype=np.int64),
                    "b": np.arange(32, dtype=np.int64),
                },
                {},
            ),
            (SPLIT_SEGMENTS, None, {}),
            (UNFUSABLE_DECL, None, {}),
        ],
        ids=["apsp", "wavefront", "predicated", "split", "decl"],
    )
    def test_engine_frontier_fusion_product(self, src, inputs, kw):
        runs = _product_runs(src, inputs, **kw)
        ref = runs[(True, True, False)]
        ref_fp = {}
        for (plans, frontier, fusion), r in runs.items():
            for var in r.keys():
                a, b = r[var], ref[var]
                same = (
                    np.array_equal(a, b)
                    if isinstance(a, np.ndarray)
                    else a == b
                )
                assert same, (
                    f"{var!r} diverged at plans={plans} "
                    f"frontier={frontier} fusion={fusion}"
                )
            # fingerprints may differ across frontier modes (compressed
            # sweeps charge fewer VPs) but never across engine or fusion
            key = frontier
            if key not in ref_fp:
                ref_fp[key] = r.fingerprint
            assert r.fingerprint == ref_fp[key], (
                f"fingerprint diverged at plans={plans} "
                f"frontier={frontier} fusion={fusion}"
            )

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
            "int inc(int x) { return x + 1; }\n"
            "main { par (I) { a[i] = i * 2; b[i] = inc(a[i]); "
            "a[i] = a[i] + b[i]; } }"
        )
        r = run_uc(src)
        assert r.fusion.get("unfusable", 0) >= 1
        off = run_uc(src, fusion=False)
        assert r.fingerprint == off.fingerprint
        assert np.array_equal(r["a"], off["a"])

    def test_declaration_bails_whole_construct(self):
        r = run_uc(UNFUSABLE_DECL)
        assert r.fusion.get("unfusable", 0) >= 1
        assert r.fusion.get("fused_segments", 0) == 0
        assert r["a"].tolist() == [i * 3 for i in range(8)]

    def test_disabled_fusion_leaves_no_counters(self):
        r = run_uc(APSP, _apsp_input(), fusion=False)
        assert not r.fusion


class TestEscapeHatches:
    def test_env_flag_matches_kwarg(self, monkeypatch):
        base = run_uc(APSP, _apsp_input(), fusion=False)
        monkeypatch.setenv("REPRO_NO_FUSION", "1")
        hatch = run_uc(APSP, _apsp_input())
        assert hatch.fingerprint == base.fingerprint
        assert not hatch.fusion

    def test_kwarg_threads_through_ucprogram(self):
        prog = UCProgram(APSP, fusion=False)
        r = prog.run(_apsp_input())
        assert not r.fusion
        assert prog.last_interpreter.config.fusion is False


class TestFaultFallback:
    FAULTS = "drop@scan_step#40"

    def test_armed_fault_plan_disables_fusion(self):
        with_faults = run_uc(APSP, _apsp_input(), faults=self.FAULTS)
        assert not with_faults.fusion, (
            "fusion must fall back whenever a FaultPlan is armed"
        )

    def test_faulted_runs_agree_with_fusion_toggle(self):
        a = run_uc(APSP, _apsp_input(), faults=self.FAULTS)
        b = run_uc(APSP, _apsp_input(), faults=self.FAULTS, fusion=False)
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

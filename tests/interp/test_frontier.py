"""Frontier (active-set) sweep engine tests.

The frontier engine compresses iterated-construct sweeps onto the VPs
that can still change (see ``src/repro/interp/frontier.py``).  These
tests pin its observable contract: bit-identical results and fingerprints
with the escape hatch, a never-higher Clock with the engine on, honest
counters, and fallback on bodies it cannot analyze.
"""

import numpy as np
import pytest

from repro.bench.workloads import APSP_SOLVE_UC
from repro.interp import checkpoint as cp
from repro.interp import frontier
from repro.interp.deadline import JobPreempted
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError
from repro.machine import small_config
from tests.conftest import run_lanes, run_uc

#: APSP over two disconnected communities: {11..63} is pairwise weight 3
#: (already closed under min-plus, so it quiesces after the first sweep)
#: while {0..10} is a chain whose long paths keep relaxing for several
#: more sweeps.  After sweep one only the 11x11 chain block can change,
#: so the active set collapses to ~7% of the domain — exactly the shape
#: the compression estimate accepts.  Smaller grids are correctly left
#: uncompressed (shallow reductions never amortize the sweep overhead),
#: which is why this test pays for a 64x64 run.
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


GUARDED_CHAIN = (
    "index_set I:i = {0..4};\nint a[5], b[5];\n"
    "main { solve (I) { a[i] = (i == 0) ? 1 : b[i-1] + 1; "
    "b[i] = a[i] * 2; } }"
)

WAVEFRONT = (
    "int N = 8;\nindex_set I:i = {0..N-1}, J:j = I;\nint a[8][8];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-1][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestStarFrontier:
    def test_compressed_sweeps_and_counters(self):
        r = run_uc(APSP, _apsp_input())
        assert r.frontier["constructs"] == 1
        assert r.frontier["full_sweeps"] >= 1
        assert r.frontier["compressed_sweeps"] >= 1
        assert r.frontier["active_lanes"] < r.frontier["domain_lanes"]
        assert r.frontier_trace, "compressed sweeps must leave a trace"
        assert all(a <= d for a, d in r.frontier_trace)

    def test_identical_results_and_never_higher_clock(self):
        on = run_uc(APSP, _apsp_input())
        off = run_uc(APSP, _apsp_input(), frontier=False)
        assert np.array_equal(on["d"], off["d"])
        assert on.elapsed_us <= off.elapsed_us
        assert not off.frontier
        # once the clique quiesces only the chain block is swept: the
        # active set falls under half the domain and the simulated Clock
        # to under a third of the full-sweep run's
        assert min(a / d for a, d in on.frontier_trace) < 0.5
        assert off.elapsed_us >= 3 * on.elapsed_us

    def test_disable_flag_restores_full_sweep_fingerprint(self, monkeypatch):
        base = run_uc(APSP, _apsp_input(), frontier=False)
        monkeypatch.setenv("REPRO_NO_FRONTIER", "1")
        hatch = run_uc(APSP, _apsp_input())
        assert hatch.fingerprint == base.fingerprint
        assert not hatch.frontier

    def test_both_engines_agree_under_frontier(self):
        plans = run_uc(APSP, _apsp_input(), plans=True)
        tree = run_uc(APSP, _apsp_input(), plans=False)
        assert np.array_equal(plans["d"], tree["d"])
        assert plans.fingerprint == tree.fingerprint


class TestGuardedFrontier:
    def test_skips_quiescent_assignments(self):
        on = run_uc(GUARDED_CHAIN, solve_strategy="guarded")
        off = run_uc(GUARDED_CHAIN, solve_strategy="guarded", frontier=False)
        assert on.frontier["guarded_constructs"] == 1
        assert on.frontier["guarded_skips"] >= 1
        assert np.array_equal(on["a"], off["a"])
        assert np.array_equal(on["b"], off["b"])
        # skipping only fires when no lane could fire, so convergence
        # takes the same sweeps and the Clock never rises
        assert on.elapsed_us <= off.elapsed_us

    def test_single_assignment_falls_back(self):
        # with one assignment a skip can only happen when the sweep would
        # make no progress at all, so the bookkeeping is not armed
        r = run_uc(WAVEFRONT, solve_strategy="guarded")
        full = run_uc(WAVEFRONT, solve_strategy="guarded", frontier=False)
        assert r.frontier.get("fallbacks", 0) >= 1
        assert "guarded_constructs" not in r.frontier
        assert r.fingerprint == full.fingerprint
        assert r.elapsed_us == full.elapsed_us  # a fallback costs exactly 1.0x

    def test_data_dependent_subscript_falls_back(self):
        src = (
            "index_set I:i = {0..3};\nint a[4], p[4], q[4];\n"
            "main { solve (I) { a[i] = (i == 0) ? 1 : a[p[i]] + 1; "
            "q[i] = a[i]; } }"
        )
        inputs = {"p": np.array([0, 0, 1, 2])}
        r = run_uc(src, inputs, solve_strategy="guarded")
        assert r.frontier.get("fallbacks", 0) >= 1
        assert r["a"].tolist() == [1, 2, 3, 4]


#: subscripts the one subscript reader realises exactly along one grid
#: axis without being ``elem + const``: a mirror, a wrap and a
#: non-injective halving
SINGLE_AXIS = {"mirror": "15-i", "wrap": "(i+1)%16", "halve": "i/2"}

SINGLE_AXIS_PAR = (
    "index_set I:i = {0..15};\nint a[16];\n"
    "main { par (I) a[i] = (i * 7 + 3) % 16; "
    "*par (I) st (a[SUB] < a[i]) a[i] = a[SUB]; }"
)

SINGLE_AXIS_SOLVE = (
    "index_set I:i = {0..15};\nint a[16], b[16];\n"
    "main { solve (I) { a[i] = (i * 7 + 3) % 16; b[i] = a[SUB] + 1; } }"
)


@pytest.mark.usefixtures("default_engines")
class TestSingleAxisReferences:
    """References the frontier and the guarded worklist read from the
    realised subscript vectors: they compress, with the values of full
    sweeps and of the oracle, on a Clock no higher than full sweeps'."""

    @pytest.mark.parametrize("kind", ["par", "solve"])
    @pytest.mark.parametrize("sub", sorted(SINGLE_AXIS), ids=sorted(SINGLE_AXIS))
    def test_compresses_and_agrees(self, kind, sub):
        src = (SINGLE_AXIS_PAR if kind == "par" else SINGLE_AXIS_SOLVE).replace(
            "SUB", SINGLE_AXIS[sub]
        )
        on = run_uc(src)
        full = run_uc(src, frontier=False)
        oracle = run_uc(src, plans=False)
        if kind == "par":
            assert on.frontier["compressed_sweeps"] > 0
        else:
            assert on.frontier["guarded_constructs"] == 1
        assert "fallbacks" not in on.frontier
        for name in on.keys():
            assert np.array_equal(on[name], full[name]), name
            assert np.array_equal(on[name], oracle[name]), name
        assert on.fingerprint == oracle.fingerprint
        assert on.elapsed_us <= full.elapsed_us


class TestProgramSurface:
    def test_runresult_exposes_frontier_stats(self):
        prog = UCProgram(APSP, frontier=True)
        r = prog.run(_apsp_input())
        assert isinstance(r.frontier, dict)
        assert isinstance(r.frontier_trace, list)

    def test_frontier_runs_are_deterministic(self):
        a = run_uc(APSP, _apsp_input())
        b = run_uc(APSP, _apsp_input())
        assert a.fingerprint == b.fingerprint
        assert dict(a.frontier) == dict(b.frontier)
        assert a.frontier_trace == b.frontier_trace


# ---------------------------------------------------------------------------
# compressed charging, dense evaluation
# ---------------------------------------------------------------------------

#: 64 PEs put a 16x16 grid at VP ratio 4, so compression pays at sizes
#: the tree oracle still runs in milliseconds
SMALL = small_config(64)

APSP_N = """
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int d[N][N];
main {
    *solve (I, J)
        d[i][j] = $<(K; d[i][k] + d[k][j]);
}
"""


def _two_community(n, chain, weight=3):
    """A unit-weight chain over ``0..chain-1`` beside a ``weight`` clique.
    ``chain == n`` is the pure chain graph: every lane stays active until
    the last sweep (high occupancy); a short chain leaves most of the
    grid quiescent after sweep one (low occupancy)."""
    d = np.full((n, n), 10**9, dtype=np.int64)
    d[chain:, chain:] = weight
    np.fill_diagonal(d, 0)
    for v in range(chain - 1):
        d[v, v + 1] = d[v + 1, v] = 1
    return {"d": d}


def _run_n(inputs, run=run_uc, **kw):
    kw.setdefault("machine_config", SMALL)
    return run(APSP_N, inputs, defines={"N": 16}, **kw)


#: counts up to 20; lanes already there never activate, the rest retire
#: together — the last compressed sweep is the termination test.  The
#: step is a value-root reduction (the largest of +0 and +1), which makes
#: the construct dense-eligible: a plain stencil never goes dense.
STAR_PAR = """
index_set I:i = {0..63}, K:k = {0..1};
int a[64];
main { *par (I) st (a[i] < 20) a[i] = $>(K; a[i] + k); }
"""


def _par_input(late=0):
    a = np.full(64, 20, dtype=np.int64)
    a[:40] = 10
    a[:late] = 0  # stragglers: the active set ends at ``late`` lanes
    return {"a": a}


def _run_par(inputs, run=run_uc, **kw):
    return run(STAR_PAR, inputs, machine_config=small_config(16), **kw)


@pytest.mark.usefixtures("default_engines")
class TestDenseEvaluation:
    def _assert_same_run(self, a, b, name="d"):
        assert np.array_equal(a[name], b[name])
        assert a.fingerprint == b.fingerprint
        assert a.frontier_trace == b.frontier_trace

    def test_chain_graph_takes_the_dense_path(self):
        inputs = _two_community(16, 16)
        on = _run_n(inputs)
        assert on.frontier["compressed_sweeps"] >= 1
        assert on.frontier["dense_sweeps"] == on.frontier["compressed_sweeps"]
        for other in (_run_n(inputs, plans=False), _run_n(inputs, run_lanes)):
            assert other.frontier["dense_sweeps"] == 0
            self._assert_same_run(on, other)
        # a dense compressed sweep replays no charge table: the fusion
        # counters still count full fused sweeps only
        assert on.fusion["fused_sweeps"] == on.frontier["full_sweeps"]
        assert on.fusion["charge_table_hits"] == on.frontier["full_sweeps"]

    def test_the_cost_ratio_is_a_host_only_choice(self, monkeypatch):
        # G decides which evaluator a compressed sweep runs on, never what
        # it charges: from "dense only at full occupancy" to "always
        # dense", dense_sweeps may move and nothing else
        d = _two_community(16, 6)["d"]
        runs = {}
        for g in (1, frontier._DENSE_COST_RATIO, 10**6):
            monkeypatch.setattr(frontier, "_DENSE_COST_RATIO", g)
            runs[g] = run_uc(
                APSP_SOLVE_UC, {"dist": d.copy()}, defines={"N": 16},
                machine_config=SMALL,
            )
        lo, default, hi = runs.values()
        assert lo.frontier["dense_sweeps"] == 0
        assert 0 < default.frontier["dense_sweeps"] < hi.frontier["dense_sweeps"]
        assert hi.frontier["dense_sweeps"] == hi.frontier["compressed_sweeps"]
        for other in (lo, hi):
            self._assert_same_run(default, other, "dist")
            assert other.fusion == default.fusion

    def test_two_community_graph_stays_sparse(self):
        inputs = _two_community(16, 3)
        on = _run_n(inputs)
        assert on.frontier["compressed_sweeps"] >= 1
        assert on.frontier["dense_sweeps"] == 0
        for other in (_run_n(inputs, plans=False), _run_n(inputs, run_lanes)):
            self._assert_same_run(on, other)

    def test_mixed_run_switches_per_sweep(self):
        inputs = _two_community(16, 6)
        on = _run_n(inputs)
        assert 0 < on.frontier["dense_sweeps"] < on.frontier["compressed_sweeps"]
        for other in (_run_n(inputs, plans=False), _run_n(inputs, run_lanes)):
            self._assert_same_run(on, other)
        full = _run_n(inputs, frontier=False)
        assert np.array_equal(on["d"], full["d"])
        assert on.elapsed_us <= full.elapsed_us

    def test_star_par_masks_and_termination(self):
        # 40 of 64 lanes count in lockstep: every compressed sweep is
        # dense, including the one whose predicates all come back false
        dense = _run_par(_par_input())
        assert dense.frontier["dense_sweeps"] == dense.frontier["compressed_sweeps"] >= 2
        # three stragglers: occupancy drops below 1/G, the tail and the
        # termination sweep run on the lane path
        mixed = _run_par(_par_input(late=3))
        assert 0 < mixed.frontier["dense_sweeps"] < mixed.frontier["compressed_sweeps"]
        for inputs, on in ((_par_input(), dense), (_par_input(late=3), mixed)):
            assert on["a"].tolist() == [20] * 64
            for other in (_run_par(inputs, plans=False), _run_par(inputs, run_lanes)):
                assert other.frontier["dense_sweeps"] == 0
                self._assert_same_run(on, other, "a")

    def test_plain_stencil_never_goes_dense(self):
        # no value-root reduction: dense evaluation has no strip kernel to
        # win with, so even the fully occupied sweeps run on the lane path
        src = STAR_PAR.replace("$>(K; a[i] + k)", "a[i] + 1")
        kw = dict(machine_config=small_config(16))
        on = run_uc(src, _par_input(), **kw)
        assert on.frontier["compressed_sweeps"] >= 2
        assert on.frontier["dense_sweeps"] == 0
        self._assert_same_run(on, run_uc(src, _par_input(), plans=False, **kw), "a")

    def test_unfused_segment_never_goes_dense(self):
        # a seq element is rebound per front-end step: the second arm runs
        # as an unfused segment (cse off keeps b[i] out of both cache
        # worlds, else fusion bails), the reduction arm stays eligible
        src = (
            "index_set I:i = {0..63}, K:k = {0..1}, S:s = {1..1};\n"
            "int a[64], b[64];\n"
            "main { seq (S) *par (I)\n"
            "  st (a[i] < 20) a[i] = $>(K; a[i] + k);\n"
            "  st (b[i] < 20) b[i] = b[i] + s;\n}"
        )
        inputs = {"a": _par_input()["a"], "b": _par_input()["a"]}
        kw = dict(machine_config=small_config(16), cse=False)
        on = run_uc(src, inputs, **kw)
        assert on.fusion["unfused_segments"] == 1
        assert on.frontier["compressed_sweeps"] >= 2
        assert on.frontier["dense_sweeps"] == 0
        off = run_uc(src, inputs, plans=False, **kw)
        self._assert_same_run(on, off, "b")

    def test_two_arms_on_one_target_never_go_dense(self):
        # a slot written twice per sweep: the lane path's per-write change
        # mask is not the net before/after diff dense evaluation derives
        src = (
            "index_set I:i = {0..63}, K:k = {0..1};\nint a[64];\n"
            "main { *par (I)\n"
            "  st (a[i] < 20) a[i] = $>(K; a[i] + 2 * k);\n"
            "  st (a[i] < 20) a[i] = $<(K; a[i] - k);\n}"
        )
        kw = dict(machine_config=small_config(16), cse=False)
        on = run_uc(src, _par_input(), **kw)
        assert on.frontier.get("dense_sweeps", 0) == 0
        off = run_uc(src, _par_input(), plans=False, **kw)
        self._assert_same_run(on, off, "a")

    def test_armed_faults_keep_the_lane_path(self):
        inputs = _two_community(16, 16)
        plain = _run_n(inputs)
        armed = _run_n(inputs, faults="drop@scan_step#100000")
        assert armed.frontier["dense_sweeps"] == 0
        self._assert_same_run(plain, armed)
        fired = _run_n(inputs, faults="drop@scan_step#40")
        oracle = _run_n(inputs, faults="drop@scan_step#40", plans=False)
        assert fired.frontier.get("dense_sweeps", 0) == 0
        self._assert_same_run(fired, oracle)
        assert fired.fault_log == oracle.fault_log

    def test_sanitizer_runs_full_sweeps(self):
        inputs = _two_community(16, 16)
        clean = _run_n(inputs, sanitize=True)
        assert not clean.frontier.get("compressed_sweeps", 0)
        full = _run_n(inputs, frontier=False)
        assert np.array_equal(clean["d"], full["d"])
        assert clean.fingerprint == full.fingerprint

    def test_shards_see_identical_charges(self):
        inputs = _two_community(16, 16)
        plain = _run_n(inputs)
        sharded = _run_n(inputs, shards=4)
        assert sharded.frontier["dense_sweeps"] >= 1
        self._assert_same_run(plain, sharded)
        # the shard sink observes the compressed charge sequence, which
        # dense evaluation leaves alone
        assert sharded.shards == _run_n(inputs, run_lanes, shards=4).shards

    def test_checkpoint_resume_carries_dense_counter(self):
        src = (
            "index_set I:i = {0..15}, J:j = I, K:k = I;\nint d[16][16], e[16][16];\n"
            "main {\n"
            "  *solve (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);\n"
            "  *solve (I, J) e[i][j] = $<(K; e[i][k] + e[k][j]);\n}"
        )
        g = _two_community(16, 16)["d"]
        inputs = {"d": g, "e": g.copy()}
        prog = UCProgram(src, machine_config=SMALL, compile_store=None)
        solo = prog.run(inputs)
        assert solo.frontier["dense_sweeps"] == 2

        pr = prog.prepare(inputs)

        def boundary(at):
            if at == 1:
                raise JobPreempted(cp.take_portable(pr.interp, pr.context, at))

        try:
            pr.interp.run_main_from(pr.context, 0, boundary)
        except JobPreempted as stop:
            snap = cp.snapshot_from_bytes(cp.snapshot_to_bytes(stop.snapshot))
        resumed = UCProgram(src, machine_config=SMALL, compile_store=None).prepare(inputs)
        cp.install_portable(resumed.interp, resumed.context, snap)
        assert resumed.interp.machine.clock.frontier_counts["dense_sweeps"] == 1
        resumed.interp.run_main_from(resumed.context, snap.pc)
        done = resumed.finish()
        assert np.array_equal(done["e"], solo["e"])
        assert done.fingerprint == solo.fingerprint
        assert done.frontier == solo.frontier

    def test_stats_line_reports_dense_share(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "count.uc"
        f.write_text(
            "index_set I:i = {0..63}, K:k = {0..1};\nint a[64];\n"
            "main { par (I) a[i] = (i < 40) ? 10 : 20;\n"
            "  *par (I) st (a[i] < 20) a[i] = $>(K; a[i] + k); }"
        )
        assert main(["run", str(f), "--pes", "16", "--stats"]) == 0
        out = capsys.readouterr().out
        line = next(x for x in out.splitlines() if "frontier.compressed_sweeps" in x)
        n, dense = line.split()[1], line.split("(dense ")[1].rstrip(")")
        assert int(dense) == int(n) >= 2
        assert "frontier.dense_sweeps" not in out


class TestLaneGatherFastPath:
    """``plan.lane_sub`` resolves a subscript once (no mask/clip work when
    it stays in range); a gather is then one ``take`` of the flat field at
    clipped addresses, ``plan.lane_check`` raises for a live out-of-range
    lane and ``plan.lane_scatter`` writes; values and error text are those
    of the checked path."""

    class _Node:
        base, line, col = "a", 7, 3

    def test_in_range_values(self):
        from repro.interp.plan import lane_check, lane_sub

        data = np.arange(20).reshape(4, 5)
        rows = np.array([0, 3, 2])
        cols = np.array([[0], [4], [1]])
        index, oob, raw = lane_sub(rows, 4)
        assert index is rows and raw is rows and oob is None
        flat = data.reshape(-1)
        assert flat.take(index * 5 + 2).tolist() == [2, 17, 12]
        addr = lane_sub(rows[None, :], 4)[0] * 5 + lane_sub(cols, 5)[0]
        assert np.array_equal(flat.take(addr), data[rows[None, :], cols])
        empty = lane_sub(np.array([], dtype=np.int64), 4)
        assert empty[1] is None and flat.take(empty[0] * 5 + empty[0]).size == 0
        lane_check(0, self._Node, 4, np.zeros(3, dtype=bool), rows)  # nothing to report

    def test_guarded_out_of_range_lanes_clip(self):
        from repro.interp.plan import lane_check, lane_sub

        data = np.arange(5) * 10
        index, oob, raw = lane_sub(np.array([-1, 2, 5]), 5)
        assert oob.tolist() == [True, False, True]
        live = np.array([False, True, False])
        lane_check(0, self._Node, 5, oob & live, raw)  # guarded: no error
        assert data.take(index).tolist() == [0, 20, 40]

    def test_live_out_of_range_message_unchanged(self):
        from repro.interp.plan import lane_check, lane_sub

        _index, oob, raw = lane_sub(np.array([0, 5, 6]), 5)
        for live in (None, np.ones(3, dtype=bool), np.array([False, False, True])):
            with pytest.raises(UCRuntimeError) as err:
                lane_check(1, self._Node, 5, oob if live is None else oob & live, raw)
            value = 5 if live is None or live[1] else 6
            assert f"subscript 1 of 'a' out of range (value {value}, extent 5)" in str(err.value)
            assert (err.value.line, err.value.col) == (7, 3)
        with pytest.raises(UCRuntimeError) as err:  # a constant subscript
            lane_check(1, self._Node, 5, np.True_, -1)
        assert "subscript 1 of 'a' out of range (value -1, extent 5)" in str(err.value)

    def test_scatter_fast_path_and_error_text(self):
        from repro.interp.plan import lane_check, lane_scatter, lane_sub

        data = np.arange(12).reshape(3, 4)
        flat = data.reshape(-1)
        addr = np.array([0, 2]) * 4 + np.array([3, 1])
        changed, old, new = lane_scatter(flat, addr, np.array([3, 50]))
        assert (changed.tolist(), old.tolist(), new.tolist()) == ([False, True], [3, 9], [3, 50])
        assert data[2, 1] == 50 and old.base is None  # the read is already a copy
        changed, _old, new = lane_scatter(flat, addr, 2.9)
        assert new.dtype == data.dtype and new.tolist() == [2, 2] and changed.all()
        # a target subscript past its extent is the same check, unguarded
        _index, oob, raw = lane_sub(np.array([1, 4]), 4)
        with pytest.raises(UCRuntimeError) as err:
            lane_check(1, self._Node, 4, oob, raw)
        assert "subscript 1 of 'a' out of range (value 4, extent 4)" in str(err.value)
        assert (err.value.line, err.value.col) == (7, 3)

    def test_guarded_border_program_matches_full_sweeps(self):
        # i == 0 reads a[i-1] under a false guard: the slow path clips it
        src = (
            "index_set I:i = {0..63};\nint a[64];\n"
            "main { *par (I) st (a[i] > (i > 0 ? a[i-1] : 0) + 1)\n"
            "    a[i] = (i > 0 ? a[i-1] : 0) + 1; }"
        )
        inputs = {"a": np.full(64, 1000, dtype=np.int64)}
        kw = dict(machine_config=small_config(16))
        on = run_uc(src, inputs, **kw)
        assert on.frontier["compressed_sweeps"] >= 1
        assert on["a"].tolist() == list(range(1, 65))
        tree = run_uc(src, inputs, plans=False, **kw)
        assert on.fingerprint == tree.fingerprint
        assert np.array_equal(on["a"], run_uc(src, inputs, frontier=False, **kw)["a"])


# ---------------------------------------------------------------------------
# the sparse lane path: plan once, resolve addresses once
# ---------------------------------------------------------------------------


def _engines(src, inputs=None, **kw):
    """The same run on the production engines, the tree oracle and the
    production engines with every compressed sweep on the lane path;
    asserts equal values, fingerprints and active-set traces and returns
    the production-engine result."""
    runs = [run_uc(src, inputs, **kw), run_uc(src, inputs, plans=False, **kw),
            run_lanes(src, inputs, **kw)]  # fmt: skip
    for other in runs[1:]:
        for name in runs[0]:
            assert np.array_equal(runs[0][name], other[name]), name
        assert runs[0].fingerprint == other.fingerprint
        assert runs[0].frontier_trace == other.frontier_trace
    return runs[0]


class TestEstimatorMemo:
    #: the straggler counts shrink 40 -> 12 -> 3 lanes on a 4-PE machine,
    #: so the active VP ratio (and with it the charge key) changes between
    #: the compressed sweeps of one construct and repeats within a phase
    SRC = """
index_set I:i = {0..63};
int a[64], b[64];
main { *par (I) st (a[i] < b[i]) a[i] = a[i] + 1; }
"""

    def _inputs(self):
        b = np.zeros(64, dtype=np.int64)
        b[:40], b[:12], b[:3] = 4, 8, 12
        return {"a": np.zeros(64, dtype=np.int64), "b": b}

    def test_changing_lane_ratio_keeps_the_oracle_fingerprint(self, monkeypatch):
        from repro.interp import frontier

        keys = []
        real_init = frontier.StarSession.__init__

        def sessions_use(memo_type):
            def init(self, *a, **kw):
                real_init(self, *a, **kw)
                self._estimates = memo_type()

            monkeypatch.setattr(frontier.StarSession, "__init__", init)

        class Spy(dict):
            def __setitem__(self, key, value):
                keys.append(key)
                super().__setitem__(key, value)

        sessions_use(Spy)
        kw = dict(machine_config=small_config(4))
        on = _engines(self.SRC, self._inputs(), **kw)
        assert on["a"].tolist() == self._inputs()["b"].tolist()
        ratios = {-(-active // 4) for active, _domain in on.frontier_trace}
        assert len(ratios) >= 3, on.frontier_trace
        # each distinct key was costed once per session, and sweeps far
        # outnumber keys: the estimator replayed only for new keys
        per_session = len(keys) // 3
        assert len(set(keys)) == per_session
        assert len(ratios) <= per_session < on.frontier["compressed_sweeps"]

        # the memo never changes a decision: a session that forgets every
        # estimate (and so replays the estimator each sweep) runs the same
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        sessions_use(Forgetful)
        unmemoised = run_uc(self.SRC, self._inputs(), **kw)
        assert unmemoised.fingerprint == on.fingerprint
        assert unmemoised.frontier_trace == on.frontier_trace
        full = run_uc(self.SRC, self._inputs(), frontier=False, **kw)
        assert on.elapsed_us < full.elapsed_us


class TestLaneBounds:
    """Bounds errors keep their text and their ``live``-refined meaning on
    the sparse lane path: the last lane reads ``a[i+1]`` one past the end,
    under a guard that only comes alive once ``a[63]`` reaches LIVE."""

    SRC = """
index_set I:i = {0..63};
int a[64];
main {
    *par (I) st (a[i] < 6)
        a[i] = a[i] + 1 + ((a[i] >= LIVE %s a[i+1] > 100) ? 1 : 0);
}
"""

    def _inputs(self):
        a = np.full(64, 6, dtype=np.int64)
        a[63] = 0  # the only active lane: every later sweep is compressed
        return {"a": a}

    @pytest.mark.parametrize("guard", ["&&", "ternary"])
    def test_live_lane_raises_the_full_sweep_error(self, guard, monkeypatch):
        from repro.interp import frontier

        src = self.SRC % "&&"
        if guard == "ternary":
            src = src.replace(
                "((a[i] >= LIVE && a[i+1] > 100) ? 1 : 0)",
                "(a[i] >= LIVE ? (a[i+1] > 100 ? 1 : 0) : 0)",
            )
        kw = dict(machine_config=small_config(16))
        # guarded (dead) everywhere: the out-of-range lane is clipped
        dead = _engines(src, self._inputs(), defines={"LIVE": 100}, **kw)
        assert dead.frontier["compressed_sweeps"] >= 4
        assert dead.frontier.get("dense_sweeps", 0) == 0
        assert dead["a"].tolist() == [6] * 64
        # live from the fourth sweep on: a compressed sweep must raise
        # exactly what the full sweep raises
        lane_sweeps = []
        real = frontier.StarSession._run_lanes

        def spy(self, states):
            lane_sweeps.append("entered")
            out = real(self, states)
            lane_sweeps[-1] = "returned"
            return out

        monkeypatch.setattr(frontier.StarSession, "_run_lanes", spy)
        errors = []
        engines = [(run_uc, dict(frontier=False)), (run_uc, {}), (run_uc, dict(plans=False))]
        for run, eng in engines + [(run_lanes, {})]:
            del lane_sweeps[:]
            with pytest.raises(UCRuntimeError) as err:
                run(src, self._inputs(), defines={"LIVE": 3}, **kw, **eng)
            errors.append((str(err.value), err.value.line, err.value.col))
            if eng.get("frontier", True):
                assert lane_sweeps and lane_sweeps[-1] == "entered", eng
            else:
                assert not lane_sweeps
        assert "subscript 0 of 'a' out of range (value 64, extent 64)" in errors[0][0]
        assert all(e == errors[0] for e in errors[1:])


class TestRecipeRiders:
    """``GuardedFrontier.candidates`` and the planner's write simulation
    ride the same dilation recipe as the ``*solve``/``*par`` planner."""

    def test_guarded_wavefront_across_engines(self):
        src = (
            "index_set I:i = {0..11}, J:j = I;\nint a[12][12], b[12][12];\n"
            "main { solve (I, J) {\n"
            "  a[i][j] = (i == 0 || j == 0) ? 1\n"
            "          : a[i-1][j] + b[i-1][j-1] + a[i][j-1];\n"
            "  b[i][j] = a[i][j] - 1; } }"
        )
        on = _engines(src, solve_strategy="guarded")
        assert on.frontier["guarded_constructs"] == 1
        assert on.frontier["guarded_skips"] >= 1
        off = run_uc(src, solve_strategy="guarded", frontier=False)
        assert np.array_equal(on["a"], off["a"]) and np.array_equal(on["b"], off["b"])
        assert on.elapsed_us <= off.elapsed_us
        # b = a - 1 turns the recurrence into the Delannoy numbers
        want = np.ones((12, 12), dtype=np.int64)
        for i in range(1, 12):
            for j in range(1, 12):
                want[i, j] = want[i - 1, j] + want[i - 1, j - 1] - 1 + want[i, j - 1]
        assert np.array_equal(on["a"], want)

    def test_two_arm_star_par_writing_two_arrays(self):
        # arm 2 reads what arm 1 writes in the same sweep (b chases a's
        # left neighbour): its active set comes from the write simulation
        src = (
            "index_set I:i = {0..63};\nint a[64], b[64], cap[64];\n"
            "main { *par (I)\n"
            "  st (a[i] < cap[i]) a[i] = a[i] + 1;\n"
            "  st (b[i] < (i > 0 ? a[i-1] : 0)) b[i] = b[i] + 1;\n}"
        )
        cap = np.zeros(64, dtype=np.int64)
        cap[20:26] = [3, 9, 4, 7, 2, 5]
        inputs = {"cap": cap}
        on = _engines(src, inputs, machine_config=small_config(16))
        assert on.frontier["compressed_sweeps"] >= 5
        assert on["a"].tolist() == cap.tolist()
        assert on["b"][1:].tolist() == cap[:-1].tolist()
        full = run_uc(src, inputs, machine_config=small_config(16), frontier=False)
        assert np.array_equal(on["b"], full["b"])
        assert on.elapsed_us < full.elapsed_us


@pytest.mark.usefixtures("default_engines")
class TestDemotedBatchLanes:
    def test_demoted_lanes_evaluate_densely_like_solo_runs(self, monkeypatch):
        # each lane's session row elects its compressed sweeps and their
        # evaluator (dense or lanes) as its solo run does, on the stack
        from repro.interp import batch as batch_mod

        def no_fallback(*_a, **_k):
            raise AssertionError("the lane engine fell back to the sequential loop")

        monkeypatch.setattr(batch_mod, "_sequential", no_fallback)
        lanes = [_two_community(16, 16), _two_community(16, 6), _two_community(16, 3)]
        prog = UCProgram(APSP_N, defines={"N": 16}, machine_config=SMALL)
        batch = prog.run_batch([{"d": x["d"].copy()} for x in lanes])
        for lane, inputs in zip(batch, lanes):
            solo = _run_n(inputs)
            assert np.array_equal(lane["d"], solo["d"])
            assert lane.fingerprint == solo.fingerprint
            assert lane.frontier == solo.frontier
        assert batch[0].frontier["dense_sweeps"] >= 1
        assert batch[2].frontier["dense_sweeps"] == 0

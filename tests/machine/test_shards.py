"""Sharded multi-machine execution (ShardedMachine + Placement).

The contract has three layers:

1. **Placement math** — the affine owner map and the per-reference
   intra/cross split, including the APSP case where the map-driven axis
   choice cuts cross-shard slab traffic 4x vs naive axis-0 banding.
2. **Fingerprint stability** — results AND Clock fingerprints are
   bit-identical to the unsharded run for every shard count, because
   sharding is an accounting overlay that never touches the base
   clock's charge stream.
3. **Whole-shard faults** — a ``shardkill`` takes down the shard's full
   PE range, recovery replays to the fault-free values, and the
   survivors absorb the retired shard's bands.
"""

import numpy as np
import pytest

from repro.algorithms.shortest_path import random_distance_matrix
from repro.bench import workloads as W
from repro.interp.program import UCProgram
from repro.machine import Machine, MachineConfig
from repro.machine.shards import SLAB_ELEM_BYTES, ShardedMachine
from repro.mapping.layout import Layout
from repro.mapping.locality import RefClass
from repro.mapping.placement import Placement, derive_placement, score_axes


def _rc(*axes):
    return RefClass("router", axes=tuple(axes))


N = 64
GRID3 = (N, N, N)
D_LAYOUT = Layout("d", (N, N))


# ---------------------------------------------------------------------------
# Placement math


class TestOwnerMap:
    def test_owners_form_equal_blocks(self):
        pl = Placement(4)
        owners = pl.owners_along(64)
        assert owners.tolist() == sum([[s] * 16 for s in range(4)], [])
        for c in range(64):
            assert pl.owner_of(c, 64) == c // 16

    def test_owner_is_o1_affine(self):
        # (c * K) // e — the UPC block distribution, no per-element table
        pl = Placement(3)
        assert [pl.owner_of(c, 10) for c in range(10)] == [
            (c * 3) // 10 for c in range(10)
        ]

    def test_grid_axis_clamps_to_rank(self):
        pl = Placement(4, axis=2)
        assert pl.grid_axis(3) == 2
        assert pl.grid_axis(2) == 1  # rank-2 geometry bands its last axis
        assert pl.grid_axis(1) == 0


class TestSplit:
    def test_apsp_block_vs_map_axis_is_4x(self):
        """The tentpole numbers: d[k][j] on the (I,J,K) operand grid ships
        1024 elems/pair under axis-0 banding but 256 under axis-2, while
        d[i][k] is cross-free either way — 12288 vs 3072 per sweep."""
        d_ik = _rc(("i", 0, 0), ("i", 2, 0))
        d_kj = _rc(("i", 2, 0), ("i", 1, 0))
        naive = Placement(4, axis=0, policy="block")
        mapped = Placement(4, axis=2, policy="map")
        assert naive.split(d_ik, D_LAYOUT, GRID3, False).cross == 0
        assert mapped.split(d_ik, D_LAYOUT, GRID3, False).cross == 0
        s_naive = naive.split(d_kj, D_LAYOUT, GRID3, False)
        s_mapped = mapped.split(d_kj, D_LAYOUT, GRID3, False)
        assert s_naive.cross == 12 * 1024
        assert s_mapped.cross == 12 * 256
        assert s_naive.cross == 4 * s_mapped.cross

    def test_identity_reference_is_intra(self):
        pl = Placement(4, axis=0)
        s = pl.split(_rc(("i", 0, 0), ("i", 1, 0)), D_LAYOUT, (N, N), False)
        assert s.cross == 0
        assert s.intra == N * N

    def test_shift_crosses_only_the_halo(self):
        # a +1 shift along the partitioned axis ships one boundary row
        # to the next band, in the downward direction only
        pl = Placement(4, axis=0)
        s = pl.split(_rc(("i", 0, 1), ("i", 1, 0)), D_LAYOUT, (N, N), False)
        assert s.cross == 3 * N  # one row per interior boundary
        # VP band b reads the first row of band b+1: slabs flow downward
        assert all(a == b + 1 for (a, b), _c in s.pairs)

    def test_write_flips_pair_direction(self):
        pl = Placement(4, axis=0)
        rd = pl.split(_rc(("i", 0, 1), ("i", 1, 0)), D_LAYOUT, (N, N), False)
        wr = pl.split(_rc(("i", 0, 1), ("i", 1, 0)), D_LAYOUT, (N, N), True)
        assert {(b, a) for (a, b), _ in rd.pairs} == {p for p, _ in wr.pairs}

    def test_opaque_reference_is_uniform_all_to_all(self):
        pl = Placement(4, axis=0)
        s = pl.split(RefClass("router", axes=None), None, (N, N), False)
        per_pair = (N * N) // 16
        assert len(s.pairs) == 12
        assert all(c == per_pair for _p, c in s.pairs)
        assert s.intra + s.cross == N * N

    def test_permute_map_moves_owners(self):
        """Placement is map-driven: a transposing permute layout changes
        which shard owns each element, turning a transpose read from
        cross-shard into shard-local."""
        transpose = _rc(("i", 1, 0), ("i", 0, 0))
        plain = Layout("b", (N, N))
        permuted = Layout("b", (N, N), axis_perm=(1, 0))
        pl = Placement(4, axis=0)
        assert pl.split(transpose, plain, (N, N), False).cross > 0
        assert pl.split(transpose, permuted, (N, N), False).cross == 0

    def test_split_is_memoized(self):
        pl = Placement(4, axis=0)
        rc = _rc(("i", 0, 1), ("i", 1, 0))
        assert pl.split(rc, D_LAYOUT, (N, N), False) is pl.split(
            rc, D_LAYOUT, (N, N), False
        )

    def test_retire_redistributes_bands(self):
        pl = Placement(4, axis=0)
        pl.retire(1)
        assert pl.live == (0, 2, 3)
        owners = {pl.owner_of(c, 60) for c in range(60)}
        assert owners == {0, 2, 3}
        with pytest.raises(ValueError):
            pl.retire(0), pl.retire(2), pl.retire(3)
        pl.restore_all()
        assert pl.live == (0, 1, 2, 3)

    def test_dst_counts_cover_the_grid(self):
        pl = Placement(4, axis=0)
        s = pl.split(_rc(("i", 0, 0), ("i", 1, 0)), D_LAYOUT, (N, N), False)
        assert sum(s.dst_counts) == N * N


class TestAxisSearch:
    def test_apsp_n3_prefers_the_reduction_axis(self):
        defs = {"N": 16, "LOGN": 4}
        prog = UCProgram(W.APSP_N3_UC, defines=defs)
        scored = score_axes(prog.frontend.verdicts(), prog.layouts, 4)
        assert scored[0][1] == 2  # partition by k: d[i][k] goes intra
        assert scored[0][0] * 4 == scored[1][0]  # and it is exactly 4x

    def test_block_policy_skips_the_search(self):
        prog = UCProgram(W.APSP_N3_UC, defines={"N": 16, "LOGN": 4})
        pl = derive_placement(prog.frontend, 4, policy="block")
        assert pl.axis == 0 and pl.policy == "block"


# ---------------------------------------------------------------------------
# Fingerprint stability + runtime ledger


APSP_SRC = W.APSP_N3_UC
APSP_DEFS = {"N": 16, "LOGN": 4}
DIST16 = random_distance_matrix(16, seed=7)


def _run(shards=None, placement="map", **kw):
    prog = UCProgram(
        APSP_SRC, defines=APSP_DEFS, shards=shards, placement=placement, **kw
    )
    return prog.run({"d": DIST16.copy()})


class TestShardedRuns:
    def test_fingerprints_bit_identical_for_all_k(self):
        base = _run()
        for k in (2, 4):
            r = _run(shards=k)
            assert r.fingerprint == base.fingerprint
            assert np.array_equal(r["d"], base["d"])

    def test_unsharded_run_reports_no_shard_stats(self):
        assert _run().shards == {}

    def test_map_placement_cuts_intershard_4x_vs_block(self):
        blk = _run(shards=4, placement="block")
        mapped = _run(shards=4, placement="map")
        assert blk.fingerprint == mapped.fingerprint
        ratio = blk.shards["intershard_cycles"] / mapped.shards["intershard_cycles"]
        assert ratio >= 3.0
        assert ratio == pytest.approx(4.0)

    def test_stats_shape_and_ledger_consistency(self):
        r = _run(shards=4)
        sh = r.shards
        assert sh["n_shards"] == 4
        assert sh["policy"] == "map" and sh["axis"] == 2
        assert sh["live"] == [0, 1, 2, 3]
        assert sh["intershard_bytes"] == sh["intershard_cycles"] * SLAB_ELEM_BYTES
        assert sum(t["elems"] for t in sh["pairs"].values()) == sh[
            "intershard_cycles"
        ]
        per = sh["per_shard"]
        assert len(per) == 4 and all(row["time_us"] > 0 for row in per)
        assert sum(row["intershard_cycles"] for row in per) == sh[
            "intershard_cycles"
        ]

    def test_env_override_forces_unsharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "1")
        assert _run(shards=4).shards == {}

    def test_env_override_forces_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        r = _run()
        assert r.shards["n_shards"] == 2
        assert r.fingerprint == _run(shards=None).fingerprint

    def test_intershard_count_is_observable_not_charged(self):
        r1, r4 = _run(), _run(shards=4)
        assert "intershard" not in r1.counts
        assert "intershard" not in r4.counts  # base clock never charges it
        assert r4.shards["intershard_cycles"] > 0


# ---------------------------------------------------------------------------
# Reduction gating: cross-shard pre-combining only under a UC501 verdict


FLOAT_SUM_SRC = (
    "index_set I:i = {0..63};\nfloat x[64], s_;\n"
    "main { s_ = $+(I; x[i]); }"
)
INT_SUM_SRC = (
    "index_set I:i = {0..63};\nint x[64], s_;\n"
    "main { s_ = $+(I; x[i]); }"
)
FLOAT_X = np.linspace(0.1, 6.4, 64)


def _run_red(src, inputs, shards=None):
    return UCProgram(src, shards=shards).run(
        {k: v.copy() for k, v in inputs.items()}
    )


class TestReductionGating:
    def test_float_sum_takes_ordered_path_and_matches_k1(self):
        """UC502 float sums must not pre-combine per shard: every K
        demotes to the order-preserving path and fingerprints like K=1."""
        base = _run_red(FLOAT_SUM_SRC, {"x": FLOAT_X})
        for k in (2, 4):
            r = _run_red(FLOAT_SUM_SRC, {"x": FLOAT_X}, shards=k)
            assert r["s_"] == base["s_"]
            assert r.fingerprint == base.fingerprint
            assert r.shards["reductions_ordered"] >= 1
            assert r.shards["reductions_precombined"] == 0

    def test_int_sum_precombines_under_uc501_verdict(self):
        x = np.arange(64, dtype=np.int64)
        base = _run_red(INT_SUM_SRC, {"x": x})
        r = _run_red(INT_SUM_SRC, {"x": x}, shards=4)
        assert r["s_"] == base["s_"]
        assert r.fingerprint == base.fingerprint
        assert r.shards["reductions_precombined"] >= 1
        assert r.shards["reductions_ordered"] == 0

    def test_ordered_fallback_keeps_the_ledger_consistent(self):
        """The demoted path ships raw bands to an owner shard — that
        traffic must still satisfy the pair/per-shard ledger invariant."""
        for k in (2, 4):
            sh = _run_red(FLOAT_SUM_SRC, {"x": FLOAT_X}, shards=k).shards
            assert sh["intershard_cycles"] > 0
            assert sum(t["elems"] for t in sh["pairs"].values()) == sh[
                "intershard_cycles"
            ]
            assert sum(
                row["intershard_cycles"] for row in sh["per_shard"]
            ) == sh["intershard_cycles"]


# ---------------------------------------------------------------------------
# Whole-shard faults


class TestShardKill:
    def test_shardkill_takes_down_the_whole_range(self):
        clean = _run(shards=4)
        faulty = _run(shards=4, faults="shardkill:1@alu#5")
        assert np.array_equal(faulty["d"], clean["d"])
        lo, hi = 4096, 8192  # shard 1 of a 16384-PE machine
        assert faulty.dead_pes == list(range(lo, hi))
        assert faulty.recovery["faults"] == 1
        assert faulty.recovery["retries"] == 1
        assert [e[1] for e in faulty.fault_log] == ["shardkill"]
        assert faulty.shards["live"] == [0, 2, 3]
        assert faulty.shards["per_shard"][1]["live"] is False

    def test_sink_retires_fully_dead_shard(self):
        cfg = MachineConfig(n_pes=64, name="tiny")
        m = Machine(cfg)
        sm = ShardedMachine(m, 4, Placement(4, axis=0))
        m.dead_pes.update(range(16, 32))  # shard 1's whole range
        sm.observe_ref(
            "router", _rc(("i", 0, 0), ("i", 1, 0)), D_LAYOUT, (N, N), False
        )
        assert sm.placement.live == (0, 2, 3)
        # a partially-dead shard stays in service
        m2 = Machine(cfg)
        sm2 = ShardedMachine(m2, 4, Placement(4, axis=0))
        m2.dead_pes.add(17)
        sm2.observe_ref(
            "router", _rc(("i", 0, 0), ("i", 1, 0)), D_LAYOUT, (N, N), False
        )
        assert sm2.placement.live == (0, 1, 2, 3)

    def test_shardkill_on_unsharded_machine_degrades_to_one_pe(self):
        prog = UCProgram(
            W.APSP_SOLVE_UC,
            defines={"N": 8},
            faults="shardkill:2@alu#5",
        )
        clean = UCProgram(W.APSP_SOLVE_UC, defines={"N": 8})
        d = random_distance_matrix(8, seed=3)
        faulty_r = prog.run({"dist": d.copy()})
        clean_r = clean.run({"dist": d.copy()})
        assert np.array_equal(faulty_r["dist"], clean_r["dist"])
        assert faulty_r.dead_pes == [2]

    def test_checkpoint_roundtrip_carries_the_ledger(self):
        cfg = MachineConfig(n_pes=64, name="tiny")
        m = Machine(cfg)
        sm = ShardedMachine(m, 4, Placement(4, axis=0))
        sm.observe_ref(
            "router", _rc(("i", 0, 1), ("i", 1, 0)), D_LAYOUT, (N, N), False
        )
        snap = m.clock.dump_state()
        before = dict(sm.pair_elems)
        sm.observe_ref(
            "router", RefClass("router", axes=None), None, (N, N), False
        )
        assert sm.pair_elems != before
        m.clock.load_state(snap)
        assert dict(sm.pair_elems) == before
        m.clock.reset()
        assert sm.pair_elems == {} and sm.intershard_elems == 0

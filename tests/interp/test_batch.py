"""Batched lane execution (``UCProgram.run_batch``).

The contract under test: lane ``i`` of ``run_batch(inputs)`` is
bit-identical — variable values, stdout and the Clock cost fingerprint —
to ``run(inputs[i])``, under every engine/frontier/fusion combination,
and ``REPRO_NO_BATCH=1`` restores the plain sequential loop.
"""

import numpy as np
import pytest

from repro.interp import batch as batch_mod
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError

APSP = (
    "int N = 12;\n"
    "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
    "int dist[12][12];\n"
    "main {\n"
    "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
    "}\n"
)

DRAIN = (
    "int N = 10;\n"
    "index_set I:i = {0..N-1}, J:j = I;\n"
    "int a[10][10];\n"
    "int b[10][10];\n"
    "main {\n"
    "    *par (I, J) st (a[i][j] > 0) {\n"
    "        b[i][j] = b[i][j] + a[i][j];\n"
    "        a[i][j] = a[i][j] - 1;\n"
    "    }\n"
    "}\n"
)

_FLAGS = [
    {"frontier": True, "fusion": True},
    {"frontier": True, "fusion": False},
    {"frontier": False, "fusion": True},
    {"frontier": False, "fusion": False},
]


def _chain(n, w):
    d = np.full((n, n), 10**9, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a in range(n - 1):
        d[a, a + 1] = w
        d[a + 1, a] = w
    return d


def _copy(inp):
    if inp is None:
        return None
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in inp.items()}


def _assert_lanes_match(solo, batch, names):
    assert len(solo) == len(batch)
    for i, (a, b) in enumerate(zip(solo, batch)):
        for name in names:
            assert np.array_equal(a[name], b[name]), f"lane {i}: {name} differs"
        assert a.fingerprint == b.fingerprint, f"lane {i}: fingerprint differs"
        assert a.stdout == b.stdout, f"lane {i}: stdout differs"
        assert a.frontier == b.frontier, f"lane {i}: frontier counters differ"
        assert a.fusion == b.fusion, f"lane {i}: fusion counters differ"


class TestSolveIdentity:
    @pytest.mark.parametrize("flags", _FLAGS)
    def test_lanes_bit_identical_to_solo(self, flags):
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3, 5, 8)]
        solo = [
            UCProgram(APSP, compile_store=None, **flags).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(APSP, compile_store=None, **flags).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["dist"])

    def test_batched_lanes_marker(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3)]
        prog = UCProgram(APSP, compile_store=None)
        batch = prog.run_batch(inputs)
        for r in batch:
            assert r.compile["batched_lanes"] == 3.0

    def test_shared_compile_store_counts_one_backend(self):
        from repro.interp.compile_store import CompileStore

        store = CompileStore()
        prog = UCProgram(APSP, compile_store=store)
        results = prog.run_batch([{"dist": _chain(12, w)} for w in (1, 2)])
        stats = results[-1].store
        assert stats["backend_entries"] == 1
        assert stats["backend_misses"] == 1


class TestParIdentity:
    @pytest.mark.parametrize("flags", _FLAGS)
    def test_lanes_bit_identical_to_solo(self, flags):
        rng = np.random.default_rng(11)
        inputs = [
            {
                "a": rng.integers(0, 5, size=(10, 10)).astype(np.int64),
                "b": np.zeros((10, 10), dtype=np.int64),
            }
            for _ in range(4)
        ]
        solo = [
            UCProgram(DRAIN, compile_store=None, **flags).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(DRAIN, compile_store=None, **flags).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["a", "b"])

    def test_staggered_retirement(self):
        """Lanes whose predicates drain at different sweeps retire
        independently; late lanes are unaffected by early retirees."""
        inputs = [
            {
                "a": np.full((10, 10), depth, dtype=np.int64),
                "b": np.zeros((10, 10), dtype=np.int64),
            }
            for depth in (1, 7, 3, 0)
        ]
        solo = [
            UCProgram(DRAIN, compile_store=None).run(_copy(inp)) for inp in inputs
        ]
        batch = UCProgram(DRAIN, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["a", "b"])
        assert all(np.all(r["a"] == 0) for r in batch)


class TestScalarLanes:
    SRC = (
        "int N = 8;\n"
        "index_set I:i = {0..N-1};\n"
        "int x[8];\n"
        "int y[8];\n"
        "int total;\n"
        "main {\n"
        "    total = $+(I; x[i]);\n"
        "    par (I) y[i] = x[i] * total;\n"
        "}\n"
    )

    def test_divergent_scalars_stay_per_lane(self):
        rng = np.random.default_rng(3)
        inputs = [
            {"x": rng.integers(0, 50, size=8).astype(np.int64)} for _ in range(5)
        ]
        solo = [
            UCProgram(self.SRC, compile_store=None).run(_copy(inp))
            for inp in inputs
        ]
        batch = UCProgram(self.SRC, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["x", "y", "total"])
        totals = {int(r["total"]) for r in batch}
        assert len(totals) > 1, "lanes should really have diverged"


class TestFallbacks:
    def test_empty_inputs(self):
        prog = UCProgram(APSP, compile_store=None)
        assert prog.run_batch([]) == []

    def test_none_inputs_use_defaults(self):
        prog = UCProgram(APSP, compile_store=None)
        solo = [
            UCProgram(APSP, compile_store=None).run(None) for _ in range(2)
        ]
        batch = prog.run_batch([None, None])
        _assert_lanes_match(solo, batch, ["dist"])

    def test_single_input_matches_solo(self):
        inp = {"dist": _chain(12, 2)}
        solo = UCProgram(APSP, compile_store=None).run(_copy(inp))
        [batch] = UCProgram(APSP, compile_store=None).run_batch([_copy(inp)])
        assert np.array_equal(solo["dist"], batch["dist"])
        assert solo.fingerprint == batch.fingerprint

    def test_single_input_skips_lane_machinery(self, monkeypatch):
        entered = []
        orig = batch_mod._BatchRun.execute

        def spy(self):
            entered.append(1)
            return orig(self)

        monkeypatch.setattr(batch_mod._BatchRun, "execute", spy)
        inp = {"dist": _chain(12, 3)}
        solo = UCProgram(APSP, compile_store=None).run(_copy(inp))
        [batch] = UCProgram(APSP, compile_store=None).run_batch([_copy(inp)])
        assert np.array_equal(solo["dist"], batch["dist"])
        assert solo.fingerprint == batch.fingerprint
        assert not entered, "a batch of one must dispatch straight to run()"

    def test_sharded_program_takes_the_sequential_loop(self, monkeypatch):
        entered = []
        orig = batch_mod._BatchRun.execute

        def spy(self):
            entered.append(1)
            return orig(self)

        monkeypatch.setattr(batch_mod._BatchRun, "execute", spy)
        prog = UCProgram(APSP, compile_store=None, shards=2)
        assert not batch_mod.batchable(prog)
        inputs = [{"dist": _chain(12, w)} for w in (1, 2)]
        batch = prog.run_batch([_copy(inp) for inp in inputs])
        solo = [
            UCProgram(APSP, compile_store=None, shards=2).run(_copy(inp))
            for inp in inputs
        ]
        _assert_lanes_match(solo, batch, ["dist"])
        assert not entered, "sharded programs must not enter the lane engine"
        assert all(r.shards.get("n_shards") == 2 for r in batch)

    def test_no_batch_env_restores_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_BATCH", "1")
        calls = []
        orig = batch_mod._BatchRun.execute

        def spy(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(batch_mod._BatchRun, "execute", spy)
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3)]
        solo = [
            UCProgram(APSP, compile_store=None).run(_copy(inp)) for inp in inputs
        ]
        batch = UCProgram(APSP, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["dist"])
        assert not calls, "REPRO_NO_BATCH=1 must not enter the lane engine"

    def test_lane_error_matches_solo_error(self):
        src = (
            "int d;\n"
            "int out;\n"
            "main { out = 100 / d; }\n"
        )
        inputs = [{"d": 5}, {"d": 0}, {"d": 2}]
        with pytest.raises(UCRuntimeError) as solo_err:
            UCProgram(src, compile_store=None).run(_copy(inputs[1]))
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(src, compile_store=None).run_batch(
                [_copy(inp) for inp in inputs]
            )
        assert str(solo_err.value) == str(batch_err.value)

    def test_faulted_program_still_matches(self):
        """Fault injection forces the sequential path; results match."""
        inputs = [{"dist": _chain(12, w)} for w in (1, 4)]
        solo = [
            UCProgram(APSP, compile_store=None, faults="drop@router_send#2").run(
                _copy(inp)
            )
            for inp in inputs
        ]
        batch = UCProgram(
            APSP, compile_store=None, faults="drop@router_send#2"
        ).run_batch([_copy(inp) for inp in inputs])
        _assert_lanes_match(solo, batch, ["dist"])


class TestBlockedReduceNarrowing:
    """The int32 window of the reduction kernel must be bit-exact (its
    boundary table and the solo twin: ``test_reduce_kernel.py``)."""

    def test_bounds_straddling_int32_stay_int64(self):
        n = 48  # big enough that a chunk of lanes takes the strip kernel
        src = (
            f"int N = {n};\n"
            "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            f"int dist[{n}][{n}];\n"
            "main {\n"
            "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
            "}\n"
        )
        # 2^31 is exactly one past INT32_MAX after one addition: the
        # narrowing window must refuse and the int64 path must agree
        # with solo to the bit
        big = 2**30
        inputs = []
        for w in (1, 3):
            d = np.full((n, n), big, dtype=np.int64)
            np.fill_diagonal(d, 0)
            for a in range(n - 1):
                d[a, a + 1] = w
                d[a + 1, a] = w
            inputs.append({"dist": d})
        solo = [
            UCProgram(src, compile_store=None).run(_copy(inp)) for inp in inputs
        ]
        batch = UCProgram(src, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        _assert_lanes_match(solo, batch, ["dist"])

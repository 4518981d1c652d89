"""Fusion of user calls and data-dependent gathers (``interp/fuse.py``).

Two lowering rules take the paper's Figure 2 prefix ``*par`` off the
oracle:

* a call to a user function whose body is one assignment-free
  ``return <expr>;`` over scalar parameters is inlined, with ``functions._call_parallel``'s
  semantics (arguments cast to the parameter type, names resolved to the
  parameters and then to globals, the CSE cache cleared after the call);
* a gather whose subscripts are only known at sweep time classifies them
  per sweep and splices its tier's charge rows into the statement's
  table where the oracle would have charged them.

Every test holds the fused run to the tree-walking oracle
(``plans=False``): values and Clock fingerprint.
"""

import math

import numpy as np
import pytest

from repro.bench.workloads import PREFIX_STARPAR_UC
from repro.interp import batch as batch_mod
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError
from repro.machine.cost import Clock
from repro.service import ExecutionService, JobSpec, ServiceConfig
from tests.conftest import run_uc


@pytest.fixture(autouse=True)
def _engines(monkeypatch):
    """CI runs this file under ``REPRO_NO_FRONTIER=1`` and
    ``REPRO_SHARDS=4`` too; only the oracle switch is pinned off, so each
    ``plans=True`` run still meets the fused engine."""
    monkeypatch.delenv("REPRO_NO_PLANS", raising=False)


def _both(src, inputs=None, **kw):
    """(fused, oracle) runs of ``src``, asserted value- and fingerprint-
    identical."""
    runs = [
        UCProgram(src, plans=plans, **kw).run(
            {k: np.copy(v) for k, v in (inputs or {}).items()}
        )
        for plans in (True, False)
    ]
    fused, oracle = runs
    for name in oracle.keys():
        assert np.array_equal(fused[name], oracle[name]), name
    assert fused.fingerprint == oracle.fingerprint
    return fused, oracle


def _error(src, **kw):
    """The located error message of ``src`` on the fused engine, asserted
    equal to the oracle's."""
    messages = []
    for plans in (True, False):
        with pytest.raises(UCRuntimeError) as exc:
            UCProgram(src, plans=plans, **kw).run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestPrefix:
    @pytest.mark.parametrize("frontier", [True, False])
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_prefix_runs_fused(self, n, frontier):
        fused, _ = _both(PREFIX_STARPAR_UC, defines={"N": n}, frontier=frontier)
        assert np.array_equal(fused["a"], np.cumsum(np.arange(n)))
        assert "unfusable" not in fused.fusion
        assert fused.fusion["unfused_segments"] == 0
        # the initialising par, then one body sweep per doubling
        assert fused.fusion["fused_sweeps"] == 1 + int(math.log2(n))

    def test_news_router_tier_flip(self):
        # sweep 1 reads a[i - 1] (NEWS); from sweep 2 on the finished
        # lanes stop counting, so the offsets differ per lane (router)
        progs = [
            UCProgram(PREFIX_STARPAR_UC, defines={"N": 1024}, plans=plans)
            for plans in (True, False)
        ]
        for p in progs:
            p.run()
        fused, oracle = (list(p.last_interpreter.machine.clock.tier_counts.items())
                         for p in progs)  # fmt: skip
        assert fused == oracle
        assert {"news", "router"} <= dict(fused).keys()

    def test_shards_ledger(self, monkeypatch):
        # a shard sink makes every replayed row one Clock.charge call, so
        # the spliced rows must land where the oracle charged them
        calls = []
        charge = Clock.charge

        def spy(self, kind, *, count=1, vp_ratio=1):
            calls.append((kind, count, vp_ratio))
            return charge(self, kind, count=count, vp_ratio=vp_ratio)

        monkeypatch.setattr(Clock, "charge", spy)
        runs = []
        for plans in (True, False):
            calls.clear()
            prog = UCProgram(
                PREFIX_STARPAR_UC, defines={"N": 256}, shards=4, plans=plans
            )
            runs.append((prog.run(), list(calls)))
        (fused, fused_calls), (oracle, oracle_calls) = runs
        assert fused.fingerprint == oracle.fingerprint
        assert fused.shards and fused.shards == oracle.shards
        assert fused_calls == oracle_calls


class TestInlining:
    HEAD = "index_set I:i = {0..7};\nint a[8], b[8];\nfloat w[8];\nint s;\n"

    def _fused(self, src, inputs=None, **kw):
        fused, _ = _both(self.HEAD + src, inputs, **kw)
        assert "unfusable" not in fused.fusion
        assert fused.fusion.get("unfused_segments", 0) == 0
        return fused

    def test_float_argument_to_int_parameter(self):
        w = np.array([-2.7, -0.5, 0.0, 0.4, 1.5, 2.9, 3.1, -7.9])
        r = self._fused(
            "int f(int x) { return x * 3; }\nmain { par (I) a[i] = f(w[i]); }",
            {"w": w},
        )
        assert r["a"].tolist() == [int(v) * 3 for v in w]

    def test_parameter_named_like_the_callers_element(self):
        r = self._fused(
            "int f(int i) { return i * 2; }\nmain { par (I) a[i] = f(i + 1); }"
        )
        assert r["a"].tolist() == [(k + 1) * 2 for k in range(8)]

    def test_body_reads_a_global_scalar(self):
        r = self._fused(
            "int f(int x) { return x + s; }\nmain { s = 5; par (I) a[i] = f(i); }"
        )
        assert r["a"].tolist() == [k + 5 for k in range(8)]

    def test_global_the_construct_shadows_is_not_inlined(self):
        # the body's s is the global (0); the caller's s is main's local
        fused, _ = _both(
            self.HEAD + "int f(int x) { return x + s; }\n"
            "main { int s; s = 5; par (I) a[i] = f(i) + s; }"
        )
        assert fused["a"].tolist() == [k + 5 for k in range(8)]

    def test_nested_calls(self):
        r = self._fused(
            "int g(int x) { return x + 1; }\n"
            "int f(int x) { return g(x) * 2; }\n"
            "main { par (I) a[i] = f(g(i)); }"
        )
        assert r["a"].tolist() == [(k + 2) * 2 for k in range(8)]

    @pytest.mark.parametrize("ret", ["x += 1", "x++", "x = x * 2"])
    @pytest.mark.parametrize("arg", ["i", "3"])
    def test_callee_that_writes_its_parameter_demotes(self, ret, arg):
        # the oracle writes the parameter in the call's frame; the global
        # of the same name stays 0
        fused, _ = _both(
            self.HEAD + f"int x;\nint f(int x) {{ return {ret}; }}\n"
            f"main {{ par (I) a[i] = f({arg}); }}"
        )
        assert fused["x"] == 0
        assert fused.fusion == {"unfusable": 1}

    def test_callee_with_if_still_demotes(self):
        # the arm never runs, so the refused call costs nothing; the
        # others arm still fuses
        fused, _ = _both(
            self.HEAD + "int f(int x) { if (x > 3) return 1; return 0; }\n"
            "main { par (I) st (i > 100) a[i] = f(i); others b[i] = 1; }"
        )
        assert fused.fusion["unfused_segments"] == 1
        assert fused.fusion["fused_segments"] == 1
        message = _error(
            self.HEAD + "int f(int x) { if (x > 3) return 1; return 0; }\n"
            "main { par (I) a[i] = f(i); }"
        )
        assert "uses If" in message

    def test_inlined_call_between_unfused_segments_bails(self):
        # the oracle's call clears the real cache between the two unfused
        # statements (a rand() call demotes them), so the second
        # recomputes w[0] * 2; a fused call would leave it cached
        fused, _ = _both(
            self.HEAD + "int f(int x) { return x + 1; }\n"
            "main { par (I) { b[i] = w[0] * 2 + rand() % 1; a[i] = f(i); "
            "b[i] = w[0] * 2 + rand() % 1 + b[i]; } }",
            {"w": np.full(8, 1.5)},
        )
        assert fused.fusion["unfusable"] == 1
        assert fused["b"].tolist() == [6] * 8

    def test_call_in_predicate_clears_the_cache(self):
        # the predicate caches a[i] * 2, then the call clears the cache:
        # the body recomputes (and charges) it, on both engines
        fused = self._fused(
            "int f(int x) { return x + 1; }\n"
            "main { par (I) st (a[i] * 2 < f(b[i])) b[i] = a[i] * 2; }",
            {"a": np.arange(8), "b": np.arange(8) * 3},
        )
        assert fused["b"].tolist() == [2 * k for k in range(8)]


class TestDynamicSubscripts:
    SRC = "index_set I:i = {0..7};\nint a[8], b[8], c[8];\nmain { %s }"

    def test_gather_through_an_index_array(self):
        c = np.array([3, 0, 7, 7, 1, 2, 5, 4])
        fused, _ = _both(
            self.SRC % "par (I) b[i] = a[c[i]] + a[c[i]];",
            {"a": np.arange(8) * 10, "c": c},
        )
        assert fused["b"].tolist() == (c * 20).tolist()
        assert "unfusable" not in fused.fusion

    def test_live_out_of_range_subscript(self):
        message = _error(self.SRC % "par (I) b[i] = a[i + c[i] + 4];")
        assert "subscript 0 of 'a' out of range (value 8, extent 8)" in message

    def test_masked_out_of_range_subscript(self):
        fused, _ = _both(
            self.SRC % "par (I) st (c[i] >= 0 && c[i] < 8) b[i] = a[c[i]];",
            {"a": np.arange(8) * 10, "c": np.array([1, 9, 2, -3, 4, 12, 6, 7])},
        )
        assert fused["b"].tolist() == [10, 0, 20, 0, 40, 0, 60, 70]

    def test_dynamic_scatter_still_demotes(self):
        fused, _ = _both(
            "index_set I:i = {0..7};\nint a[8], b[8];\nint s;\n"
            "main { s = 3; par (I) { b[s] = 7; a[i] = 1; } }"
        )
        assert fused["b"].tolist() == [0, 0, 0, 7, 0, 0, 0, 0]
        assert fused.fusion["unfused_segments"] == 1


PREFIX_INPUT = """
index_set I:i = {0..N-1};
int a[N], cnt[N];
int power2(int x) { return 1 << x; }
main {
    *par (I) st (i >= power2(cnt[i])) {
        a[i] = a[i] + a[i - power2(cnt[i])];
        cnt[i] = cnt[i] + 1;
    }
}
"""


@pytest.mark.usefixtures("default_engines")
class TestLanes:
    """A kernel holding a sweep-time-tier gather never runs lane-stacked:
    the batch screen sends it to per-lane execution, where each lane runs
    it solo and fused."""

    def test_run_batch_screens_to_solo_lanes(self, monkeypatch):
        verdicts = []
        screen = batch_mod._BatchConstruct._screen

        def spy(self):
            fused = screen(self)
            verdicts.append(fused is not None)
            return fused

        monkeypatch.setattr(batch_mod._BatchConstruct, "_screen", spy)
        rng = np.random.default_rng(7)
        inputs = [{"a": rng.integers(-50, 50, 64)} for _ in range(4)]
        solo = [
            UCProgram(PREFIX_INPUT, defines={"N": 64}).run(dict(inp)) for inp in inputs
        ]
        batch = UCProgram(PREFIX_INPUT, defines={"N": 64}).run_batch(
            [dict(inp) for inp in inputs]
        )
        assert verdicts == [False]
        for inp, s, b in zip(inputs, solo, batch):
            assert np.array_equal(b["a"], np.cumsum(inp["a"]))
            assert np.array_equal(b["a"], s["a"])
            assert b.fingerprint == s.fingerprint
            assert b.fusion == s.fusion and b.fusion["fused_sweeps"] == 6

    def test_stacked_call_with_a_per_lane_argument(self):
        # no dynamic gather: the kernel runs lane-stacked, and each lane
        # binds its own t to the inlined parameter
        src = (
            "index_set I:i = {0..7};\nint a[8];\nint t;\n"
            "int inc(int x) { return x + 1; }\n"
            "main { *par (I) st (a[i] < inc(t)) a[i] = inc(a[i]) + 0 * i; }"
        )
        inputs = [{"a": np.arange(8) - 2, "t": t} for t in (3, 5, 4)]
        solo = [_both(src, inp)[0] for inp in inputs]
        batch = UCProgram(src, compile_store=None).run_batch(
            [dict(inp) for inp in inputs]
        )
        for t, s, b in zip((3, 5, 4), solo, batch):
            assert b.compile["batched_lanes"] == len(inputs)
            assert np.array_equal(b["a"], s["a"])
            assert b.fingerprint == s.fingerprint
            assert b["a"].tolist() == [max(k - 2, t + 1) for k in range(8)]

    def test_coalesced_service_jobs_match_solo(self):
        solo = run_uc(PREFIX_STARPAR_UC, defines={"N": 64})
        svc = ExecutionService(ServiceConfig(workers=2))
        ids = [
            svc.submit(JobSpec(source=PREFIX_STARPAR_UC, defines={"N": 64}))
            for _ in range(4)
        ]
        res = svc.drain()
        assert svc.lost_jobs() == []
        assert svc.stats["coalesced_lanes"] >= 2
        for jid in ids:
            assert res[jid].ok, res[jid].error
            assert res[jid].fingerprint == solo.fingerprint
            assert np.array_equal(res[jid].run["a"], solo["a"])

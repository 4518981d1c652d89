"""Batched lane execution (``UCProgram.run_batch``).

The contract under test: lane ``i`` of ``run_batch(inputs)`` is
bit-identical — variable values, stdout and the Clock cost fingerprint —
to ``run(inputs[i])``, under every engine/frontier combination, and the
configurations that stand the lane engine down (sanitizer, fault plan,
shards) take the plain sequential loop.
"""

import numpy as np
import pytest

from repro.interp import batch as batch_mod
from repro.interp import frontier, fuse, solve, statements
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError
from repro.machine import small_config

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

#: plans off stands fusion down: every construct runs per lane
_FLAGS = [
    {"frontier": True, "plans": True},
    {"frontier": True, "plans": False},
    {"frontier": False, "plans": True},
    {"frontier": False, "plans": False},
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

    def test_batched_lanes_marker(self):
        inputs = [{"dist": _chain(12, w)} for w in (1, 2, 3)]
        prog = UCProgram(APSP, compile_store=None)
        batch = prog.run_batch(inputs)
        for r in batch:
            assert r.compile["batched_lanes"] == 3.0

    def test_thirty_two_lanes_stay_on_the_lane_engine(self):
        inputs = [{"dist": _chain(12, 1 + k % 7)} for k in range(32)]
        batch = UCProgram(APSP, compile_store=None).run_batch(
            [_copy(inp) for inp in inputs]
        )
        assert all(r.compile["batched_lanes"] == 32.0 for r in batch)
        for k in (0, 6, 31):
            solo = UCProgram(APSP, compile_store=None).run(_copy(inputs[k]))
            _assert_lanes_match([solo], [batch[k]], ["dist"])

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


@pytest.fixture
def screened(monkeypatch):
    """Verdicts of the lane engine's batchability screen, one per starred
    construct it met (True = the construct ran on stacked lanes)."""
    verdicts = []
    orig = batch_mod._BatchConstruct._screen

    def spy(self):
        fused = orig(self)
        verdicts.append(fused is not None)
        return fused

    monkeypatch.setattr(batch_mod._BatchConstruct, "_screen", spy)
    return verdicts


def _solo_and_batch(src, inputs, **kw):
    solo = [UCProgram(src, compile_store=None, **kw).run(_copy(inp)) for inp in inputs]
    batch = UCProgram(src, compile_store=None, **kw).run_batch(
        [_copy(inp) for inp in inputs]
    )
    return solo, batch


@pytest.mark.usefixtures("default_engines")
class TestLaneScalarsInFusedPar:
    """Scalar *inputs* that differ between lanes and are read inside a
    batched ``*par``: they travel as ``LaneScalars`` through the step
    adapters (binary, unary, scatter, scalar assignment)."""

    HEAD = "index_set I:i = {0..7};\nint a[8];\nint t;\nint s;\n"

    def _inputs(self, ts):
        return [{"a": np.zeros(8, dtype=np.int64), "t": t} for t in ts]

    def _check(self, body, ts, screened, names=("a",), **kw):
        solo, batch = _solo_and_batch(self.HEAD + body, self._inputs(ts), **kw)
        _assert_lanes_match(solo, batch, list(names))
        assert screened == [True], "the construct must run on stacked lanes"
        assert all(r.compile["batched_lanes"] == len(ts) for r in batch)
        return batch

    def test_predicate_reads_a_lane_scalar(self, screened):
        batch = self._check(
            "main { *par (I) st (a[i] < t) a[i] = a[i] + 1; }", (3, 5, 4), screened
        )
        assert [r["a"].tolist() for r in batch] == [[3] * 8, [5] * 8, [4] * 8]

    @pytest.mark.parametrize(
        "pred, ts, final",
        [
            ("a[i] < -t", (-3, -5, -4), [3, 5, 4]),
            ("a[i] < 3 + !t", (0, 5, 0), [4, 3, 4]),
            ("a[i] < (~t & 7)", (4, 2, 4), [3, 5, 3]),
        ],
    )
    def test_unary_on_a_lane_scalar(self, screened, pred, ts, final):
        batch = self._check(
            "main { *par (I) st (%s) a[i] = a[i] + 1; }" % pred, ts, screened
        )
        assert [int(r["a"][0]) for r in batch] == final

    @pytest.mark.parametrize(
        "pred, final",
        [
            ("a[i] < t + i", lambda t: [t + k for k in range(8)]),
            ("a[i] < (i > 3 ? t : t + 1)", lambda t: [t + 1] * 4 + [t] * 4),
        ],
        ids=["sum", "select"],
    )
    def test_a_lane_scalar_meets_a_grid_constant(self, screened, pred, final):
        """A per-lane scalar against lane-uniform index values, with as
        many lanes as the grid has points: the scalar is lifted onto the
        lane axis, never aligned with the grid's."""
        ts = tuple(range(1, 9))
        batch = self._check(
            "main { *par (I) st (%s) a[i] = a[i] + 1; }" % pred, ts, screened
        )
        assert [r["a"].tolist() for r in batch] == [final(t) for t in ts]

    @pytest.mark.parametrize(
        "pred", ["a[i] < t && a[i] > -1", "a[i] < t - 1 || a[i] == t - 1"]
    )
    def test_array_short_circuit_predicate(self, screened, pred):
        """The right side runs under the left side's refined mask."""
        batch = self._check(
            "main { *par (I) st (%s) a[i] = a[i] + 1; }" % pred, (3, 5, 4), screened
        )
        assert [r["a"].tolist() for r in batch] == [[3] * 8, [5] * 8, [4] * 8]

    def test_statically_true_scalar_left_operand(self, screened):
        """``N`` is a define, so ``N > 2 &&`` folds and only the right
        side's truth is evaluated — on the stack and, checked against the
        oracle here, solo."""
        body = "main { *par (I) st (N > 2 && a[i] < t) a[i] = a[i] + 1; }"
        ts = (3, 5, 4)
        batch = self._check(body, ts, screened, defines={"N": 8})
        for inp, lane in zip(self._inputs(ts), batch):
            oracle = UCProgram(
                self.HEAD + body, compile_store=None, plans=False, defines={"N": 8}
            ).run(inp)
            assert np.array_equal(oracle["a"], lane["a"])
            assert oracle.fingerprint == lane.fingerprint
        assert [int(r["a"][0]) for r in batch] == list(ts)

    @pytest.mark.parametrize(
        "value, final",
        [
            ("t", [3, 5, 4]),  # a per-lane scalar
            ("a[i]", [3, 5, 4]),  # a grid value every active VP agrees on
            ("s + 1", [3, 5, 4]),  # the lanes' own scalar, uniform until they retire
        ],
    )
    def test_masked_scalar_assignment(self, screened, value, final):
        batch = self._check(
            "main { *par (I) st (a[i] < t) { a[i] = a[i] + 1; s = %s; } }" % value,
            (3, 5, 4),
            screened,
            names=("a", "s"),
        )
        assert [int(r["s"]) for r in batch] == final

    def test_disagreeing_vps_reproduce_solo_uc101(self, screened):
        """One lane's active VPs assign distinct values to the scalar:
        the lane engine abandons the batch and the sequential rerun
        raises the solo run's exact located UC101."""
        src = self.HEAD + (
            "main { *par (I) st (a[i] < t) { a[i] = a[i] + 1; s = a[i]; } }"
        )
        inputs = self._inputs((3, 5, 4))
        inputs[1]["a"] = np.arange(8, dtype=np.int64)
        with pytest.raises(UCRuntimeError) as solo_err:
            UCProgram(src, compile_store=None).run(_copy(inputs[1]))
        assert "UC101" in str(solo_err.value)
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(src, compile_store=None).run_batch([_copy(i) for i in inputs])
        assert str(solo_err.value) == str(batch_err.value)
        assert screened == [True], "the error must come from inside the lane engine"


@pytest.mark.usefixtures("default_engines")
class TestOutOfRangeOnTheStack:
    """One lane's live VPs index out of range inside a batched ``*par``:
    the stacked gather/scatter must raise, never clip, and the run ends
    in that lane's solo error.  Frontier off: the error must come from
    the stacked fused kernel, not a compressed lane pass."""

    GATHER = (
        "index_set I:i = {0..7};\nint a[8];\nint t;\n"
        "main { *par (I) st (a[i] < t) a[i] = a[i] + 1 + 0 * a[i + 1]; }"
    )
    #: ``b[2 * i]`` stays provably unique after clipping, so it batches
    SCATTER = (
        "index_set I:i = {0..7};\nint a[8];\nint b[14];\nint t;\n"
        "main { *par (I) st (a[i] < t) { b[2 * i] = a[i]; a[i] = a[i] + 1; } }"
    )

    @pytest.mark.parametrize("src", [GATHER, SCATTER], ids=["gather", "scatter"])
    def test_the_offending_lane_raises_its_solo_error(self, screened, src):
        inputs = []
        for last, t in ((9, 3), (0, 3), (9, 2)):  # VP 7 live in lane 1 only
            a = np.zeros(8, dtype=np.int64)
            a[7] = last
            inputs.append({"a": a, "t": t})
        prog = UCProgram(src, compile_store=None, frontier=False)
        for clean in (inputs[0], inputs[2]):
            prog.run(_copy(clean))
        with pytest.raises(UCRuntimeError) as solo_err:
            prog.run(_copy(inputs[1]))
        assert "out of range" in str(solo_err.value)
        with pytest.raises(UCRuntimeError) as batch_err:
            prog.run_batch([_copy(i) for i in inputs])
        assert str(batch_err.value) == str(solo_err.value)
        assert screened == [True], "the error must come from inside the lane engine"


@pytest.mark.usefixtures("default_engines")
class TestStepCensus:
    """Every ``fuse`` step class is held by a kernel the lane engine ran
    on this file's programs: a class no stacked kernel holds is a lane
    path no test covers."""

    def test_every_step_class_runs_stacked(self, monkeypatch):
        kernels = []
        prepare = batch_mod._BatchConstruct._prepare

        def spy(self, fused):
            kernels.append(fused)
            return prepare(self, fused)

        monkeypatch.setattr(batch_mod._BatchConstruct, "_prepare", spy)
        head = TestLaneScalarsInFusedPar.HEAD
        lanes = TestLaneScalarsInFusedPar()._inputs
        programs = [
            (APSP, [{"dist": _chain(12, w)} for w in (1, 2, 3)], {}),
            (head + "main { *par (I) st (a[i] < -t) a[i] = a[i] + 1; }",
             lanes((-3, -5, -4)), {}),
            (head + "main { *par (I) st (a[i] < t) { a[i] = a[i] + 1; s = t; } }",
             lanes((3, 5, 4)), {}),
            (head + "main { *par (I) st (a[i] < (i > 3 ? t : t + 1)) a[i] = a[i] + 1; }",
             lanes((3, 5, 4)), {}),
            (head + "main { *par (I) st (a[i] < t && a[i] > -1) a[i] = a[i] + 1; }",
             lanes((3, 5, 4)), {}),
            (head + "main { *par (I) st (N > 2 && a[i] < t) a[i] = a[i] + 1; }",
             lanes((3, 5, 4)), {"defines": {"N": 8}}),
            (head + "int inc(int x) { return x + 1; }\n"
             "main { *par (I) st (a[i] < inc(t)) a[i] = inc(a[i]); }",
             lanes((3, 5, 4)), {}),
            # a pure builtin over a lane scalar alone and beside an array
            (head + "main { *par (I) st (a[i] < max(t, 2)) a[i] = min(a[i] + 2, t); }",
             lanes((3, 5, 4)), {}),
        ]  # fmt: skip
        for src, inputs, kw in programs:
            batch = UCProgram(src, compile_store=None, **kw).run_batch(inputs)
            assert all(r.compile["batched_lanes"] == len(inputs) for r in batch)
        step_classes = {
            name
            for name, c in vars(fuse).items()
            if isinstance(c, type) and callable(getattr(c, "run", None))
        }
        assert len(step_classes) == 14
        # a gather whose tier is decided at sweep time is screened out:
        # its kernel runs solo per lane (tests/interp/test_fuse_calls.py)
        stacked = {type(s).__name__ for k in kernels for s in k.steps()}
        assert stacked == step_classes - {"_DynGather"}


@pytest.fixture
def stacked_only(monkeypatch):
    """Fails a test whose batch, while on the lane engine, hands a lane to
    the solo sweep loop: its frontier sweeps must stay stacked."""
    inside, entered = [], []
    execute = batch_mod._BatchRun.execute

    def run(self):
        inside.append(True)
        try:
            return execute(self)
        finally:
            inside.pop()

    def loop(real):
        def spy(*args):
            entered.append(bool(inside))
            return real(*args)

        return spy

    monkeypatch.setattr(batch_mod._BatchRun, "execute", run)
    monkeypatch.setattr(statements, "sweep_loop", loop(statements.sweep_loop))
    monkeypatch.setattr(solve, "sweep_loop", loop(solve.sweep_loop))
    yield
    assert not any(entered), "a batched lane entered statements.sweep_loop"


@pytest.mark.usefixtures("default_engines", "stacked_only")
class TestStackedFrontier:
    """Every lane of a batched ``*par`` keeps its own frontier session row:
    it plans and charges each sweep as its solo run does, compressed or
    full, while one fused compute pass and one lane-program pass serve
    the whole stack."""

    #: 16 PEs put the 64-lane grid at VP ratio 4, so compression pays
    KW = dict(machine_config=small_config(16))

    #: counts up to 20 by a value-root reduction (the largest of +0 and
    #: +1), which keeps its fully occupied compressed sweeps dense
    COUNT = (
        "index_set I:i = {0..63}, K:k = {0..1};\nint a[64];\n"
        "main { *par (I) st (a[i] < 20) a[i] = $>(K; a[i] + k); }"
    )
    #: a wave that climbs from a[0]: the active set moves every sweep
    WAVE = (
        "index_set I:i = {0..63};\nint a[64];\n"
        "main { *par (I) st (a[i] < (i > 0 ? a[i-1] : 0) - 1) a[i] = a[i] + 1; }"
    )

    @staticmethod
    def _count_input(head, start, late=0):
        a = np.full(64, 20, dtype=np.int64)
        a[:head] = start
        a[:late] = 0
        return {"a": a}

    def _check(self, src, inputs, screened, **kw):
        solo, batch = _solo_and_batch(src, inputs, **self.KW, **kw)
        _assert_lanes_match(solo, batch, ["a"])
        for s, b in zip(solo, batch):
            assert s.frontier_trace == b.frontier_trace
        assert screened == [True]
        assert all(r.compile["batched_lanes"] == len(inputs) for r in batch)
        return batch

    def test_lanes_compressed_and_full_in_one_sweep(self, screened, monkeypatch):
        plans = []
        plan = frontier.StarSession.plan

        def spy(self):
            out = plan(self)
            plans.append([p is not None for p in out.rows])
            return out

        monkeypatch.setattr(frontier.StarSession, "plan", spy)
        inputs = [
            self._count_input(64, 5),  # every VP counts: never compresses
            self._count_input(40, 10),  # 40 of 64: dense compressed sweeps
            self._count_input(40, 10, late=3),  # stragglers: the lane path too
            self._count_input(64, 17),
        ]
        batch = self._check(self.COUNT, inputs, screened)
        compressed = [r.frontier.get("compressed_sweeps", 0) for r in batch]
        assert compressed[0] == compressed[3] == 0
        assert compressed[1] >= 2 and compressed[2] > compressed[1]
        assert 0 < batch[2].frontier["dense_sweeps"] < compressed[2]
        assert all(r["a"].tolist() == [20] * 64 for r in batch)
        assert any(True in rows and False in rows for rows in plans), plans

    def test_every_lane_compressed(self, screened, monkeypatch):
        passes = []
        run_lanes = frontier.StarSession._run_lanes

        def spy(self, plan):
            passes.append((len(plan.rows), sum(p is not None for p in plan.rows)))
            return run_lanes(self, plan)

        monkeypatch.setattr(frontier.StarSession, "_run_lanes", spy)

        def wave(top):
            a = np.zeros(64, dtype=np.int64)
            a[0] = top
            return {"a": a}

        ramp = {"a": np.arange(64, 0, -1, dtype=np.int64) * 3}
        batch = self._check(self.WAVE, [ramp, wave(70), wave(12)], screened)
        assert all(r.frontier["compressed_sweeps"] >= 20 for r in batch)
        assert all(r.frontier["full_sweeps"] == 1 for r in batch)
        # one pass per sweep serves every lane of the stack
        assert passes.count((3, 3)) >= 10, passes

    #: two arms write ``a``: a per-write change mask the net before/after
    #: diff of a kernel evaluation cannot give, so compressed rows always
    #: take the lane pass
    RESET = (
        "index_set I:i = {0..255};\nint a[256], cap[256];\nint t;\n"
        "main { *par (I)\n  st (a[i] < cap[i]) a[i] = a[i] + 1;\n"
        "  st (a[i] > cap[i] + t) a[i] = cap[i];\n}"
    )

    @staticmethod
    def _reset_input(counting, t=0):
        cap = np.zeros(256, dtype=np.int64)
        cap[:counting] = 30
        a = np.zeros(256, dtype=np.int64)
        a[200:] = 50
        return {"a": a, "cap": cap, "t": t}

    def test_two_arms_on_one_array_take_both_passes(self, screened, monkeypatch):
        passes = []
        for cls, name in ((frontier.StarSession, "_run_lanes"), (batch_mod._BatchConstruct, "_fused_sweep")):
            real = getattr(cls, name)

            def spy(self, arg, *args, real=real, name=name):
                if name == "_fused_sweep" or len(arg.rows) > 1:  # not a solo run's
                    passes.append(name)
                return real(self, arg, *args)

            monkeypatch.setattr(cls, name, spy)
        # lane 0 counts everywhere (full sweeps), lane 1 on three VPs
        inputs = [self._reset_input(256), self._reset_input(3)]
        batch = self._check(self.RESET, inputs, screened)
        assert batch[0].frontier.get("compressed_sweeps", 0) == 0
        assert batch[1].frontier["compressed_sweeps"] >= 20
        assert passes.count("_run_lanes") >= 20 and passes.count("_fused_sweep") >= 20

    def test_differing_scalars_on_two_arms_rerun_sequentially(self, screened):
        """Rows whose host scalars differ share no register file, and with
        two arms on one array the kernel cannot stand in: the batch
        reruns sequentially, lane for lane the solo runs."""
        inputs = [self._reset_input(3, t=0), self._reset_input(3, t=1)]
        solo, batch = _solo_and_batch(self.RESET, inputs, **self.KW)
        _assert_lanes_match(solo, batch, ["a"])
        assert all(r.frontier["compressed_sweeps"] >= 20 for r in solo)
        assert screened == [True]
        assert not any("batched_lanes" in r.compile for r in batch)

    def test_stacked_lane_carries_the_sweep_count(self, screened):
        """The sweep limit counts a stacked lane's sweeps as its solo run
        does: at the smallest limit its solo run passes, the batch
        completes on the lane engine; one below, both fail with the same
        message (the batch by its sequential rerun)."""
        inputs = [self._count_input(64, 17), self._count_input(40, 10)]

        def solo(limit):
            return UCProgram(
                self.COUNT, compile_store=None, solve_sweep_limit=limit, **self.KW
            ).run(_copy(inputs[1]))

        need = 1
        while True:
            try:
                solo(need)
                break
            except UCRuntimeError as err:
                solo_err = err
                need += 1
        assert need > 4, "the compressed lane must outlast the other one"
        self._check(self.COUNT, inputs, screened, solve_sweep_limit=need)
        with pytest.raises(UCRuntimeError) as batch_err:
            UCProgram(
                self.COUNT, compile_store=None, solve_sweep_limit=need - 1, **self.KW
            ).run_batch([_copy(i) for i in inputs])
        assert str(batch_err.value) == str(solo_err)


@pytest.mark.usefixtures("default_engines", "stacked_only")
class TestBatchingPays:
    """Coalescing must pay: a stack of lanes runs strictly fewer lane-program
    passes than the same lanes solo, with every lane's values, Clock and
    counters equal to its solo run's."""

    def _passes(self, monkeypatch, run):
        count = []
        steps = frontier._run_lane_steps

        def spy(program, R):
            count.append(1)
            return steps(program, R)

        monkeypatch.setattr(frontier, "_run_lane_steps", spy)
        try:
            return run(), len(count)
        finally:
            monkeypatch.setattr(frontier, "_run_lane_steps", steps)

    def _check(self, monkeypatch, src, defines, inputs, names):
        prog = UCProgram(src, defines=defines, compile_store=None)
        solo, solo_passes = self._passes(
            monkeypatch, lambda: [prog.run(_copy(inp)) for inp in inputs]
        )
        batch, batch_passes = self._passes(
            monkeypatch, lambda: prog.run_batch([_copy(inp) for inp in inputs])
        )
        assert all(r.compile["batched_lanes"] == len(inputs) for r in batch)
        _assert_lanes_match(solo, batch, names)
        assert all(r.frontier["compressed_sweeps"] > 0 for r in solo)
        assert 0 < batch_passes < solo_passes, (batch_passes, solo_passes)

    def test_obstacle_lanes(self, monkeypatch):
        from repro.bench.workloads import OBSTACLE_UC

        self._check(monkeypatch, OBSTACLE_UC, {"R": 16, "WALL": 10**6}, [None] * 3, ["a"])

    def test_dynamic_obstacle_lanes_with_different_walls(self, monkeypatch):
        from repro.bench.workloads import DYNAMIC_OBSTACLE_UC

        rng = np.random.default_rng(5)
        inputs = []
        for _ in range(3):
            walls = (rng.random((16, 16)) < 0.15).astype(np.int64)
            walls[0, 0] = 0
            a = np.full((16, 16), 10**6, dtype=np.int64)
            a[0, 0] = 0
            inputs.append({"a": a, "walls": walls})
        self._check(
            monkeypatch, DYNAMIC_OBSTACLE_UC, {"R": 16, "WALL": 10**6}, inputs, ["a", "walls"]
        )


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

    def test_sanitizer_env_restores_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
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
        assert not calls, "REPRO_SANITIZE=1 must not enter the lane engine"

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

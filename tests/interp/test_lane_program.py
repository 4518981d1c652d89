"""Lane programs: what a compressed sweep's flat register program may do
once per analysis or per session instead of per sweep — typed registers,
pre-resolved addresses, hoisted invariants, predicate values shared with
the body, pre-bound charge rows — and what it may not (see "Host cost of
a compressed sweep" in ``docs/PERFORMANCE.md``).

Every case runs on the plan engine, the ``plans=False`` oracle and the
unfused plan engine and must agree on values, Clock fingerprint and the
active-set trace; values must also equal full sweeps.  (Oracle and plan
engine share the lane path, so equality with the *parent commit* over
many programs is checked separately — ``.claude/skills/verify``.)
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import DYNAMIC_OBSTACLE_UC
from repro.interp import frontier
from repro.interp.compile_store import CompileStore
from repro.interp.program import UCProgram
from repro.lang.errors import UCRuntimeError
from repro.machine import small_config
from repro.machine.cost import Clock
from tests.conftest import run_uc

KW = dict(machine_config=small_config(16))
ENGINES = (dict(), dict(plans=False), dict(fusion=False))


def _engines(src, inputs=None, **kw):
    """Run on every engine; assert equal values, fingerprints and traces,
    and values equal to full sweeps.  Returns the plan-engine result."""
    kw = {**KW, **kw}
    runs = [run_uc(src, inputs, **kw, **eng) for eng in ENGINES]
    full = run_uc(src, inputs, frontier=False, **kw)
    for other in runs:
        for name in full:
            assert np.array_equal(other[name], full[name]), name
        assert other.fingerprint == runs[0].fingerprint
        assert other.frontier_trace == runs[0].frontier_trace
    return runs[0]


def _errors(src, inputs, monkeypatch, **kw):
    """The located error every engine raises; the frontier ones must raise
    it from inside a lane sweep."""
    entered = []
    real = frontier.StarSession._run_lanes

    def spy(self, states):
        entered.append(True)
        return real(self, states)

    monkeypatch.setattr(frontier.StarSession, "_run_lanes", spy)
    seen = []
    for eng in (dict(frontier=False),) + ENGINES:
        del entered[:]
        with pytest.raises(UCRuntimeError) as err:
            run_uc(src, inputs, **KW, **kw, **eng)
        seen.append((str(err.value), err.value.line, err.value.col))
        assert bool(entered) == eng.get("frontier", True), eng
    assert all(e == seen[0] for e in seen[1:]), seen
    return seen[0]


def _front(n=32, head=3):
    """``a`` such that ``a[i] < a[i-1]`` enables one more lane per sweep:
    lane n-1 first passes in a late, compressed sweep."""
    a = np.zeros(n, dtype=np.int64)
    a[0] = head
    return a


# ---------------------------------------------------------------------------
# sharing: the body reads the predicate's registers only where that is sound
# ---------------------------------------------------------------------------


class TestSharing:
    @pytest.mark.usefixtures("default_engines")
    def test_shared_subtree_is_not_recomputed(self):
        """The obstacle grid's body *is* a predicate subtree on the &&
        spine: its program is one select (plus the write's address)."""
        prog = UCProgram(DYNAMIC_OBSTACLE_UC, defines={"R": 6, "WALL": 10**6}, **KW)
        walls = np.zeros((6, 6), dtype=np.int64)
        walls[2, 1:5] = 1
        a = np.full((6, 6), 10**6, dtype=np.int64)
        a[0, 0] = 0
        prog.run({"a": a, "walls": walls})
        ip = prog.last_interpreter
        (an,) = [
            plan for (kind, _nid, _sig), (_node, plan) in ip.plan_cache._entries.items()
            if kind == "frontier"
        ]  # fmt: skip
        (arm,) = an.arms
        assert len(arm.steps) == 1 and len(arm.pred_steps) > 10
        assert arm.steps[0][2] is frontier.operator.getitem  # the select
        _engines(DYNAMIC_OBSTACLE_UC, {"a": a, "walls": walls}, defines={"R": 6, "WALL": 10**6})

    @pytest.mark.parametrize(
        "pred_guard",
        [
            "(i == 31 || b[i+1] >= 0)",
            "((i < 31 ? b[i+1] : 0) >= 0)",
            "((i < 31 && b[i+1] >= 0) || i == 31)",
            "!(i < 31 && b[i+1] < 0)",
            "((i < 31 && b[i+1] >= 0) + 1 > 0)",
            "(min(i < 31 && b[i+1] >= 0, 1) >= 0)",
            "((i < 31 && b[i+1] >= 0) ? 1 : 1)",
        ],
        ids=["or-right", "ternary-branch", "and-under-or-left", "and-under-not",
             "and-under-binary", "and-under-call", "and-under-ternary-cond"],
    )  # fmt: skip
    def test_off_spine_subtree_is_recomputed(self, pred_guard, monkeypatch):
        """``b[i+1]`` sits on an ``||`` right side / in a ternary branch of
        the predicate — or on the right of an ``&&`` that is itself not
        reached through ``&&`` alone, so a lane can pass with the ``&&``'s
        left side false: lane 31 passes with that read dead (clipped — the
        register holds garbage there), while the body's own ``b[i+1]`` is
        live on lane 31 and must raise what a full sweep raises."""
        src = (
            "index_set I:i = {0..31};\nint a[32], b[32];\n"
            f"main {{ *par (I) st (a[i] < (i > 0 ? a[i-1] : 0) && {pred_guard})\n"
            "    a[i] = a[i] + 1 + (b[i+1] > 100); }"
        )
        inputs = {"a": _front(), "b": np.arange(32) % 2}
        msg, line, _col = _errors(src, inputs, monkeypatch)
        assert "subscript 0 of 'b' out of range (value 32, extent 32)" in msg
        assert line == 4  # the body's reference, not the predicate's
        # the same program with the body's read guarded runs everywhere
        ok = src.replace("(b[i+1] > 100)", "(i < 31 ? b[i+1] > 100 : 0)")
        assert _engines(ok, inputs).frontier["compressed_sweeps"] > 20

    def test_subtree_reading_an_earlier_arms_target_is_recomputed(self):
        """Arm 2's predicate and body share ``b[i] + 1`` by text, but arm
        1's body writes ``b`` between the two evaluations."""
        src = (
            "index_set I:i = {0..31};\nint a[32], b[32];\n"
            "main { *par (I) st (b[i] < 4) b[i] = b[i] + 1;\n"
            "                st (a[i] != b[i] + 1) a[i] = b[i] + 1; }"
        )
        inputs = {"a": np.zeros(32, dtype=np.int64), "b": np.arange(32) % 4}
        on = _engines(src, inputs)
        assert on.frontier["compressed_sweeps"] >= 2
        # stale sharing would lag a behind b by one sweep on every sweep
        assert on["a"].tolist() == [5] * 32 and on["b"].tolist() == [4] * 32
        # ... while an arm that only reads what *later* arms write may share
        swapped = (
            "index_set I:i = {0..31};\nint a[32], b[32];\n"
            "main { *par (I) st (a[i] != b[i] + 1) a[i] = b[i] + 1;\n"
            "                st (b[i] < 4) b[i] = b[i] + 1; }"
        )
        _engines(swapped, inputs)


# ---------------------------------------------------------------------------
# hoisting: sweep-invariant steps run once per session, never unsoundly
# ---------------------------------------------------------------------------


class TestHoisting:
    SRC = """
index_set I:i = {0..31}, J:j = {0..7};
int a[32][8], walls[32][8];
int t;
main {
    *par (I, J)
        st (a[i][j] < t && %s && a[i][j] < (i > 0 ? a[i-1][j] : 99))
        a[i][j] = a[i][j] + 1;
}
"""

    def _inputs(self, t=6):
        a = np.zeros((32, 8), dtype=np.int64)
        a[0] = 50
        walls = (np.arange(256).reshape(32, 8) % 5 == 0).astype(np.int64)
        return {"a": a, "walls": walls, "t": t}

    def test_guarded_invariant_reference_never_raises_on_dead_lanes(self):
        """``walls[i-1][j]`` is out of range on row 0, under the invariant
        guard ``i > 0``: whether or not it is hoisted, row 0 is dead."""
        on = _engines(self.SRC % "(i > 0 && walls[i-1][j] == 0)", self._inputs())
        assert on.frontier["compressed_sweeps"] >= 5

    def test_unguarded_out_of_range_invariant_raises_the_full_sweep_error(self, monkeypatch):
        """``walls[i+1][j]`` leaves the array on row 31, which only comes
        alive (``a[i][j] >= 3`` there) in a late compressed sweep."""
        src = self.SRC % "(a[i][j] < 3 || walls[i+1][j] == 0)"
        inputs = self._inputs()
        inputs["walls"][:] = 0  # every column's front reaches row 31
        msg, line, col = _errors(src, inputs, monkeypatch)
        assert "subscript 0 of 'walls' out of range (value 32, extent 32)" in msg
        assert (line, col) == (7, 44)

    def test_host_memory_order_of_an_input_changes_nothing(self):
        """Lane programs address the flat C-ordered field, and a field is
        C-ordered whatever it was loaded from: an F-ordered or strided
        input compresses exactly as its C-ordered copy does."""
        src = self.SRC % "walls[i][j] == 0"
        want = _engines(src, self._inputs())
        assert want.frontier["compressed_sweeps"] >= 3
        for reorder in (np.asfortranarray, lambda x: np.repeat(x, 2, axis=1)[:, ::2]):
            inputs = self._inputs()
            for name in ("a", "walls"):
                inputs[name] = reorder(inputs[name])
                assert not inputs[name].flags.c_contiguous
            got = _engines(src, inputs)
            assert np.array_equal(got["a"], want["a"])
            assert got.fingerprint == want.fingerprint
            assert got.frontier_trace == want.frontier_trace
            assert got.frontier == want.frontier

    def test_tables_of_equal_bytes_stay_distinct(self):
        """The out-of-range row of ``w[k-1]`` over K = {0..7} (bool,
        ``[T, F, F, ...]``) and the constant address of ``c[1]`` (int64
        ``[1]``) are the same eight bytes: two constants, not one."""
        src = (
            "index_set I:i = {0..15}, J:j = I, K:k = {0..7};\n"
            "int d[16][16], w[8], c[4];\n"
            "main { *solve (I, J)\n"
            "    d[i][j] = $<(K; d[i][k] + d[k][j] + (k > 0 ? w[k-1] : 0) + c[1]); }"
        )
        d = np.full((16, 16), 10**9, dtype=np.int64)
        d[3:, 3:] = 3  # a short chain beside a clique: sweep 2 is sparse
        np.fill_diagonal(d, 0)
        d[0, 1] = d[1, 0] = d[1, 2] = d[2, 1] = 1
        inputs = {"d": d, "w": np.zeros(8, dtype=np.int64), "c": np.array([7, 0, 7, 7])}
        on = _engines(src, inputs, machine_config=small_config(64))
        assert on.frontier["compressed_sweeps"] >= 1

    def test_rebound_scalar_gives_fresh_tables(self):
        """``t`` feeds a hoisted comparison; one cached analysis serves
        three runs with different bindings."""
        src = self.SRC % "walls[i][j] == 0"
        store = CompileStore()
        prog = UCProgram(src, compile_store=store, **KW)
        seen = []
        for t in (3, 7, 3):
            got = prog.run(self._inputs(t))
            want = run_uc(src, self._inputs(t), plans=False, frontier=False, **KW)
            assert np.array_equal(got["a"], want["a"]), t
            assert got.frontier["compressed_sweeps"] >= 3
            seen.append((got.fingerprint, got.compile["recompiles"]))
        assert seen[0][0] == seen[2][0] != seen[1][0]
        assert [r for _fp, r in seen[1:]] == [0, 0]  # the analysis was reused


# ---------------------------------------------------------------------------
# typed registers: bool until an arithmetic consumer needs the C int
# ---------------------------------------------------------------------------


class TestTypedRegisters:
    @pytest.mark.parametrize(
        "expr",
        [
            "(a[i] > 0) + (b[i] > 0)",
            "!(a[i] > 2) + !b[i] + !(a[i] > 1 && b[i])",
            "~(a[i] > 1) + 3",
            "-(a[i] > b[i]) + 2",
            "(a[i] > 1) * 3 - (b[i] == 2) / 1 + (a[i] != b[i]) % 2",
            "((a[i] > 1) ? (b[i] > 0) : (a[i] == 0)) + (a[i] > 1 ? b[i] > 0 : 2)",
            "min((a[i] > 1), ABS(-(b[i] > 1))) + max(a[i] >= 2, 0)",
            "((a[i] > 2) == (b[i] > 1)) + ((a[i] > 0) < (b[i] > 0)) + (a[i] || 0) + (b[i] && 1)",
        ],
    )
    def test_comparison_results_follow_c_int_semantics(self, expr):
        src = (
            "index_set I:i = {0..31};\nint a[32], b[32], c[32];\n"
            f"main {{ *par (I) st (c[i] < 3 && c[i] + ({expr}) > -9)\n"
            f"    c[i] = c[i] + 1 + (({expr}) > 9) + (a[i] > b[i]); }}"
        )
        inputs = {
            "a": np.arange(32) % 5,
            "b": np.arange(32) % 3,
            "c": np.arange(32) % 4,
        }
        assert _engines(src, inputs).frontier["compressed_sweeps"] >= 1


# ---------------------------------------------------------------------------
# charging: pre-bound rows, and one Clock.charge per row when observed
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("default_engines")
class TestCharging:
    DEFS = {"R": 8, "WALL": 10**6}

    def _inputs(self):
        walls = np.zeros((8, 8), dtype=np.int64)
        walls[3, 1:7] = 1
        a = np.full((8, 8), 10**6, dtype=np.int64)
        a[0, 0] = 0
        return {"a": a, "walls": walls}

    def _run(self, monkeypatch, **kw):
        """(result, CM-side Clock.charge calls, dispatches counted)."""
        calls = [0]
        real = Clock.charge

        def charge(self, kind, **k):
            calls[0] += kind not in ("host", "host_cm_latency", "recovery", "dispatch")
            return real(self, kind, **k)

        monkeypatch.setattr(Clock, "charge", charge)
        res = run_uc(DYNAMIC_OBSTACLE_UC, self._inputs(), defines=self.DEFS, **KW, **kw)
        monkeypatch.setattr(Clock, "charge", real)
        return res, calls[0], res.counts["dispatch"]

    def test_rows_replay_inline_unless_a_hook_or_sink_is_installed(self, monkeypatch):
        plain, calls, dispatches = self._run(monkeypatch)
        assert plain.frontier["compressed_sweeps"] >= 10
        assert calls < dispatches / 2  # compressed sweeps bypassed Clock.charge
        for kw in (dict(faults="drop@alu#100000", checkpoints=True), dict(shards=4)):
            seen, calls, dispatches = self._run(monkeypatch, **kw)
            assert calls >= dispatches, kw  # ... and here every row went through it
            assert seen.fingerprint == plain.fingerprint
            assert seen.frontier_trace == plain.frontier_trace

    def test_fault_points_and_shard_ledgers_match_the_oracle(self):
        for kw in (
            dict(faults="kill:2@alu#120;drop@alu#700", checkpoints=True),
            dict(shards=4),
            dict(shards=4, faults="drop@global_or#9"),
        ):
            runs = [
                run_uc(DYNAMIC_OBSTACLE_UC, self._inputs(), defines=self.DEFS, **KW, **kw, **eng)
                for eng in ENGINES
            ]
            assert runs[0].frontier["compressed_sweeps"] >= 5, kw
            for other in runs[1:]:
                assert other.fingerprint == runs[0].fingerprint, kw
                assert other.fault_log == runs[0].fault_log and other.shards == runs[0].shards, kw
                assert np.array_equal(other["a"], runs[0]["a"])
            if "faults" in kw:
                assert runs[0].fault_log


# ---------------------------------------------------------------------------
# sessions die by refcount; shared tables do not grow
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("default_engines")
def test_sessions_die_by_refcount_and_nothing_accumulates(monkeypatch):
    """50 warm R=32 runs with the cyclic collector off: no session (nor
    its register file) survives its run, traced memory stops growing, and
    a session's tables stay within a small constant per grid slot."""
    R = 32
    rng = np.random.default_rng(4)
    walls = rng.random((R, R)) < 0.1
    walls[0, 0] = False
    a = np.full((R, R), 10**6, dtype=np.int64)
    a[0, 0] = 0
    inputs = {"a": a, "walls": walls.astype(np.int64)}
    prog = UCProgram(DYNAMIC_OBSTACLE_UC, defines={"R": R, "WALL": 10**6}, compile_store=CompileStore())
    sessions, table_bytes = [], []
    real_init = frontier.StarSession.__init__

    def init(self, *args, **kw):
        real_init(self, *args, **kw)
        sessions.append(weakref.ref(self))
        weakref.finalize(self, lambda R=self.__dict__: table_bytes.append(
            sum(r.nbytes for r in (R.get("_R") or []) if isinstance(r, np.ndarray) and r.base is None)
        ))  # fmt: skip

    monkeypatch.setattr(frontier.StarSession, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        for run in range(50):
            assert prog.run(inputs).frontier["compressed_sweeps"] > 30
            if run == 9:
                settled = tracemalloc.get_traced_memory()[0]
        # refcounts alone freed every session (no collection ran so far) ...
        assert len(sessions) == 50 and not any(ref() is not None for ref in sessions)
        # ... and once the machine's own Machine <-> VPSet cycles (one per
        # run, not this module's) are collected, nothing reachable grew:
        # no cache keyed by a per-run identity
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 64 * 1024, grown
    assert len(table_bytes) == 50 and 0 < max(table_bytes) <= 96 * R * R, table_bytes[:3]


# ---------------------------------------------------------------------------
# the grammar, at random
# ---------------------------------------------------------------------------

_OFF = st.integers(-2, 2)


def _ref(name, c, r):
    """``name[i+c]``, guarded when it can leave ``0..r-1``."""
    if c == 0:
        return f"{name}[i]"
    sub = f"i{'+' if c > 0 else '-'}{abs(c)}"
    guard = f"i < {r - c}" if c > 0 else f"i >= {-c}"
    return f"({guard} ? {name}[{sub}] : {abs(c)})"


@st.composite
def _atoms(draw, r):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return str(draw(st.integers(0, 3)))
    if kind == 1:
        return draw(st.sampled_from(["i", f"({r} - i)", "t"]))
    return _ref(draw(st.sampled_from(["a", "a", "w", "w"])), draw(_OFF), r)


@st.composite
def _values(draw, r, depth=2):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_atoms(r))
    x, y = draw(_values(r, depth - 1)), draw(_values(r, depth - 1))
    form = draw(st.integers(0, 6))
    if form == 0:
        return f"min({x}, {y})"
    if form == 1:
        return f"max({x}, {y})"
    if form == 2:
        return f"ABS({x} - {y})"
    if form == 3:
        return f"({x} + {y})"
    if form == 4:
        return f"(({x} < {y}) ? {x} : {y} + 1)"
    if form == 5:
        return f"(({x} > 1 && {y} > 0) + ({x} == {y} || w[i] > 1))"
    return f"(!({x} > {y}) + {y})"


@st.composite
def _programs(draw):
    r = draw(st.sampled_from([5, 8]))
    shared = draw(_values(r))
    other = draw(_values(r))
    bound = draw(st.integers(3, 6))
    # a[i] climbs towards min(bound, value): terminates, and the shared
    # subtree sits on the predicate's && spine (or, in shape 1, off it)
    shape = draw(st.integers(0, 2))
    if shape == 0:
        pred = f"a[i] < {bound} && a[i] < {shared}"
        body = f"min({bound}, a[i] + 1 + ({shared} > {other}))"
    elif shape == 1:
        pred = f"a[i] < {bound} && (w[i] > 2 || a[i] < {shared})"
        body = f"min({bound}, a[i] + 1 + ({shared} > 2))"
    else:
        pred = f"a[i] < {bound} && ({other} > 0 ? a[i] < {shared} : a[i] < 2)"
        body = f"min({bound}, max(a[i] + 1, min({shared}, {other})))"
    src = (
        f"index_set I:i = {{0..{r - 1}}};\nint a[{r}], w[{r}];\nint t;\n"
        f"main {{ *par (I) st ({pred}) a[i] = {body}; }}"
    )
    seed = draw(st.integers(0, 2**16))
    return src, r, seed, draw(st.sampled_from([1, 4]))


@pytest.mark.usefixtures("default_engines")
@settings(max_examples=60, deadline=None)
@given(_programs())
def test_random_frontier_programs_match_the_oracle(case):
    src, r, seed, shards = case
    rng = np.random.default_rng(seed)
    inputs = {
        "a": rng.integers(0, 3, size=r).astype(np.int64),
        "w": rng.integers(0, 5, size=r).astype(np.int64),
        "t": int(rng.integers(0, 4)),
    }
    kw = dict(machine_config=small_config(2), shards=shards)
    runs = [run_uc(src, inputs, **kw, **eng) for eng in ENGINES]
    full = run_uc(src, inputs, frontier=False, **kw)
    for other in runs:
        assert np.array_equal(other["a"], full["a"]), src
        assert other.fingerprint == runs[0].fingerprint, src
        assert other.frontier_trace == runs[0].frontier_trace, src
        assert other.shards == runs[0].shards, src

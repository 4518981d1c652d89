"""The strip-mined reduction kernel (``fuse._strip_reduce``).

One kernel serves the solo fused sweep and the batched lanes.  What it
is held to is the unblocked formula it replaces — ``binop(a, b)``
broadcast to the inner shape, then ``ufunc.reduce`` over the trailing
axes — bit for bit, dtype included, for every operand layout it accepts;
where it declines (returns None) the caller evaluates exactly that
formula.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import eval_expr as E
from repro.interp import fuse
from repro.interp.program import UCProgram
from repro.lang.operators import BINARY_UFUNCS

pytestmark = pytest.mark.usefixtures("default_engines")

_RED_OPS = ("min", "max", "add", "mul")
_FLOAT_BINOPS = ("+", "-", "*")  # numpy defines no bitwise/shift loop on floats


def unblocked(bin_op, red_op, a, b, shape, n_red):
    """The definition: what ``_Reduce.reduce_unmasked`` does without the
    kernel (``apply_binop`` is the bare ufunc for these ops)."""
    val = np.broadcast_to(np.asarray(BINARY_UFUNCS[bin_op](a, b)), shape)
    axes = tuple(range(len(shape) - n_red, len(shape)))
    return E._RED_UFUNC[red_op].reduce(val, axis=axes)


def same_bits(got, want) -> bool:
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == np.ascontiguousarray(want).tobytes()
    )


def _values(rng, shape, dtype, bin_op):
    if dtype == np.float64:
        return rng.uniform(0.5, 1.5, shape)
    hi = 5 if bin_op in ("<<", ">>") else 1000
    return rng.integers(0 if bin_op in ("<<", ">>") else -hi, hi, shape).astype(np.int64)


def _operand(rng, shape, form, dtype, bin_op):
    """``form``: "full", "scalar", or a tuple of axes collapsed to extent 1."""
    if form == "scalar":
        v = _values(rng, (), dtype, bin_op)
        return float(v) if dtype == np.float64 else int(v)
    if form == "full":
        return _values(rng, shape, dtype, bin_op)
    compact = tuple(1 if ax in form else s for ax, s in enumerate(shape))
    return _values(rng, compact, dtype, bin_op)


#: (shape, trailing reduced axes, (form of a, form of b)); the rank-4
#: shapes are the lane-stacked ones (leading lane axis, never reduced)
_CASES = [
    ((11, 9), 1, ("full", "full")),
    ((11, 9), 1, ((1,), (0,))),
    ((7, 5, 6), 1, ((1,), (0,))),  # the APSP pattern d[i][k] + d[k][j]
    ((7, 5, 6), 1, ("full", "scalar")),
    ((7, 5, 6), 2, ((2,), (0, 1))),
    ((7, 1, 6), 1, ((1,), (0, 1))),  # an extent-1 axis in the shape itself
    ((3, 7, 5, 6), 1, ((2,), (1,))),  # lanes x APSP
    ((3, 7, 5, 6), 2, ("scalar", (1,))),
    ((7, 5, 6), 1, ("scalar", "scalar")),
    ((3, 4, 5, 6), 2, ((3,), (0, 2))),
    ((1, 7, 5, 6), 1, ((2,), (1,))),  # a single lane is still a lane axis
]


@pytest.fixture
def tiny_strips(monkeypatch):
    """Shrink the strip budget so small shapes take several strips, of a
    width that does not divide the extent."""
    monkeypatch.setattr(fuse, "_STRIP_BYTES", 8 * 50)


class TestStripsMatchTheUnblockedFormula:
    @pytest.mark.parametrize("order_safe", [True, False])
    @pytest.mark.parametrize("red_op", _RED_OPS)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_every_binop_shape_and_operand_form(
        self, tiny_strips, dtype, red_op, order_safe
    ):
        rng = np.random.default_rng(7)
        binops = sorted(fuse._BLOCKED_BINOPS) if dtype == np.int64 else _FLOAT_BINOPS
        for bin_op, (shape, n_red, forms) in itertools.product(binops, _CASES):
            a = _operand(rng, shape, forms[0], dtype, bin_op)
            b = _operand(rng, shape, forms[1], dtype, bin_op)
            got = fuse._strip_reduce(bin_op, red_op, a, b, shape, n_red, order_safe)
            want = unblocked(bin_op, red_op, a, b, shape, n_red)
            assert got is not None, (bin_op, shape, forms)
            assert same_bits(got, want), (bin_op, shape, n_red, forms)

    def test_strip_width_does_not_divide_the_extent(self, tiny_strips):
        # 50 int64 slots over a (K=6)-long run x 5 columns: one row of 30
        # per step of axis 0, so strips are 1 row of 7 - and in int32
        # (100 slots) 3 rows, 7 = 3 + 3 + 1
        rng = np.random.default_rng(1)
        a = rng.integers(0, 100, (7, 1, 6))
        b = rng.integers(0, 100, (1, 5, 6))
        for safe in (True, False):
            got = fuse._strip_reduce("+", "min", a, b, (7, 5, 6), 1, safe)
            assert same_bits(got, unblocked("+", "min", a, b, (7, 5, 6), 1))

    def test_float_sum_keeps_the_pairwise_grouping(self):
        # long contiguous runs: numpy sums them pairwise in blocks, so a
        # kernel that split or reordered the run would differ in the last
        # bits (the default budget gives several strips of 16 rows here)
        rng = np.random.default_rng(2)
        shape = (40, 8, 4096)
        a = rng.uniform(-1, 1, (40, 1, 4096))
        b = rng.uniform(-1, 1, (1, 8, 4096))
        for bin_op in ("+", "*"):
            got = fuse._strip_reduce(bin_op, "add", a, b, shape, 1, False)
            assert same_bits(got, unblocked(bin_op, "add", a, b, shape, 1))
            # and the reference really is order-sensitive on this input
            k_first = np.moveaxis(BINARY_UFUNCS[bin_op](a, b), -1, 0)
            seq = np.add.reduce(np.ascontiguousarray(k_first), axis=0)
            assert not np.array_equal(seq, got)

    def test_mixed_int_and_float_operands_promote_like_numpy(self, tiny_strips):
        rng = np.random.default_rng(3)
        a = rng.integers(-50, 50, (7, 1, 6))
        b = rng.uniform(0.5, 1.5, (1, 5, 6))
        for x, y in ((a, b), (b, a), (a, 0.25), (2, b)):
            got = fuse._strip_reduce("*", "add", x, y, (7, 5, 6), 1, True)
            assert same_bits(got, unblocked("*", "add", x, y, (7, 5, 6), 1))

    def test_operands_outside_the_pattern_are_declined(self):
        a = np.arange(12).reshape(3, 4)
        f = fuse._strip_reduce
        assert f("+", "min", a.astype(np.int32), a, (3, 4), 1, True) is None
        assert f("+", "min", a.astype(bool), a, (3, 4), 1, True) is None
        assert f("+", "min", True, a, (3, 4), 1, True) is None
        assert f("+", "min", 2**63, a, (3, 4), 1, True) is None
        assert f("+", "min", a, a, (3, 4), 2, True) is None  # nothing to strip

    def test_a_non_c_ordered_intermediate_is_declined_unless_reorder_is_legal(self):
        # d[i][k] + d[k][j] with the second operand a transposed *view*:
        # numpy lays the unblocked intermediate out j-innermost, so its
        # float sum runs sequentially over k, not pairwise
        rng = np.random.default_rng(4)
        d = rng.uniform(0, 1, (9, 9))
        a, b = d[:, None, :], d.T[None, :, :]
        assert not BINARY_UFUNCS["+"](a, b).flags.c_contiguous
        assert fuse._strip_reduce("+", "add", a, b, (9, 9, 9), 1, False) is None
        di = rng.integers(0, 99, (9, 9))
        a, b = di[:, None, :], di.T[None, :, :]
        assert fuse._strip_reduce("+", "add", a, b, (9, 9, 9), 1, False) is None
        got = fuse._strip_reduce("+", "add", a, b, (9, 9, 9), 1, True)
        assert same_bits(got, unblocked("+", "add", a, b, (9, 9, 9), 1))


class TestInt32Window:
    """The int32 narrowing of the order-safe class must be bit-exact."""

    def test_int32_window_rejects_overflowing_ops(self):
        w = fuse._int32_window
        m = fuse._INT32_MAX
        assert w("+", "min", (0, 100), (0, 100), 16)
        assert not w("+", "min", (0, m), (0, 1), 16)
        assert not w("+", "min", (0, m + 1), (0, 0), 16)  # operand too wide
        assert w("*", "max", (0, 46000), (0, 46000), 4)
        assert not w("*", "max", (0, 47000), (0, 47000), 4)
        assert w("+", "add", (0, 100), (0, 100), 16)
        assert not w("+", "add", (0, m // 4), (0, 0), 16)  # partial sums
        assert not w("+", "mul", (1, 2), (1, 2), 16)  # products explode
        assert not w("<<", "min", (0, 1), (0, 1), 4)  # shifts never narrow

    def test_operands_at_the_int32_edges(self):
        w = fuse._int32_window
        lo, hi = fuse._INT32_MIN, fuse._INT32_MAX
        assert (lo, hi) == (-(2**31), 2**31 - 1)
        assert w("&", "min", (lo, hi), (lo, hi), 8)  # closed under bitwise ops
        assert w("+", "max", (lo, 0), (0, 0), 8)
        assert w("-", "min", (0, hi), (0, 0), 8)
        assert not w("+", "max", (lo - 1, 0), (0, 0), 8)
        assert not w("|", "max", (0, hi + 1), (0, 0), 8)
        assert not w("-", "min", (lo, 0), (1, 1), 8)  # lo - 1
        assert not w("-", "min", (0, 0), (lo, 0), 8)  # 0 - lo = 2^31

    def test_partial_sum_bound_times_extent(self):
        w = fuse._int32_window
        hi = fuse._INT32_MAX
        assert w("+", "add", (0, hi // 16), (0, 0), 16)
        assert not w("+", "add", (0, hi // 16 + 1), (0, 0), 16)
        assert w("+", "add", (-(2**31) // 16, 0), (0, 0), 16)
        assert not w("+", "add", (-(2**31) // 16 - 1, 0), (0, 0), 16)
        # mixed signs: each extreme is bounded on its own
        assert not w("+", "add", (-(hi // 16) - 2, hi // 16), (0, 0), 16)

    @pytest.mark.parametrize("red_op", _RED_OPS)
    def test_narrowed_and_refused_strips_agree_with_int64(self, tiny_strips, red_op):
        rng = np.random.default_rng(5)
        shape = (7, 5, 6)
        for top in (2**30 - 1, 2**30, 2**31 - 1, 2**31, 2**40):
            a = rng.integers(-top, top + 1, (7, 1, 6), dtype=np.int64)
            b = rng.integers(-top, top + 1, (1, 5, 6), dtype=np.int64)
            a[0, 0, 0], b[0, 0, 0] = top, top  # the bound is attained
            for bin_op in ("+", "-", "*", "&", "|", "^"):
                got = fuse._strip_reduce(bin_op, red_op, a, b, shape, 1, True)
                assert same_bits(got, unblocked(bin_op, red_op, a, b, shape, 1))

    def test_int64_wraparound_near_2_63_stays_int64(self, tiny_strips):
        rng = np.random.default_rng(6)
        shape = (7, 5, 6)
        a = rng.integers(2**62, 2**63 - 1, (7, 1, 6), dtype=np.int64)
        b = rng.integers(2**62, 2**63 - 1, (1, 5, 6), dtype=np.int64)
        for bin_op, red_op in itertools.product(("+", "*", "-"), _RED_OPS):
            want = unblocked(bin_op, red_op, a, b, shape, 1)
            for safe in (True, False):
                got = fuse._strip_reduce(bin_op, red_op, a, b, shape, 1, safe)
                assert same_bits(got, want)
        assert (unblocked("+", "min", a, b, shape, 1) < 0).all()  # it wrapped

    def test_a_large_operand_is_read_in_place_never_narrowed(self, monkeypatch):
        seen = []
        real = fuse._int32_window
        monkeypatch.setattr(
            fuse, "_int32_window", lambda *args: seen.append(args) or real(*args)
        )
        monkeypatch.setattr(fuse, "_COMPACT_MAX", 40)
        rng = np.random.default_rng(8)
        a = rng.integers(0, 9, (7, 5, 6))  # 210 real elements: not scanned
        b = rng.integers(0, 9, (1, 5, 6))
        got = fuse._strip_reduce("+", "min", a, b, (7, 5, 6), 1, True)
        assert same_bits(got, unblocked("+", "min", a, b, (7, 5, 6), 1))
        assert not seen


def _apsp_src(n):
    return (
        f"int N = {n};\n"
        "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
        f"int dist[{n}][{n}];\n"
        "main {\n"
        "    *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
        "}\n"
    )


class TestSoloSweepsUseTheKernel:
    @pytest.mark.parametrize("n", [48, 128])
    def test_bounds_straddling_int32_stay_int64(self, n):
        """The solo twin of ``test_batch.TestBlockedReduceNarrowing``:
        2^30 + 2^30 is exactly one past INT32_MAX, so the window must
        refuse and the fused sweep must agree with the tree-walking
        oracle to the bit (n=48 sits below the strip threshold, n=128
        above it)."""
        d = np.full((n, n), 2**30, dtype=np.int64)
        np.fill_diagonal(d, 0)
        for a in range(n - 1):
            d[a, a + 1] = d[a + 1, a] = 3
        fused = UCProgram(_apsp_src(n), compile_store=None).run({"dist": d.copy()})
        oracle = UCProgram(_apsp_src(n), compile_store=None, plans=False).run(
            {"dist": d.copy()}
        )
        assert fused.fusion["fused_sweeps"] > 0
        assert np.array_equal(fused["dist"], oracle["dist"])
        assert fused["dist"].dtype == oracle["dist"].dtype
        assert fused.fingerprint == oracle.fingerprint

    def test_solo_and_lanes_call_the_one_kernel(self, monkeypatch):
        calls = []
        real = fuse._strip_reduce

        def spy(bin_op, red_op, a, b, shape, n_red, order_safe):
            out = real(bin_op, red_op, a, b, shape, n_red, order_safe)
            calls.append((shape, out is not None))
            return out

        monkeypatch.setattr(fuse, "_strip_reduce", spy)
        n = 64
        rng = np.random.default_rng(9)
        inputs = []
        for _ in range(2):
            d = rng.integers(1, n + 1, (n, n)).astype(np.int64)
            np.fill_diagonal(d, 0)
            inputs.append({"dist": d})
        prog = UCProgram(_apsp_src(n), compile_store=None)
        solo = [prog.run({"dist": inp["dist"].copy()}) for inp in inputs]
        assert calls and all(c == ((n, n, n), True) for c in calls)
        del calls[:]
        lanes = prog.run_batch([{"dist": inp["dist"].copy()} for inp in inputs])
        assert calls and all(c == ((2, n, n, n), True) for c in calls)
        for a, b in zip(solo, lanes):
            assert np.array_equal(a["dist"], b["dist"])
            assert a.fingerprint == b.fingerprint
            assert a.fusion == b.fusion


# -- property: random operand shapes and strides -------------------------------


@st.composite
def _kernel_inputs(draw):
    rank = draw(st.integers(2, 4))
    n_red = draw(st.integers(1, min(2, rank - 1)))
    # runs of 8 and more are where numpy's float sum stops being sequential
    shape = tuple(
        draw(st.integers(1, 24 if ax >= rank - n_red else 6)) for ax in range(rank)
    )
    floating = draw(st.booleans())
    bin_op = draw(st.sampled_from(_FLOAT_BINOPS if floating else sorted(fuse._BLOCKED_BINOPS)))
    red_op = draw(st.sampled_from(_RED_OPS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dtype = np.float64 if floating else np.int64

    def operand():
        kind = draw(st.sampled_from(["scalar", "array", "array", "array"]))
        if kind == "scalar":
            return _operand(rng, shape, "scalar", dtype, bin_op)
        # per axis: real extent, extent 1, or a stride-0 broadcast
        modes = [draw(st.sampled_from(["real", "one", "zero"])) for _ in shape]
        real = tuple(s if m == "real" else 1 for s, m in zip(shape, modes))
        layout = draw(st.sampled_from(["c", "transposed", "strided"]))
        if layout == "transposed":
            perm = draw(st.permutations(range(rank)))
            base = _values(rng, tuple(real[p] for p in perm), dtype, bin_op)
            arr = base.transpose(np.argsort(perm))
        elif layout == "strided":
            base = _values(rng, tuple(2 * r for r in real), dtype, bin_op)
            arr = base[tuple(slice(None, None, 2) for _ in real)]
        else:
            arr = _values(rng, real, dtype, bin_op)
        assert arr.shape == real
        view = tuple(s if m == "zero" else r for s, r, m in zip(shape, real, modes))
        arr = np.broadcast_to(arr, view)
        lead = draw(st.integers(0, rank))  # drop leading extent-1 axes
        while lead and arr.ndim and arr.shape[0] == 1:
            arr, lead = arr[0], lead - 1
        return arr

    return (
        bin_op, red_op, operand(), operand(), shape, n_red, draw(st.booleans()),
        draw(st.sampled_from([8 * 4, 8 * 17, 8 * 64, 1 << 19])),
    )  # fmt: skip


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_any_operand_layout_matches_the_unblocked_formula(args):
    bin_op, red_op, a, b, shape, n_red, order_safe, budget = args
    saved = fuse._STRIP_BYTES
    fuse._STRIP_BYTES = budget
    try:
        got = fuse._strip_reduce(bin_op, red_op, a, b, shape, n_red, order_safe)
    finally:
        fuse._STRIP_BYTES = saved
    if got is None:
        return  # declined: the caller evaluates the unblocked formula itself
    want = unblocked(bin_op, red_op, a, b, shape, n_red)
    assert same_bits(got, np.asarray(want))

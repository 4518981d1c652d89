"""Fuse-build address resolution is O(axes), not O(grid).

``fuse._full_idx`` hands out grid-shaped *views* of clipped per-axis
vectors; the broadcast-axis test reads strides; scatter uniqueness is
proved from the per-axis vectors.  The dense formulas they replaced are
kept here as the reference: on every shape of subscript the decisions —
gather kind, stored index arrays, scatter ``unique`` flag and flat
address vector — must be the ones the dense code made.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bench.workloads import APSP_SOLVE_UC
from repro.interp import fuse
from repro.interp.plan import _VERIFY_LIMIT, _build_index_recipe
from repro.interp.program import UCProgram
from repro.machine.router import has_duplicates

pytestmark = pytest.mark.usefixtures("default_engines")


# -- the dense reference (what fuse.py computed before) ------------------------


def dense_full_idx(subs, view_shape, grid_shape):
    out = []
    for a, s in enumerate(subs):
        if isinstance(s, np.ndarray):
            clipped = np.clip(s, 0, view_shape[a] - 1)
        else:
            clipped = np.full(grid_shape, int(s), dtype=np.int64)
        out.append(np.broadcast_to(clipped, grid_shape))
    return tuple(out)


def dense_gather_decision(data, subs, view_shape, grid_shape):
    """(kind, idx) the dense formulas chose for a non-shift gather."""
    recipe = _build_index_recipe(subs, view_shape, grid_shape)
    grid_size = int(np.prod(grid_shape))
    idx_full = dense_full_idx(subs, view_shape, grid_shape)
    idx = None
    bcast = tuple(
        a
        for a in range(len(grid_shape))
        if grid_shape[a] > 1 and not any(np.ptp(ia, axis=a).any() for ia in idx_full)
    )
    if bcast:
        sl = tuple(
            slice(0, 1) if a in bcast else slice(None) for a in range(len(grid_shape))
        )
        reduced = tuple(np.ascontiguousarray(ia[sl]) for ia in idx_full)
        if grid_size > _VERIFY_LIMIT or np.array_equal(
            np.broadcast_to(data[reduced], tuple(grid_shape)), data[idx_full]
        ):
            recipe, idx = None, reduced
    if recipe is not None and idx is None and grid_size <= _VERIFY_LIMIT:
        if not np.array_equal(np.asarray(recipe.take(data)), data[idx_full]):
            recipe, idx = None, idx_full
    if recipe is None and idx is None:
        idx = idx_full
    if recipe is not None:
        return "recipe", None
    return ("reduced" if bcast else "dense"), idx


def dense_scatter_decision(subs, view_shape, grid_shape):
    flat_idx = tuple(ia.reshape(-1) for ia in dense_full_idx(subs, view_shape, grid_shape))
    full_flat = np.ravel_multi_index(flat_idx, view_shape)
    return full_flat, len(set(full_flat.tolist())) == full_flat.size


# -- capture what the compiler decided ----------------------------------------------


@pytest.fixture
def decisions(monkeypatch):
    """Every ``_Gather``/``_Scatter`` a compile emits, each paired with the
    ``(subs, view_shape, grid_shape)`` its address resolution saw."""
    seen = {"gathers": [], "scatters": [], "last": None}
    real_full_idx = fuse._Fuser._full_idx

    def full_idx(self, subs, view_shape, grid_shape):
        out = real_full_idx(self, subs, view_shape, grid_shape)
        seen["last"] = (list(subs), tuple(view_shape), tuple(grid_shape), out)
        return out

    class Gather(fuse._Gather):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            if self.shift is None:
                seen["gathers"].append((self, seen["last"]))

    class Scatter(fuse._Scatter):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            seen["scatters"].append((self, seen["last"]))

    monkeypatch.setattr(fuse._Fuser, "_full_idx", full_idx)
    monkeypatch.setattr(fuse, "_Gather", Gather)
    monkeypatch.setattr(fuse, "_Scatter", Scatter)
    return seen


def _check_against_dense(seen):
    kinds = set()
    for step, (subs, view_shape, grid_shape, views) in seen["gathers"]:
        reference = dense_full_idx(subs, view_shape, grid_shape)
        assert len(views) == len(reference)
        for view, ref in zip(views, reference):
            assert view.shape == ref.shape == grid_shape
            assert np.array_equal(view, ref)
        kind, idx = dense_gather_decision(step.arr.data, subs, view_shape, grid_shape)
        kinds.add(kind)
        if kind == "recipe":
            assert step.recipe is not None and step.idx is None
            continue
        assert step.recipe is None and len(step.idx) == len(idx)
        for got, want in zip(step.idx, idx):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.flags.c_contiguous and got.dtype == want.dtype
    for step, (subs, view_shape, grid_shape, _views) in seen["scatters"]:
        flat, unique = dense_scatter_decision(subs, view_shape, grid_shape)
        kinds.add("unique" if unique else "duplicates")
        assert step.unique is unique
        assert step.flat.shape == flat.shape and np.array_equal(step.flat, flat)
        assert not has_duplicates(flat) is unique
    return kinds


def _run(source, **defines):
    return UCProgram(source, defines=defines, compile_store=None).run()


#: rank 1: clipping offsets both ways, a constant subscript, a mirror
RANK1 = """
index_set I:i = {0..N-1};
int a[N], b[N], c[N], d[N], e[N];
main {
    par (I) b[i] = i * 3 + 1;
    par (I) st (i < N-1) a[i] = b[i+1];
    par (I) st (i > 1) c[i] = b[i-2] + b[0];
    par (I) d[i] = b[N-1-i] + b[N-1];
    par (I) e[N-1-i] = b[i];
}
"""

#: rank 2: transposed read, row/column broadcasts, constants on one axis,
#: a sum of two axes (varies along both: the dense fallback), transposed
#: and mirrored writes
RANK2 = """
index_set I:i = {0..N-1}, J:j = {0..M-1};
int a[N][M], t[M][N], s[N][M], u[N][M], v[N][M], w[M][N], row[M], col[N], diag[N+M];
main {
    par (I, J) a[i][j] = i * M + j;
    par (I) col[i] = 7 * i;
    par (J) row[j] = 100 + j;
    par (I, J) diag[i + j] = 5;
    par (I, J) t[j][i] = a[i][j];
    par (I, J) s[i][j] = row[j] + col[i] + a[i][0] + a[0][j] + a[N-1][M-1];
    par (I, J) u[i][j] = diag[i + j] + a[N-1-i][j];
    par (I, J) st (j < M-1 && i > 0) v[i][j] = a[i-1][j+1];
    par (I, J) w[M-1-j][i] = a[i][M-1-j];
}
"""

#: rank 3: the APSP access pattern, a fully permuted read, constants, and a
#: reduction operand that ignores the outer axes
RANK3 = """
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int d[N][N], e[N][N], f[N][N], g[N][N], c[N][N][N], p[N][N][N];
main {
    par (I, J) d[i][j] = (i * 5 + j * 3) % N + 1;
    par (I, J) e[i][j] = $<(K; d[i][k] + d[k][j]);
    par (I, J) f[i][j] = $+(K; d[k][k] + d[j][i] + d[0][k]);
    par (I, J, K) c[i][j][k] = d[i][j] + d[j][k] + d[k][i];
    par (I, J, K) p[k][i][j] = c[j][k][i] + c[i][j][0];
    par (I, J) g[i][j] = $>(K st (k < N-1) c[i][j][k+1]);
}
"""

#: several lanes write one element (equal values, so the runtime's
#: single-assignment check lets them through): never provably unique
DUPLICATES = """
index_set I:i = {0..N-1}, J:j = {0..N-1};
int a[N], b[N][N], c[N];
main {
    par (I) a[0] = 9;
    par (I) st (i < N-1) c[i+1] = 4;
    par (I, J) b[i][0] = i;
    par (I, J) b[j][j] = 3;
}
"""


class TestDecisionsMatchTheDenseFormulas:
    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_rank1(self, decisions, n):
        _run(RANK1, N=n)
        kinds = _check_against_dense(decisions)
        assert "unique" in kinds and decisions["scatters"]

    @pytest.mark.parametrize("n,m", [(4, 6), (1, 5), (7, 1), (300, 260)])
    def test_rank2(self, decisions, n, m):
        _run(RANK2, N=n, M=m)
        kinds = _check_against_dense(decisions)
        if n > 1 and m > 1:
            assert {"reduced", "dense", "unique", "duplicates"} <= kinds

    @pytest.mark.parametrize("n", [2, 5, 44])
    def test_rank3(self, decisions, n):
        assert (n**3 > _VERIFY_LIMIT) == (n == 44)
        _run(RANK3, N=n)
        kinds = _check_against_dense(decisions)
        assert "reduced" in kinds and "unique" in kinds
        assert len(decisions["gathers"]) >= 10

    @pytest.mark.parametrize("n", [2, 6, 280])
    def test_duplicate_writing_scatters(self, decisions, n):
        _run(DUPLICATES, N=n)
        kinds = _check_against_dense(decisions)
        assert "duplicates" in kinds
        flags = [step.unique for step, _ in decisions["scatters"]]
        assert flags == [False, False, False, False]

    def test_shipped_examples(self, decisions):
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples" / "uc"
        for name, defines in (("apsp", {"N": 8}), ("histogram", {"N": 32}), ("shifted", {})):
            _run((examples / f"{name}.uc").read_text(), **defines)
        _check_against_dense(decisions)
        assert decisions["scatters"]


def _traced_peaks(monkeypatch, owner, name):
    """Wrap ``owner.name``; returns the list its calls append
    ``(args, tracemalloc peak in bytes)`` to."""
    peaks = []
    real = getattr(owner, name)

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args, **kwargs)
            peaks.append((args, tracemalloc.get_traced_memory()[1] - before))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(owner, name, traced)
    return peaks


class TestBuildCostIsIndependentOfGridSize:
    def _build_peak(self, monkeypatch, n):
        peaks = _traced_peaks(monkeypatch, fuse, "_build")
        result = _run(APSP_SOLVE_UC, N=n)
        assert result.fusion["constructs"] == 1 and len(peaks) == 1
        return peaks[0][1]

    def test_apsp_n128_build_stays_under_4mb(self, monkeypatch):
        # the dense index arrays were 16 MB apiece here (128^3 int64, 33 MB
        # at the peak); what the gathers keep is two 128x1x128 reduced ones
        assert self._build_peak(monkeypatch, 128) < 4 * 2**20


# -- sweep memory: the reduction is strip-mined ---------------------------------------


def _chain(n, lane=0):
    d = np.full((n, n), 10**6, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a in range(n - 1):
        d[a, a + 1] = d[a + 1, a] = 1 + (a + lane) % 7
    return d


class TestSweepNeverHoldsTheReductionOperand:
    """``$<(K; d[i][k] + d[k][j])`` has n^3 operand slots; the strip-mined
    kernel (``fuse._strip_reduce``) holds one strip of them at a time."""

    def test_a_warm_apsp_n128_sweep_allocates_under_2mb(self, monkeypatch):
        peaks = _traced_peaks(monkeypatch, fuse.FusedConstruct, "run_body")
        n = 128
        prog = UCProgram(APSP_SOLVE_UC, defines={"N": n}, compile_store=None)
        result = prog.run({"dist": _chain(n)})
        assert result.fusion["fused_sweeps"] >= 3
        # the unblocked sweep held the 128^3 int64 operand: 16 MB
        assert max(peak for _args, peak in peaks[1:]) < 2 * 2**20

    def test_a_batch_chunk_never_holds_the_lane_stacked_operand(self, monkeypatch):
        peaks = _traced_peaks(monkeypatch, fuse._Reduce, "run")
        n = 64
        prog = UCProgram(APSP_SOLVE_UC, defines={"N": n}, compile_store=None)
        results = prog.run_batch([{"dist": _chain(n, lane)} for lane in range(5)])
        assert results[0].compile["batched_lanes"] == 5.0
        masks = [regs[step.mask] for (step, _ip, regs), _peak in peaks]
        assert all(m.ndim == 3 for m in masks)  # (lanes, i, j): every call stacked
        assert {len(m) for m in masks} >= {1, 2}  # chunk sizes seen
        for ((step, _ip, _regs), peak), m in zip(peaks, masks):
            full = len(m) * int(np.prod(step.inner_shape)) * 8
            assert peak < full // 2, (len(m), peak)

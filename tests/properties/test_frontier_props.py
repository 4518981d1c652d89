"""Property tests for the frontier (active-set) sweep engine.

The frontier engine replaces full-domain sweeps of ``solve``/``*solve``/
``*par`` with change-driven active sets.  Its contract is strict: for any
program, results are bit-identical to full sweeps under both execution
engines, and the simulated Clock is never higher.  These properties
exercise that contract on randomized affine solve bodies — shifted
neighbour reads, predicates, ternary guards and min-plus reductions —
which is exactly the fragment the active-set analysis claims to handle
(anything else must fall back to full sweeps, which is also correct by
construction).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import frontier
from repro.interp.program import UCProgram
from repro.machine import small_config

#: index values run 2..N+1 while arrays extend 0..N+3, so shifts of up to
#: ±2 stay in bounds without predicates (UC subscripts are *values*, not
#: grid coordinates)
_N = 7
_EXT = _N + 4

_SHIFT = st.integers(-2, 2)
_WEIGHT = st.integers(0, 9)


def _sub(elem, c):
    if c == 0:
        return elem
    return f"{elem}{'+' if c > 0 else '-'}{abs(c)}"


@st.composite
def _solve_programs(draw):
    """A convergent ``*solve`` body over affine references.

    Every template is monotone non-increasing in ``v`` (min with the
    current value, or a min-plus reduction), so the fixed point exists
    and the sweep limit is never hit.
    """
    template = draw(st.integers(0, 3))
    c1, c2 = draw(_SHIFT), draw(_SHIFT)
    w = draw(_WEIGHT)
    swap = draw(st.booleans())
    i1, j1 = ("j", "i") if swap else ("i", "j")
    if template == 0:
        # shifted neighbour relaxation (news/router tiers)
        body = (
            f"v[i][j] = min(v[i][j], "
            f"v[{_sub(i1, c1)}][{_sub(j1, c2)}] + a[i][j] + {w});"
        )
    elif template == 1:
        # two-way neighbour min (exercises nested calls + CSE)
        body = (
            f"v[i][j] = min(v[i][j], "
            f"min(v[{_sub('i', c1)}][j], v[i][{_sub('j', c2)}]) + {w});"
        )
    elif template == 2:
        # min-plus reduction (the delta-reduction path); k spans the
        # same values as i/j so v's diagonal keeps the current value in
        # the running min once seeded with zeros
        body = "v[i][j] = $<(K; v[i][k] + v[k][j]);"
    else:
        # ternary-guarded relaxation (mask refinement inside the arm)
        body = (
            f"v[i][j] = (a[i][j] > 4) ? v[i][j] "
            f": min(v[i][j], v[{_sub(i1, c1)}][{_sub(j1, c2)}] + {w});"
        )
    src = (
        f"index_set I:i = {{2..{_N + 1}}}, J:j = I, K:k = I;\n"
        f"int v[{_EXT}][{_EXT}];\n"
        f"int a[{_EXT}][{_EXT}];\n"
        f"main {{\n    *solve (I, J)\n        {body}\n}}"
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return src, seed, template


def _inputs(seed, template):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 40, size=(_EXT, _EXT)).astype(np.int64)
    if template == 2:
        # min-plus needs a zero diagonal inside the index range so the
        # reduction can only improve on the current value
        np.fill_diagonal(v, 0)
    a = rng.integers(0, 9, size=(_EXT, _EXT)).astype(np.int64)
    return {"v": v, "a": a}


def _run(src, inputs, *, plans, frontier, fusion=True):
    prog = UCProgram(src, plans=plans, frontier=frontier, fusion=fusion)
    return prog.run({k: val.copy() for k, val in inputs.items()})


@settings(max_examples=40, deadline=None)
@given(_solve_programs())
def test_frontier_matches_full_sweeps_both_engines(case):
    src, seed, template = case
    inputs = _inputs(seed, template)
    runs = {
        (plans, frontier): _run(src, inputs, plans=plans, frontier=frontier)
        for plans in (True, False)
        for frontier in (True, False)
    }
    reference = runs[(True, False)]

    # 1. every engine/frontier combination computes the same values
    for key, res in runs.items():
        assert np.array_equal(res["v"], reference["v"]), (
            f"values diverged for plans={key[0]} frontier={key[1]}\n{src}"
        )

    # 2. the two full-sweep engines agree on the exact Clock fingerprint
    assert runs[(True, False)].fingerprint == runs[(False, False)].fingerprint, src

    # 3. the two frontier engines agree on the exact Clock fingerprint
    assert runs[(True, True)].fingerprint == runs[(False, True)].fingerprint, src

    # 4. active-set sweeps never cost more simulated time than full sweeps
    assert runs[(True, True)].elapsed_us <= reference.elapsed_us, src


@settings(max_examples=25, deadline=None)
@given(_solve_programs())
def test_fusion_matches_plan_engine_on_both_frontier_modes(case):
    """Kernel fusion is invisible: same values, same Clock fingerprint,
    whatever the frontier mode — and the tree oracle agrees on values."""
    src, seed, template = case
    inputs = _inputs(seed, template)
    oracle = _run(src, inputs, plans=False, frontier=False)
    for frontier in (True, False):
        fused = _run(src, inputs, plans=True, frontier=frontier, fusion=True)
        plain = _run(src, inputs, plans=True, frontier=frontier, fusion=False)
        assert np.array_equal(fused["v"], plain["v"]), (
            f"values diverged under fusion (frontier={frontier})\n{src}"
        )
        assert np.array_equal(fused["v"], oracle["v"]), (
            f"fused values diverged from the tree oracle "
            f"(frontier={frontier})\n{src}"
        )
        assert fused.fingerprint == plain.fingerprint, (
            f"fusion changed the Clock fingerprint (frontier={frontier})"
            f"\n{src}"
        )
        assert not plain.fusion, "fusion=False must not fuse"


@settings(max_examples=15, deadline=None)
@given(_solve_programs(), st.integers(2, 4))
def test_batch_lanes_match_solo_runs(case, n_lanes):
    """Lane ``i`` of ``run_batch`` is bit-identical — values and Clock
    fingerprint — to solo run ``i``, whatever the engine, frontier and
    fusion mode.  Frontier programs exercise the lane-demotion path
    (lanes whose sessions elect compressed sweeps finish solo)."""
    src, seed, template = case
    lane_inputs = [_inputs(seed ^ k, template) for k in range(n_lanes)]
    for plans, frontier, fusion in (
        (True, True, True),
        (True, False, True),
        (True, True, False),
        (False, False, False),
    ):
        solo = [
            UCProgram(src, plans=plans, frontier=frontier, fusion=fusion).run(
                {k: v.copy() for k, v in inp.items()}
            )
            for inp in lane_inputs
        ]
        batch = UCProgram(
            src, plans=plans, frontier=frontier, fusion=fusion
        ).run_batch(
            [{k: v.copy() for k, v in inp.items()} for inp in lane_inputs]
        )
        for i, (one, lane) in enumerate(zip(solo, batch)):
            assert np.array_equal(one["v"], lane["v"]), (
                f"lane {i} values diverged (plans={plans} "
                f"frontier={frontier} fusion={fusion})\n{src}"
            )
            assert one.fingerprint == lane.fingerprint, (
                f"lane {i} fingerprint diverged (plans={plans} "
                f"frontier={frontier} fusion={fusion})\n{src}"
            )


@settings(max_examples=15, deadline=None)
@given(_solve_programs())
def test_frontier_disable_flag_restores_full_sweep_fingerprint(case):
    src, seed, template = case
    inputs = _inputs(seed, template)
    by_flag = _run(src, inputs, plans=True, frontier=False)
    by_kwarg = UCProgram(src, plans=True, frontier=False).run(inputs)
    assert by_flag.fingerprint == by_kwarg.fingerprint
    assert not by_flag.frontier.get("compressed_sweeps", 0)


# ---------------------------------------------------------------------------
# occupancy: graphs on both sides of the dense-evaluation threshold
# ---------------------------------------------------------------------------

_GN = 12
_APSP = (
    f"index_set I:i = {{0..{_GN - 1}}}, J:j = I, K:k = I;\n"
    f"int d[{_GN}][{_GN}];\n"
    "main { *solve (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]); }"
)
#: 64 PEs: the 12x12 grid runs at VP ratio 3, so shrinking active sets
#: undercut the full sweep and compression fires at this size
_SMALL = small_config(64)


def _community_graph(chain, weight, seed):
    """A random-weight chain over ``0..chain-1`` beside a ``weight``
    clique.  The chain length sets the occupancy of the compressed
    sweeps: a long chain keeps (nearly) the whole grid active — the host
    evaluates those sweeps densely on the fused kernel — while a short
    one leaves a few rows and columns, evaluated lane by lane."""
    rng = np.random.default_rng(seed)
    d = np.full((_GN, _GN), 10**9, dtype=np.int64)
    d[chain:, chain:] = weight
    np.fill_diagonal(d, 0)
    for v, w in enumerate(rng.integers(1, 4, size=chain - 1)):
        d[v, v + 1] = d[v + 1, v] = w
    return {"d": d}


_GRAPHS = st.builds(
    _community_graph,
    chain=st.integers(2, _GN),
    weight=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)


def _run_graph(inputs, **kw):
    prog = UCProgram(_APSP, machine_config=_SMALL, **kw)
    return prog.run({"d": inputs["d"].copy()})


@pytest.mark.usefixtures("default_engines")
def test_graph_strategy_spans_the_occupancy_threshold():
    sparse = _run_graph(_community_graph(3, 3, 0))
    assert sparse.frontier["compressed_sweeps"] >= 1
    assert sparse.frontier["dense_sweeps"] == 0
    dense = _run_graph(_community_graph(_GN, 3, 0))
    assert dense.frontier["dense_sweeps"] >= 1
    mixed = _run_graph(_community_graph(6, 3, 0))
    assert 0 < mixed.frontier["dense_sweeps"] < mixed.frontier["compressed_sweeps"]


@settings(max_examples=30, deadline=None)
@given(_GRAPHS)
def test_dense_evaluation_is_invisible(inputs):
    """Whichever side of the threshold a sweep lands on, how the host
    evaluates it never shows: values, Clock fingerprint and the active-set
    trace equal the tree oracle's and the unfused plan engine's."""
    fused = _run_graph(inputs)
    full = _run_graph(inputs, frontier=False)
    assert np.array_equal(fused["d"], full["d"])
    assert fused.elapsed_us <= full.elapsed_us
    for kw in (dict(plans=False), dict(fusion=False)):
        other = _run_graph(inputs, **kw)
        assert not other.frontier.get("dense_sweeps", 0)
        assert np.array_equal(fused["d"], other["d"]), kw
        assert fused.fingerprint == other.fingerprint, kw
        assert fused.frontier_trace == other.frontier_trace, kw
    # fusion counts kernel executions that replayed their charge table:
    # dense compressed sweeps are not among them (under the CI step's
    # REPRO_NO_FUSION=1 nothing fuses and every occupancy above went
    # through the sparse lane path)
    fused_sweeps = fused.frontier["full_sweeps"] if fused.config.fused else 0
    assert fused.fusion.get("fused_sweeps", 0) == fused_sweeps


# ---------------------------------------------------------------------------
# dilation: the per-axis take recipe against the gather formula it replaced
# ---------------------------------------------------------------------------


def _reference_dilation(an, axes, ch, red):
    """The formula the recipe replaced (kept here as the specification):
    one ``np.ix_`` gather of the change mask with the clipped subscript
    vectors, collapse of constant and reduction-bound axes, transpose of
    the grid-bound axes into grid order, broadcast over the rest."""
    vecs, out_grid_axes = [], []
    for a, (elem, c) in enumerate(axes):
        extent = ch.shape[a]
        if elem is None:
            vecs.append(np.array([min(max(int(c), 0), extent - 1)], dtype=np.int64))
            out_grid_axes.append(None)
        elif red is not None and elem == red.elem:
            vecs.append(np.clip(red.values_arr + c, 0, extent - 1))
            out_grid_axes.append(-1)
        else:
            g = an.grid_axis_of[elem]
            vecs.append(np.clip(an.axis_vals[g] + c, 0, extent - 1))
            out_grid_axes.append(g)
    sub = ch[np.ix_(*vecs)]
    collapse = tuple(i for i, g in enumerate(out_grid_axes) if g is None or g < 0)
    if collapse:
        sub = sub.any(axis=collapse)
    grid_axes = [g for g in out_grid_axes if g is not None and g >= 0]
    order = tuple(sorted(range(len(grid_axes)), key=lambda i: grid_axes[i]))
    bshape = [1] * an.rank
    for i in order:
        bshape[grid_axes[i]] = len(an.axis_vals[grid_axes[i]])
    sub = np.transpose(sub, order).reshape(bshape)
    return np.broadcast_to(sub, tuple(len(v) for v in an.axis_vals))


@st.composite
def _dilation_cases(draw):
    """A grid of rank 1-3 whose axes carry distinct, not necessarily
    ``arange`` values; a reference of rank 1-3 whose subscripts are
    constants, grid elements (each at most once) or the reduction
    element, offset far enough to clip at both borders; a change mask."""
    rank = draw(st.integers(1, 3))
    names = ["i", "j", "k"][:rank]
    axis_vals = []
    for _ in range(rank):
        vals = draw(st.lists(st.integers(-2, 9), min_size=1, max_size=6, unique=True))
        if draw(st.booleans()):
            vals = list(range(len(vals)))  # the common case: 0..n-1
        axis_vals.append(np.asarray(vals, dtype=np.int64))
    an = SimpleNamespace(
        rank=rank,
        axis_vals=axis_vals,
        grid_axis_of={e: g for g, e in enumerate(names)},
    )
    red = None
    if draw(st.booleans()):
        rv = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
        red = SimpleNamespace(elem="r", values_arr=np.asarray(rv, dtype=np.int64))
    free = list(names) + (["r"] if red is not None else [])
    axes, shape = [], []
    for _ in range(draw(st.integers(1, 3))):
        pick = draw(st.integers(0, len(free)))
        elem = free.pop(pick) if pick < len(free) else None
        axes.append((elem, draw(st.integers(-3, 8) if elem is None else st.integers(-3, 3))))
        shape.append(draw(st.integers(1, 7)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ch = rng.random(tuple(shape)) < density
    return an, tuple(axes), ch, red


@settings(max_examples=300, deadline=None)
@given(_dilation_cases())
def test_dilation_recipe_matches_the_gather_formula(case):
    an, axes, ch, red = case
    grid_shape = tuple(len(v) for v in an.axis_vals)
    recipe = frontier._dilation_recipe(an, axes, ch.shape, red)
    # the only tables are per-axis vectors, one grid axis (or reduction
    # range) long: nothing the size of the grid or of the mask
    longest = max([len(v) for v in an.axis_vals] + [len(red.values_arr) if red else 1])
    assert all(vec.ndim == 1 and len(vec) <= longest for _axis, vec in recipe[0])
    got = frontier._RefInfo("v", axes, recipe).dilate(ch)
    want = _reference_dilation(an, axes, ch, red)
    assert np.array_equal(np.broadcast_to(got, grid_shape), want), (axes, ch.shape)
    # the planner ORs the mask into a grid-shaped accumulator as is
    act = np.zeros(grid_shape, dtype=bool)
    act |= got
    assert np.array_equal(act, want)

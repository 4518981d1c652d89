"""Property tests for sharded execution (``UCProgram(shards=K)``).

Sharding is pure bookkeeping: the K resident shard machines observe the
*same* instruction stream the single machine executes, so for any
program, any engine (tree oracle / compiled plans, compressed sweeps
evaluated densely or on the lane path), any frontier mode, and any shard
count, the variable values AND the Clock cost fingerprint must be
bit-identical to the unsharded run.  These properties drive the full
engine x frontier x shards product over the same randomized convergent
``*solve`` bodies the frontier suite uses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import run_lanes, run_uc
from tests.properties.test_frontier_props import _inputs, _solve_programs

_SHARDS = (1, 2, 4)

#: (name, runner, plans): the production engines, the same with every
#: compressed sweep on the lane path, and the tree oracle
_ENGINES = (("plans", run_uc, True), ("lanes", run_lanes, True), ("oracle", run_uc, False))


def _run(src, inputs, run=run_uc, **kw):
    return run(src, {k: val.copy() for k, val in inputs.items()}, **kw)


@settings(max_examples=10, deadline=None)
@given(_solve_programs())
def test_shards_invisible_across_engine_frontier_fusion_product(case):
    src, seed, template = case
    inputs = _inputs(seed, template)
    for frontier in (True, False):
        for name, run, plans in _ENGINES:
            if name == "lanes" and not frontier:
                continue  # full sweeps: nothing to evaluate on lanes
            base = None
            for k in _SHARDS:
                res = _run(src, inputs, run, plans=plans, frontier=frontier, shards=k)
                if base is None:
                    base = res
                    assert res.shards == {}, src
                    continue
                assert np.array_equal(res["v"], base["v"]), (
                    f"values diverged for {name} frontier={frontier} K={k}\n{src}"
                )
                assert res.fingerprint == base.fingerprint, (
                    f"fingerprint diverged for {name} frontier={frontier} K={k}\n{src}"
                )
                assert res.shards["n_shards"] == k, src


@settings(max_examples=8, deadline=None)
@given(_solve_programs(), st.sampled_from((2, 4)))
def test_shard_ledger_is_consistent(case, k):
    """The per-pair element ledger and the per-shard clocks agree with
    the global intershard counter (cycles = total slab elements)."""
    src, seed, template = case
    inputs = _inputs(seed, template)
    res = _run(src, inputs, plans=True, frontier=False, shards=k)
    stats = res.shards
    assert stats["n_shards"] == k
    pair_total = sum(p["elems"] for p in stats["pairs"].values())
    assert stats["intershard_cycles"] == pair_total
    assert stats["intershard_bytes"] == sum(
        p["bytes"] for p in stats["pairs"].values()
    )
    per_shard = sum(s["intershard_cycles"] for s in stats["per_shard"])
    assert per_shard == pair_total
    for key in stats["pairs"]:
        a, b = key.split("->")
        assert a != b, "a shard never exchanges a slab with itself"

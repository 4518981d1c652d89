"""Differential run of the whole :class:`EngineConfig` lattice.

Every combination of the boolean engine switches × shard count × solo
``run`` vs ``run_batch`` lanes must produce identical values, and
exactly one Clock fingerprint per ``config.clock_key`` — the claim that
lets a portable snapshot be stamped with that key alone.  The second
half checks the stamp: a snapshot resumes only under the clock key it
was taken under.
"""

import base64
import itertools
import json
import pathlib
import pickle

import numpy as np
import pytest

from repro.algorithms.shortest_path import random_distance_matrix
from repro.bench import workloads as W
from repro.interp.checkpoint import (
    SnapshotUnsupported,
    install_portable,
    snapshot_from_bytes,
    snapshot_to_bytes,
    take_portable,
)
from repro.interp.compile_store import CompileStore
from repro.interp.program import UCProgram
from repro.service import ExecutionService, JobSpec, ServiceConfig, worker

from .test_checkpoint_disk import _take_snapshot_at

pytestmark = pytest.mark.usefixtures("default_engines")

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "uc"
BOOLS = ("processor_opt", "cse", "plans", "comm_tiers", "frontier", "sanitize")
LANES = 3

#: name -> (source, defines, one inputs dict per lane)
PROGRAMS = {
    "apsp": ((EXAMPLES / "apsp.uc").read_text(), {"N": 6}, [None] * LANES),
    "histogram": ((EXAMPLES / "histogram.uc").read_text(), {"N": 32}, [None] * LANES),
    "shifted": ((EXAMPLES / "shifted.uc").read_text(), {}, [None] * LANES),
    "obstacle": (W.OBSTACLE_UC, {"R": 6, "WALL": W.BIG}, [None] * LANES),
    "apsp_solve": (
        W.APSP_SOLVE_UC,
        {"N": 8},
        [{"dist": random_distance_matrix(8, seed=s)} for s in range(LANES)],
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_values_identical_and_one_fingerprint_per_clock_key(name):
    source, defines, lanes = PROGRAMS[name]
    store = CompileStore()
    values = {}  # lane -> reference variables
    fingerprints = {}  # (lane, clock_key) -> fingerprint

    def check(lane, result, kw):
        ref = values.setdefault(lane, result)
        for var in ref:
            assert np.array_equal(result[var], ref[var]), (kw, lane, var)
        fp = fingerprints.setdefault((lane, result.config.clock_key), result.fingerprint)
        assert result.fingerprint == fp, (kw, lane)

    combos = itertools.product((1, 4), *[(True, False)] * len(BOOLS))
    for n, (shards, *bits) in enumerate(combos):
        kw = dict(zip(BOOLS, bits), shards=shards)
        prog = UCProgram(source, defines=defines, compile_store=store, **kw)
        expected = prog.request.resolved({})
        lane = n % LANES  # every lane's inputs meet every kind of config
        solo = prog.run(lanes[lane])
        assert solo.config == expected, kw
        check(lane, solo, kw)
        if not expected.batched:
            continue  # run_batch would be the same solo runs in a loop
        batch = prog.run_batch(lanes)
        assert batch[0].compile["batched_lanes"] == LANES, kw
        assert batch[lane].fingerprint == solo.fingerprint, kw
        for lane, result in enumerate(batch):
            assert result.config == expected, kw
            check(lane, result, kw)
    # the key is not vacuous: the lattice spans several fingerprint classes
    assert len(set(fingerprints.values())) > 1


# ---------------------------------------------------------------------------
# the snapshot stamp
# ---------------------------------------------------------------------------

#: three top-level ``par``s; the last one's ``b[i+1]`` is a NEWS shift
#: with the tier dispatcher on and a router cycle with it off, so a run
#: that switched between the two mid-way would match neither fingerprint
THREE_PARS = """
index_set I:i = {0..14};
int a[16], b[16];
main {
    par (I) b[i] = i;
    par (I) a[i] = b[i+1];
    par (I) b[i] = a[i] + b[i+1];
}
"""


def _snapshot_at_pc2(**kw):
    snap = _take_snapshot_at(UCProgram(THREE_PARS, **kw), 2)
    return snapshot_from_bytes(snapshot_to_bytes(snap))


def _finish_from(prog, snap):
    pr = prog.prepare()
    install_portable(pr.interp, pr.context, snap)
    pr.interp.run_main_from(pr.context, snap.pc)
    return pr.finish()


def _same_run(a, b):
    return a.fingerprint == b.fingerprint and all(
        np.array_equal(a[var], b[var]) for var in a
    )


def test_snapshot_is_refused_under_another_clock_key():
    snap = _snapshot_at_pc2()
    assert snap.config == UCProgram(THREE_PARS).resolved_config().clock_key
    router_only = UCProgram(THREE_PARS, comm_tiers=False)
    assert router_only.run().fingerprint != UCProgram(THREE_PARS).run().fingerprint
    pr = router_only.prepare()
    with pytest.raises(SnapshotUnsupported, match="clock key"):
        install_portable(pr.interp, pr.context, snap)
    # refused before anything was touched: the machine still runs clean
    pr.interp.run_main_from(pr.context, 0)
    assert _same_run(pr.finish(), router_only.run())


@pytest.mark.parametrize("kw", [dict(plans=False), dict(shards=2, placement="block"), dict(shards=4)])
def test_snapshot_resumes_under_the_same_clock_key(kw):
    resumed = _finish_from(UCProgram(THREE_PARS, **kw), _snapshot_at_pc2())
    assert _same_run(resumed, UCProgram(THREE_PARS).run())


@pytest.mark.parametrize("stale", ["clock_key", "format"])
def test_service_restarts_a_job_it_cannot_resume(tmp_path, monkeypatch, stale):
    chaos = ServiceConfig(
        spool_dir=str(tmp_path), workers=1, coalesce=False, preempt_probability=1.0
    )
    svc = ExecutionService(chaos)
    job = svc.submit(JobSpec(source=THREE_PARS))
    svc.step()
    svc.step()
    assert svc.jobs[job].snapshot.pc == 2
    svc.spool.close()  # "crash" with the job suspended before the last par
    refused = []
    if stale == "clock_key":
        # full sweeps charge THREE_PARS alike, so the fingerprint cannot
        # tell a wrong resume: watch the worker refuse the snapshot
        monkeypatch.setenv("REPRO_NO_FRONTIER", "1")
        install = worker.install_portable

        def spy(*args):
            try:
                return install(*args)
            except SnapshotUnsupported:
                refused.append(True)
                raise

        monkeypatch.setattr(worker, "install_portable", spy)
    else:
        journal = tmp_path / "journal.jsonl"
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        for ev in events:
            if ev["ev"] == "suspend":
                payload = pickle.loads(base64.b64decode(ev["snapshot"]))
                del payload["config"]
                payload["version"] = 1
                ev["snapshot"] = base64.b64encode(pickle.dumps(payload)).decode()
        assert any(ev["ev"] == "suspend" for ev in events)
        journal.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    solo = UCProgram(THREE_PARS, compile_store=None).run()
    svc = ExecutionService.resume(
        str(tmp_path), ServiceConfig(workers=1, coalesce=False)
    )
    results = svc.drain()
    assert svc.lost_jobs() == []
    assert results[job].ok, results[job].error
    assert _same_run(results[job].run, solo)
    assert bool(refused) == (stale == "clock_key")

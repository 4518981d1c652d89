"""Portable snapshots surviving a disk round-trip across processes.

The contract under test: ``take_portable`` → ``snapshot_to_bytes`` →
disk → a *fresh interpreter in a fresh process* → ``install_portable``
→ run to completion is indistinguishable from never having stopped —
same variable values, same stdout, same tier log, and a bit-identical
Clock fingerprint — in both the production engines and the
tree-walking oracle (``REPRO_NO_PLANS=1``).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.interp import checkpoint as cp
from repro.interp.deadline import JobPreempted
from repro.interp.program import UCProgram

SRC = """
int N = 8;
index_set I:i = {0..N-1};
int a[8];
int b[8];
int total;
main {
  par (I) a[i] = i * i;
  printf("mid=%d\\n", a[3]);
  par (I) b[i] = a[i] + 1;
  *par (I) st (a[i] < 100) a[i] = a[i] + b[i];
  total = 0;
  seq (I) total = total + a[i];
  printf("total=%d\\n", total);
}
"""

SNAP_PC = 3  # after the first printf: stdout is non-empty in the snapshot

#: Runs in a fresh process: restore the snapshot, verify the round trip
#: field-by-field by re-taking it, finish the run, and report the result.
CHILD = """
import json, os, sys
import numpy as np
from repro.interp import checkpoint as cp
from repro.interp.program import UCProgram

def deep_eq(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict):
        return (isinstance(b, dict) and set(a) == set(b)
                and all(deep_eq(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(deep_eq(x, y) for x, y in zip(a, b)))
    return a == b

snap_path, src_path = sys.argv[1], sys.argv[2]
with open(snap_path, "rb") as f:
    snap = cp.snapshot_from_bytes(f.read())
with open(src_path, "r") as f:
    src = f.read()

prog = UCProgram(src, sanitize=True, compile_store=None)
pr = prog.prepare()
cp.install_portable(pr.interp, pr.context, snap)

# round-trip audit: a snapshot of the restored state must equal the one
# we loaded, field by field (env chain, RNGs, Clock, tier log, stdout)
again = cp.take_portable(pr.interp, pr.context, snap.pc)
for field in cp.PortableSnapshot.__slots__:
    a, b = getattr(snap, field), getattr(again, field)
    assert deep_eq(a, b), f"field {field!r} did not round-trip"

pr.interp.run_main_from(pr.context, snap.pc)
run = pr.finish()
tier_log = sorted(
    [list(k) + [sorted(v)] for k, v in pr.interp.tier_log.items()]
)
json.dump({
    "fingerprint_time_us": run.fingerprint[0],
    "fingerprint": [[k, c, t] for (k, c, t) in run.fingerprint[1]],
    "a": [int(x) for x in run["a"]],
    "total": int(run["total"]),
    "stdout": run.stdout,
    "tier_log": tier_log,
}, sys.stdout)
"""


def _take_snapshot_at(prog, pc):
    pr = prog.prepare()

    def boundary(at):
        if at == pc:
            raise JobPreempted(cp.take_portable(pr.interp, pr.context, at))

    with pytest.raises(JobPreempted) as exc_info:
        pr.interp.run_main_from(pr.context, 0, boundary)
    return exc_info.value.snapshot


@pytest.mark.parametrize("engine_env", [{}, {"REPRO_NO_PLANS": "1"}])
def test_disk_round_trip_across_process_boundary(tmp_path, engine_env):
    prog = UCProgram(SRC, sanitize=True, compile_store=None)
    solo = prog.run()
    assert solo.stdout.startswith("mid=9\n")

    snap = _take_snapshot_at(prog, SNAP_PC)
    assert snap.pc == SNAP_PC
    assert snap.stdout == "mid=9\n"  # captured mid-run output rides along

    snap_path = tmp_path / "snap.bin"
    snap_path.write_bytes(cp.snapshot_to_bytes(snap))
    src_path = tmp_path / "prog.uc"
    src_path.write_text(SRC)

    env = dict(os.environ)
    env.pop("REPRO_NO_PLANS", None)
    env.update(engine_env)
    env["PYTHONPATH"] = os.path.abspath("src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(snap_path), str(src_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)

    assert out["fingerprint_time_us"] == solo.fingerprint[0]
    assert (
        tuple((k, c, t) for k, c, t in out["fingerprint"]) == solo.fingerprint[1]
    )
    assert out["a"] == [int(x) for x in solo["a"]]
    assert out["total"] == int(solo["total"])
    assert out["stdout"] == solo.stdout
    solo_tier_log = sorted(
        [list(k) + [sorted(v)] for k, v in prog.last_interpreter.tier_log.items()]
    )
    assert out["tier_log"] == solo_tier_log


def test_snapshot_version_mismatch_rejected(tmp_path):
    prog = UCProgram(SRC, compile_store=None)
    snap = _take_snapshot_at(prog, SNAP_PC)
    payload = snap.to_payload()
    payload["version"] = cp.SNAPSHOT_VERSION + 1
    with pytest.raises(cp.SnapshotUnsupported):
        cp.PortableSnapshot.from_payload(payload)


def test_snapshot_refused_inside_construct():
    """Snapshots exist only at top-level boundaries — a context stack
    mid-construct must be refused, not half-captured."""
    prog = UCProgram(SRC, compile_store=None)
    pr = prog.prepare()
    child_env = pr.context.env.child()  # not a direct child of global
    ctx = type(pr.context)(pr.context.grid, pr.context.mask, child_env)
    with pytest.raises(cp.SnapshotUnsupported):
        cp.take_portable(pr.interp, ctx, 0)


def test_both_rng_states_round_trip():
    prog = UCProgram(SRC, compile_store=None)
    snap = _take_snapshot_at(prog, SNAP_PC)
    blob = cp.snapshot_to_bytes(snap)
    back = cp.snapshot_from_bytes(blob)
    assert back.pc == snap.pc
    for field in ("machine_rng", "interp_rng"):
        a, b = getattr(snap, field), getattr(back, field)
        assert json.dumps(a, default=str, sort_keys=True) == json.dumps(
            b, default=str, sort_keys=True
        )
    assert back.clock_state == snap.clock_state
    assert back.stdout == snap.stdout
    assert np.array_equal(
        np.asarray(back.dead_pes), np.asarray(snap.dead_pes)
    )


#: main-scope declarations (a scalar, an array, an index set) live in the
#: main context, not the global environment: a portable snapshot carries
#: them, and a fault plan's fired/counter state, across the suspension
MAIN_DECLS = """
index_set I:i = {0..7};
int a[8];
main {
  int k;
  int tmp[8];
  index_set L:l = {0..3};
  k = 5;
  par (I) tmp[i] = i + k;
  par (L) a[l] = tmp[l] * 2;
  par (I) a[i] = a[i] + tmp[i];
}
"""


@pytest.mark.parametrize("faults, sanitize", [(None, False), ("drop@alu#2", False), (None, True)])
def test_main_scope_declarations_and_fault_state_resume(faults, sanitize):
    prog = UCProgram(MAIN_DECLS, faults=faults, sanitize=sanitize, compile_store=None)
    solo = prog.run()
    snap = cp.snapshot_from_bytes(cp.snapshot_to_bytes(_take_snapshot_at(prog, 5)))
    assert {tag for tag, _name, _p in snap.main_env} == {"scalar", "array", "index_set"}
    assert (snap.fault_state is not None) == (faults is not None)
    assert bool(snap.tier_log) == sanitize  # the sanitizer's tier log rides along
    pr = prog.prepare()
    cp.install_portable(pr.interp, pr.context, snap)
    pr.interp.run_main_from(pr.context, snap.pc)
    resumed = pr.finish()
    assert np.array_equal(resumed["a"], solo["a"])
    assert resumed.fingerprint == solo.fingerprint

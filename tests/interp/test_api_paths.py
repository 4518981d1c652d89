"""Library-API paths no UC program takes: deadline specs, placement
validation, plan-cache counters and a snapshot resumed under another
fault plan."""

import pytest

from repro.interp import checkpoint as cp
from repro.interp.deadline import Deadline, DeadlineMonitor, UCDeadlineError
from repro.interp.program import UCProgram

SRC = "index_set I:i = {0..7};\nint a[8];\nmain { par (I) a[i] = i; par (I) a[i] = a[i] * 2; }"


@pytest.mark.parametrize("spec", [dict(wall_s=-1.0), dict(clock_us=-1.0)])
def test_negative_deadlines_are_refused(spec):
    with pytest.raises(ValueError, match="must be >= 0"):
        Deadline(**spec)


@pytest.mark.parametrize("spec", [Deadline(wall_s=0.0), DeadlineMonitor(wall_s=0.0)])
def test_a_spent_deadline_cancels_at_the_start_of_main(spec):
    with pytest.raises(UCDeadlineError, match="cancelled at the start of main"):
        UCProgram(SRC).run(deadline=spec)


def test_unknown_placement_policy():
    with pytest.raises(ValueError, match="unknown placement policy 'diagonal'"):
        UCProgram(SRC, placement="diagonal")


@pytest.mark.usefixtures("default_engines")
def test_plan_cache_counters_report_build_seconds_per_kind():
    prog = UCProgram(SRC, compile_store=None)
    prog.run()
    counters = prog.last_interpreter.plan_cache.counters()
    assert counters["misses"] >= 1 and counters["build_seconds.fuse"] >= 0


def test_a_snapshot_resumes_only_under_its_own_fault_plan():
    taken = UCProgram(SRC, faults="drop@alu#2", compile_store=None)
    pr = taken.prepare()
    pr.interp.run_main_from(pr.context, 0, None)
    snap = cp.take_portable(pr.interp, pr.context, 1)
    other = UCProgram(SRC, faults="drop@alu#2;drop@alu#3", compile_store=None).prepare()
    with pytest.raises(cp.SnapshotUnsupported, match="fault plan shape changed"):
        cp.install_portable(other.interp, other.context, snap)

"""The resilient execution service (``repro serve`` / ExecutionService).

The contract under test, from ISSUE 8's acceptance bar: every submitted
job reaches exactly one structured terminal result (zero lost jobs), a
failing job never takes the pool down with it, and any job that finishes
— coalesced into a batch, retried after a fault storm, preempted into a
portable snapshot, or resumed after a service crash — carries a Clock
fingerprint bit-identical to a fault-free solo ``UCProgram.run()``.
"""

import itertools
import json
import os

import numpy as np
import pytest

from repro.interp.compile_store import CompileStore
from repro.interp.deadline import Deadline
from repro.interp.program import UCProgram
from repro.service import (
    DONE,
    FAILED,
    REJECTED,
    ExecutionService,
    JobSpec,
    RetryPolicy,
    ServiceConfig,
    Spool,
)

# Three top-level statements so preemption has boundaries to land on.
SRC = """
int N = 8;
index_set I:i = {0..N-1};
int a[8];
int b[8];
main {
  par (I) a[i] = i * i;
  par (I) b[i] = a[i] + 1;
  *par (I) st (a[i] < 100) a[i] = a[i] + b[i];
}
"""

BAD_SRC = "main { par ("

#: enough transient drops to exhaust the default in-run recovery manager
STORM = ";".join(f"drop@alu#{k}" for k in range(1, 9))


@pytest.fixture(scope="module")
def solo():
    """The fault-free reference run every service result must match."""
    return UCProgram(SRC).run()


def _assert_matches_solo(result, solo):
    assert result.ok, result.error
    assert result.fingerprint == solo.fingerprint
    assert np.array_equal(result.run["a"], solo["a"])


class TestBasicService:
    def test_clean_jobs_coalesce_and_match_solo(self, solo):
        svc = ExecutionService(ServiceConfig(workers=2))
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(6)]
        res = svc.drain()
        assert svc.lost_jobs() == []
        for jid in ids:
            _assert_matches_solo(res[jid], solo)
        # identical queued programs ride run_batch lanes
        assert svc.stats["batches"] >= 1
        assert svc.stats["coalesced_lanes"] >= 2

    def test_solo_path_without_coalescing(self, solo):
        svc = ExecutionService(ServiceConfig(workers=2, coalesce=False))
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        res = svc.drain()
        assert svc.stats["batches"] == 0
        for jid in ids:
            _assert_matches_solo(res[jid], solo)

    def test_shared_compile_store_across_jobs(self):
        store = CompileStore()
        svc = ExecutionService(
            ServiceConfig(workers=1, coalesce=False, compile_store=store)
        )
        for _ in range(4):
            svc.submit(JobSpec(source=SRC))
        svc.drain()
        stats = store.stats()
        # one program build, the other three submissions hit the cache
        assert stats["program_misses"] == 1
        assert stats["program_hits"] >= 3

    def test_every_job_gets_exactly_one_result(self, solo):
        svc = ExecutionService(ServiceConfig(workers=3))
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(5)]
        ids.append(svc.submit(JobSpec(source=BAD_SRC)))
        res = svc.drain()
        assert svc.lost_jobs() == []
        assert set(res) == set(ids)
        assert all(res[j].state in (DONE, FAILED) for j in ids)


class TestIsolation:
    def test_bad_program_fails_alone(self, solo):
        svc = ExecutionService(ServiceConfig(workers=2))
        good = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        bad = svc.submit(JobSpec(source=BAD_SRC, tenant="b"))
        res = svc.drain()
        assert res[bad].state == FAILED
        assert res[bad].error["type"]  # structured, pattern-matchable
        for jid in good:
            _assert_matches_solo(res[jid], solo)

    def test_oom_sized_grid_fails_alone(self, solo):
        huge = SRC.replace("{0..N-1}", "{0..%s-1}" % "*".join(["N"] * 20))
        svc = ExecutionService(ServiceConfig(workers=2))
        bad = svc.submit(JobSpec(source=huge))
        good = svc.submit(JobSpec(source=SRC))
        res = svc.drain()
        assert res[bad].state == FAILED
        _assert_matches_solo(res[good], solo)

    def test_fault_storm_without_retry_fails_alone(self, solo):
        svc = ExecutionService(ServiceConfig(workers=2))
        doomed = svc.submit(
            JobSpec(source=SRC, faults=STORM, retry=RetryPolicy(max_attempts=1))
        )
        good = svc.submit(JobSpec(source=SRC))
        res = svc.drain()
        assert res[doomed].state == FAILED
        assert res[doomed].error["cause"] in ("ProcessorFault", "LinkFault")
        _assert_matches_solo(res[good], solo)

    def test_non_converging_star_par_fails_at_the_sweep_limit(self, solo, monkeypatch):
        """A hostile ``*par`` whose predicate never falsifies costs the
        pool 150 sweeps, not 100 000: structured failure, nobody lost
        (``SRC`` itself converges in 100)."""
        monkeypatch.setenv("REPRO_SOLVE_SWEEP_LIMIT", "150")
        spin = (
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { *par (I) st (a[i] != 1 + (i > 0 ? a[i-1] : 0))\n"
            "    a[i] *= 1 + (i > 0 ? a[i-1] : 0); }"
        )
        svc = ExecutionService(ServiceConfig(workers=2))
        bad = [svc.submit(JobSpec(source=spin, tenant="b")) for _ in range(2)]
        good = svc.submit(JobSpec(source=SRC))
        res = svc.drain(max_wall_s=30)
        assert svc.lost_jobs() == []
        for jid in bad:
            assert res[jid].state == FAILED
            assert res[jid].error["type"] == "UCRuntimeError"
            assert "*par exceeded the sweep limit (150;" in res[jid].error["message"]
        _assert_matches_solo(res[good], solo)

    def test_malformed_engine_variable_fails_jobs_not_the_pool(self, monkeypatch):
        """Coalescable or not, a job that cannot resolve its configuration
        gets a structured failure naming the variable; none is lost."""
        monkeypatch.setenv("REPRO_SHARDS", "abc")
        svc = ExecutionService(ServiceConfig(workers=2))
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        res = svc.drain(max_wall_s=60)
        assert svc.lost_jobs() == []
        for jid in ids:
            assert res[jid].state == FAILED
            assert res[jid].error["type"] == "ConfigError"
            assert "REPRO_SHARDS='abc'" in res[jid].error["message"]


class TestDeadlines:
    def test_clock_deadline_cancels_with_position(self):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(JobSpec(source=SRC, deadline=Deadline(clock_us=1.0)))
        res = svc.drain()[jid]
        assert res.state == FAILED
        assert res.error["type"] == "UCDeadlineError"
        assert res.error["reason"] == "clock"
        assert "statement" in res.error["position"] or "main" in res.error["position"]

    def test_deadline_is_not_retriable(self):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(
                source=SRC,
                deadline=Deadline(clock_us=1.0),
                retry=RetryPolicy(max_attempts=5),
            )
        )
        res = svc.drain()[jid]
        assert res.state == FAILED
        assert res.attempts == 1  # deterministic failure: retry declined

    def test_generous_deadline_does_not_perturb(self, solo):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(source=SRC, deadline=Deadline(clock_us=solo.elapsed_us * 10))
        )
        _assert_matches_solo(svc.drain()[jid], solo)


class TestRetry:
    def test_per_attempt_plans_recover_to_clean_fingerprint(self, solo):
        """Attempt 1 carries the storm, attempt 2 is clean: the final
        fingerprint must equal a fault-free solo run's."""
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(source=SRC, faults=[STORM], retry=RetryPolicy(max_attempts=2))
        )
        res = svc.drain()[jid]
        assert res.attempts == 2
        _assert_matches_solo(res, solo)
        assert svc.stats["retries"] == 1

    def test_max_attempts_exhausts(self):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(
                source=SRC,
                faults=[STORM, STORM, STORM],
                retry=RetryPolicy(max_attempts=3),
            )
        )
        res = svc.drain()[jid]
        assert res.state == FAILED
        assert res.attempts == 3

    def test_verified_replay_of_recovered_job(self, solo):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(
                source=SRC,
                faults=[STORM],
                retry=RetryPolicy(max_attempts=2, verify_replays=True),
            )
        )
        res = svc.drain()[jid]
        _assert_matches_solo(res, solo)
        assert svc.stats["replays_verified"] == 1

    def test_backoff_schedule_is_seeded(self):
        pol = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=64.0, jitter=0.5)
        a = [pol.backoff_s(k, seed=(7, 1)) for k in range(1, 6)]
        b = [pol.backoff_s(k, seed=(7, 1)) for k in range(1, 6)]
        c = [pol.backoff_s(k, seed=(7, 2)) for k in range(1, 6)]
        assert a == b  # deterministic for a (seed, attempt) pair
        assert a != c
        assert all(d <= 64.0 for d in a)  # cap bounds the jittered delay


class TestPreemption:
    def test_chaos_preemption_keeps_fingerprints(self, solo, tmp_path):
        svc = ExecutionService(
            ServiceConfig(
                workers=1,
                coalesce=False,
                preempt_probability=0.7,
                seed=7,
                spool_dir=str(tmp_path / "spool"),
            )
        )
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(4)]
        res = svc.drain()
        assert svc.lost_jobs() == []
        assert svc.stats["preemptions"] >= 1
        for jid in ids:
            _assert_matches_solo(res[jid], solo)
        # every suspension left a durable snapshot behind
        spool = Spool(str(tmp_path / "spool"))
        with open(spool.journal_path, "rb") as f:
            lines = f.readlines()
        starts = itertools.accumulate([0] + [len(line) for line in lines])
        snaps = [
            spool.load(at, "snapshot")
            for at, line in zip(starts, lines)
            if json.loads(line)["ev"] == "suspend"
        ]
        assert len(snaps) == svc.stats["preemptions"]
        assert all(snap.pc > 0 for snap in snaps)

    def test_slice_budget_yields_without_contention(self, solo):
        """A lone job over its slice budget yields in place (no snapshot)
        and still finishes bit-identical."""
        svc = ExecutionService(
            ServiceConfig(workers=2, coalesce=False, preempt_slice_us=1.0)
        )
        jid = svc.submit(JobSpec(source=SRC))
        res = svc.drain()
        assert svc.stats["yields"] >= 1
        assert svc.stats["preemptions"] == 0
        _assert_matches_solo(res[jid], solo)

    def test_slice_budget_preempts_under_contention(self, solo):
        svc = ExecutionService(
            ServiceConfig(workers=1, coalesce=False, preempt_slice_us=1.0)
        )
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        res = svc.drain()
        assert svc.stats["preemptions"] >= 1
        for jid in ids:
            _assert_matches_solo(res[jid], solo)


class TestCrashResume:
    def test_resume_finishes_in_flight_jobs(self, solo, tmp_path):
        spool = str(tmp_path / "crash")
        svc = ExecutionService(
            ServiceConfig(
                workers=1,
                coalesce=False,
                preempt_probability=0.9,
                seed=3,
                spool_dir=spool,
            )
        )
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        for _ in range(4):  # run part-way, then "crash" (abandon the object)
            svc.step()
        assert svc.lost_jobs()  # genuinely in flight at the crash
        svc.spool.close()

        svc2 = ExecutionService.resume(
            spool, ServiceConfig(workers=1, coalesce=False, seed=3)
        )
        res = svc2.drain()
        assert svc2.lost_jobs() == []
        for jid in ids:
            _assert_matches_solo(res[jid], solo)

    def test_resume_preserves_terminal_results(self, solo, tmp_path):
        spool = str(tmp_path / "spool")
        svc = ExecutionService(ServiceConfig(workers=1, spool_dir=spool))
        good = svc.submit(JobSpec(source=SRC))
        bad = svc.submit(JobSpec(source=BAD_SRC))
        svc.drain()
        svc.spool.close()

        svc2 = ExecutionService.resume(spool, ServiceConfig(workers=1))
        res = svc2.results()
        assert res[good].state == DONE
        assert res[good].fingerprint == solo.fingerprint  # journal round-trip
        assert res[bad].state == FAILED
        assert svc2.lost_jobs() == []
        # new submissions continue the id sequence, not reuse it
        assert svc2.submit(JobSpec(source=SRC)) == "j3"

    def test_resume_does_not_resurrect_shed_jobs(self, tmp_path):
        spool = str(tmp_path / "spool")
        svc = ExecutionService(
            ServiceConfig(workers=1, max_queue=1, spool_dir=spool)
        )
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        shed = [i for i in ids if svc.jobs[i].state == REJECTED]
        assert shed
        svc.drain()
        svc.spool.close()
        svc2 = ExecutionService.resume(spool, ServiceConfig(workers=1))
        for jid in shed:
            assert svc2.results()[jid].state == REJECTED
        assert svc2.lost_jobs() == []

    def test_scan_tolerates_torn_journal_line(self, tmp_path):
        spool = str(tmp_path / "spool")
        svc = ExecutionService(ServiceConfig(workers=1, spool_dir=spool))
        svc.submit(JobSpec(source=SRC))
        svc.spool.close()
        with open(os.path.join(spool, "journal.jsonl"), "a") as f:
            f.write('{"ev": "done", "job"')  # crash mid-append
        records, _ = Spool(spool).scan()
        assert records["j1"]["terminal"] is None  # torn line ignored


class TestAdmission:
    def test_queue_full_sheds_with_structured_rejection(self, solo):
        svc = ExecutionService(ServiceConfig(workers=1, max_queue=2))
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(4)]
        shed = [i for i in ids if svc.jobs[i].state == REJECTED]
        assert len(shed) == 2
        for jid in shed:
            assert svc.result(jid).error["reason"] == "queue_full"
        res = svc.drain()
        assert svc.lost_jobs() == []
        for jid in set(ids) - set(shed):
            _assert_matches_solo(res[jid], solo)

    def test_tenant_budget_mid_run_and_at_door(self, solo):
        svc = ExecutionService(
            ServiceConfig(
                workers=1, tenant_budget_us={"t": solo.elapsed_us * 1.5}
            )
        )
        a = svc.submit(JobSpec(source=SRC, tenant="t"))
        svc.drain()
        b = svc.submit(JobSpec(source=SRC, tenant="t"))  # 0.5x budget left
        svc.drain()
        c = svc.submit(JobSpec(source=SRC, tenant="t"))  # budget gone
        assert svc.result(a).ok
        assert svc.result(b).state == FAILED
        assert svc.result(b).error["reason"] == "budget"
        assert svc.result(c).state == REJECTED
        assert svc.result(c).error["reason"] == "budget_exhausted"
        assert svc.lost_jobs() == []

    def test_unmetered_tenants_unaffected(self, solo):
        svc = ExecutionService(
            ServiceConfig(workers=1, tenant_budget_us={"t": 1.0})
        )
        metered = svc.submit(JobSpec(source=SRC, tenant="t"))
        free = svc.submit(JobSpec(source=SRC, tenant="other"))
        res = svc.drain()
        assert res[metered].state == FAILED
        _assert_matches_solo(res[free], solo)

    def test_budget_survives_resume(self, solo, tmp_path):
        spool = str(tmp_path / "spool")
        budget = {"t": solo.elapsed_us * 1.5}
        svc = ExecutionService(
            ServiceConfig(workers=1, tenant_budget_us=budget, spool_dir=spool)
        )
        svc.submit(JobSpec(source=SRC, tenant="t"))
        svc.drain()
        svc.spool.close()
        svc2 = ExecutionService.resume(
            spool, ServiceConfig(workers=1, tenant_budget_us=budget)
        )
        # the first job's spend was reconstructed from the journal
        late = svc2.submit(JobSpec(source=SRC, tenant="t"))
        svc2.drain()
        assert svc2.result(late).state == FAILED
        assert svc2.result(late).error["reason"] == "budget"


class TestEngineParity:
    def test_service_fingerprints_match_oracle(self, solo, monkeypatch):
        """The tree-walking oracle engine yields the same service-side
        fingerprints as the compiled plan engine."""
        monkeypatch.setenv("REPRO_NO_PLANS", "1")
        oracle_solo = UCProgram(SRC, compile_store=None).run()
        assert oracle_solo.fingerprint == solo.fingerprint
        svc = ExecutionService(
            ServiceConfig(workers=1, coalesce=False, preempt_slice_us=1.0)
        )
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(2)]
        res = svc.drain()
        for jid in ids:
            _assert_matches_solo(res[jid], solo)

"""The durability contract of the one-file spool (ISSUE 22).

``journal.jsonl`` is the only file of a spool and the only thing ever
fsynced; a job id ``submit()`` returned and a transition ``step()``
returned from survive a crash; at no byte offset of the journal does a
resume raise, lose a journalled job, or finish one differently.
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

from repro.interp.deadline import Deadline
from repro.service import (
    DONE,
    RETRY_WAIT,
    ExecutionService,
    JobSpec,
    RetryPolicy,
    ServiceConfig,
    Spool,
    Worker,
)

from .test_service import BAD_SRC, SRC, STORM, _assert_matches_solo, solo  # noqa: F401


def _journal(spool_dir) -> bytes:
    with open(os.path.join(str(spool_dir), "journal.jsonl"), "rb") as f:
        return f.read()


class TestGroupCommit:
    @staticmethod
    def _script(spool_dir, fsyncs):
        """24 jobs in three waves of 8 (6 coalescible, 2 solo), then one
        alone, on two workers with a slice budget: rounds preempt, finish,
        and — the lone job — yield in place, which journals nothing.
        Returns (submits, rounds, rounds that journalled something)."""
        svc = ExecutionService(
            ServiceConfig(workers=2, preempt_slice_us=1.0, spool_dir=str(spool_dir))
        )

        def transitions():
            s = svc.stats
            return s["done"] + s["failed"] + s["preemptions"] + s["retries"]

        submits = rounds = journalled = 0
        for wave in (8, 8, 8, 1):
            for k in range(wave):
                # a deadline keeps a job off the coalesced path
                deadline = Deadline(wall_s=600.0) if k % 4 == 3 else None
                svc.submit(JobSpec(source=SRC, deadline=deadline))
                submits += 1
            while svc.lost_jobs():
                before, synced = transitions(), len(fsyncs)
                svc.step()
                rounds += 1
                journalled += transitions() != before
                assert len(fsyncs) - synced == (transitions() != before)
        idle = len(fsyncs)
        assert svc.step() is False and len(fsyncs) == idle  # idle round: no I/O
        assert svc.stats["commits"] == submits + journalled
        assert svc.stats["journal_bytes"] == len(_journal(spool_dir))
        assert all(r.state == DONE for r in svc.results().values())
        svc.spool.close()
        return submits, rounds, journalled

    def test_fsync_budget_repeats_exactly(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        counts = []
        for name in ("a", "b"):
            del fsyncs[:]
            submits, rounds, journalled = self._script(tmp_path / name, fsyncs)
            assert len(fsyncs) == submits + journalled
            assert journalled < rounds  # yields journal nothing
            assert os.listdir(tmp_path / name) == ["journal.jsonl"]
            counts.append((len(fsyncs), rounds))
        assert counts[0] == counts[1]

    def test_one_fsync_covers_every_job_a_round_finishes(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        svc = ExecutionService(
            ServiceConfig(workers=4, coalesce=False, spool_dir=str(tmp_path))
        )
        svc.submit_all(JobSpec(source=SRC) for _ in range(4))
        assert len(fsyncs) == 1
        svc.step()
        assert svc.stats["done"] == 4 and len(fsyncs) == 2

    def test_submit_all_is_one_commit(self, tmp_path):
        svc = ExecutionService(
            ServiceConfig(workers=1, max_queue=4, spool_dir=str(tmp_path))
        )
        ids = svc.submit_all(JobSpec(source=SRC) for _ in range(6))
        assert ids == [f"j{k}" for k in range(1, 7)]
        assert svc.stats["commits"] == 1
        # accepted and shed alike are on disk before anything ran
        records, _ = Spool(str(tmp_path)).scan()
        assert [r["terminal"] is not None for r in records.values()] == [False] * 4 + [True] * 2

    def test_step_commits_what_a_failing_round_journalled(self, tmp_path, monkeypatch):
        svc = ExecutionService(ServiceConfig(workers=2, spool_dir=str(tmp_path)))
        svc.submit_all([JobSpec(source=SRC, deadline=Deadline(wall_s=600.0)), JobSpec(source=BAD_SRC)])

        def boom(worker, outcome):
            raise RuntimeError("scheduler bug")

        monkeypatch.setattr(svc, "_handle_outcome", boom)
        with pytest.raises(RuntimeError, match="scheduler bug"):
            svc.step()  # j2 failed at assign, then j1's slice outcome blew up
        assert svc.stats["commits"] == 2
        assert Spool(str(tmp_path)).scan()[0]["j2"]["terminal"]["ev"] == "failed"


class TestTornTail:
    def test_record_after_a_torn_tail_survives(self, solo, tmp_path):
        spool = str(tmp_path)
        svc = ExecutionService(ServiceConfig(workers=1, spool_dir=spool))
        svc.submit(JobSpec(source=SRC))
        svc.drain()
        svc.spool.close()
        with open(os.path.join(spool, "journal.jsonl"), "a") as f:
            f.write('{"ev": "done", "job"')  # crash mid-append
        svc = ExecutionService.resume(spool, ServiceConfig(workers=1))
        assert svc.submit(JobSpec(source=SRC)) == "j2"
        _assert_matches_solo(svc.drain()["j2"], solo)
        svc.spool.close()
        assert _journal(spool).count(b'"job"') == 4  # the fragment is gone
        again = ExecutionService.resume(spool, ServiceConfig(workers=1))
        assert again.result("j2").state == DONE
        assert again.result("j2").fingerprint == solo.fingerprint
        assert again.lost_jobs() == []
        assert again.submit(JobSpec(source=SRC)) == "j3"

    def test_a_journal_torn_before_its_first_newline_starts_over(self, tmp_path):
        (tmp_path / "journal.jsonl").write_bytes(b'{"ev": "layout", "ver')
        svc = ExecutionService.resume(str(tmp_path))
        assert svc.submit(JobSpec(source=SRC)) == "j1"
        svc.spool.close()
        assert json.loads(_journal(tmp_path).splitlines()[0])["ev"] == "layout"


class TestPrefixReplay:
    def test_every_prefix_of_the_journal_resumes(self, solo, tmp_path):
        full = tmp_path / "full"
        svc = ExecutionService(
            ServiceConfig(
                workers=2, coalesce=False, preempt_probability=0.5, seed=5,
                spool_dir=str(full),
            )
        )
        ids = svc.submit_all(
            JobSpec(
                source=SRC,
                tenant="ab"[k % 2],
                faults=[STORM] if k in (2, 7) else None,
                retry=RetryPolicy(max_attempts=2),
            )
            for k in range(12)
        )
        svc.drain()
        svc.spool.close()
        assert svc.stats["retries"] == 2 and svc.stats["preemptions"] >= 6
        data = _journal(full)
        lines = data.splitlines(keepends=True)
        ends = np.cumsum([len(line) for line in lines])
        cuts = [0, *ends] + [int(ends[k]) - len(lines[k]) // 2 for k in range(0, len(lines), 5)]
        for n, cut in enumerate(sorted(cuts)):
            crashed = tmp_path / f"cut{n}"
            crashed.mkdir()
            (crashed / "journal.jsonl").write_bytes(data[:cut])
            submitted = [
                json.loads(line)["job"]
                for line in data[:cut].splitlines(keepends=True)
                if line.endswith(b"\n") and b'"ev": "submit"' in line
            ]
            svc = ExecutionService.resume(str(crashed), ServiceConfig(workers=2))
            svc.drain()
            svc.spool.close()
            assert sorted(svc.jobs) == sorted(submitted), cut
            assert svc.lost_jobs() == [], cut
            for jid in submitted:
                res = svc.result(jid)
                assert res.ok and res.fingerprint == solo.fingerprint, (cut, jid)
                values = svc.values(jid)
                assert all(np.array_equal(values[v], solo[v]) for v in solo), (cut, jid)
            # budgets: what the tenants were charged is what the journal says
            assert svc.admission.spent == Spool(str(crashed)).scan()[1], cut
            assert sum(svc.admission.spent.values()) == pytest.approx(
                solo.elapsed_us * len(submitted)
            )
            shutil.rmtree(crashed)
        assert ids == submitted  # the last cut was the whole journal


class TestPayloads:
    def test_spec_round_trips(self, tmp_path):
        spec = JobSpec(
            source=SRC,
            defines={"N": 8},
            inputs={"a": np.arange(8, dtype=np.int64), "scale": 2.5},
            tenant="t",
            seed=3,
            deadline=Deadline(wall_s=1.5, clock_us=1e6),
            faults=[STORM, None, "kill:2@alu#20"],
            retry=RetryPolicy(max_attempts=4, backoff_base_s=0.25, jitter=0.1),
        )
        spool = Spool(str(tmp_path))
        spool.append({"ev": "submit", "job": "j1", "tenant": "t"}, spec=spec)
        spool.close()
        back = Spool(str(tmp_path)).scan()[0]["j1"]["spec"]
        assert np.array_equal(back.inputs.pop("a"), spec.inputs.pop("a"))
        assert back == spec

    def test_result_dtypes_and_shapes_round_trip(self, tmp_path):
        run = {
            "f": np.linspace(0.0, 1.0, 6).reshape(2, 3),
            "i": np.arange(-4, 4, dtype=np.int64)[::2],  # not contiguous
            "flag": np.array([True, False]),
            "n": 7,
            "x": 0.1,
            "empty": np.zeros((0, 3), dtype=np.int32),
        }
        spool = Spool(str(tmp_path))
        spool.append({"ev": "submit", "job": "j1", "tenant": "t"}, spec=JobSpec(source=SRC))
        spool.append({"ev": DONE, "job": "j1", "clock_us": 1.0}, result=run)
        spool.close()
        spool = Spool(str(tmp_path))
        at = spool.scan()[0]["j1"]["terminal"]["result"]
        back = spool.load(at, "result")
        assert list(back) == list(run)
        for var, value in run.items():
            want = np.asarray(value)
            assert back[var].dtype == want.dtype and back[var].shape == want.shape
            assert np.array_equal(back[var], want)
        assert back["n"].shape == () and back["x"] == 0.1

    def test_snapshot_resumes_on_another_worker(self, solo, tmp_path, monkeypatch):
        spool = str(tmp_path)
        svc = ExecutionService(
            ServiceConfig(workers=1, coalesce=False, preempt_probability=1.0, spool_dir=spool)
        )
        a, b = svc.submit_all([JobSpec(source=SRC), JobSpec(source=SRC)])
        for _ in range(4):  # worker 0 alternates: a, b, a, b — one statement each
            svc.step()
        assert svc.jobs[b].snapshot.pc == 2
        svc.spool.close()
        fresh = Spool(spool)
        rec = fresh.scan()[0][b]
        assert isinstance(rec["snapshot"], int)  # an offset, not the payload
        assert fresh.load(rec["snapshot"], "snapshot").pc == 2
        fresh.close()
        placed = {}
        assign = Worker.assign

        def spy(worker, job):
            placed[job.id] = (worker.index, job.snapshot.pc)
            assign(worker, job)

        monkeypatch.setattr(Worker, "assign", spy)
        svc = ExecutionService.resume(spool, ServiceConfig(workers=2, coalesce=False))
        res = svc.drain()
        assert placed == {a: (0, 2), b: (1, 2)}
        for jid in (a, b):
            assert res[jid].preemptions == 2
            _assert_matches_solo(res[jid], solo)

    def test_resumed_done_job_hands_back_its_arrays(self, solo, tmp_path):
        spool = str(tmp_path)
        svc = ExecutionService(ServiceConfig(workers=1, spool_dir=spool))
        good = svc.submit(JobSpec(source=SRC))
        bad = svc.submit(JobSpec(source=BAD_SRC))
        svc.drain()
        live = svc.values(good)
        svc.spool.close()
        records, _ = Spool(spool).scan()
        # scan keeps an offset per result: memory is not the journal's size
        assert isinstance(records[good]["terminal"]["result"], int)
        assert "result" not in records[bad]["terminal"]
        svc = ExecutionService.resume(spool, ServiceConfig(workers=1))
        assert svc.result(good).run is None
        back = svc.values(good)
        assert list(back) == list(live) == list(solo)
        for var in solo:
            assert back[var].dtype == live[var].dtype
            assert np.array_equal(back[var], solo[var])
        with pytest.raises(ValueError, match="not DONE"):
            svc.values(bad)


class TestOpenJobCount:
    def test_admission_counts_open_jobs_not_history(self, solo):
        svc = ExecutionService(ServiceConfig(workers=2, max_queue=2))
        for _ in range(250):
            svc.submit_all([JobSpec(source=BAD_SRC), JobSpec(source=BAD_SRC)])
            svc.drain()
        assert svc.stats["failed"] == 500 and svc.stats["rejected"] == 0
        ids = [svc.submit(JobSpec(source=SRC)) for _ in range(3)]
        assert [svc.result(j) is None for j in ids] == [True, True, False]
        assert svc.result(ids[2]).error["reason"] == "queue_full"
        res = svc.drain()
        _assert_matches_solo(res[ids[0]], solo)
        _assert_matches_solo(res[ids[1]], solo)
        assert svc.submit(JobSpec(source=SRC)) == "j504"  # room again
        assert svc.result("j504") is None

    def test_retry_waiter_is_promoted_when_its_backoff_expires(self, solo):
        svc = ExecutionService(ServiceConfig(workers=1))
        jid = svc.submit(
            JobSpec(
                source=SRC,
                faults=[STORM],
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.05),
            )
        )
        assert svc.step() is True
        assert svc.jobs[jid].state == RETRY_WAIT
        assert svc.step() is False  # still backing off: nothing to run
        time.sleep(0.06)
        assert svc.step() is True
        _assert_matches_solo(svc.drain()[jid], solo)
        assert svc.result(jid).attempts == 2

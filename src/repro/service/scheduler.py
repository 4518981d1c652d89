"""The execution service: a cooperative multi-tenant scheduler.

:class:`ExecutionService` accepts many UC jobs (:meth:`submit`), runs
them on a bounded pool of simulated machines (:class:`~repro.service
.worker.Worker`), and guarantees every submitted job exactly one
structured terminal result.  Scheduling is cooperative and
single-threaded — :meth:`step` performs one round (promote retry
waiters, fill free workers, run one slice per busy worker), and
:meth:`drain` loops it to quiescence — which keeps the whole service
deterministic for a given config seed: the chaos tests replay it.

Robustness layers, from the ISSUE:

* **isolation** — worker slices catch everything; a failing job becomes
  a FAILED result with a structured error, and the pool keeps serving;
* **deadlines / budgets** — each job's DeadlineMonitor rides along on
  the interpreter and cancels at construct boundaries; per-tenant Clock
  budgets are re-armed on it every slice;
* **retry/backoff** — fault-rooted failures re-run (fresh attempt,
  per-attempt fault plan, seeded exponential backoff), and
  ``verify_replays`` audits recovered jobs against a clean replay's
  fingerprint;
* **preemption** — under contention (or chaos injection) jobs suspend
  into portable snapshots and resume later, possibly on a different
  worker, with fingerprints identical to uninterrupted runs;
* **crash durability** — with a spool directory every transition is a
  journal record, committed (one fsync) when :meth:`submit_all` and when
  :meth:`step` return; :meth:`resume` replays the journal and
  re-enqueues every in-flight job from its newest snapshot;
* **coalescing** — identical queued programs (same source, defines,
  seed; no faults/deadline/snapshot) ride one ``run_batch`` call, whose
  per-lane fingerprints PR 7 guarantees bit-identical to solo runs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..interp.batch import batchable
from ..interp.checkpoint import SnapshotUnsupported
from ..interp.compile_store import CompileStore
from .admission import AdmissionController
from .jobstate import (
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RETRY_WAIT,
    SUSPENDED,
    Job,
    JobResult,
    JobSpec,
    RetryPolicy,
    retriable,
    structured_error,
)
from .persist import Spool, fingerprint_from_json
from .worker import SliceOutcome, Worker


@dataclass
class ServiceConfig:
    """Pool shape, scheduling and robustness knobs."""

    #: max simultaneously resident jobs (simulated machines alive)
    workers: int = 4
    #: admission bound on in-flight jobs; beyond it, load-shed
    max_queue: int = 256
    #: coalesce identical queued programs into run_batch lanes
    coalesce: bool = True
    #: max lanes one coalesced batch may carry
    max_lanes: int = 64
    #: preempt/yield a resident job after this much simulated time per
    #: slice (None: jobs run to completion once scheduled)
    preempt_slice_us: Optional[float] = None
    #: chaos: probability of forcing a snapshot-preemption at each
    #: top-level boundary (seeded; 0 disables)
    preempt_probability: float = 0.0
    #: seeds chaos preemption and retry jitter
    seed: int = 0
    #: crash-durability directory (None: in-memory only)
    spool_dir: Optional[str] = None
    #: per-tenant simulated-Clock budgets (absent tenants unmetered)
    tenant_budget_us: Optional[Dict[str, float]] = None
    #: retry policy for specs that do not carry their own
    default_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: machine description shared by all pool machines (None: default CM-2)
    machine_config: Any = None
    #: compile store shared across jobs (None: one private store)
    compile_store: Optional[CompileStore] = None


class ExecutionService:
    """See the module docstring.  In-process API; ``repro serve`` wraps it."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = self.config.compile_store or CompileStore()
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            tenant_budget_us=self.config.tenant_budget_us,
        )
        self.jobs: Dict[str, Job] = {}
        self.queue: "deque[str]" = deque()  # QUEUED/SUSPENDED ids awaiting a worker
        self.workers: List[Worker] = [
            Worker(self, i) for i in range(max(1, self.config.workers))
        ]
        self.spool: Optional[Spool] = (
            Spool(self.config.spool_dir) if self.config.spool_dir else None
        )
        self._next_id = 1
        self._rr = 0  # round-robin cursor over workers
        self._open = 0  # admitted jobs without a terminal result
        self._waiting: List[Job] = []  # RETRY_WAIT jobs
        self._result_at: Dict[str, int] = {}  # resumed DONE job -> journal offset
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "done": 0,
            "failed": 0,
            "rejected": 0,
            "preemptions": 0,
            "yields": 0,
            "retries": 0,
            "replays_verified": 0,
            "batches": 0,
            "coalesced_lanes": 0,
            "commits": 0,
            "journal_bytes": self.spool.size if self.spool is not None else 0,
        }

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Admit one job; always returns its id.  A shed job is DONE
        deciding immediately: its REJECTED result is already available."""
        return self.submit_all([spec])[0]

    def submit_all(self, specs: Iterable[JobSpec]) -> List[str]:
        """Admit every spec under one journal commit; the returned ids
        (shed ones too: resume() must not resurrect them) are durable."""
        ids = [self._admit(spec) for spec in specs]
        self._commit()
        return ids

    def _admit(self, spec: JobSpec) -> str:
        job_id = f"j{self._next_id}"
        self._next_id += 1
        job = Job(job_id, spec, spec.retry or self.config.default_retry)
        job.submitted_at = time.monotonic()
        self.jobs[job_id] = job
        self.stats["submitted"] += 1
        if self.spool is not None:
            self.spool.append(
                {"ev": "submit", "job": job_id, "tenant": spec.tenant}, spec=spec
            )
        reason = self.admission.admit(job, self._open)
        self._open += 1
        if reason is not None:
            self._finish(
                job,
                JobResult(
                    job_id=job_id,
                    tenant=spec.tenant,
                    state=REJECTED,
                    error={"type": "AdmissionRejected", "reason": reason},
                ),
            )
        else:
            self.queue.append(job_id)
        return job_id

    def _commit(self) -> None:
        if self.spool is not None and self.spool.commit():
            self.stats["commits"] += 1
            self.stats["journal_bytes"] = self.spool.size

    # -- scheduling ----------------------------------------------------------

    def step(self) -> bool:
        """One cooperative round; True if any job made progress.  What
        the round journalled is committed once, before it returns."""
        try:
            did = False
            # promote retry waiters whose backoff expired, oldest job first
            for job in sorted(self._waiting, key=lambda j: j.num):
                if time.monotonic() >= job.not_before:
                    self._waiting.remove(job)
                    job.state = QUEUED
                    self.queue.append(job.id)
            # fill free workers (coalescing identical programs when possible)
            for worker in self.workers:
                if not worker.free or not self.queue:
                    continue
                job = self.jobs[self.queue.popleft()]
                lanes = self._coalesce_lanes(job)
                if lanes is not None:
                    self._run_coalesced(lanes)
                    did = True
                    continue
                try:
                    worker.assign(job)
                except Exception as exc:  # compile error, OOM-sized grid, ...
                    self._fail_or_retry(job, exc)
                    did = True
            # one slice per busy worker, round-robin start for fairness
            n = len(self.workers)
            for k in range(n):
                worker = self.workers[(self._rr + k) % n]
                if worker.free:
                    continue
                outcome = worker.run_slice()
                self._handle_outcome(worker, outcome)
                did = True
            self._rr = (self._rr + 1) % n
            return did
        finally:
            self._commit()

    def drain(self, *, max_wall_s: Optional[float] = None) -> Dict[str, JobResult]:
        """Run until every submitted job is terminal; returns all results."""
        t0 = time.monotonic()
        while True:
            if not self._open:
                return self.results()
            if max_wall_s is not None and time.monotonic() - t0 > max_wall_s:
                raise TimeoutError(
                    f"drain exceeded {max_wall_s}s with "
                    f"{self._open} jobs pending"
                )
            if not self.step():
                waits = [j.not_before - time.monotonic() for j in self._waiting]
                if not waits:  # pragma: no cover — would be a scheduler bug
                    raise RuntimeError(
                        f"scheduler stalled with {self._open} jobs pending"
                    )
                time.sleep(min(0.05, max(0.0, min(waits))))

    def results(self) -> Dict[str, JobResult]:
        return {
            job_id: job.result
            for job_id, job in self.jobs.items()
            if job.result is not None
        }

    def result(self, job_id: str) -> Optional[JobResult]:
        return self.jobs[job_id].result

    def values(self, job_id: str) -> Dict[str, np.ndarray]:
        """A DONE job's final variables as arrays: from its run while the
        service that ran it lives, decoded from its journal record (on
        demand) after a resume."""
        result = self.jobs[job_id].result
        if result is None or not result.ok:
            raise ValueError(f"job {job_id} is not DONE")
        if result.run is not None:
            return {var: np.asarray(result.run[var]) for var in result.run}
        return self.spool.load(self._result_at[job_id], "result")

    def lost_jobs(self) -> List[str]:
        """Submitted jobs with no terminal result — must be [] after a
        drain; the chaos suite asserts it across kill/resume too."""
        return [
            job_id
            for job_id, job in self.jobs.items()
            if not job.terminal or job.result is None
        ]

    # -- internals -----------------------------------------------------------

    def program_for(self, spec: JobSpec):
        """The shared program object for a spec (content-coalesced)."""
        return self.store.shared_program(
            spec.source,
            defines=spec.defines,
            machine_config=self.config.machine_config,
        )

    def _coalesce_key(self, job: Job):
        spec = job.spec
        if (
            not self.config.coalesce
            or job.attempt != 1
            or job.snapshot is not None
            or job.pc != 0
            or spec.faults is not None
            or spec.deadline is not None
            or spec.recovery is not None
            # budget enforcement rides the worker's DeadlineMonitor, which
            # coalesced batches bypass — metered tenants go solo
            or self.admission.budgets.get(spec.tenant) is not None
        ):
            return None
        return (spec.source, tuple(sorted(spec.defines.items())), spec.seed)

    def _coalesce_lanes(self, job: Job) -> Optional[List[Job]]:
        """Jobs from the queue that can ride one run_batch with ``job``."""
        key = self._coalesce_key(job)
        if key is None:
            return None
        try:
            if not batchable(self.program_for(job.spec)):
                return None
        except Exception:
            return None  # let the solo path report the compile/config failure
        lanes = [job]
        kept: "deque[str]" = deque()
        while self.queue and len(lanes) < self.config.max_lanes:
            other = self.jobs[self.queue.popleft()]
            if self._coalesce_key(other) == key:
                lanes.append(other)
            else:
                kept.append(other.id)
        self.queue.extendleft(reversed(kept))
        if len(lanes) < 2:
            # nothing to share; put the job back on the solo path
            return None if lanes == [job] else lanes
        return lanes

    def _run_coalesced(self, lanes: List[Job]) -> None:
        """Run coalesced jobs as run_batch lanes (bit-identical to solo)."""
        prog = self.program_for(lanes[0].spec)
        self.stats["batches"] += 1
        self.stats["coalesced_lanes"] += len(lanes)
        try:
            runs = prog.run_batch(
                [job.spec.inputs for job in lanes], seed=lanes[0].spec.seed
            )
        except Exception:
            # one bad lane must not sink its neighbours: isolate by
            # falling back to solo runs (deterministic, so the failing
            # lane reproduces its exact error)
            for job in lanes:
                try:
                    run = prog.run(job.spec.inputs, seed=job.spec.seed)
                except Exception as exc:
                    self._fail_or_retry(job, exc)
                else:
                    self._on_done(job, run)
            return
        for job, run in zip(lanes, runs):
            self._on_done(job, run)

    def _handle_outcome(self, worker: Worker, outcome: SliceOutcome) -> None:
        job = worker.job
        assert job is not None
        if outcome.kind == "yielded":
            self.stats["yields"] += 1
            job.state = SUSPENDED  # resident on the worker, machine alive
            return
        if outcome.kind == "preempted":
            worker.release()
            job.snapshot = outcome.snapshot
            job.pc = outcome.snapshot.pc
            job.preemptions += 1
            self.stats["preemptions"] += 1
            job.state = SUSPENDED
            if self.spool is not None:
                self.spool.append(
                    {
                        "ev": "suspend",
                        "job": job.id,
                        "attempt": job.attempt,
                        "wall_used_s": (
                            job.monitor.wall_used_s if job.monitor else 0.0
                        ),
                        "preemptions": job.preemptions,
                    },
                    snapshot=outcome.snapshot,
                )
            self.queue.append(job.id)
            return
        clock_us = 0.0
        if job.prepared is not None:
            clock_us = job.prepared.machine.clock.time_us
        worker.release()
        if outcome.kind == "error":
            self._fail_or_retry(job, outcome.exc, clock_us=clock_us)
        else:
            self._on_done(job, outcome.run)

    def _fail_or_retry(
        self, job: Job, exc: BaseException, *, clock_us: float = 0.0
    ) -> None:
        if retriable(exc) and job.attempt < job.retry.max_attempts:
            failed_attempt = job.attempt
            job.attempt += 1
            job.snapshot = None
            job.pc = 0
            job.prepared = None
            self.stats["retries"] += 1
            delay = job.retry.backoff_s(
                failed_attempt, seed=(self.config.seed, job.num)
            )
            job.not_before = time.monotonic() + delay
            if self.spool is not None:
                self.spool.append(
                    {"ev": "attempt", "job": job.id, "attempt": job.attempt}
                )
            if delay <= 0.0:
                job.state = QUEUED
                self.queue.append(job.id)
            else:
                job.state = RETRY_WAIT
                self._waiting.append(job)
            return
        self._finish(
            job,
            JobResult(
                job_id=job.id,
                tenant=job.spec.tenant,
                state=FAILED,
                attempts=job.attempt,
                preemptions=job.preemptions,
                clock_us=clock_us,
                wall_s=time.monotonic() - job.submitted_at,
                error=structured_error(exc),
            ),
        )

    def _finish(self, job: Job, result: JobResult) -> None:
        """The one terminal transition: DONE, FAILED and REJECTED alike."""
        job.state = result.state
        job.prepared = None
        job.result = result
        self._open -= 1
        self.stats[result.state] += 1
        self.admission.charge(result.tenant, result.clock_us)
        if self.spool is not None:
            self.spool.append(
                {
                    "ev": result.state,
                    "job": job.id,
                    "attempts": result.attempts,
                    "preemptions": result.preemptions,
                    "clock_us": result.clock_us,
                    "fingerprint": result.fingerprint,
                    "error": result.error,
                },
                result=result.run,
            )

    def _on_done(self, job: Job, run) -> None:
        if job.retry.verify_replays and job.attempt > 1:
            # determinism audit: the recovered job's fingerprint must be
            # reproducible by a fresh run of the same final configuration
            prog = self.program_for(job.spec)
            replay = prog.run(
                job.spec.inputs,
                seed=job.spec.seed,
                faults=job.spec.fault_plan_for_attempt(job.attempt),
                recovery=job.spec.recovery,
            )
            self.stats["replays_verified"] += 1
            if replay.fingerprint != run.fingerprint:
                self._fail_or_retry(
                    job,
                    RuntimeError(
                        "fingerprint-verified replay diverged: "
                        f"{run.fingerprint[0]:.0f}us vs "
                        f"{replay.fingerprint[0]:.0f}us"
                    ),
                    clock_us=run.elapsed_us,
                )
                return
        self._finish(
            job,
            JobResult(
                job_id=job.id,
                tenant=job.spec.tenant,
                state=DONE,
                attempts=job.attempt,
                preemptions=job.preemptions,
                run=run,
                fingerprint=run.fingerprint,
                clock_us=run.elapsed_us,
                wall_s=time.monotonic() - job.submitted_at,
            ),
        )

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def resume(
        cls, spool_dir: str, config: Optional[ServiceConfig] = None
    ) -> "ExecutionService":
        """Rebuild a service from a spool directory after a crash.

        Terminal jobs come back with their journalled results (arrays
        through :meth:`values`); every in-flight job is re-enqueued
        from its newest journalled snapshot — or from scratch if it
        never suspended, or the snapshot is in a format this build does
        not read — and will finish with the same fingerprint an
        uninterrupted run produces.
        """
        config = config or ServiceConfig()
        config.spool_dir = spool_dir
        svc = cls(config)
        assert svc.spool is not None
        records, svc.admission.spent = svc.spool.scan()
        for job_id in sorted(records, key=lambda j: int(j[1:])):
            rec = records[job_id]
            svc._next_id = int(job_id[1:]) + 1
            spec = rec["spec"]
            job = Job(job_id, spec, spec.retry or config.default_retry)
            job.submitted_at = time.monotonic()
            job.attempt = rec["attempt"]
            job.preemptions = rec["preemptions"]
            svc.jobs[job_id] = job
            svc.stats["submitted"] += 1
            terminal = rec["terminal"]
            if terminal is not None:
                job.state = terminal["ev"]
                job.result = JobResult(
                    job_id=job_id,
                    tenant=spec.tenant,
                    state=job.state,
                    attempts=terminal["attempts"],
                    preemptions=terminal["preemptions"],
                    fingerprint=fingerprint_from_json(terminal["fingerprint"]),
                    clock_us=terminal["clock_us"],
                    error=terminal["error"],
                )
                svc.stats[job.state] += 1
                if "result" in terminal:
                    svc._result_at[job_id] = terminal["result"]
                continue
            if rec["snapshot"] is not None:
                try:
                    job.snapshot = svc.spool.load(rec["snapshot"], "snapshot")
                    job.pc = job.snapshot.pc
                except SnapshotUnsupported:
                    pass  # restarts from pc=0
                from ..interp.deadline import DeadlineMonitor

                d = spec.deadline
                if d is not None or rec["wall_used_s"]:
                    job.monitor = DeadlineMonitor(
                        wall_s=d.wall_s if d is not None else None,
                        clock_us=d.clock_us if d is not None else None,
                        wall_used_s=rec["wall_used_s"],
                    )
            job.state = QUEUED
            svc._open += 1
            svc.queue.append(job_id)
        return svc

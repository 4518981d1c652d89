"""One worker: a slot in the bounded pool of simulated machines.

A worker holds at most one resident job — a
:class:`~repro.interp.program.PreparedRun` whose simulated machine stays
alive between slices — so the pool's ``workers`` setting is a hard bound
on simultaneously allocated machines.  :meth:`run_slice` drives the
resident job's resumable runner until one of four outcomes:

* ``done`` — ``main`` completed; the packaged RunResult rides along;
* ``yielded`` — the slice budget expired with nobody waiting for the
  worker: the job stays resident (machine intact) and the next slice
  continues from ``job.pc`` — cooperative time-slicing without paying
  for a snapshot;
* ``preempted`` — a queued job needs the machine (or chaos injection
  elected it): the job captured a portable snapshot at a top-level
  boundary and leaves the worker;
* ``error`` — the job raised.  *Any* exception (UC error, recovery
  exhaustion after a fault storm, OOM-sized allocation, sanitizer
  contradiction, deadline) is caught here and reported as data — the
  fault domain is the job, never the pool.

Preemption and deadline cancellation both happen only at safe points
(top-level statement boundaries / construct sweep boundaries), so a job
observed by a snapshot is always in a state an uninterrupted run passes
through — the fingerprint-identity guarantee rests on that.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from ..interp.checkpoint import SnapshotUnsupported, install_portable, take_portable
from ..interp.deadline import DeadlineMonitor, JobPreempted
from .jobstate import Job, RUNNING


class SliceOutcome:
    """What one slice of execution produced."""

    __slots__ = ("kind", "run", "snapshot", "exc")

    def __init__(self, kind: str, *, run=None, snapshot=None, exc=None) -> None:
        self.kind = kind  # 'done' | 'yielded' | 'preempted' | 'error'
        self.run = run
        self.snapshot = snapshot
        self.exc = exc


class Worker:
    def __init__(self, service, index: int) -> None:
        self.service = service
        self.index = index
        self.job: Optional[Job] = None

    @property
    def free(self) -> bool:
        return self.job is None

    def assign(self, job: Job) -> None:
        """Load a job onto this worker: compile (shared store), build the
        machine, and — when resuming — install its portable snapshot
        (one taken under another clock key, e.g. before a ``REPRO_*``
        variable changed, restarts the job on a clean machine instead).

        Raises whatever the program raises (parse/semantic errors,
        OOM-sized grids); the scheduler converts that into a structured
        per-job failure.
        """
        svc = self.service
        spec = job.spec
        prog = svc.program_for(spec)
        plan = spec.fault_plan_for_attempt(job.attempt)

        def prepare(inputs):  # install_faults resets the plan: reusable
            return prog.prepare(
                inputs, seed=spec.seed, faults=plan, recovery=spec.recovery
            )

        snap, job.snapshot = job.snapshot, None
        job.pc = 0
        pr = prepare(spec.inputs if snap is None else None)
        if snap is not None:
            try:
                install_portable(pr.interp, pr.context, snap)
                job.pc = snap.pc
            except SnapshotUnsupported:
                pr = prepare(spec.inputs)
        job.prepared = pr
        if job.monitor is None:
            d = spec.deadline
            metered = svc.admission.budgets.get(spec.tenant) is not None
            if d is not None or metered:
                job.monitor = DeadlineMonitor(
                    wall_s=d.wall_s if d is not None else None,
                    clock_us=d.clock_us if d is not None else None,
                )
        job.state = RUNNING
        self.job = job

    def release(self) -> Job:
        job = self.job
        assert job is not None
        job.prepared = None
        self.job = None
        return job

    def run_slice(self) -> SliceOutcome:
        """Run the resident job until done / yield / preempt / error."""
        svc = self.service
        job = self.job
        assert job is not None and job.prepared is not None
        pr = job.prepared
        ip = pr.interp
        monitor = job.monitor
        if monitor is not None:
            ip.deadline = monitor
            # the tenant's unspent budget right now; other jobs finishing
            # shrink it between this job's slices
            monitor.budget_us = svc.admission.remaining_budget_us(job.spec.tenant)
            monitor.begin()
        job.slice_count += 1
        start_pc = job.pc
        slice_start_us = ip.machine.clock.time_us
        slice_us = svc.config.preempt_slice_us
        chaos_p = svc.config.preempt_probability
        chaos_rng = (
            np.random.default_rng((svc.config.seed, job.num, job.slice_count))
            if chaos_p > 0.0
            else None
        )
        # static within the slice: the scheduler is single-threaded
        others_waiting = bool(svc.queue)

        def boundary(pc: int) -> None:
            job.pc = pc
            if pc <= start_pc:
                return  # always make progress: >= 1 statement per slice
            over_budget = (
                slice_us is not None
                and ip.machine.clock.time_us - slice_start_us >= slice_us
            )
            chaos = chaos_rng is not None and chaos_rng.random() < chaos_p
            if not over_budget and not chaos:
                return
            if over_budget and not others_waiting and not chaos:
                # nobody needs the machine: yield in place, snapshot-free
                raise JobPreempted(None)
            try:
                snap = take_portable(ip, pr.context, pc)
            except SnapshotUnsupported:
                return  # not capturable here; keep running to the next one
            raise JobPreempted(snap)

        t0 = time.perf_counter()
        try:
            ip.run_main_from(pr.context, start_pc, boundary)
        except JobPreempted as signal:
            if signal.snapshot is None:
                return SliceOutcome("yielded")
            return SliceOutcome("preempted", snapshot=signal.snapshot)
        except Exception as exc:  # noqa: BLE001 — isolation: job fails, pool survives
            return SliceOutcome("error", exc=exc)
        else:
            try:
                run = pr.finish()
            except Exception as exc:  # sanitizer cross-check, result packaging
                return SliceOutcome("error", exc=exc)
            return SliceOutcome("done", run=run)
        finally:
            if monitor is not None:
                monitor.pause()
            pr.execute_s += time.perf_counter() - t0

"""Resilient multi-tenant execution service (``repro serve``).

In-process API::

    from repro.service import ExecutionService, JobSpec, ServiceConfig

    svc = ExecutionService(ServiceConfig(workers=4))
    job = svc.submit(JobSpec(source=UC_SOURCE, tenant="alice"))
    results = svc.drain()
    assert results[job].ok and not svc.lost_jobs()

See ``docs/ROBUSTNESS.md`` ("Service-level guarantees") for the
failure-mode × guarantee table.
"""

from ..interp.deadline import Deadline, UCDeadlineError
from .admission import AdmissionController
from .jobstate import (
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RETRY_WAIT,
    RUNNING,
    SUSPENDED,
    Job,
    JobResult,
    JobSpec,
    RetryPolicy,
)
from .persist import Spool, SpoolError
from .scheduler import ExecutionService, ServiceConfig
from .worker import Worker

__all__ = [
    "AdmissionController",
    "Deadline",
    "ExecutionService",
    "Job",
    "JobResult",
    "JobSpec",
    "RetryPolicy",
    "ServiceConfig",
    "Spool",
    "SpoolError",
    "UCDeadlineError",
    "Worker",
    "DONE",
    "FAILED",
    "QUEUED",
    "REJECTED",
    "RETRY_WAIT",
    "RUNNING",
    "SUSPENDED",
]

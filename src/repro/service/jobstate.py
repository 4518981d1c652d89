"""Job model for the execution service: specs, states, results.

A :class:`JobSpec` is everything a tenant submits; a :class:`Job` is the
service's mutable record of one spec moving through the state machine::

    QUEUED ──▶ RUNNING ──▶ DONE
      ▲           │ ├────▶ FAILED
      │           │ └────▶ RETRY_WAIT ──▶ QUEUED
      └─ SUSPENDED ◀┘ (preemption snapshot)

plus REJECTED, assigned at admission (load shedding / exhausted tenant
budget) without the job ever entering the queue.  Every submitted job
reaches exactly one terminal state — DONE, FAILED or REJECTED — each
carrying a :class:`JobResult`; "zero lost jobs" means exactly that, and
:meth:`ExecutionService.lost_jobs
<repro.service.scheduler.ExecutionService.lost_jobs>` counts violations.

Failures are *structured*: :func:`structured_error` flattens any
exception a job raises into a plain dict (type, message, position,
deadline reason, fault cause) so results serialize and tenants can
pattern-match without importing simulator internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..interp.deadline import Deadline, UCDeadlineError
from ..lang.errors import UCError
from ..machine.errors import LinkFault, ProcessorFault
from ..machine.faults import FaultPlan

# -- states ------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
SUSPENDED = "suspended"
RETRY_WAIT = "retry_wait"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

TERMINAL = (DONE, FAILED, REJECTED)


@dataclass(frozen=True)
class RetryPolicy:
    """Service-level retries (above the in-run RecoveryManager).

    A failed attempt whose root cause is a hardware fault (see
    :func:`retriable`) is re-run up to ``max_attempts`` times in total,
    waiting ``backoff_base_s * backoff_factor ** (attempt - 1)`` host
    seconds (capped at ``backoff_cap_s``, stretched by up to ``jitter``
    fraction — seeded, so scheduling stays reproducible) before
    re-queueing.  With ``verify_replays`` a job that needed any
    service-level retry is, after success, replayed once more under the
    same (clean) configuration and the two Clock fingerprints must be
    bit-identical — a determinism audit of the recovery machinery
    itself.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    jitter: float = 0.0
    verify_replays: bool = False

    def backoff_s(self, attempt: int, *, seed: int = 0) -> float:
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        delay = min(delay, self.backoff_cap_s)
        if self.jitter > 0.0 and delay > 0.0:
            import numpy as np

            rng = np.random.default_rng((seed, attempt))
            delay *= 1.0 + self.jitter * rng.random()
        return min(delay, self.backoff_cap_s)


@dataclass
class JobSpec:
    """One tenant submission.

    ``faults`` may be a single plan/spec string (every attempt carries
    it) or a *list of per-attempt plans* — attempt ``k`` (1-based)
    installs ``faults[k-1]``, attempts past the end run clean.  The list
    form is how a tenant models "the fault storm happened once": the
    retry after in-run recovery exhaustion gets a clean machine and its
    fingerprint is bit-identical to a fault-free solo run.
    """

    source: str
    defines: Dict[str, int] = field(default_factory=dict)
    inputs: Optional[Dict[str, Any]] = None
    tenant: str = "default"
    seed: int = 20250704
    deadline: Optional[Deadline] = None
    faults: Union[None, str, FaultPlan, List[Union[None, str, FaultPlan]]] = None
    retry: Optional[RetryPolicy] = None
    recovery: Any = None  # RecoveryPolicy override for the in-run manager

    def fault_plan_for_attempt(self, attempt: int) -> Optional[FaultPlan]:
        """A fresh (unfired) plan for the ``attempt``-th execution."""
        spec = self.faults
        if isinstance(spec, list):
            spec = spec[attempt - 1] if attempt - 1 < len(spec) else None
        if spec is None:
            return None
        plan = FaultPlan.parse(spec) if isinstance(spec, str) else spec
        return plan.fork()


@dataclass
class JobResult:
    """The terminal outcome every submitted job gets exactly one of."""

    job_id: str
    tenant: str
    state: str  # DONE | FAILED | REJECTED
    attempts: int = 0
    preemptions: int = 0
    #: the RunResult of the successful attempt (DONE only, and only in
    #: the service that ran it: the journal keeps the final arrays, which
    #: ``ExecutionService.values`` decodes after a resume)
    run: Any = None
    fingerprint: Any = None
    clock_us: float = 0.0
    wall_s: float = 0.0
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.state == DONE


class Job:
    """Mutable service-side record of one submitted spec."""

    def __init__(self, job_id: str, spec: JobSpec, retry: RetryPolicy) -> None:
        self.id = job_id
        #: numeric suffix of the id ("j17" -> 17), seeds per-job RNGs
        self.num = int(job_id[1:]) if job_id[1:].isdigit() else 0
        self.spec = spec
        self.retry = retry
        self.state = QUEUED
        self.attempt = 1
        #: index of the next top-level statement (snapshot resume point)
        self.pc = 0
        self.snapshot = None  # PortableSnapshot while suspended
        self.prepared = None  # PreparedRun while resident on a worker
        self.monitor = None  # DeadlineMonitor, job-lifetime (wall accumulates)
        self.result: Optional[JobResult] = None
        self.preemptions = 0
        self.submitted_at = 0.0  # time.monotonic at admission
        self.not_before = 0.0  # retry backoff gate (monotonic seconds)
        self.slice_count = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL


# -- structured errors -------------------------------------------------------


def structured_error(exc: BaseException) -> Dict[str, Any]:
    """Flatten an exception into a serializable, pattern-matchable dict."""
    out: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, UCError):
        if getattr(exc, "line", 0):
            out["line"] = exc.line
            out["col"] = exc.col
    if isinstance(exc, UCDeadlineError):
        out["reason"] = exc.reason
        out["position"] = exc.position
        out["wall_used_s"] = exc.wall_used_s
        out["clock_used_us"] = exc.clock_used_us
    cause = exc.__cause__
    if cause is not None:
        out["cause"] = type(cause).__name__
    return out


def retriable(exc: BaseException) -> bool:
    """Should the service-level retry policy re-run after this failure?

    Only failures rooted in injected hardware faults are retriable — a
    later attempt may carry a different (or no) fault plan.  Program
    errors, sanitizer contradictions, deadline/budget cancellations and
    resource exhaustion are deterministic for a given attempt
    configuration, so retrying them would fail identically.
    """
    if isinstance(exc, (ProcessorFault, LinkFault)):
        return True
    if isinstance(exc, UCDeadlineError):
        return False
    return isinstance(exc.__cause__, (ProcessorFault, LinkFault))

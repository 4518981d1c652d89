"""Checkpoint/restore of the full execution state.

A :class:`Checkpoint` captures everything a UC program can observe:
field contents of every machine array, VP-set activity-context stacks,
the values bound in the environment chain (scalars and parallel locals
are mutable cells; restore writes the saved values back into the *same*
cell objects so every live reference sees them), the complete Clock
ledger, both RNG states (machine and interpreter), buffered ``print``
output and the tier log.  The Clock state rides through whole: the
frontier-engine counters and per-sweep traces
(``Clock.frontier_counts`` / ``Clock.frontier_trace``) are part of
``dump_state``/``load_state``, so a replayed construct neither loses nor
double-counts its active-set sweep statistics (they stay excluded from
the cost fingerprint either way).

Deliberately **not** captured: the machine's dead-PE list and the fault
plan's fired/counter state.  Hardware health is physical, not program,
state — rolling it back would make the same fault fire again on every
replay and recovery could never converge.

Because the simulator charges the clock *before* mutating fields
everywhere, a fault interrupts an attempt with no partial mutation in
flight; restoring a checkpoint therefore reproduces the exact program
state — and, crucially, the exact Clock fingerprint — that held when the
checkpoint was taken.  The recovery tests assert bit-identity.

The in-memory :class:`Checkpoint` above restores into the *same* live
objects and therefore cannot outlive its process.  For the execution
service's preemption and crash recovery there is a second, portable
format: :class:`PortableSnapshot`, taken only at **top-level statement
boundaries** of ``main`` (where no construct is active, every VP-set
context stack is empty and the environment chain is exactly
``main env -> global env``).  It captures state *by name* — field data,
scalar values, block-local declarations in order, clock state, both
RNGs, stdout, the tier log, the dead-PE list and the fault plan's
fired/counter state — and :func:`install_portable` rebuilds it onto a
freshly constructed interpreter for the same program, in this process
or another one (``snapshot_to_bytes``/``snapshot_from_bytes``).  Unlike
the in-memory checkpoint it deliberately **does** carry hardware state
(dead PEs, fired fault events): across a process boundary there is no
surviving machine object to remember them, and replaying a fired fault
after resume would break the exactly-once guarantee.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..lang.errors import UCRuntimeError
from ..lang.scope import IndexSetValue
from .values import ArrayVar, ParallelLocal, ScalarVar


class Checkpoint:
    """One captured execution state (build via :func:`take_checkpoint`)."""

    __slots__ = (
        "clock_state",
        "machine_rng",
        "interp_rng",
        "fields",
        "stacks",
        "envs",
        "stdout_len",
        "tier_log",
    )

    def __init__(
        self,
        clock_state: dict,
        machine_rng: dict,
        interp_rng: dict,
        fields: List[Tuple[Any, np.ndarray]],
        stacks: List[Tuple[Any, List[np.ndarray]]],
        envs: List[Tuple[Any, Dict[str, Tuple[str, Any, Any]]]],
        stdout_len: int,
        tier_log: Optional[Dict[Any, set]],
    ) -> None:
        self.clock_state = clock_state
        self.machine_rng = machine_rng
        self.interp_rng = interp_rng
        self.fields = fields
        self.stacks = stacks
        self.envs = envs
        self.stdout_len = stdout_len
        self.tier_log = tier_log


def take_checkpoint(ip, ctx) -> Checkpoint:
    """Snapshot the interpreter/machine pair at a construct boundary."""
    m = ip.machine
    fields = [(f, f.data.copy()) for f in m.fields]
    stacks = [(vps, list(vps._context_stack)) for vps in m.vpsets]
    envs: List[Tuple[Any, Dict[str, Tuple[str, Any, Any]]]] = []
    env = ctx.env
    while env is not None:
        saved: Dict[str, Tuple[str, Any, Any]] = {}
        for name, binding in env.bindings.items():
            if isinstance(binding, ScalarVar):
                saved[name] = ("scalar", binding, binding.value)
            elif isinstance(binding, ParallelLocal):
                saved[name] = ("plocal", binding, binding.data.copy())
            else:
                # arrays restore through their field; index sets, element
                # bindings, functions and constants are immutable
                saved[name] = ("ref", binding, None)
        envs.append((env, saved))
        env = env.parent
    tier_log = None
    if ip.tier_log is not None:
        tier_log = {key: set(val) for key, val in ip.tier_log.items()}
    return Checkpoint(
        clock_state=m.clock.dump_state(),
        machine_rng=m.rng.bit_generator.state,
        interp_rng=ip.rng.bit_generator.state,
        fields=fields,
        stacks=stacks,
        envs=envs,
        stdout_len=len(ip.stdout),
        tier_log=tier_log,
    )


def restore_checkpoint(ip, cp: Checkpoint) -> None:
    """Roll the interpreter/machine pair back to ``cp``.

    A checkpoint may be restored any number of times (each retry of a
    protected construct restores the same one); the saved arrays are
    never handed out, only copied from.
    """
    m = ip.machine
    m.clock.load_state(cp.clock_state)
    m.rng.bit_generator.state = cp.machine_rng
    ip.rng.bit_generator.state = cp.interp_rng
    for f, data in cp.fields:
        f.data[...] = data
    known_vpsets = set()
    for vps, stack in cp.stacks:
        vps._context_stack = list(stack)
        known_vpsets.add(id(vps))
    # VP sets cached during the aborted attempt: drop any context state
    for vps in m.vpsets:
        if id(vps) not in known_vpsets:
            vps._context_stack = []
    for env, saved in cp.envs:
        bindings: Dict[str, Any] = {}
        for name, (tag, obj, value) in saved.items():
            if tag == "scalar":
                obj.value = value
            elif tag == "plocal":
                obj.data[...] = value
            bindings[name] = obj
        # rebuilding the dict also prunes names the aborted attempt declared
        env.bindings = bindings
    del ip.stdout[cp.stdout_len :]
    if ip.tier_log is not None and cp.tier_log is not None:
        ip.tier_log.clear()
        for key, val in cp.tier_log.items():
            ip.tier_log[key] = set(val)
    # the aborted attempt may have cached subexpressions over rolled-back
    # state; drop everything (the protected region re-arms its own cache)
    ip.cse_invalidate()


# ---------------------------------------------------------------------------
# portable (cross-process) snapshots
# ---------------------------------------------------------------------------

#: bump when the portable payload layout changes; loads reject mismatches
SNAPSHOT_VERSION = 2


class SnapshotUnsupported(Exception):
    """This execution state cannot be captured portably (e.g. an env
    binding class the by-name format does not model): callers keep
    running, the job simply is not preemptible here.  Or a snapshot
    cannot be resumed here (another format version or ``clock_key``):
    callers restart the job from the top on a clean machine."""


class PortableSnapshot:
    """A by-name execution state at a top-level boundary of ``main``.

    Everything inside is plain data (dicts, lists, ndarrays, scalars):
    pickling it and loading it in another process is supported and is
    what ``repro serve --resume`` does.  ``pc`` is the index of the next
    top-level statement to execute; ``config`` is the taking run's
    ``clock_key`` — a run under another one would finish with a
    fingerprint no uninterrupted run produces.
    """

    __slots__ = (
        "pc",
        "config",
        "clock_state",
        "machine_rng",
        "interp_rng",
        "stdout",
        "tier_log",
        "dead_pes",
        "fault_state",
        "globals",
        "main_env",
    )

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def to_payload(self) -> dict:
        return {
            "version": SNAPSHOT_VERSION,
            **{name: getattr(self, name) for name in self.__slots__},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PortableSnapshot":
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotUnsupported(
                f"snapshot version {version!r} != {SNAPSHOT_VERSION}"
            )
        return cls(**{name: payload[name] for name in cls.__slots__})


def snapshot_to_bytes(snap: PortableSnapshot) -> bytes:
    return pickle.dumps(snap.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_from_bytes(data: bytes) -> PortableSnapshot:
    return PortableSnapshot.from_payload(pickle.loads(data))


def take_portable(ip, ctx, pc: int) -> PortableSnapshot:
    """Capture a :class:`PortableSnapshot` at top-level statement ``pc``.

    ``ctx`` must be the main context built by
    :meth:`Interpreter.make_main_context` — its environment a direct
    child of the global environment.  Raises :class:`SnapshotUnsupported`
    when the live state has a shape the portable format cannot carry.
    """
    if ctx.env.parent is not ip.global_env:
        raise SnapshotUnsupported("not at a top-level statement boundary")
    for vps in ip.machine.vpsets:
        if vps._context_stack:
            raise SnapshotUnsupported("a VP-set activity context is open")
    main_env: List[Tuple[str, str, Any]] = []
    for name, binding in ctx.env.bindings.items():
        if isinstance(binding, ScalarVar):
            main_env.append(("scalar", name, (binding.ctype, binding.value)))
        elif isinstance(binding, ArrayVar):
            main_env.append(
                ("array", name, (binding.ctype, binding.shape, binding.data.copy()))
            )
        elif isinstance(binding, IndexSetValue):
            main_env.append(
                ("index_set", name, (binding.elem_name, tuple(binding.values)))
            )
        else:
            raise SnapshotUnsupported(
                f"binding {name!r} ({type(binding).__name__}) is not portable"
            )
    globals_: List[Tuple[str, str, Any]] = []
    for name, binding in ip.global_env.bindings.items():
        if isinstance(binding, ArrayVar):
            globals_.append(("array", name, binding.data.copy()))
        elif isinstance(binding, ScalarVar):
            globals_.append(("scalar", name, binding.value))
        # index sets, functions and constants are rebuilt by the
        # interpreter constructor from the (shared) program info
    plan = ip.machine.faults
    fault_state = None
    if plan is not None:
        fault_state = {
            "fired": [bool(ev.fired) for ev in plan.events],
            "counts": dict(plan._counts),
            "log": list(plan.log),
        }
    return PortableSnapshot(
        pc=int(pc),
        config=ip.config.clock_key,
        clock_state=ip.machine.clock.dump_state(),
        machine_rng=ip.machine.rng.bit_generator.state,
        interp_rng=ip.rng.bit_generator.state,
        stdout="".join(ip.stdout),
        tier_log=(
            {key: set(val) for key, val in ip.tier_log.items()}
            if ip.tier_log is not None
            else None
        ),
        dead_pes=set(ip.machine.dead_pes),
        fault_state=fault_state,
        globals=globals_,
        main_env=main_env,
    )


def install_portable(ip, ctx, snap: PortableSnapshot) -> None:
    """Rebuild a snapshot onto a *freshly prepared* interpreter.

    ``ip``/``ctx`` must come from the same program (source, defines,
    machine config, seed) the snapshot was taken from — ``repro serve``
    guarantees that by re-preparing from the journalled job spec — and
    run under the same ``clock_key``, which is checked: a mismatch
    raises :class:`SnapshotUnsupported` before anything is touched.
    Execution then resumes at ``snap.pc`` with fingerprints
    bit-identical to the uninterrupted run.
    """
    if snap.config != ip.config.clock_key:
        raise SnapshotUnsupported(
            f"snapshot taken under clock key {snap.config}, "
            f"resuming under {ip.config.clock_key}"
        )
    m = ip.machine
    # hardware health first: VP sets allocated below (and ratios of the
    # already-allocated global sets) must see the surviving PE count
    m.dead_pes = set(snap.dead_pes)
    for vps in m.vpsets:
        vps.recompute_ratio()
    by_name = {
        name: payload for tag, name, payload in snap.globals if tag == "array"
    }
    for name, binding in ip.global_env.bindings.items():
        if isinstance(binding, ArrayVar) and name in by_name:
            binding.field.data[...] = by_name[name]
        elif isinstance(binding, ScalarVar):
            for tag, sname, payload in snap.globals:
                if tag == "scalar" and sname == name:
                    binding.value = payload
                    break
    for tag, name, payload in snap.main_env:
        if tag == "scalar":
            ctype, value = payload
            var = ScalarVar(name, ctype)
            var.value = value
            ctx.env.declare(name, var)
        elif tag == "array":
            ctype, dims, data = payload
            var = ip.allocate_array(name, ctype, tuple(dims))
            var.field.data[...] = data
            ctx.env.declare(name, var)
        else:
            elem_name, values = payload
            ctx.env.declare(name, IndexSetValue(name, elem_name, values))
    m.clock.load_state(snap.clock_state)
    m.rng.bit_generator.state = snap.machine_rng
    ip.rng.bit_generator.state = snap.interp_rng
    ip.stdout = [snap.stdout] if snap.stdout else []
    if ip.tier_log is not None and snap.tier_log is not None:
        ip.tier_log.clear()
        for key, val in snap.tier_log.items():
            ip.tier_log[key] = set(val)
    plan = m.faults
    if plan is not None and snap.fault_state is not None:
        fired = snap.fault_state["fired"]
        if len(fired) != len(plan.events):
            raise SnapshotUnsupported(
                "fault plan shape changed between suspend and resume"
            )
        for ev, was_fired in zip(plan.events, fired):
            ev.fired = was_fired
        plan._counts = dict(snap.fault_state["counts"])
        plan.log = list(snap.fault_state["log"])

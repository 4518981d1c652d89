"""The simulated Connection Machine: top-level object tying it together.

A :class:`Machine` owns a configuration, a cost :class:`Clock`, a seeded
RNG (for the router's arbitrary-combining and UC's ``oneof``), and the VP
sets / fields allocated on it.  All the Paris-layer modules (``paris``,
``news``, ``router``, ``scan``) operate on the fields of one machine and
charge its clock.

Example
-------
>>> from repro.machine import Machine
>>> cm = Machine()
>>> vps = cm.vpset((32, 32), name="grid")
>>> a = cm.field(vps, name="a")
>>> from repro.machine import paris
>>> paris.move(a, vps.coordinates(0))
>>> cm.clock.time_us > 0
True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .config import MachineConfig, default_config
from .cost import Clock
from .errors import GeometryError
from .faults import FaultPlan
from .field import Field
from .vpset import VPSet


class Machine:
    """A simulated CM-2: physical configuration + clock + allocations."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        seed: int = 0x5CA1AB1E,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config or default_config()
        self.clock = Clock(self.config.costs)
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self.vpsets: List[VPSet] = []
        self.fields: List[Field] = []
        #: physical PEs taken down by injected faults; survives checkpoint
        #: restore (hardware health is not program state)
        self.dead_pes: Set[int] = set()
        self.faults: Optional[FaultPlan] = None
        if faults is not None:
            self.install_faults(faults)

    # -- fault injection ----------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> None:
        """Arm a :class:`FaultPlan`: reset its counters and hook it into
        the clock's charge stream.  Replaces any previous plan."""
        plan.reset()
        self.faults = plan
        self.clock.fault_hook = lambda kind, count: plan.on_op(self, kind, count)

    def remove_faults(self) -> None:
        """Disarm fault injection (the zero-overhead state)."""
        self.faults = None
        self.clock.fault_hook = None

    @property
    def rng(self) -> np.random.Generator:
        """The seeded generator (router arbitrary-combining, ``oneof``),
        created at first use so a run that never draws never imports
        ``numpy.random``; the stream is the one an eager generator gives."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    @property
    def n_live_pes(self) -> int:
        """Physical PEs still in service (total minus the dead list)."""
        live = self.config.n_pes - len(self.dead_pes)
        if live <= 0:
            raise GeometryError("every physical processor has failed")
        return live

    # -- allocation ---------------------------------------------------------

    def vpset(self, shape: Sequence[int], name: str = "") -> VPSet:
        """Allocate a VP set with the given geometry."""
        vps = VPSet(self, shape, name)
        self.vpsets.append(vps)
        return vps

    def field(self, vpset: VPSet, dtype: object = np.int64, name: str = "") -> Field:
        """Allocate a field on ``vpset``."""
        if vpset.machine is not self:
            raise ValueError("VP set belongs to another machine")
        f = Field(vpset, dtype, name)
        self.fields.append(f)
        return f

    # -- run control ---------------------------------------------------------

    def cold_boot(self) -> None:
        """Reset the clock, the RNG and drop all allocations.  Dead PEs
        come back (a cold boot is a service visit) and any fault plan is
        re-armed from the start."""
        self.clock.reset()
        self._rng = None
        self.vpsets.clear()
        self.fields.clear()
        self.dead_pes.clear()
        if self.faults is not None:
            self.faults.reset()

    @property
    def elapsed_us(self) -> float:
        return self.clock.time_us

    @property
    def elapsed_ms(self) -> float:
        return self.clock.time_ms

    def __repr__(self) -> str:
        return (
            f"Machine({self.config.name!r}, n_pes={self.config.n_pes}, "
            f"t={self.clock.time_us:.1f}us)"
        )

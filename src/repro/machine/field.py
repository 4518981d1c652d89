"""Fields: per-virtual-processor memory, numpy-backed.

A :class:`Field` is one named slot in the local memory of every VP in a
VP set — the simulator analogue of a Paris field / a C* parallel variable.
All arithmetic on fields flows through :mod:`repro.machine.paris` so that
costs are charged; the raw ``data`` array is exposed for host-side reads
(which the front end could always do, at host speed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import FieldError, VPSetMismatchError
from .vpset import VPSet

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

#: dtypes the simulated memory supports (CM fields were fixed-size ints
#: and IEEE floats; bool models the one-bit flag fields)
_SUPPORTED = (np.dtype(np.int64), np.dtype(np.float64), np.dtype(bool))

ScalarLike = Union[int, float, bool, np.integer, np.floating, np.bool_]


class Field:
    """One value of ``dtype`` in the memory of every VP of ``vpset``."""

    def __init__(self, vpset: VPSet, dtype: object = np.int64, name: str = "") -> None:
        dt = np.dtype(dtype)
        if dt not in _SUPPORTED:
            raise FieldError(
                f"unsupported field dtype {dt}; use int64, float64 or bool"
            )
        self.vpset = vpset
        self.dtype = dt
        self.name = name or f"field@{id(self):x}"
        self.data = np.zeros(vpset.shape, dtype=dt)
        vpset.machine.clock.charge("alloc", vp_ratio=vpset.vp_ratio)

    # -- shape helpers -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.vpset.shape

    @property
    def machine(self) -> "Machine":
        return self.vpset.machine

    def same_vpset(self, other: "Field") -> None:
        if other.vpset is not self.vpset:
            raise VPSetMismatchError(
                f"fields {self.name!r} and {other.name!r} live on different VP sets"
            )

    # -- host-side access ------------------------------------------------------

    def read(self) -> np.ndarray:
        """Host-side snapshot of the whole field (copies)."""
        return self.data.copy()

    def read_scalar(self, index: tuple) -> ScalarLike:
        """Front-end read of a single VP's value (one host<->CM round trip)."""
        self.machine.clock.charge("host_cm_latency")
        return self.data[index].item()

    def write_scalar(self, index: tuple, value: ScalarLike) -> None:
        """Front-end write of a single VP's value."""
        self.machine.clock.charge("host_cm_latency")
        self.data[index] = value

    def fill(self, value: ScalarLike) -> None:
        """Broadcast a scalar into the field under the current context."""
        mask = self.vpset.context
        self.machine.clock.charge("broadcast", vp_ratio=self.vpset.vp_ratio)
        self.data[mask] = value

    def load(self, array: np.ndarray) -> None:
        """Bulk host->CM load of the whole field (ignores context).

        Charged as one broadcast per row of the source array, modelling the
        front-end I/O bus.  The copy is C-ordered whatever the source's
        memory order: ``data`` is always C-contiguous, so the engines may
        address it flat and nothing depends on how the host laid it out.
        """
        array = np.asarray(array)
        if array.shape != self.vpset.shape:
            raise FieldError(
                f"load shape {array.shape} != field shape {self.vpset.shape}"
            )
        rows = int(np.prod(array.shape[:-1])) if array.ndim > 1 else 1
        self.machine.clock.charge("broadcast", count=max(1, rows))
        self.data = array.astype(self.dtype, order="C", copy=True)

    def copy_like(self, name: str = "") -> "Field":
        """Allocate a fresh field on the same VP set with the same dtype."""
        return Field(self.vpset, self.dtype, name or f"{self.name}.copy")

    def __repr__(self) -> str:
        return f"Field({self.name!r}, shape={self.shape}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# batched-lane helpers
# ---------------------------------------------------------------------------


def lane_stack(fields: "list[Field]") -> np.ndarray:
    """Stack one field per lane into an ``(S,) + shape`` array (copies).

    All fields must share shape and dtype — the batched executor only
    stacks fields of lanes running the same program on the same machine
    geometry, so a mismatch is a caller bug, not a user error.
    """
    if not fields:
        raise FieldError("lane_stack needs at least one field")
    base = fields[0]
    for f in fields[1:]:
        if f.data.shape != base.data.shape or f.dtype != base.dtype:
            raise FieldError(
                f"lane_stack mismatch: {f.name!r} {f.data.shape}/{f.dtype} "
                f"vs {base.name!r} {base.data.shape}/{base.dtype}"
            )
    return np.stack([f.data for f in fields], axis=0)

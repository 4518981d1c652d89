"""Runtime values: grid contexts, variables and bindings.

A :class:`GridContext` is the cartesian product of the index sets bound
by the enclosing parallel constructs — the shape every parallel
expression evaluates over.  Extending a grid (nested ``par``, reductions)
*appends* axes, so a parent mask broadcasts by adding trailing axes and a
reduction collapses exactly the appended ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..lang.errors import UCRuntimeError
from ..lang.scope import IndexSetValue
from ..machine.field import Field
from ..mapping.layout import Layout


@dataclass(frozen=True)
class GridAxis:
    """One axis of a grid context: an index-set binding."""

    elem: str
    set_name: str
    values: Tuple[int, ...]

    @property
    def extent(self) -> int:
        return len(self.values)


class GridContext:
    """An ordered list of grid axes (empty = host/scalar context)."""

    def __init__(self, axes: Sequence[GridAxis] = ()) -> None:
        self.axes: Tuple[GridAxis, ...] = tuple(axes)
        self.shape: Tuple[int, ...] = tuple(a.extent for a in self.axes)
        self._positions: Optional[List[np.ndarray]] = None
        self._values: Dict[int, np.ndarray] = {}

    # -- structure ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def is_host(self) -> bool:
        return not self.axes

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.axes else 1

    @property
    def axis_elems(self) -> Tuple[str, ...]:
        return tuple(a.elem for a in self.axes)

    def extend(self, sets: Sequence[IndexSetValue]) -> "GridContext":
        """A new context with one appended axis per index set."""
        new = [GridAxis(s.elem_name, s.name, tuple(s.values)) for s in sets]
        return GridContext(self.axes + tuple(new))

    # -- per-axis arrays --------------------------------------------------------

    def positions(self) -> List[np.ndarray]:
        """Position coordinates per axis (``np.indices``), cached."""
        if self._positions is None:
            self._positions = list(np.indices(self.shape, dtype=np.int64)) if self.axes else []
        return self._positions

    def axis_values(self, axis: int) -> np.ndarray:
        """Element *values* along ``axis``, broadcast to the grid shape."""
        if axis not in self._values:
            vals = np.asarray(self.axes[axis].values, dtype=np.int64)
            view = [1] * self.rank
            view[axis] = len(vals)
            self._values[axis] = np.broadcast_to(vals.reshape(view), self.shape)
        return self._values[axis]

    def broadcast_from(self, value: Union[int, float, np.ndarray], parent_rank: int):
        """Broadcast a parent-context value (rank ``parent_rank``) here."""
        if not isinstance(value, np.ndarray):
            return value
        extra = self.rank - parent_rank
        if extra <= 0:
            return value
        return np.broadcast_to(value.reshape(value.shape + (1,) * extra), self.shape)

    def full_mask(self) -> np.ndarray:
        return np.ones(self.shape, dtype=bool)

    def __repr__(self) -> str:
        desc = ", ".join(f"{a.set_name}:{a.elem}[{a.extent}]" for a in self.axes)
        return f"GridContext({desc})"


# ---------------------------------------------------------------------------
# variable bindings
# ---------------------------------------------------------------------------


@dataclass
class ScalarVar:
    """A front-end scalar variable."""

    name: str
    ctype: str
    value: Union[int, float] = 0


@dataclass
class ArrayVar:
    """A program array: a machine field plus its layout."""

    name: str
    ctype: str
    field: Field
    layout: Layout

    @property
    def data(self) -> np.ndarray:
        return self.field.data

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.field.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.field.dtype


@dataclass
class ParallelLocal:
    """A scalar declared inside a parallel body: one value per grid point."""

    name: str
    ctype: str
    grid_rank: int
    data: np.ndarray


@dataclass
class ElementBinding:
    """An index element: bound to a grid axis (par) or a scalar (seq)."""

    elem: str
    set_name: str
    kind: str  # 'axis' | 'scalar'
    axis: int = -1
    value: int = 0


@dataclass
class SliceParam:
    """An array slice passed to a function (the only pointer use UC allows)."""

    array: ArrayVar
    prefix: Tuple[int, ...]  # fixed leading subscripts

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.array.shape[len(self.prefix) :]

    def view(self) -> np.ndarray:
        return self.array.data[self.prefix]


class LaneScalars:
    """A per-lane vector of scalar values for batched lane execution.

    The batched executor (:mod:`repro.interp.batch`) runs one fused
    register program over a chunk of ``S`` program instances at once.
    Scalars that differ between lanes (solve parameters, per-lane
    reduction results) are carried as a ``LaneScalars`` wrapping ``S``
    plain python ints/floats; :func:`lanewise` gives them solo semantics.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def lifted(self, ndim: int) -> np.ndarray:
        """As an ndarray of shape ``(S, 1, ..., 1)`` with ``ndim`` dims."""
        arr = np.asarray(self.values)
        return arr.reshape((len(self.values),) + (1,) * max(0, ndim - 1))

    def __repr__(self) -> str:
        return f"LaneScalars({self.values!r})"


def lift(v, ndim: int):
    """``v`` as numpy broadcasts it over a lane stack of ``ndim`` dims: a
    :class:`LaneScalars` becomes its ``(S, 1, ..., 1)`` array, anything
    else is returned unchanged."""
    return v.lifted(ndim) if isinstance(v, LaneScalars) else v


def lanewise(fn, ndim: int, *args):
    """``fn(*args)`` where an argument may be a :class:`LaneScalars`.

    Next to an ndarray, each LaneScalars is lifted to ``ndim`` dims so
    numpy applies it lane by lane; among scalars only, ``fn`` runs once
    per lane in python, which keeps solo scalar semantics exactly
    (arbitrary precision, division-by-zero errors).  Every lane of the
    chunk is evaluated, so an error in a lane whose arm is idle still
    raises — the batch then reruns sequentially, exact either way.
    Without a LaneScalars argument this is just ``fn(*args)``.
    """
    for a in args:
        if isinstance(a, LaneScalars):
            break
    else:
        return fn(*args)
    if any(isinstance(x, np.ndarray) for x in args):
        return fn(*(lift(x, ndim) for x in args))
    return LaneScalars(
        [
            fn(*(x.values[j] if isinstance(x, LaneScalars) else x for x in args))
            for j in range(len(a))
        ]
    )


class LaneVar:
    """One batch chunk's binding of a program variable, spliced into a
    fused kernel's steps in place of the solo :class:`ScalarVar` /
    :class:`ArrayVar`: ``data`` holds an array's lane-stacked
    ``(S,) + shape`` rows, ``lanes`` a scalar's per-lane ScalarVars."""

    __slots__ = ("name", "ctype", "data", "lanes")

    def __init__(self, name: str, ctype: str, data=None, lanes=()) -> None:
        self.name = name
        self.ctype = ctype
        self.data = data
        self.lanes = lanes

    @property
    def value(self):
        """The lanes' scalar: one value when they all agree, else a
        :class:`LaneScalars`."""
        vals = [v.value for v in self.lanes]
        first = vals[0]
        if all(v == first for v in vals[1:]):
            return first
        return LaneScalars(vals)


def numpy_ctype(ctype: str) -> np.dtype:
    if ctype == "float":
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def coerce_scalar(ctype: str, value) -> Union[int, float]:
    if ctype == "float":
        return float(value)
    return int(value)

"""Parallel variables: per-instance values with overloaded operators.

A :class:`Pvar` wraps a numpy array shaped like its domain.  Arithmetic
between pvars of one domain (or with scalars) charges one ALU op; the
result is a fresh temporary pvar.  ``Pvar.at(*subs)`` fetches from other
instances, classified and charged like any CM reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from ..lang.errors import UCRuntimeError
from ..lang.operators import c_div, c_mod
from ..mapping.layout import Layout
from ..mapping.locality import classify_reference

if TYPE_CHECKING:  # pragma: no cover
    from .domain import Domain

Operand = Union["Pvar", int, float, np.ndarray]


class Pvar:
    """One parallel value living on a domain's VP set."""

    __array_priority__ = 100  # keep numpy from hijacking reflected ops

    def __init__(self, domain: "Domain", data: np.ndarray) -> None:
        self.domain = domain
        self.data = data

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other: Operand) -> np.ndarray:
        if isinstance(other, Pvar):
            if other.domain is not self.domain:
                raise UCRuntimeError("pvar operands live on different domains")
            return other.data
        if isinstance(other, np.ndarray):
            return np.broadcast_to(other, self.domain.shape)
        return np.broadcast_to(np.asarray(other), self.domain.shape)

    def _emit(self, result: np.ndarray) -> "Pvar":
        self.domain.runtime.charge_alu(self.domain)
        return Pvar(self.domain, result)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Operand) -> "Pvar":
        return self._emit(self.data + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: Operand) -> "Pvar":
        return self._emit(self.data - self._coerce(other))

    def __rsub__(self, other: Operand) -> "Pvar":
        return self._emit(self._coerce(other) - self.data)

    def __mul__(self, other: Operand) -> "Pvar":
        return self._emit(self.data * self._coerce(other))

    __rmul__ = __mul__

    def __floordiv__(self, other: Operand) -> "Pvar":
        """C's ``/``: truncating on integers, true division on floats."""
        return self._emit(c_div(self.data, self._coerce(other)))

    def __mod__(self, other: Operand) -> "Pvar":
        """C's ``%``: the remainder takes the dividend's sign."""
        return self._emit(c_mod(self.data, self._coerce(other)))

    def __neg__(self) -> "Pvar":
        return self._emit(-self.data)

    def __abs__(self) -> "Pvar":
        return self._emit(np.abs(self.data))

    # -- comparisons (return boolean pvars) ----------------------------------

    def __eq__(self, other: object) -> "Pvar":  # type: ignore[override]
        return self._emit(self.data == self._coerce(other))  # type: ignore[arg-type]

    def __ne__(self, other: object) -> "Pvar":  # type: ignore[override]
        return self._emit(self.data != self._coerce(other))  # type: ignore[arg-type]

    def __lt__(self, other: Operand) -> "Pvar":
        return self._emit(self.data < self._coerce(other))

    def __le__(self, other: Operand) -> "Pvar":
        return self._emit(self.data <= self._coerce(other))

    def __gt__(self, other: Operand) -> "Pvar":
        return self._emit(self.data > self._coerce(other))

    def __ge__(self, other: Operand) -> "Pvar":
        return self._emit(self.data >= self._coerce(other))

    def __and__(self, other: Operand) -> "Pvar":
        return self._emit(self.data.astype(bool) & self._coerce(other).astype(bool))

    def __or__(self, other: Operand) -> "Pvar":
        return self._emit(self.data.astype(bool) | self._coerce(other).astype(bool))

    def __invert__(self) -> "Pvar":
        return self._emit(~self.data.astype(bool))

    def minimum(self, other: Operand) -> "Pvar":
        return self._emit(np.minimum(self.data, self._coerce(other)))

    def maximum(self, other: Operand) -> "Pvar":
        return self._emit(np.maximum(self.data, self._coerce(other)))

    def __hash__(self) -> int:  # __eq__ is overloaded; identity hash
        return id(self)

    # -- inter-instance access ------------------------------------------------

    def at(self, *subs: Operand) -> "Pvar":
        """Fetch this field from the instance addressed by ``subs``.

        ``path.len.at(i, k)`` mirrors C*'s ``path[i][k].len``.  Subscripts
        may be pvars, scalars or arrays; the reference is classified and
        charged like a UC array reference.
        """
        if len(subs) != len(self.domain.shape):
            raise UCRuntimeError(
                f"domain {self.domain.name!r} needs {len(self.domain.shape)} "
                f"subscripts, got {len(subs)}"
            )
        sub_arrays = []
        for s in subs:
            if isinstance(s, Pvar):
                sub_arrays.append(s.data)
            else:
                sub_arrays.append(s)
        rc = classify_reference(
            sub_arrays,
            self.domain.shape,
            self.domain.axis_names,
            Layout(self.domain.name, self.domain.shape),
            positions=self.domain.positions,
        )
        self.domain.runtime.charge_ref(self.domain, rc)
        idx = []
        for a, s in enumerate(sub_arrays):
            arr = np.broadcast_to(np.asarray(s), self.domain.shape)
            if arr.min() < 0 or arr.max() >= self.domain.shape[a]:
                raise UCRuntimeError(
                    f"domain subscript {a} out of range for {self.domain.name!r}"
                )
            idx.append(arr)
        return Pvar(self.domain, self.data[tuple(idx)])

    def shifted(self, axis: int, offset: int, *, border: Union[int, float] = 0) -> "Pvar":
        """NEWS fetch: each instance reads the value ``offset`` grid steps
        away along ``axis`` (edge instances read ``border``).

        This is C*'s cheap neighbour communication — ``offset`` hops on
        the NEWS grid, far below router cost — and what grid stencils
        (the figure-11 relaxation) compile to.
        """
        shape = self.domain.shape
        if not 0 <= axis < len(shape):
            raise UCRuntimeError(f"axis {axis} out of range for {self.domain.name!r}")
        if offset == 0:
            return Pvar(self.domain, self.data.copy())
        self.domain.runtime.charge_news(self.domain, abs(int(offset)))
        out = np.full_like(self.data, border)
        n = shape[axis]
        if abs(offset) < n:
            src = [slice(None)] * len(shape)
            dst = [slice(None)] * len(shape)
            if offset > 0:
                src[axis] = slice(offset, None)
                dst[axis] = slice(0, n - offset)
            else:
                src[axis] = slice(0, n + offset)
                dst[axis] = slice(-offset, None)
            out[tuple(dst)] = self.data[tuple(src)]
        return Pvar(self.domain, out)

    def to_array(self) -> np.ndarray:
        """Host-side copy of the values."""
        return self.data.copy()

    def __repr__(self) -> str:
        return f"Pvar(domain={self.domain.name!r}, shape={self.domain.shape})"

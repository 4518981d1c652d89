"""Paris-like instruction facade: elementwise operations on fields.

Paris was the CM-2's macro-instruction set.  This module provides the
elementwise (per-VP) slice of it: arithmetic, comparison, logical and
select operations, each executing under the destination VP set's activity
context and charging one ALU op (scaled by the VP ratio).  ``div`` and
``mod`` are C's ``/`` and ``%`` (:mod:`repro.lang.operators`).

Operands may be fields on the same VP set, raw numpy arrays of the right
shape (pre-staged temporaries), or scalars (front-end broadcast constants;
Paris had immediate forms so no extra charge beyond the instruction).
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

from ..lang.operators import c_div, c_mod
from .errors import FieldError, VPSetMismatchError
from .faults import fault_point
from .field import Field, ScalarLike

Operand = Union[Field, np.ndarray, int, float, bool]

#: binary elementwise operation table
_BINOPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": c_div,
    "mod": c_mod,
    "min": np.minimum,
    "max": np.maximum,
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "logand": np.logical_and,
    "logor": np.logical_or,
    "logxor": np.logical_xor,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
    "shl": np.left_shift,
    "shr": np.right_shift,
}

#: unary elementwise operation table
_UNOPS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "neg": np.negative,
    "lognot": np.logical_not,
    "bnot": np.invert,
    "abs": np.abs,
    "float": lambda a: a.astype(np.float64),
    "int": lambda a: _c_truncate(a),
}


def _c_truncate(a: np.ndarray) -> np.ndarray:
    return np.trunc(a).astype(np.int64)


def operand_array(x: Operand, vpset) -> np.ndarray:
    """Resolve an operand to a numpy array shaped like ``vpset``."""
    if isinstance(x, Field):
        if x.vpset is not vpset:
            raise VPSetMismatchError(
                f"operand field {x.name!r} is not on VP set {vpset.name!r}"
            )
        return x.data
    if isinstance(x, np.ndarray):
        if x.shape != vpset.shape:
            raise FieldError(
                f"operand array shape {x.shape} != VP set shape {vpset.shape}"
            )
        return x
    return np.broadcast_to(np.asarray(x), vpset.shape)


def binop(dest: Field, op: str, a: Operand, b: Operand) -> None:
    """``dest := a OP b`` under the current context (one ALU charge)."""
    vps = dest.vpset
    fault_point(vps.machine, "paris.alu")
    try:
        fn = _BINOPS[op]
    except KeyError:
        raise FieldError(f"unknown binary op {op!r}") from None
    av = operand_array(a, vps)
    bv = operand_array(b, vps)
    vps.machine.clock.charge("alu", vp_ratio=vps.vp_ratio)
    mask = vps.context
    result = fn(av, bv)
    dest.data[mask] = result[mask].astype(dest.dtype)


def unop(dest: Field, op: str, a: Operand) -> None:
    """``dest := OP a`` under the current context (one ALU charge)."""
    vps = dest.vpset
    fault_point(vps.machine, "paris.alu")
    try:
        fn = _UNOPS[op]
    except KeyError:
        raise FieldError(f"unknown unary op {op!r}") from None
    av = operand_array(a, vps)
    vps.machine.clock.charge("alu", vp_ratio=vps.vp_ratio)
    mask = vps.context
    dest.data[mask] = fn(av)[mask].astype(dest.dtype)


def move(dest: Field, src: Operand) -> None:
    """``dest := src`` under the current context (one ALU charge)."""
    vps = dest.vpset
    fault_point(vps.machine, "paris.alu")
    av = operand_array(src, vps)
    vps.machine.clock.charge("alu", vp_ratio=vps.vp_ratio)
    mask = vps.context
    dest.data[mask] = av[mask].astype(dest.dtype)


def select(dest: Field, cond: Operand, a: Operand, b: Operand) -> None:
    """``dest := cond ? a : b`` under the current context."""
    vps = dest.vpset
    fault_point(vps.machine, "paris.alu")
    cv = operand_array(cond, vps).astype(bool)
    av = operand_array(a, vps)
    bv = operand_array(b, vps)
    vps.machine.clock.charge("alu", count=2, vp_ratio=vps.vp_ratio)
    mask = vps.context
    dest.data[mask] = np.where(cv, av, bv)[mask].astype(dest.dtype)


def global_or(vpset, flag: Operand) -> bool:
    """Sample the wired global-OR line: is ``flag`` true on any active VP?

    This is how the front end decides whether another ``*par`` iteration
    is needed — a single fast hardware line, not a full reduction.
    """
    fault_point(vpset.machine, "paris.global_or")
    fv = operand_array(flag, vpset).astype(bool)
    vpset.machine.clock.charge("global_or", vp_ratio=vpset.vp_ratio)
    return bool(np.any(fv & vpset.context))

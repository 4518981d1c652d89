"""C operator semantics: the one table every layer computes through.

UC is C over 64-bit integers and doubles, and the paper measures it
against hand-written C* on the same machine, so both must do C's
arithmetic the same way.  This module says what every operator means,
on Python/numpy scalars and on int64/float64 arrays alike:

* integers are int64 two's complement: ``+ - * << >>``, unary ``-`` and
  ``/`` wrap modulo 2^64 (``INT64_MIN / -1`` is ``INT64_MIN``);
* a shift count outside ``0..63`` shifts every bit out: ``<<`` gives 0,
  ``>>`` gives 0 or -1 by the sign (numpy's rule);
* ``/`` truncates toward zero and ``%`` takes the dividend's sign (C99);
  with a float operand ``/`` divides truly and ``%`` is ``fmod``
  (``x / 0.0`` is inf or nan, ``x % 0.0`` nan);
* an integer zero divisor raises for a scalar; in an array it yields the
  dividend for ``/`` and 0 for ``%``, since an elementwise kernel cannot
  tell the active lanes from the idle ones;
* comparisons, ``!``, ``&&`` and ``||`` give the C ``int`` 0 or 1; a
  float operand of ``& | ^ << >>`` is a runtime error.

Constant folding (:mod:`repro.lang.semantics`), the oracle, the fused
kernels and batch lanes, the frontier lane programs, the static
subscript classifier, Paris ``div``/``mod`` and C* pvar ``//``/``%`` all
call these functions.  The module imports only numpy and the error types.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import UCRuntimeError

Value = Union[int, float, np.ndarray]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: binary operators that are exactly one numpy ufunc (int64 wraparound
#: included, on Python ints too)
BINARY_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def _wrap(x: int) -> int:
    """A Python int reduced to int64 two's complement."""
    return ((x - INT64_MIN) & (2**64 - 1)) + INT64_MIN


def _as_c_int(out: Value) -> Value:
    return out.astype(np.int64) if isinstance(out, np.ndarray) else int(out)


def _is_int_like(v: Value) -> bool:
    if isinstance(v, np.ndarray):
        return np.issubdtype(v.dtype, np.integer) or v.dtype == bool
    return isinstance(v, (int, np.integer))


def truthy(v: Value) -> Value:
    """C truth (``v != 0``): a bool array, or a Python bool."""
    if isinstance(v, np.ndarray):
        return v.astype(bool)
    return bool(v)


def apply_unary(op: str, v: Value, node) -> Value:
    """C semantics for one unary operator on a scalar or an array."""
    if op == "-":
        if isinstance(v, np.ndarray) or not _is_int_like(v):
            return -v
        return _wrap(-int(v))
    if op == "!":
        if isinstance(v, np.ndarray):
            return np.logical_not(v.astype(bool)).astype(np.int64)
        return int(not v)
    # '~': the parser builds no other unary operator
    if isinstance(v, np.ndarray):
        return np.invert(v.astype(np.int64))
    return ~int(v)


def apply_binop(op: str, a: Value, b: Value, node) -> Value:
    """C semantics for one binary operator on scalars or arrays."""
    ufunc = BINARY_UFUNCS.get(op)
    if ufunc is not None:
        try:
            out = ufunc(a, b)
        except TypeError:  # a float operand of & | ^ << >>
            raise UCRuntimeError(
                f"operator {op!r} needs integer operands", node.line, node.col
            ) from None
        return _as_c_int(out) if op in COMPARISONS else out
    if op in ("/", "%"):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return c_div(a, b) if op == "/" else c_mod(a, b)
        return _scalar_divide(op, a, b, node)
    if op == "&&":
        return _as_c_int(np.logical_and(truthy(a), truthy(b)))
    # '||': the parser builds no other binary operator
    return _as_c_int(np.logical_or(truthy(a), truthy(b)))


def _scalar_divide(op: str, a, b, node) -> Union[int, float]:
    if not (_is_int_like(a) and _is_int_like(b)):
        return float(c_div(a, b) if op == "/" else c_mod(a, b))
    if b == 0:
        what = "division" if op == "/" else "mod"
        raise UCRuntimeError(f"integer {what} by zero", node.line, node.col)
    a, b = int(a), int(b)
    q = abs(a) // abs(b)
    q = q if (a >= 0) == (b >= 0) else -q
    return _wrap(q) if op == "/" else a - q * b


def c_div(a: Value, b: Value) -> Value:
    """C ``/`` elementwise: truncating on integers (a zero divisor yields
    the dividend), true division with a float operand."""
    if not (_is_int_like(a) and _is_int_like(b)):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.true_divide(a, b)
    safe = np.where(np.asarray(b) == 0, 1, b)
    with np.errstate(divide="ignore", over="ignore"):
        q = np.floor_divide(a, safe)
        r = np.remainder(a, safe)
    # numpy floors; C truncates: step back toward zero where signs differ
    return q + ((r != 0) & ((np.asarray(a) < 0) != (safe < 0)))


def c_mod(a: Value, b: Value) -> Value:
    """C ``%`` elementwise (``fmod``): the remainder takes the dividend's
    sign; an integer zero divisor yields 0, a float one nan."""
    if not (_is_int_like(a) and _is_int_like(b)):
        with np.errstate(invalid="ignore"):
            return np.fmod(a, b)
    return np.fmod(a, np.where(np.asarray(b) == 0, 1, b))

"""One C arithmetic on every layer.

Every operator over edge operands — INT64_MIN, -1, 0, negative
dividends, shifts by 0/63/64/-1, float operands — must give one answer
as a compile-time constant, an oracle scalar, an oracle array, a fused
``par``, a frontier lane program and a Paris / C* pvar op.  The answer is
written out below as a plain Python model of C on int64 and double
(``docs/LANGUAGE.md``, "Integer arithmetic"), independent of the one
implementation in :mod:`repro.lang.operators` that every layer calls.
"""

import math
import operator

import numpy as np
import pytest

from repro.cstar import CStarRuntime
from repro.lang.errors import UCRuntimeError, UCSemanticError
from repro.lang.parser import parse_program
from repro.lang.semantics import analyze
from repro.machine import Machine, paris, small_config
from tests.conftest import run_lanes, run_uc

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

INT_ROWS = [
    (INT64_MIN, -1), (INT64_MIN, 1), (INT64_MIN, 2), (INT64_MAX, 1), (INT64_MAX, -1),
    (INT64_MAX, INT64_MAX), (-7, 2), (7, -2), (-7, -2), (7, 2), (-6, 3), (0, -5),
    (7, 0), (-7, 0), (0, 0), (1, 0), (1, 63), (1, 64), (1, -1), (-8, 64), (-8, 63),
    (-8, -1), (-8, 1), (5, 6),
]  # fmt: skip
FLOAT_ROWS = [
    (7.5, 2.0), (-7.5, 2.0), (7.5, -2.0), (-7.5, -2.0), (0.1, 0.2), (-3.0, 0.5),
    (2.0, 2.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 3.0),
]  # fmt: skip

INT_BINARY = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
              "==", "!=", "<", "<=", ">", ">=", "&&", "||"]  # fmt: skip
FLOAT_BINARY = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
INT_UNARY, FLOAT_UNARY = ["-", "!", "~"], ["-", "!"]

# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}  # fmt: skip
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "&": operator.and_, "|": operator.or_, "^": operator.xor}  # fmt: skip


def _wrap(v):
    return (v - INT64_MIN) % 2**64 + INT64_MIN


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def model(op, a, b=None):
    """C's answer for one lane; an integer zero divisor is an array lane's
    (the dividend for ``/``, 0 for ``%``), a scalar raises instead."""
    if b is None:
        if op == "-":
            return -a if isinstance(a, float) else _wrap(-a)
        return int(not a) if op == "!" else ~a
    if op in _CMP:
        return int(_CMP[op](a, b))
    if op in ("&&", "||"):
        return int(bool(a) and bool(b)) if op == "&&" else int(bool(a) or bool(b))
    if isinstance(a, float):
        if op == "/":
            return a / b if b else (math.copysign(math.inf, a) if a else math.nan)
        if op == "%":
            return math.fmod(a, b) if b else math.nan
        return _ARITH[op](a, b)
    if op == "/":
        return a if b == 0 else _wrap(_trunc_div(a, b))
    if op == "%":
        return 0 if b == 0 else a - _trunc_div(a, b) * b
    if op == "<<":
        return _wrap(a << b) if 0 <= b < 64 else 0
    if op == ">>":
        return a >> b if 0 <= b < 64 else -int(a < 0)
    return _wrap(_ARITH[op](a, b))


def _zero_divisor(op, b):
    return op in ("/", "%") and isinstance(b, int) and b == 0


def _lit(v) -> str:
    return "(-9223372036854775807 - 1)" if v == INT64_MIN else f"({v!r})"


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------


def _table(kind):
    rows = INT_ROWS if kind == "int" else FLOAT_ROWS
    binary = INT_BINARY if kind == "int" else FLOAT_BINARY
    unary = INT_UNARY if kind == "int" else FLOAT_UNARY
    return rows, [(op, True) for op in binary] + [(op, False) for op in unary]


def _want(kind, array=True):
    """``{(op, is_binary): [model answer per row]}``, None where a scalar
    integer division by zero raises (``array=False``)."""
    rows, ops = _table(kind)
    want = {}
    for op, binary in ops:
        want[op, binary] = [
            None if not array and binary and _zero_divisor(op, b)
            else model(op, a, b) if binary else model(op, a)
            for a, b in rows
        ]  # fmt: skip
    return want


def _compare(kind, got, array=True):
    rows, _ops = _table(kind)
    bad = []
    for key, want in _want(kind, array).items():
        for (a, b), w, g in zip(rows, want, got[key]):
            if w is None:
                continue
            if g != w and not (w != w and g != g):  # nan is nan
                bad.append(f"{key[0]} {a!r} {b!r}: got {g!r}, want {w!r}")
    assert not bad, "\n".join(bad)


def _expr(op, binary, x, y):
    return f"{x} {op} {y}" if binary else f"{op}{x}"


def _program(kind, n):
    """The declarations — operands ``x``, ``y``, one output array per
    table column — and the columns ``(k, op, is_binary)``."""
    _rows, ops = _table(kind)
    ctype = "int" if kind == "int" else "float"
    outs = ", ".join(f"c{k}[{n}]" for k in range(len(ops)))
    head = f"index_set I:i = {{0..{n - 1}}};\nint a[{n}], t[{n}], k;\n{ctype} x[{n}], y[{n}], {outs};\n"
    return head, [(k, op, binary) for k, (op, binary) in enumerate(ops)]


def _inputs(kind, n):
    rows, _ops = _table(kind)
    dtype = np.int64 if kind == "int" else np.float64
    x, y, t = np.zeros(n, dtype), np.zeros(n, dtype), np.zeros(n, np.int64)
    x[: len(rows)] = [a for a, _b in rows]
    y[: len(rows)] = [b for _a, b in rows]
    t[: len(rows)] = 2
    return {"x": x, "y": y, "t": t}


def _collect(res, kind):
    rows, ops = _table(kind)
    return {key: res[f"c{k}"][: len(rows)].tolist() for k, key in enumerate(ops)}


def _par_source(kind):
    n = len(_table(kind)[0])
    head, cols = _program(kind, n)
    body = " ".join(
        f"par (I) c{k}[i] = {_expr(op, b, 'x[i]', 'y[i]')};" for k, op, b in cols
    )
    return head + f"main {{ {body} }}", n


KINDS = ["int", "float"]


def test_constant():
    """Integer constants fold with run-time int64 semantics; a constant
    zero divisor is a semantic error (UC has no float constants)."""
    kind = "int"
    rows, ops = _table(kind)
    decls, names = [], {}
    for k, (op, binary) in enumerate(ops):
        for r, (a, b) in enumerate(rows):
            if binary and _zero_divisor(op, b):
                continue
            names[op, binary, r] = f"K{k}_{r}"
            decls.append(f"K{k}_{r}:k{k}_{r} = {{{_expr(op, binary, _lit(a), _lit(b))}}}")
    info = analyze(parse_program("index_set " + ",\n  ".join(decls) + ";\nmain { }"))
    got = {
        (op, binary): [
            info.index_sets[names[op, binary, r]].values[0] if (op, binary, r) in names else None
            for r in range(len(rows))
        ]
        for op, binary in ops
    }
    _compare(kind, got, array=False)
    for op, what in (("/", "division"), ("%", "mod")):
        for a, b in rows:
            if b == 0:
                src = f"index_set Z:z = {{{_lit(a)} {op} {_lit(b)}}};\nmain {{ }}"
                with pytest.raises(UCSemanticError, match=f"{what} by zero in constant"):
                    analyze(parse_program(src))


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_scalar(kind):
    """Host statements on front-end scalars; an integer zero divisor is a
    located runtime error."""
    rows, _ops = _table(kind)
    n = len(rows)
    head, cols = _program(kind, n)
    body = []
    for k, op, b in cols:
        stmt = f"c{k}[k] = {_expr(op, b, 'x[k]', 'y[k]')};"
        if kind == "int" and b and op in ("/", "%"):
            stmt = f"if (y[k] != 0) {stmt}"
        body.append(stmt)
    src = head + f"main {{ for (k = 0; k < {n}; k++) {{ {' '.join(body)} }} }}"
    res = run_uc(src, _inputs(kind, n), plans=False)
    _compare(kind, _collect(res, kind), array=False)
    if kind == "int":
        for op, what in (("/", "division"), ("%", "mod")):
            src = f"int u, v, s;\nmain {{ u = -7; s = u {op} v; }}"
            with pytest.raises(UCRuntimeError, match=f"integer {what} by zero"):
                run_uc(src, plans=False)


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_array(kind):
    src, n = _par_source(kind)
    res = run_uc(src, _inputs(kind, n), plans=False)
    _compare(kind, _collect(res, kind))


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("kind", KINDS)
def test_fused_par(kind):
    src, n = _par_source(kind)
    res = run_uc(src, _inputs(kind, n))
    assert res.fusion.get("fused_sweeps", 0) >= len(_table(kind)[1])
    _compare(kind, _collect(res, kind))


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("kind", KINDS)
def test_frontier_lane_program(kind):
    """One ``*par`` arm per operator: every table lane runs twice, the
    second time in a compressed sweep on the lane path."""
    n = 512  # 16 PEs: the table's lanes compress from VP ratio 32 to 2
    head, cols = _program(kind, n)
    pred = "st (a[i] < t[i])"
    arms = " ".join(f"{pred} c{k}[i] = {_expr(op, b, 'x[i]', 'y[i]')};" for k, op, b in cols)
    src = head + f"main {{ *par (I) {arms} {pred} a[i] = a[i] + 1; }}"
    res = run_lanes(src, _inputs(kind, n), machine_config=small_config(16))
    assert res.frontier.get("compressed_sweeps", 0) >= 1, res.frontier
    _compare(kind, _collect(res, kind))


PARIS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod", "<<": "shl",
         ">>": "shr", "&": "band", "|": "bor", "^": "bxor", "==": "eq", "!=": "ne",
         "<": "lt", "<=": "le", ">": "gt", ">=": "ge", "&&": "logand", "||": "logor"}  # fmt: skip
PARIS_UNARY = {"-": "neg", "!": "lognot", "~": "bnot"}


@pytest.mark.parametrize("kind", KINDS)
def test_paris(kind):
    rows, ops = _table(kind)
    dtype = np.int64 if kind == "int" else np.float64
    m = Machine(seed=7)
    vps = m.vpset((len(rows),))
    a, b, out = m.field(vps, dtype), m.field(vps, dtype), m.field(vps, dtype)
    a.data[:] = [x for x, _y in rows]
    b.data[:] = [y for _x, y in rows]
    got = {}
    for op, binary in ops:
        if binary:
            paris.binop(out, PARIS[op], a, b)
        else:
            paris.unop(out, PARIS_UNARY[op], a)
        got[op, binary] = out.read().tolist()
    _compare(kind, got)


PVAR = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.floordiv,
        "%": operator.mod, "==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}  # fmt: skip


@pytest.mark.parametrize("kind", KINDS)
def test_pvar(kind):
    """C*'s operator set: pvar ``//`` is C's ``/``."""
    rows, ops = _table(kind)
    rt = CStarRuntime(Machine(seed=7))
    ctype = int if kind == "int" else float
    dom = rt.domain("D", (len(rows),), {"x": ctype, "y": ctype})
    dom.load("x", np.array([x for x, _y in rows]))
    dom.load("y", np.array([y for _x, y in rows]))
    got = {}
    for op, binary in ops:
        if binary and op in PVAR:
            got[op, binary] = PVAR[op](dom["x"], dom["y"]).to_array().tolist()
        elif op == "-" and not binary:
            got[op, binary] = (-dom["x"]).to_array().tolist()
    want = _want(kind)
    _compare(kind, {key: got.get(key, want[key]) for key in want})

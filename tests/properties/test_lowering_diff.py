"""Lowering differential: generated one-construct programs on every engine.

Each example is a self-initialising program around one ``par``,
``*par``, ``solve``, ``*solve`` or ``*oneof`` over a 1-3-D index set.
Its expressions mix every form the fused lowering (``fuse._Fuser``) and
the lane compiler (``frontier._Compiler``) lower or demote on: static,
NEWS-shifted, mirrored, wrapped, halved (not injective) and
data-dependent gathers; reductions with and without a
§4 partition predicate, with and without ``others``; ternaries and
``&&``/``||`` with array and scalar left sides; builtins; a ``*par``
body reusing its predicate's right conjunct (Figure 11); one-``return``
user functions (pure, assigning, shadowing a global, nested) and a
multi-statement one; parallel locals; scatters.

:func:`assert_engines_agree` runs a program on the oracle
(``plans=False``) and on the default engine, each with the frontier on
and off, solo and as ``run_batch`` lanes.  Values and stdout agree
everywhere, fingerprints agree per frontier setting, and when the oracle
raises every engine raises the same class and text.  A plain ``solve``
also runs with ``solve_strategy="guarded"``, the reference semantics:
where it completes, its values and stdout are the oracle's.  Its first
index set may be a listing: strided, descending or offset-start.

Tier-1 runs a fixed, derandomized budget.  CI's nightly job runs
``--hypothesis-profile nightly`` (``tests/conftest.py``) for a much
larger one.  Every shrunk failure becomes a file in ``tests/regressions/``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interp.program import UCProgram
from repro.lang.errors import UCError
from repro.machine import small_config

#: the nightly profile raises the example count; tier-1 keeps its budget
NIGHTLY = settings.default.max_examples > 1000
BUDGET = settings(
    max_examples=settings.default.max_examples if NIGHTLY else 40,
    derandomize=not NIGHTLY,
    deadline=None,
    database=None,
    suppress_health_check=list(HealthCheck),
)

#: a ``solve`` that is not a ``*solve``
PLAIN_SOLVE = re.compile(r"(?<![*\w])solve\s*\(")

ENGINES = {
    "oracle": dict(plans=False),
    "oracle-full": dict(plans=False, frontier=False),
    "engine": dict(),
    "engine-full": dict(frontier=False),
}


def _outcome(thunk):
    try:
        return "ok", thunk()
    except Exception as exc:  # every class counts; compared below
        return "error", (type(exc), str(exc))


def _digest(res) -> tuple:
    vals = tuple(
        (name, np.asarray(res[name]).tobytes(), np.asarray(res[name]).dtype.str)
        for name in sorted(res.keys())
    )
    return vals, res.stdout


def assert_engines_agree(src: str, lanes, defines=None, machine_config=None) -> dict:
    """Run ``src`` once per input dict in ``lanes`` on every engine, solo
    and batched; assert every run agrees with the oracle.  Returns the
    oracle's first outcome, ``("ok", RunResult)`` or ``("error", (cls, text))``."""
    # a generated iteration that fails to converge stops at the same sweep
    # on every engine, with the same message
    kw = dict(defines=defines, machine_config=machine_config, solve_sweep_limit=64)
    solo = {}
    for name, eng in ENGINES.items():
        prog = _outcome(lambda: UCProgram(src, **kw, **eng))
        solo[name] = [
            prog if prog[0] == "error" else _outcome(lambda: prog[1].run(inp))
            for inp in lanes
        ]
    first = solo["oracle"][0]
    if first[0] == "error":
        assert issubclass(first[1][0], UCError), f"oracle raised {first[1]}\n{src}"
    for lane in range(len(lanes)):
        ref = solo["oracle"][lane]
        for name, outs in solo.items():
            got = outs[lane]
            assert got[0] == ref[0], f"{name} lane {lane}: {got} vs oracle {ref}\n{src}"
            if ref[0] == "error":
                assert got[1] == ref[1], f"{name} lane {lane}: {got[1]} vs {ref[1]}\n{src}"
                continue
            assert _digest(got[1]) == _digest(ref[1]), f"{name} lane {lane} values\n{src}"
        for a, b in (("engine", "oracle"), ("engine-full", "oracle-full")):
            if ref[0] == "ok":
                assert solo[a][lane][1].fingerprint == solo[b][lane][1].fingerprint, (
                    f"{a} lane {lane} fingerprint\n{src}"
                )
    if PLAIN_SOLVE.search(src):
        # guarded is the reference semantics of a plain solve: where it
        # completes, the scheduled default computed the same thing (the
        # Clock differs: solve_strategy is part of clock_key)
        guarded = _outcome(lambda: UCProgram(src, **kw, solve_strategy="guarded"))
        for lane, inp in enumerate(lanes):
            got = guarded if guarded[0] == "error" else _outcome(lambda: guarded[1].run(inp))
            if got[0] == "ok":
                ref = solo["oracle"][lane]
                assert ref[0] == "ok", f"guarded lane {lane} ran, oracle {ref[1]}\n{src}"
                assert _digest(got[1]) == _digest(ref[1]), f"guarded lane {lane} values\n{src}"
    batch = _outcome(lambda: UCProgram(src, **kw).run_batch(lanes))
    lane_err = next((o for o in solo["engine"] if o[0] == "error"), None)
    if lane_err is not None:
        assert batch == lane_err, f"run_batch {batch} vs solo {lane_err}\n{src}"
    else:
        assert batch[0] == "ok", f"run_batch raised {batch[1]}\n{src}"
        for lane, res in enumerate(batch[1]):
            want = solo["engine"][lane][1]
            assert _digest(res) == _digest(want), f"run_batch lane {lane} values\n{src}"
            assert res.fingerprint == want.fingerprint, f"run_batch lane {lane} fingerprint\n{src}"
            # a stacked row that charges compressed but traces dense (or the
            # reverse) moves no value and no charge: only these counters see it
            assert res.frontier == want.frontier, f"run_batch lane {lane} frontier\n{src}"
    return first


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

SHAPES = [(5,), (8,), (3, 4), (4, 2), (2, 3, 2)]
ELEMS, SETS = "ijk", "IJK"

#: one-``return`` callees of every inlining class, and one that is not
FUNCS = """\
int pure(int v) { return v * 2 + x; }
int bump(int v) { return v += 1; }
int shadow(int x) { return x += 1; }
int twice(int x) { return x * 3 - 1; }
int nest(int v) { return pure(v) - twice(v); }
int steps(int v) { int u; u = v + 1; return u * u; }
float half(float v) { return v / 2; }
"""
CALLS = ["pure", "bump", "shadow", "twice", "nest", "steps", "half"]
BINOPS = ["+", "-", "*", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^"]
REDOPS = ["$+", "$+", "$>", "$<", "$*", "$&&", "$||", "$^"]


class _Program:
    """Draws expressions and statements for one construct's grid."""

    def __init__(self, draw, shape):
        self.draw, self.shape = draw, shape
        self.elems = ELEMS[: len(shape)]
        self.m = min(shape)  # d[] and w[] values index any axis

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def chance(self, p: float) -> bool:
        return self.draw(st.integers(0, 99)) >= 100 - p * 100  # shrinks to False

    def ident(self):
        return list(self.elems)

    def ref(self, arr, subs=None):
        subs = list(subs or self.ident())
        axis = self.draw(st.integers(0, len(self.shape) - 1))
        e, n = subs[axis], self.shape[axis]
        if e not in self.elems:  # a reduction element: keep it
            return arr + "".join(f"[{s}]" for s in subs)
        form = self.pick(
            ["id", "id", "news", "news", "rev", "const", "dyn", "wrap", "raw", "half"]
        )
        guard = None
        if form == "news":
            off = self.pick([-1, 1])
            subs[axis] = f"{e} {'+' if off > 0 else '-'} 1"
            guard = f"{e} > 0" if off < 0 else f"{e} < {n - 1}"
        elif form == "raw":  # unguarded: the last element reads out of bounds
            subs[axis] = f"{e} + 1"
        elif form == "rev":
            subs[axis] = f"{n - 1} - {e}"
        elif form == "const":
            subs[axis] = str(self.draw(st.integers(0, n - 1)))
        elif form == "dyn":
            subs[axis] = "d" + "".join(f"[{s}]" for s in self.ident())
        elif form == "wrap":
            subs[axis] = f"({e} + 1) % {n}"
        elif form == "half":  # not injective: two lanes read each element
            subs[axis] = f"{e} / 2"
        text = arr + "".join(f"[{s}]" for s in subs)
        return f"({guard} ? {text} : {self.draw(st.integers(0, 3))})" if guard else text

    def atom(self, readable):
        kind = self.draw(st.integers(0, 9))
        if kind == 0:
            return str(self.draw(st.integers(0, 4)))
        if kind == 1:
            return self.pick(self.elems)
        if kind == 2:
            return self.pick(["t", "x"])
        if kind == 3:
            return f"{self.pick(CALLS)}({self.pick(list(self.elems) + ['t', '1'])})"
        return self.ref(self.pick(readable))

    def expr(self, readable, depth=2):
        if depth == 0 or self.chance(0.25):
            return self.atom(readable)
        x = self.expr(readable, depth - 1)
        form = self.draw(st.integers(0, 15))
        if form <= 3:
            return f"({x} {self.pick(BINOPS)} {self.expr(readable, depth - 1)})"
        if form == 4:
            y = self.expr(readable, depth - 1)
            if self.chance(0.15):
                return f"({x} {self.pick(['/', '%'])} {y})"  # may divide by zero
            return f"({x} {self.pick(['/', '%'])} (ABS({y}) % 3 + 1))"
        if form == 5:
            return f"({x} {self.pick(['<<', '>>'])} {self.draw(st.integers(0, 2))})"
        if form == 6:
            return f"{self.pick(['-', '!', '~'])}{x}"
        if form == 7:  # sometimes with a write in a branch no lane may take
            cond = self.pick([self.expr(readable, depth - 1), "t > 1", "x == 0"])
            then = self.pick([x, x, f"({self.at('b')} = {x})", f"(x = {x})"])
            return f"({cond} ? {then} : {self.expr(readable, depth - 1)})"
        if form == 8:
            left = self.pick([x, "t > 1", "x != 0", "0", "1"])
            op = self.pick(["&&", "||"])
            return f"({left} {op} {self.expr(readable, depth - 1)})"
        if form == 9:
            fn = self.pick(["min", "max"])
            return f"{fn}({x}, {self.expr(readable, depth - 1)})"
        if form == 10:
            return self.pick([f"ABS({x})", f"abs({x})", f"power2(ABS({x}) % 4)",
                              f"sqrt(ABS({x}))", f"fabs({x})", f"(rand() % 3 + {x})"])
        if form in (11, 12):
            return f"{self.pick(CALLS)}({x})"
        return self.reduction(readable)

    def reduction(self, readable):
        """``$op(R ...)`` over R = {0..n0-1}: operands read ``v[r]``,
        ``w[r]`` and the grid arrays with their first subscript ``r``."""
        e0 = self.elems[0]
        inner = [f"v[r]", f"w[r]", "r", e0, str(self.draw(st.integers(0, 3)))]
        inner += [self.ref(a, ["r"] + list(self.elems[1:])) for a in readable[:2]]
        operand = self.pick(inner)
        if self.chance(0.5):
            operand = f"({operand} {self.pick(['+', '*', '-'])} {self.pick(inner)})"
        op = self.pick(REDOPS)
        if self.chance(0.3):
            return f"{op}(R; {operand})"
        pred = self.pick([f"w[r] == {e0}", f"r < {e0}", f"v[r] > {self.pick(inner)}",
                          f"w[r] != t", f"r == {e0}"])
        tail = f" others {self.pick(inner)}" if self.chance(0.4) else ""
        if self.chance(0.25):
            tail = f" st (v[r] < 0) {self.pick(inner)}" + tail
        return f"{op}(R st ({pred}) {operand}{tail})"

    def at(self, arr):
        return arr + "".join(f"[{e}]" for e in self.elems)

    def par_stmt(self, readable, targets=("a", "b", "h")):
        kind = self.draw(st.integers(0, 11))
        target = self.pick(list(targets))
        e = self.expr(readable)
        if kind <= 4:
            return f"{self.at(target)} = {e};"
        if kind == 5:
            return f"{self.at(target)} {self.pick(['+=', '-=', '*='])} {e};"
        if kind == 6:
            return f"{self.at(self.pick([t for t in targets if t != 'h'] or ['b']))}{self.pick(['++', '--'])};"
        if kind == 7:  # scatter: static permutation, many-to-one or data-dependent
            e0, n0 = self.elems[0], self.shape[0]
            first = self.pick([f"{n0 - 1} - {e0}", "0", "d" + "".join(f"[{s}]" for s in self.elems)])
            return f"{target}[{first}]" + "".join(f"[{s}]" for s in self.elems[1:]) + f" = {e};"
        if kind == 8:  # a front-end scalar: uniform values or UC101
            return f"x = {self.pick(['t + 1', e, '$+(R; v[r])'])};"
        if kind == 9:  # a parallel local
            return f"{{ int tmp; tmp = {e}; {self.at(target)} = tmp + {self.expr(readable, 1)}; }}"
        if kind == 10 and len(self.elems) == 1:  # a local assigned from an extended grid
            val = self.pick([e, f"{e} + r * 0", "v[r]"])
            return f"{{ int tmp; par (R) tmp = {val}; {self.at(target)} = tmp; }}"
        return f"{self.at(target)} = {self.pick(CALLS)}({e});"


def _prelude(shape, salt, first=None):
    """Declarations, the callees and a self-initialising main prologue.
    ``first`` lists the values of the first index set (default ``0..n-1``)."""
    n0 = shape[0]
    specs = [f"{{0..{n - 1}}}" for n in shape]
    extents = list(shape)
    if first is not None:
        specs[0] = "{" + ",".join(map(str, first)) + "}"
        extents[0] = max(first) + 1
    sets = ", ".join(f"{S}:{e} = {spec}" for S, e, spec in zip(SETS, ELEMS, specs))
    dims = "".join(f"[{n}]" for n in extents)
    elems = ELEMS[: len(shape)]
    at = "".join(f"[{e}]" for e in elems)
    mix = " + ".join(f"{e} * {p}" for e, p in zip(elems, (5, 3, 7)))
    m = min(shape)
    head = (
        f"index_set {sets}, R:r = {{0..{n0 - 1}}}, Q:q = {{0..1}};\n"
        f"int a{dims}, b{dims}, c{dims}, d{dims};\nfloat h{dims};\n"
        f"int v[{n0}], w[{n0}];\nint x, t;\n{FUNCS}"
    )
    init = (
        f"    x = t % 3;\n"
        f"    par ({', '.join(SETS[: len(shape)])}) {{\n"
        f"        a{at} = ({mix} + t * 7 + {salt}) % 6 - 1;\n"
        f"        b{at} = ({mix} * 3 + t + {salt * 5}) % 5;\n"
        f"        c{at} = ({mix} * 7 + {salt * 3}) % 9 - 4;\n"
        f"        d{at} = ({mix} * 11 + t + {salt}) % {m};\n"
        f"        h{at} = c{at} / 2.0;\n    }}\n"
        f"    par (R) {{ v[r] = (r * 3 + {salt} + t) % 7 - 2; w[r] = (r * 5 + {salt}) % {m}; }}\n"
    )
    return head, init


@st.composite
def programs(draw, kind):
    shape = draw(st.sampled_from(SHAPES))
    g = _Program(draw, shape)
    salt = draw(st.integers(0, 40))
    first, step = None, 1
    if kind == "solve":  # a listing first set: strided, descending or offset-start
        n0 = shape[0]
        form = draw(st.sampled_from(["range", "range", "strided", "descending", "offset"]))
        step = 2 if form == "strided" else 1
        first = {
            "range": None,
            "strided": list(range(0, 2 * n0, 2)),
            "descending": list(range(n0 - 1, -1, -1)),
            "offset": list(range(1, n0 + 1)),
        }[form]
    head, init = _prelude(shape, salt, first)
    sets = ", ".join(SETS[: len(shape)])
    bound = draw(st.integers(2, 5))
    ro, rw = ["c", "d", "h"], ["a", "b", "c", "d", "h"]
    if kind == "par":
        arms = [g.par_stmt(rw) for _ in range(draw(st.integers(1, 2)))]
        if g.chance(0.6):
            body = " ".join(f"st ({g.expr(rw, 1)}) {s}" for s in arms)
            if g.chance(0.5):
                body += f" others {g.par_stmt(rw)}"
        else:
            body = "{ " + " ".join(arms) + " }"
        construct = f"par ({sets}) {body}"
    elif kind == "*par":
        a, b = g.at("a"), g.at("b")
        right, step = g.expr(rw, 1), g.expr(rw)
        if g.chance(0.4):
            # Figure 11: the body reuses a term of the predicate's right
            # conjunct — a guarded neighbour read, or a drawn expression
            e0 = g.elems[0]
            west = "a" + "".join(f"[{s}]" for s in [f"{e0} - 1"] + list(g.elems[1:]))
            shared = g.pick([f"({e0} > 0 ? {west} : {bound})", g.expr(rw, 1)])
            right, step = f"{a} != 1 + {shared}", f"1 + {shared}"
        arm = f"st ({a} < {bound} && {right}) {{ {a} = max({a} + 1, min({bound}, {step})); "
        arm += f"{g.par_stmt(rw, ['b', 'h'])} }}" if g.chance(0.5) else "}"
        if g.chance(0.4):
            arm += f" st ({b} < {bound} && {g.expr(ro, 1)}) {b} = {b} + 1;"
        if g.chance(0.08):
            arm += f" others {g.par_stmt(ro, ['b'])}"  # *par rejects 'others' at run time
        construct = f"*par ({sets}) {arm}"
        if len(shape) > 1 and g.chance(0.2):  # the outer element is no frontier axis
            construct = f"par (I) *par ({sets[3:]}) {arm}"
        elif g.chance(0.1):  # a target the lane compiler cannot address
            e0, n0 = g.elems[0], shape[0]
            target = "a" + "".join(f"[{s}]" for s in [f"{n0 - 1} - {e0}"] + list(g.elems[1:]))
            construct = f"*par ({sets}) st ({a} < {bound}) {target} = {a} + 1;"
    elif kind == "solve":
        a, e0 = g.at("a"), g.elems[0]
        lo = min(first) if first else 0
        prev = "a" + "".join(f"[{s}]" for s in [f"{e0} - {step}"] + list(g.elems[1:]))
        dep = "a" + "".join(f"[{s}]" for s in ["d" + "".join(f"[{s}]" for s in g.elems)] + list(g.elems[1:]))
        back = "a" + "".join(f"[{s}]" for s in ["r"] + list(g.elems[1:]))
        e = g.expr(ro)
        forms = [f"({e0} > {lo} ? {prev} + {e} : {e})", f"{g.pick(CALLS)}({e0} > {lo} ? {prev} : {e})", e]
        if first is None:  # both read elements a listing set leaves undefined
            forms.append(f"({'d' + ''.join(f'[{s}]' for s in g.elems)} < {e0} ? {dep} + 1 : {e})")
            forms.append(f"{e} + $+(R st (r < {e0}) {back})")
        value = g.pick(forms)
        stmts = f"{a} = {value};"
        if g.chance(0.4):
            stmts += f" {g.at('b')} = {g.ref('a') if first is None else a} + {g.expr(ro, 1)};"
        pred = f"st ({g.expr(ro, 1)}) " if g.chance(0.25) else ""
        construct = f"solve ({sets}) {pred}{{ {stmts} }}"
    elif kind == "*solve":
        a, e0 = g.at("a"), g.elems[0]
        stmts = f"{a} = min({a}, max(0, {g.expr(rw)}));"
        if g.chance(0.35):  # a value-root reduction, as in APSP: a[i] is one operand
            back = "a" + "".join(f"[{s}]" for s in ["r"] + list(g.elems[1:]))
            op = g.pick(["$<", "$<", "$>", "$,"])
            weight = "ABS(v[r])" if op == "$<" else "-ABS(v[r])"
            sets_r = g.pick(["R", "R", "R, Q"])
            pred = g.pick(["", "", f" st (w[r] != {e0})"])
            stmts = f"{a} = {op}({sets_r}{pred}{';' if not pred else ''} r == {e0} ? {a} : {back} + {weight});"
        if g.chance(0.4):
            stmts += f" {g.at('b')} = {g.ref('a')} + {g.expr(['a', 'c', 'd'], 1)};"
        if g.chance(0.4):
            construct = (f"*solve ({sets}) st ({g.expr(['a', 'c', 'd'], 1)}) {{ {stmts} }} "
                         f"others {g.at('b')} = {g.expr(['a', 'c', 'd'], 1)};")
        else:
            construct = f"*solve ({sets}) {{ {stmts} }}"
    else:  # *oneof
        a, b = g.at("a"), g.at("b")
        if len(shape) == 1 and g.chance(0.3):
            n = shape[0]
            construct = (f"*oneof (I) st (i < {n - 1} && a[i] > a[i + 1]) swap(a[i], a[i + 1]);")
        elif g.chance(0.2):  # one pick, with others
            construct = (f"oneof ({sets}) st ({g.expr(rw, 1)}) {g.par_stmt(rw)} "
                         f"others {g.par_stmt(rw)}")
        else:
            construct = (f"*oneof ({sets}) st ({a} < {bound} && {g.expr(rw, 1)}) {a} = {a} + 1;")
            if g.chance(0.5):
                construct += f" st ({b} < {bound} && {g.expr(ro, 1)}) {b} = min({bound}, {b} + 2);"
    src = f"{head}main {{\n{init}    {construct}\n}}\n"
    return src, draw(st.sampled_from([None, 2, 16])), draw(st.integers(0, 3))


def _check(case):
    src, pes, t0 = case
    mc = small_config(pes) if pes else None
    lanes = [{"t": t0}, {"t": t0 + 1}, {"t": t0 + 2}]
    assert_engines_agree(src, lanes, machine_config=mc)


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("kind", ["par", "*par", "solve", "*solve", "*oneof"])
def test_generated_constructs_agree_on_every_engine(kind):
    BUDGET(given(programs(kind))(_check))()

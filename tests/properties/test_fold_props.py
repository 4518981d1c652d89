"""Property tests for constant folding and the expression printer.

The engine folds constants in the fused kernel's static path (over
``eval_expr.apply_binop``); the tree-walking oracle never folds.  Random
expressions over literals, a host scalar and the par element must give
the same outcome — values or error — on both, and the printer that
names expressions in reports and CSE keys must be a fixed point of
print-then-parse.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import parse_expression
from repro.lang.ast import expr_to_text
from tests.conftest import run_uc

# random expression strings over integer literals and the variables x, i
_leaf = st.sampled_from(["1", "2", "3", "7", "x", "i", "0"])


def _combine(children):
    binops = st.tuples(
        st.sampled_from(["+", "-", "*", "%", "<", "==", "&&", "||", "<<"]),
        children,
        children,
    ).map(lambda t: f"({t[1]} {t[0]} {t[2]})")
    ternary = st.tuples(children, children, children).map(
        lambda t: f"({t[0]} ? {t[1]} : {t[2]})"
    )
    unary = children.map(lambda c: f"(-{c})")
    return st.one_of(binops, ternary, unary)


expr_strings = st.recursive(_leaf, _combine, max_leaves=12)


def _outcome(src, xv, plans):
    try:
        return True, run_uc(src, {"x": xv}, plans=plans)["a"]
    except Exception as exc:
        return False, (type(exc), str(exc))


@settings(max_examples=60, deadline=None)
@given(expr_strings, st.integers(-20, 20))
def test_folding_preserves_parallel_evaluation(expr_text, xv):
    # % by a subexpression that evaluates to 0 must fail the same way
    # (class and located message) on both engines
    src = (
        "index_set I:i = {0..5};\nint a[6], x;\n"
        f"main {{ par (I) a[i] = {expr_text}; }}"
    )
    ok, fused = _outcome(src, xv, plans=True)
    oracle_ok, oracle = _outcome(src, xv, plans=False)
    assert ok == oracle_ok
    if ok:
        assert np.array_equal(fused, oracle), f"{expr_text!r} changed results"
    else:
        assert fused == oracle


@settings(max_examples=60, deadline=None)
@given(expr_strings)
def test_folding_is_idempotent(expr_text):
    once = expr_to_text(parse_expression(expr_text))
    twice = expr_to_text(parse_expression(once))
    assert once == twice

"""UC501 order-independence property (the proof the sanitizer spot-checks):
permuting the operand order of every proven commutative+associative
builtin reduction leaves the result bit-identical in both engines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests.conftest import run_uc

small_ints = st.integers(min_value=-50, max_value=50)
vec = arrays(
    np.int64, st.integers(min_value=2, max_value=20), elements=small_ints
)

#: every builtin op the determinism pass classifies UC501 on int operands
UC501_OPS = ("$+", "$*", "$<", "$>", "$&&", "$||", "$^")


def _reduce(op, a, *, plans):
    n = len(a)
    src = (
        f"index_set I:i = {{0..{n-1}}};\nint a[{n}], out_;\n"
        f"main {{ out_ = {op}(I; a[i]); }}"
    )
    return run_uc(src, {"a": a.copy()}, plans=plans)["out_"]


@settings(max_examples=10, deadline=None)
@given(vec, st.integers(min_value=0, max_value=2**31))
def test_uc501_builtins_are_operand_order_independent(a, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(len(a))
    for op in UC501_OPS:
        for plans in (True, False):
            original = _reduce(op, a, plans=plans)
            permuted = _reduce(op, a[perm], plans=plans)
            assert original == permuted, (op, plans)
            assert type(original) is type(permuted), (op, plans)


@settings(max_examples=10, deadline=None)
@given(vec)
def test_engines_agree_on_every_uc501_builtin(a):
    for op in UC501_OPS:
        assert _reduce(op, a, plans=True) == _reduce(op, a, plans=False), op


# ---------------------------------------------------------------------------
# the interval analysis behind UC501's no-overflow certificates
# ---------------------------------------------------------------------------


@st.composite
def _bounded_exprs(draw, depth=3):
    """Integer expressions over the elements i, j, the seq element k and
    the constant N, in every form ``determinism._bounds`` interprets."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["i", "j", "k", "N", str(draw(st.integers(-6, 6)))]))
    x = draw(_bounded_exprs(depth - 1))
    y = draw(_bounded_exprs(depth - 1))
    form = draw(st.integers(0, 7))
    if form == 0:
        return f"({x} {draw(st.sampled_from(['+', '-', '*', '%']))} {y})"
    if form == 1:
        return f"({x} {draw(st.sampled_from(['<', '<=', '==', '!=', '&&', '||']))} {y})"
    if form == 2:
        return f"{draw(st.sampled_from(['-', '!']))}({x})"
    if form == 3:
        return f"({x} > {y} ? {x} : {y} - 1)"
    if form == 4:
        return f"{draw(st.sampled_from(['min', 'max']))}({x}, {y})"
    if form == 5:
        return f"{draw(st.sampled_from(['abs', 'ABS']))}({x})"
    if form == 6:
        return f"({x} % {draw(st.sampled_from([-3, 2, 5]))})"
    return f"({x} + {y})"


@settings(max_examples=60, deadline=None)
@given(
    _bounded_exprs(),
    st.tuples(st.integers(-3, 2), st.integers(0, 3)),
    st.tuples(st.integers(-2, 3), st.integers(0, 3)),
    st.integers(-4, 4),
)
def test_bounds_contain_every_value_the_oracle_computes(expr, iset, jset, n):
    from hypothesis import assume

    from repro.analysis.determinism import _bounds
    from repro.interp.program import UCProgram
    from repro.lang.errors import UCRuntimeError

    (i0, ni), (j0, nj) = iset, jset
    src = (
        f"index_set I:i = {{{i0}..{i0 + ni}}}, J:j = {{{j0}..{j0 + nj}}}, K:k = {{-1..1}};\n"
        f"int hi[3][{ni + 1}], lo[3][{ni + 1}];\n"
        f"main {{ seq (K) par (I) {{ hi[k + 1][i - ({i0})] = $>(J; {expr});"
        f" lo[k + 1][i - ({i0})] = $<(J; {expr}); }} }}"
    )
    prog = UCProgram(src, defines={"N": n}, plans=False)
    try:
        res = prog.run()
    except UCRuntimeError:
        assume(False)  # a zero divisor: nothing computed to bound
    model = prog.frontend.model()
    for site in model.reductions:
        claim = _bounds(site.node.arms[0].expr, site, model)
        if claim is not None:
            assert claim[0] <= res["lo"].min() and res["hi"].max() <= claim[1], (claim, src)

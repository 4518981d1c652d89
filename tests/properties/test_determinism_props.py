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

"""Constant folding, the paper's §4 "peep-hole" optimization, as the
engine does it: the fused kernel's static path evaluates constant
subtrees at build time through ``eval_expr.apply_binop``.

Each expression runs as a fused ``par`` sweep and on the tree-walking
oracle; both must agree with each other and with the folded form.
"""

import numpy as np
import pytest

from repro.interp.program import UCProgram
from repro.lang.ast import expr_to_text
from repro.lang.errors import UCRuntimeError

pytestmark = pytest.mark.usefixtures("default_engines")

A = np.array([5, 1, 4, 2])
B = np.array([9, 8, 7, 6])

SRC = """
index_set I:i = {0..3}, J:j = I;
int a[4], b[4], x;
float y[4];
int power2(int n) { return 1 << n; }
main { par (I) y[i] = %s; }
"""


def evaluate(expr: str, x: int = 7) -> np.ndarray:
    """``y`` after ``par (I) y[i] = expr``: fused, then on the oracle."""
    fused = UCProgram(SRC % expr, plans=True).run({"a": A, "b": B, "x": x})
    assert fused.fusion.get("fused_sweeps"), f"{expr!r} did not run fused"
    oracle = UCProgram(SRC % expr, plans=False).run({"a": A, "b": B, "x": x})
    assert np.array_equal(fused["y"], oracle["y"])
    assert fused.fingerprint == oracle.fingerprint
    return fused["y"]


def folded(before: str, after: str, x: int = 7) -> bool:
    return np.array_equal(evaluate(before, x), evaluate(after, x))


class TestConstantFolding:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("1 + 2", "3"),
            ("2 * 3 + 4", "10"),
            ("7 / 2", "3"),
            ("-7 / 2", "-3"),
            ("-7 % 2", "-1"),
            ("1 << 4", "16"),
            ("5 & 3", "1"),
            ("3 < 4", "1"),
            ("3 == 4", "0"),
            ("1 && 0", "0"),
            ("0 || 2", "1"),
            ("!3", "0"),
            ("-(4)", "-4"),
            ("~0", "-1"),
            ("1.5 + 2.5", "4.0"),
        ],
    )
    def test_folds(self, before, after):
        assert evaluate(before).tolist() == [float(after)] * 4

    def test_division_by_zero_left_unfolded(self):
        """A constant division by zero is not folded away: both engines
        raise the oracle's located error."""
        for expr, what in (("1 / 0", "division"), ("1 % 0", "mod")):
            messages = []
            for plans in (True, False):
                with pytest.raises(UCRuntimeError) as exc:
                    UCProgram(SRC % expr, plans=plans).run()
                messages.append(str(exc.value))
            assert messages[0] == messages[1]
            assert f"integer {what} by zero" in messages[0]

    def test_ternary_constant_condition(self):
        assert evaluate("1 ? a[i] : b[i]").tolist() == A.tolist()
        assert evaluate("0 ? a[i] : b[i]").tolist() == B.tolist()

    def test_ternary_dynamic_condition_kept(self):
        assert folded("a[i] > x ? 1 + 1 : 3", "a[i] > x ? 2 : 3", x=3)
        assert evaluate("a[i] > x ? 1 + 1 : 3", x=3).tolist() == [2, 3, 2, 3]


class TestAlgebraicIdentities:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("x + 0", "x"),
            ("0 + x", "x"),
            ("x - 0", "x"),
            ("x * 1", "x"),
            ("1 * x", "x"),
            ("x * 0", "0"),
            ("0 * x", "0"),
        ],
    )
    def test_identities(self, before, after):
        assert folded(before, after)

    def test_nested_subexpressions_fold(self):
        assert folded("a[i + 1 - 1] + (2 * 3)", "a[i] + 6")

    def test_call_arguments_fold(self):
        # the program's own power2 (the builtin never fuses)
        assert folded("power2(1 + 2)", "power2(3)")
        assert evaluate("power2(1 + 2)").tolist() == [8.0] * 4

    def test_reduction_arms_fold(self):
        assert folded("$+(J st (1 == 1) a[j] + 0)", "$+(J; a[j])")
        assert evaluate("$+(J st (1 == 1) a[j] + 0)").tolist() == [12.0] * 4


class TestProgramFolding:
    def test_fold_program_copies(self):
        """Folding happens in the kernel, never in the shared program
        tree: after a fused run the source expression is untouched."""
        prog = UCProgram(
            "index_set I:i = {0..3};\nint a[4];\nmain { par (I) a[i] = 1 + 2; }"
        )
        assert prog.run().fusion.get("fused_sweeps")
        par = prog.info.program.main.stmts[0]
        assert expr_to_text(par.blocks[0].stmt.expr.value) == "1 + 2"
        assert prog.run()["a"].tolist() == [3] * 4

    def test_folding_preserves_semantics(self):
        from tests.conftest import run_uc

        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) a[i] = (2 * 3) + i * 1 + 0; }"
        )
        assert run_uc(src)["a"].tolist() == [6, 7, 8, 9]

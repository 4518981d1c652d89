"""Source-to-source subscript rewriting tests (paper §4 worked example)."""

import pytest

from repro.lang.ast import expr_to_text
from repro.lang import analyze, parse_expression, parse_program, parse_statement
from repro.mapping.maps import build_layouts
from repro.mapping.transform import rewrite_program, rewrite_subscripts, simplify


def layouts_for(src, defines=None):
    info = analyze(parse_program(src), defines)
    return build_layouts(info), info


SRC = (
    "index_set I:i = {0..7};\nint a[8], b[9];\n"
    "map (I) { permute (I) b[i+1] :- a[i]; }\n"
    "main { par (I) a[i] = a[i] + b[i+1]; }"
)


class TestSimplify:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("i + 1 - 1", "i"),
            ("i + 0", "i"),
            ("0 + i", "i"),
            ("i - 0", "i"),
            ("1 + 2", "3"),
            ("i + 2 - 1", "i + 1"),
            ("i - 2 + 1", "i - 1"),
        ],
    )
    def test_cases(self, before, after):
        assert expr_to_text(simplify(parse_expression(before))) == after

    def test_leaves_other_expressions_alone(self):
        e = parse_expression("i * 2")
        assert expr_to_text(simplify(e)) == "i * 2"


class TestRewrite:
    def test_paper_worked_example(self):
        """a[i] = a[i] + b[i+1]  --permute-->  a[i] = a[i] + b[i]."""
        layouts, _ = layouts_for(SRC)
        stmt = parse_statement("a[i] = a[i] + b[i+1];")
        out = rewrite_subscripts(stmt, layouts)
        assert expr_to_text(out.expr) == "a[i] = a[i] + b[i]"

    def test_unshifted_reference_gains_offset(self):
        layouts, _ = layouts_for(SRC)
        stmt = parse_statement("x = b[i];")
        # x undeclared is fine: rewrite works on raw trees
        out = rewrite_subscripts(stmt, layouts)
        assert expr_to_text(out.expr) == "x = b[i - 1]"

    def test_original_tree_unmodified(self):
        layouts, _ = layouts_for(SRC)
        stmt = parse_statement("a[i] = b[i+1];")
        before = expr_to_text(stmt.expr)
        rewrite_subscripts(stmt, layouts)
        assert expr_to_text(stmt.expr) == before

    def test_rewrite_program_drops_map_sections(self):
        layouts, info = layouts_for(SRC)
        out = rewrite_program(info.program, layouts)
        assert out.maps == []
        assert info.program.maps  # original untouched

    def test_canonical_arrays_untouched(self):
        layouts, _ = layouts_for(SRC)
        stmt = parse_statement("a[i] = a[i + 2];")
        out = rewrite_subscripts(stmt, layouts)
        assert expr_to_text(out.expr) == "a[i] = a[i + 2]"

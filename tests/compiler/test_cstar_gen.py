"""UC -> C* translation tests (paper appendix style)."""

import pytest

from repro.compiler.cstar_gen import CStarGenerator, generate_cstar
from repro.interp.program import UCProgram
from repro.lang import parse_expression
from repro.lang.ast import expr_to_text


class TestExprToText:
    @pytest.mark.parametrize(
        "src",
        [
            "a + b * c",
            "(a + b) * c",
            "a < b == c",
            "a ? b : c",
            "d[i][j]",
            "power2(i + 1)",
            "a[i] = a[i] + b[i]",
            "x += 2",
            "-a",
            "!x",
        ],
    )
    def test_round_trips(self, src):
        text = expr_to_text(parse_expression(src))
        again = expr_to_text(parse_expression(text))
        assert again == text  # stable under re-parse

    def test_parenthesisation_preserves_meaning(self):
        e = parse_expression("(a + b) * c")
        assert expr_to_text(e) == "(a + b) * c"
        e = parse_expression("a + b * c")
        assert expr_to_text(e) == "a + b * c"

    def test_reduction_rendering(self):
        e = parse_expression("$<(K; d[i][k] + d[k][j])")
        assert "$[min]" in expr_to_text(e)


FIG4 = """
int N = 8;
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int d[8][8];
main {
    seq (K)
      par (I, J)
        st (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
}
"""

FIG5 = """
int N = 8;
int LOGN = 3;
index_set I:i = {0..N-1}, J:j = I, K:k = I;
index_set L:l = {0..LOGN-1};
int d[8][8];
main {
    seq (L)
      par (I, J)
        d[i][j] = $<(K; d[i][k] + d[k][j]);
}
"""


class TestGeneration:
    def _gen(self, src, defines=None):
        prog = UCProgram(src, defines=defines)
        return generate_cstar(prog.info, prog.layouts)

    def test_fig4_produces_fig9_shape(self):
        out = self._gen(FIG4)
        assert "domain" in out
        assert "[8][8];" in out
        assert "::init()" in out
        assert "for (k = 0; k <= 7; k++)" in out
        assert "where (" in out

    def test_fig5_produces_min_assign_pattern(self):
        """The paper's `len <?= path[i][k].len + path[k][j].len` pattern."""
        out = self._gen(FIG5)
        assert "<?=" in out
        assert "for (k = 0; k <= 7; k++)" in out

    def test_domain_per_shape(self):
        src = (
            "index_set I:i = {0..3};\nint a[4], b[4], m[4][4];\n"
            "main { par (I) a[i] = b[i]; }"
        )
        prog = UCProgram(src)
        cs = CStarGenerator(prog.info, prog.layouts).generate()
        assert len(cs.domains) == 2  # one per distinct shape
        shapes = {d.shape for d in cs.domains}
        assert shapes == {(4,), (4, 4)}

    def test_mapping_compiled_away(self):
        src = (
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "map (I) { permute (I) b[i+1] :- a[i]; }\n"
            "main { par (I) a[i] = a[i] + b[i+1]; }"
        )
        out = self._gen(src)
        # the permute offset is folded into the subscripts: b[i+1] -> b[i]
        assert "b[i]" in out
        assert "b[i + 1]" not in out

    def test_star_par_becomes_global_or_loop(self):
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *par (I) st (a[i] > 0) a[i] = a[i] - 1; }"
        )
        out = self._gen(src)
        assert "while (" in out and "global-or" in out

    def test_host_scalars_declared(self):
        src = "int total;\nfloat avg;\nmain { total = 1; }"
        out = self._gen(src)
        assert "int total;" in out
        assert "float avg;" in out

    def test_structured_program_object(self):
        prog = UCProgram(FIG5)
        gen = CStarGenerator(prog.info, prog.layouts)
        cs = gen.generate()
        assert len(cs.domains) == 1
        d = cs.domains[0]
        assert d.shape == (8, 8)
        assert {f.name for f in d.fields} >= {"i", "j", "d"}

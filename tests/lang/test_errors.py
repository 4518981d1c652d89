"""Error-quality tests: positions and messages carry enough to act on."""

import pytest

from repro.lang import analyze, parse_program
from repro.lang.errors import (
    UCError,
    UCRuntimeError,
    UCSemanticError,
    UCSyntaxError,
)
from repro.lang.lexer import tokenize


def syntax_error(src):
    with pytest.raises(UCSyntaxError) as exc:
        parse_program(src)
    return exc.value


def semantic_error(src, defines=None):
    with pytest.raises(UCSemanticError) as exc:
        analyze(parse_program(src), defines)
    return exc.value


class TestPositions:
    def test_lexer_position(self):
        with pytest.raises(UCSyntaxError) as exc:
            tokenize("ok\nok @")
        assert exc.value.line == 2
        assert exc.value.col == 4

    def test_parser_position(self):
        err = syntax_error("int a[4];\nmain { par () a = 1; }")
        assert err.line == 2

    def test_semantic_position(self):
        err = semantic_error("int x;\n\nindex_set I:i = {0..y};")
        assert err.line == 3

    def test_position_in_message_text(self):
        err = semantic_error("index_set I:i = {5..2};")
        assert "line 1" in str(err)


class TestNamePositions:
    """An undeclared or wrong-kind name is reported where it is used, by
    ``repro run`` and ``repro lint`` alike."""

    CASES = [
        # (source, message, line, col)
        ("index_set I:i = {0..3};\nint a[4];\nmain {\n    a[0] = q;\n}\n",
         "undeclared identifier 'q'", 4, 12),
        ("index_set I:i = {0..3};\nint a[4], b[4];\n"
         "map (I) { permute (I) b[j] :- a[i]; }\nmain { par (I) b[i] = i; }\n",
         "undeclared identifier 'j'", 3, 25),
        ("index_set I:i = {0..3};\nint a[4];\nmain {\n  par (a) a[0] = 1;\n}\n",
         "'a' is a array, expected index_set", 4, 3),
    ]

    @pytest.mark.parametrize(
        "src, message, line, col", CASES, ids=["statement", "map_subscript", "wrong_kind"]
    )
    def test_run_and_lint_locate_the_name(self, src, message, line, col, tmp_path, capsys):
        from repro.cli import main

        err = semantic_error(src)
        assert (err.message, err.line, err.col) == (message, line, col)
        path = tmp_path / "prog.uc"
        path.write_text(src)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path)])
        assert str(exc.value) == f"{path}: {message} (line {line}, column {col})"
        main(["lint", str(path)])
        assert f"prog.uc:{line}:{col}: error: UC002: {message}" in capsys.readouterr().out


class TestMessages:
    def test_goto_message_cites_the_paper_rule(self):
        err = syntax_error("main { goto out; }")
        assert "goto" in err.message

    def test_undeclared_names_the_identifier(self):
        err = semantic_error("main { mystery = 1; }")
        assert "mystery" in err.message

    def test_wrong_kind_says_what_it_is(self):
        err = semantic_error("index_set I:i = {0..3};\nmain { par (I) I = 1; }")
        assert "index_set" in err.message

    def test_arity_error_reports_counts(self):
        err = semantic_error(
            "int f(int a, int b) { return a; }\nmain { f(1); }"
        )
        assert "2" in err.message and "1" in err.message

    def test_multiple_assignment_mentions_the_fix(self):
        from repro.interp.program import UCProgram
        from repro.lang.errors import UCMultipleAssignmentError
        import numpy as np

        src = (
            "index_set I:i = {0..3}, J:j = I;\nint a[4], b[4];\n"
            "main { par (I, J) a[i] = b[j]; }"
        )
        with pytest.raises(UCMultipleAssignmentError) as exc:
            UCProgram(src).run({"b": np.array([1, 2, 3, 4])})
        assert "$," in str(exc.value)

    def test_subscript_error_reports_value_and_extent(self):
        from repro.interp.program import UCProgram

        src = "index_set I:i = {0..7};\nint a[4];\nmain { par (I) a[i] = 0; }"
        with pytest.raises(UCRuntimeError) as exc:
            UCProgram(src).run()
        msg = str(exc.value)
        assert "extent 4" in msg

    def test_error_hierarchy(self):
        assert issubclass(UCSyntaxError, UCError)
        assert issubclass(UCSemanticError, UCError)
        assert issubclass(UCRuntimeError, UCError)

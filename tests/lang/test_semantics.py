"""Semantic-analysis tests."""

import pytest

from repro.lang import analyze, parse_program
from repro.lang.errors import UCSemanticError


def check(src, defines=None):
    return analyze(parse_program(src), defines)


class TestIndexSets:
    def test_range_values(self):
        info = check("index_set I:i = {0..4};")
        assert info.index_sets["I"].values == (0, 1, 2, 3, 4)
        assert info.index_sets["I"].elem_name == "i"

    def test_listing_values_keep_order(self):
        info = check("index_set L:l = {4, 2, 9};")
        assert info.index_sets["L"].values == (4, 2, 9)

    def test_alias_shares_values(self):
        info = check("index_set I:i = {0..3}, J:j = I;")
        assert info.index_sets["J"].values == info.index_sets["I"].values
        assert info.index_sets["J"].elem_name == "j"

    def test_defines_in_bounds(self):
        info = check("index_set I:i = {0..N-1};", defines={"N": 6})
        assert len(info.index_sets["I"]) == 6

    def test_const_scalar_as_bound(self):
        info = check("int N = 5;\nindex_set I:i = {0..N-1};")
        assert len(info.index_sets["I"]) == 5

    def test_constant_arithmetic(self):
        info = check("index_set I:i = {2*3..2*3+1};")
        assert info.index_sets["I"].values == (6, 7)

    def test_empty_range_rejected(self):
        with pytest.raises(UCSemanticError):
            check("index_set I:i = {5..2};")

    def test_unknown_alias_rejected(self):
        with pytest.raises(UCSemanticError):
            check("index_set J:j = K;")

    def test_non_constant_bound_rejected(self):
        with pytest.raises(UCSemanticError):
            check("int x;\nindex_set I:i = {0..x};")

    def test_duplicate_set_rejected(self):
        with pytest.raises(UCSemanticError):
            check("index_set I:i = {0..3};\nindex_set I:x = {0..3};")

    def test_element_collides_with_variable(self):
        with pytest.raises(UCSemanticError):
            check("int i;\nindex_set I:i = {0..3};")


class TestVariables:
    def test_array_dims_recorded(self):
        info = check("int d[4][8];")
        assert info.arrays["d"] == ("int", (4, 8))

    def test_scalar_types(self):
        info = check("float avg; int s;")
        assert info.scalars == {"avg": "float", "s": "int"}

    def test_const_initializer_becomes_constant(self):
        info = check("int N = 32;")
        assert info.constants["N"] == 32

    def test_zero_extent_rejected(self):
        with pytest.raises(UCSemanticError):
            check("int a[0];")

    def test_array_initializer_rejected(self):
        with pytest.raises(UCSemanticError):
            check("int a[4] = 1;")

    def test_non_constant_dim_rejected(self):
        with pytest.raises(UCSemanticError):
            check("int x; int a[x];")


class TestUseChecks:
    def test_undeclared_identifier(self):
        with pytest.raises(UCSemanticError):
            check("main { x = 1; }")

    def test_unknown_index_set_in_par(self):
        with pytest.raises(UCSemanticError):
            check("main { par (Q) x = 1; }")

    def test_element_visible_inside_construct(self):
        check(
            "index_set I:i = {0..3};\nint a[4];\nmain { par (I) a[i] = i; }"
        )

    def test_same_element_twice_in_product_rejected(self):
        with pytest.raises(UCSemanticError):
            check(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { par (I, I) a[i] = 0; }"
            )

    def test_distinct_elements_ok(self):
        check(
            "index_set I:i = {0..3}, J:j = I;\nint d[4][4];\n"
            "main { par (I, J) d[i][j] = 0; }"
        )

    def test_over_subscripting_rejected(self):
        with pytest.raises(UCSemanticError):
            check(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { par (I) a[i][i] = 0; }"
            )

    def test_reduction_elements_scoped(self):
        check(
            "index_set I:i = {0..3};\nint a[4], s;\n"
            "main { s = $+(I; a[i]); }"
        )
        with pytest.raises(UCSemanticError):
            check("index_set I:i = {0..3};\nint a[4], s;\nmain { s = a[i]; }")

    def test_shadowing_allowed(self):
        """§3.4: reuse of an index set rebinds its element."""
        check(
            "index_set I:i = {0..9};\nint a[10];\n"
            "main { par (I) st (i % 2 == 0) a[i] = $+(I; i); }"
        )

    def test_others_needs_st_arm(self):
        from repro.lang.errors import UCError

        with pytest.raises(UCError):  # rejected at parse or analysis time
            check(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { par (I) a[i] = 0; others a[i] = 1; }"
            )


class TestFunctions:
    def test_builtin_arity(self):
        with pytest.raises(UCSemanticError):
            check("main { power2(1, 2); }")

    def test_user_function_arity(self):
        src = "int f(int x) { return x; }\nmain { f(1, 2); }"
        with pytest.raises(UCSemanticError):
            check(src)

    def test_duplicate_function(self):
        with pytest.raises(UCSemanticError):
            check("int f() { return 0; }\nint f() { return 1; }")

    def test_user_function_overrides_builtin(self):
        info = check("int power2(int x) { return 1 << x; }")
        assert "power2" in info.functions

    def test_user_override_takes_its_own_arity(self):
        """A user ``min`` of three arguments replaces the two-argument
        builtin: the arity check and the run both see the user's."""
        from repro.interp.program import UCProgram

        src = (
            "int m;\n"
            "int min(int a, int b, int c) { return a < b ? (a < c ? a : c) : (b < c ? b : c); }\n"
            "main { m = min(5, 2, 9); }"
        )
        assert "min" in check(src).functions
        assert UCProgram(src).run()["m"] == 2
        with pytest.raises(UCSemanticError, match="function 'min' takes 3"):
            check(src.replace("min(5, 2, 9)", "min(5, 2)"))

    def test_unknown_function(self):
        with pytest.raises(UCSemanticError):
            check("main { frobnicate(); }")


class TestSolveChecks:
    def test_proper_set_accepted(self):
        check(
            "index_set I:i = {0..3}, J:j = I;\nint a[4][4];\n"
            "main { solve (I, J) a[i][j] = 1; }"
        )

    def test_two_statements_same_target_rejected(self):
        with pytest.raises(UCSemanticError):
            check(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { solve (I) { a[i] = 1; a[i] = 2; } }"
            )

    def test_two_statements_distinct_targets_ok(self):
        check(
            "index_set I:i = {0..3};\nint a[4], b[4];\n"
            "main { solve (I) { a[i] = 1; b[i] = a[i]; } }"
        )

    def test_non_assignment_body_rejected(self):
        with pytest.raises(UCSemanticError):
            check(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { solve (I) if (a[i]) a[i] = 1; }"
            )

    def test_solve_others_rejected_with_position(self):
        with pytest.raises(UCSemanticError, match="'others' clause") as err:
            check(
                "index_set I:i = {0..3};\nint a[4], b[4];\nmain {\n"
                "  solve (I) st (i > 0) a[i] = a[i-1] + 1; others b[i] = 5;\n}"
            )
        assert (err.value.line, err.value.col) == (4, 3)

    def test_star_solve_accepts_others(self):
        check(
            "index_set I:i = {0..3};\nint a[4], b[4];\n"
            "main { *solve (I) st (i > 0) a[i] = a[i-1] + 1; others b[i] = 5; }"
        )

    def test_star_solve_exempt_from_single_assignment(self):
        check(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *solve (I) { a[i] = 1; a[i] = a[i] + 0; } }"
        )


class TestMapSections:
    SRC = "index_set I:i = {0..7};\nint a[8], b[8];\n"

    def test_valid_permute(self):
        check(self.SRC + "map (I) { permute (I) b[i+1] :- a[i]; }")

    def test_unknown_array(self):
        with pytest.raises(UCSemanticError):
            check(self.SRC + "map (I) { permute (I) q[i] :- a[i]; }")

    def test_unknown_index_set(self):
        with pytest.raises(UCSemanticError):
            check(self.SRC + "map (Z) { permute (Z) b[z] :- a[z]; }")

    def test_rank_mismatch(self):
        with pytest.raises(UCSemanticError):
            check(self.SRC + "map (I) { permute (I) b[i][i] :- a[i]; }")

    def test_fold_must_fold_self(self):
        with pytest.raises(UCSemanticError):
            check(self.SRC + "map (I) { fold (I) b[i+4] :- a[i]; }")

    def test_copy_needs_extra_subscript(self):
        with pytest.raises(UCSemanticError):
            check(self.SRC + "map (I) { copy (I) b[i] :- b[i]; }")


class TestErrorPositions:
    """Analyzer errors must carry the offending source position (used by
    ``repro lint`` to anchor UC002 diagnostics) and a precise message."""

    @staticmethod
    def fails(src, defines=None):
        with pytest.raises(UCSemanticError) as exc:
            check(src, defines)
        return exc.value

    def test_non_constant_bound_names_symbol_and_line(self):
        err = self.fails("int x;\nindex_set I:i = {0..x};")
        assert "'x' is not a compile-time constant" in err.message
        assert err.line == 2 and err.col > 0

    def test_division_by_zero_in_constant(self):
        err = self.fails("index_set I:i = {0..4/0};")
        assert "division by zero in constant" in err.message
        assert err.line == 1 and err.col > 0

    def test_empty_range_reports_bounds(self):
        err = self.fails("index_set I:i = {5..2};")
        assert "empty index-set range {5..2} for 'I'" in err.message
        assert err.line == 1

    def test_unknown_alias_names_both_sets(self):
        err = self.fails("index_set I:i = {0..3};\nindex_set J:j = K;")
        assert "index set 'J' aliases unknown set 'K'" in err.message
        assert err.line == 2

    def test_element_collision_reports_existing_kind(self):
        err = self.fails("int i;\nindex_set I:i = {0..3};")
        assert "element name 'i' collides with a" in err.message
        assert err.line == 2

    def test_duplicate_function_positions_at_second_def(self):
        err = self.fails(
            "int f(int x) { return x; }\nint f(int y) { return y; }\nmain { }"
        )
        assert "duplicate function 'f'" in err.message
        assert err.line == 2

    def test_non_positive_extent_reports_value(self):
        err = self.fails("int a[0];")
        assert "array 'a' has non-positive extent 0" in err.message
        assert err.line == 1

    def test_array_initializer_rejected(self):
        err = self.fails("int a[4] = 3;")
        assert "array 'a' cannot have an initializer" in err.message
        assert err.line == 1

    def test_map_unknown_array(self):
        err = self.fails(
            "index_set I:i = {0..7};\nint a[8];\n"
            "map (I) { permute (I) q[i] :- a[i]; }"
        )
        assert "map section references unknown array 'q'" in err.message
        assert err.line == 3

    def test_map_rank_mismatch_reports_both_ranks(self):
        err = self.fails(
            "index_set I:i = {0..7};\nint a[8], b[8];\n"
            "map (I) { permute (I) b[i][i] :- a[i]; }"
        )
        assert "has 2 subscripts, array rank is 1" in err.message
        assert err.line == 3

    def test_duplicate_element_in_cartesian_product(self):
        err = self.fails(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I, I) a[i] = 0; }"
        )
        assert "element identifier 'i' appears twice" in err.message
        assert err.line == 3

    def test_fold_onto_other_array(self):
        err = self.fails(
            "index_set I:i = {0..7};\nint a[8], b[8];\n"
            "map (I) { fold (I) b[i+4] :- a[i]; }"
        )
        assert "fold mapping must fold an array onto itself" in err.message
        assert err.line == 3

    def test_solve_multiple_statements_per_array(self):
        err = self.fails(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { solve (I) { a[0] = 1; a[i] = a[i - 1]; } }"
        )
        assert (
            "solve body assigns 'a' in more than one statement" in err.message
        )
        assert err.line == 3

    def test_solve_body_non_assignment(self):
        err = self.fails(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { solve (I) { print(i); } }"
        )
        assert (
            "solve body must consist solely of assignment statements"
            in err.message
        )
        assert err.line == 3

    def test_over_subscripted_array_reports_ranks(self):
        err = self.fails(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) a[i][i] = 0; }"
        )
        assert "indexed with 2 subscripts, rank is 1" in err.message
        assert err.line == 3

    def test_assign_to_index_set_element(self):
        err = self.fails(
            "index_set I:i = {0..3};\nint a[4];\nmain { par (I) i = 0; }"
        )
        assert "cannot assign to 'i'" in err.message
        assert err.line == 3

    def test_user_function_arity_reports_counts(self):
        err = self.fails(
            "int f(int x) { return x; }\nint y;\nmain { y = f(1, 2); }"
        )
        assert "function 'f' takes 1 argument(s), got 2" in err.message
        assert err.line == 3

    def test_builtin_arity_reports_counts(self):
        err = self.fails("int y;\nmain { y = max(1); }")
        assert "builtin 'max' takes 2 argument(s), got 1" in err.message
        assert err.line == 2

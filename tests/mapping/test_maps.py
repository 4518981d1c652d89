"""Map-declaration -> layout translation tests."""

import numpy as np
import pytest

from repro.lang import analyze, parse_program
from repro.lang.errors import UCSemanticError
from repro.mapping.maps import build_layouts, read_subscript
from repro.lang import parse_expression


def layouts_of(src, defines=None):
    info = analyze(parse_program(src), defines)
    return build_layouts(info), info


HEADER = "index_set I:i = {0..7}, J:j = I;\nint a[8], b[8], d[8][8], e[8][8];\n"

AXES = {"i": (0, np.arange(8)), "j": (1, np.arange(8))}


def affine_subscript(text, constants):
    """The map builders' reading of one subscript: its symbolic form."""
    return read_subscript(parse_expression(text), AXES, constants).require_affine(constants)


class TestAffineSubscript:
    def test_bare_element(self):
        s = affine_subscript("i", {})
        assert (s.elem, s.scale, s.offset) == ("i", 1, 0)

    def test_plus_const(self):
        s = affine_subscript("i + 3", {})
        assert (s.elem, s.scale, s.offset) == ("i", 1, 3)

    def test_const_minus_element(self):
        s = affine_subscript("7 - i", {})
        assert (s.elem, s.scale, s.offset) == ("i", -1, 7)

    def test_pure_constant(self):
        s = affine_subscript("2 * 3", {})
        assert (s.elem, s.offset) == (None, 6)

    def test_define_constant(self):
        s = affine_subscript("i + N", {"N": 4})
        assert s.offset == 4

    def test_two_elements_rejected(self):
        with pytest.raises(UCSemanticError, match="uses two index elements"):
            affine_subscript("i + j", {})

    def test_nonunit_scale_rejected(self):
        with pytest.raises(UCSemanticError, match="'i' is not a compile-time constant"):
            affine_subscript("2 * i", {})


class TestRealisation:
    """The same reading's realisation over the element values."""

    def desc(self, text, constants=None, uniform=()):
        sub = read_subscript(parse_expression(text), AXES, constants or {}, uniform)
        return sub.desc, sub.exact

    def test_mirror_wrap_halve(self):
        for text, want in [
            ("7 - i", 7 - np.arange(8)),
            ("(i + 1) % 8", (np.arange(8) + 1) % 8),
            ("i / 2", np.arange(8) // 2),
        ]:
            (tag, g, vals), exact = self.desc(text)
            assert (tag, g, exact) == ("a", 0, True), text
            assert np.array_equal(vals, want), text

    def test_unary_operators(self):
        for text, want in [("-i", -np.arange(8)), ("!i", (np.arange(8) == 0) * 1),
                           ("~i", -np.arange(8) - 1)]:
            (tag, g, vals), exact = self.desc(text)
            assert (tag, g, exact) == ("a", 0, True), text
            assert np.array_equal(vals, want), text

    def test_an_operator_error_is_data_dependent(self):
        assert self.desc("i + 1 / 0") == (None, False)

    def test_constant_and_ternary(self):
        assert self.desc("N > 2 ? N - 1 : 0", {"N": 4}) == (("u", 3), True)

    def test_two_axes_and_data_are_data_dependent(self):
        assert self.desc("i + j") == (None, False)
        assert self.desc("a[i]") == (None, False)

    def test_unknown_uniform_keeps_structure_only(self):
        assert self.desc("k * 2", uniform={"k"}) == (("u", 0), False)
        (tag, g, _vals), exact = self.desc("i + k", uniform={"k"})
        assert (tag, g, exact) == ("a", 0, False)


class TestPermute:
    def test_paper_example_offset(self):
        """permute (I) b[i+1] :- a[i]  =>  b shifted by -1."""
        table, _ = layouts_of(HEADER + "map (I) { permute (I) b[i+1] :- a[i]; }")
        assert table.get("b").offsets == (-1,)
        assert table.get("a").is_canonical

    def test_negative_direction(self):
        table, _ = layouts_of(HEADER + "map (I) { permute (I) b[i] :- a[i+2]; }")
        assert table.get("b").offsets == (2,)

    def test_transpose(self):
        table, _ = layouts_of(
            HEADER + "map (I, J) { permute (I, J) e[j][i] :- d[i][j]; }"
        )
        assert table.get("e").axis_perm == (1, 0)

    def test_transpose_with_shift(self):
        table, _ = layouts_of(
            HEADER + "map (I, J) { permute (I, J) e[j][i+1] :- d[i][j]; }"
        )
        l = table.get("e")
        assert l.axis_perm == (1, 0)
        assert l.offsets == (0, -1)

    def test_element_missing_from_source(self):
        with pytest.raises(UCSemanticError):
            layouts_of(HEADER + "map (I, J) { permute (I, J) b[i] :- a[j]; }")

    def test_source_must_be_canonical(self):
        with pytest.raises(UCSemanticError):
            layouts_of(
                HEADER
                + "map (I) { permute (I) b[i+1] :- a[i]; permute (I) a[i] :- b[i]; }"
            )


class TestFold:
    def test_wrap_fold(self):
        table, _ = layouts_of(HEADER + "map (I) { fold (I) a[i+4] :- a[i]; }")
        f = table.get("a").fold
        assert f is not None and f.kind == "wrap" and f.param == 4

    def test_mirror_fold(self):
        table, _ = layouts_of(HEADER + "map (I) { fold (I) a[7-i] :- a[i]; }")
        f = table.get("a").fold
        assert f is not None and f.kind == "mirror" and f.param == 7

    def test_identity_fold_rejected(self):
        with pytest.raises(UCSemanticError):
            layouts_of(HEADER + "map (I) { fold (I) a[i] :- a[i]; }")

    def test_negative_pivot_rejected(self):
        with pytest.raises(UCSemanticError):
            layouts_of(HEADER + "map (I) { fold (I) a[i-4] :- a[i]; }")


class TestCopy:
    def test_copy_extent_from_index_set(self):
        table, info = layouts_of(
            HEADER + "map (I, J) { copy (I, J) a[i][j] :- a[i]; }"
        )
        l = table.get("a")
        assert l.copy_elem == "j"
        assert l.copy_extent == len(info.index_sets["J"])

    def test_copy_without_new_element_rejected(self):
        with pytest.raises(UCSemanticError):
            layouts_of(HEADER + "map (I) { copy (I) d[i][i] :- d[i][0]; }")


class TestBuildLayouts:
    def test_apply_maps_false_keeps_canonical(self):
        src = HEADER + "map (I) { permute (I) b[i+1] :- a[i]; }"
        info = analyze(parse_program(src))
        table = build_layouts(info, apply_maps=False)
        assert table.get("b").is_canonical

    def test_every_array_gets_layout(self):
        table, info = layouts_of(HEADER)
        for name in info.arrays:
            assert name in table

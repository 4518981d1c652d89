"""Scope / symbol-table tests."""

import pytest

from repro.lang import ast
from repro.lang.errors import UCSemanticError
from repro.lang.scope import IndexSetValue, Scope, ScopeStack, Symbol


class TestIndexSetValue:
    def test_basics(self):
        isv = IndexSetValue("I", "i", (0, 1, 2))
        assert len(isv) == 3
        assert list(isv) == [0, 1, 2]
        assert 2 in isv and 5 not in isv

    def test_with_element(self):
        isv = IndexSetValue("I", "i", (0, 1))
        j = isv.with_element("j")
        assert j.values == isv.values and j.elem_name == "j"


class TestScope:
    def test_declare_and_lookup(self):
        s = Scope()
        s.declare(Symbol("x", "scalar"))
        assert s.lookup("x").kind == "scalar"
        assert s.lookup("y") is None

    def test_duplicate_in_same_scope(self):
        s = Scope()
        s.declare(Symbol("x", "scalar"))
        with pytest.raises(UCSemanticError):
            s.declare(Symbol("x", "array"))

    def test_parent_chain(self):
        outer = Scope()
        outer.declare(Symbol("x", "scalar"))
        inner = Scope(outer)
        assert inner.lookup("x") is not None
        assert inner.lookup_local("x") is None

    def test_shadowing(self):
        outer = Scope()
        outer.declare(Symbol("x", "scalar"))
        inner = Scope(outer)
        inner.declare(Symbol("x", "element"))
        assert inner.lookup("x").kind == "element"
        assert outer.lookup("x").kind == "scalar"


class TestScopeStack:
    def test_push_pop(self):
        st = ScopeStack()
        st.declare(Symbol("g", "scalar"))
        st.push()
        st.declare(Symbol("l", "scalar"))
        assert st.lookup("l") is not None
        st.pop()
        assert st.lookup("l") is None
        assert st.lookup("g") is not None

    def test_cannot_pop_global(self):
        with pytest.raises(RuntimeError):
            ScopeStack().pop()

    def test_require_kind(self):
        st = ScopeStack()
        st.declare(Symbol("I", "index_set"))
        use = ast.Name(line=3, col=7, ident="I")
        assert st.require("I", "index_set", at=use).name == "I"
        with pytest.raises(UCSemanticError) as exc:
            st.require("I", "array", at=use)
        assert (exc.value.line, exc.value.col) == (3, 7)
        with pytest.raises(UCSemanticError) as exc:
            st.require("missing", at=use)
        assert (exc.value.line, exc.value.col) == (3, 7)

    def test_scoped_context_manager(self):
        st = ScopeStack()
        with st.scoped():
            st.declare(Symbol("tmp", "scalar"))
            assert st.lookup("tmp") is not None
        assert st.lookup("tmp") is None

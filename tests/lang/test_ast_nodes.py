"""The declarative ``ast.Node`` base: one generic constructor / equality /
repr for every node class, with the construction surface the parser, the
mapping rewriter and the embedded DSL rely on."""

import copy
import dataclasses
import pickle

import pytest

from repro.lang import ast


def _all_node_classes():
    out, todo = [], [ast.Node]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(out, key=lambda c: c.__name__)


NODE_CLASSES = _all_node_classes()


def _sample(cls):
    """An instance with every field set to a distinct non-default value."""
    values = {}
    for k, name in enumerate(cls._fields):
        default = cls._defaults[name]
        if default is list:
            values[name] = [ast.IntLit(value=k), ast.Name(ident=f"n{k}")]
        elif isinstance(default, bool):
            values[name] = not default
        elif isinstance(default, int):
            values[name] = default + k + 1
        elif isinstance(default, float):
            values[name] = default + k + 0.5
        elif isinstance(default, str):
            values[name] = f"{default}_{k}"
        else:  # None: a child node slot
            values[name] = ast.Binary(op="+", left=ast.Name(ident="x"), right=ast.IntLit(value=k))
    return cls(**values), values


def test_the_whole_grammar_is_covered():
    assert len(NODE_CLASSES) == 38
    assert ast.Node._fields == ("line", "col")
    assert ast.Binary._fields == ("line", "col", "op", "left", "right")
    assert ast.UCStmt._fields == (
        "line", "col", "kind", "star", "index_sets", "blocks", "others",
    )  # fmt: skip


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
class TestEveryNodeClass:
    def test_keyword_and_positional_construction_agree(self, cls):
        node, values = _sample(cls)
        for name, value in values.items():
            assert getattr(node, name) == value
        by_position = cls(*[values[name] for name in cls._fields])
        assert by_position == node
        assert vars(by_position) == vars(node)
        # mixed: position for the source location, keywords for the rest
        rest = {n: v for n, v in values.items() if n not in ("line", "col")}
        assert vars(cls(values["line"], values["col"], **rest)) == vars(node)

    def test_missing_arguments_take_the_declared_defaults(self, cls):
        node = cls()
        for name in cls._fields:
            default = cls._defaults[name]
            assert getattr(node, name) == ([] if default is list else default)
        # instance state is complete and in declaration order whatever the
        # keyword order was (children()/walk() iterate vars(node))
        _sample_node, values = _sample(cls)
        shuffled = cls(**dict(reversed(list(values.items()))))
        assert tuple(vars(shuffled)) == cls._fields == tuple(vars(node))

    def test_list_defaults_are_fresh_per_node(self, cls):
        a, b = cls(), cls()
        for name in cls._list_fields:
            assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)

    def test_bad_arguments_raise_type_error(self, cls):
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            cls(nope=1)
        with pytest.raises(TypeError, match="multiple values for argument 'line'"):
            cls(3, line=4)
        with pytest.raises(TypeError, match="at most"):
            cls(*range(len(cls._fields) + 1))

    def test_equality_ignores_position_only(self, cls):
        node, values = _sample(cls)
        moved = cls(**{**values, "line": 900, "col": 901})
        assert node == moved and not node != moved
        for name in cls._fields[2:]:
            assert cls(**{**values, name: cls._defaults[name]}) != node
        other = ast.Break() if cls is not ast.Break else ast.Continue()
        assert node != object() and node != other and cls() != other
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)

    def test_repr_names_every_field_in_order(self, cls):
        node, values = _sample(cls)
        body = ", ".join(f"{n}={values[n]!r}" for n in cls._fields)
        assert repr(node) == f"{cls.__name__}({body})"

    def test_deepcopy_and_pickle_round_trip(self, cls):
        node, _values = _sample(cls)
        for clone in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(clone) is cls and clone == node and clone is not node
            assert vars(clone).keys() == vars(node).keys()
            assert (clone.line, clone.col) == (node.line, node.col)
            for name in cls._list_fields:
                assert getattr(clone, name) is not getattr(node, name)

    def test_generic_dataclass_tools_still_see_the_fields(self, cls):
        # benchmarks/e2e counts AST nodes with is_dataclass()/fields()
        node, values = _sample(cls)
        assert dataclasses.is_dataclass(node) and dataclasses.is_dataclass(cls)
        assert tuple(f.name for f in dataclasses.fields(node)) == cls._fields
        assert dataclasses.replace(node, line=77) == node


def test_subclasses_do_not_share_field_tables():
    assert ast.IntLit._fields == ("line", "col", "value")
    assert ast.Expr._fields == ("line", "col") and ast.Expr._defaults is not ast.Node._defaults
    assert "value" not in ast.Name._defaults


def test_walk_order_follows_declaration_order():
    tree = ast.If(
        els=ast.ExprStmt(expr=ast.Name(ident="c")),
        then=ast.ExprStmt(expr=ast.Name(ident="b")),
        cond=ast.Name(ident="a"),
    )
    names = [n.ident for n in ast.walk(tree) if isinstance(n, ast.Name)]
    assert names == ["a", "b", "c"]


def test_parsed_trees_compare_by_value_across_layouts():
    from repro.lang import parse_program

    a = parse_program("int a[4]; index_set I:i = {0..3}; main { par (I) a[i] = i + 1; }")
    b = parse_program(
        "int a[4];\nindex_set I:i = {0..3};\nmain {\n  par (I)\n    a[i] = i + 1;\n}\n"
    )
    assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(b)) == a
    b.main.stmts[0].blocks[0].stmt.expr.value.right.value = 2
    assert a != b

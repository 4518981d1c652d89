"""AST node definitions for UC.

All nodes are plain records carrying their source position.  The tree
mirrors the paper's grammar (§3): C expressions/statements plus index-set
declarations, reductions, the four UC constructs and the map section.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union


class _DataclassFields:
    """``dataclasses.fields(node)`` / ``is_dataclass(node)`` for generic tree
    tools (``benchmarks/e2e`` counts nodes that way).  The ``Field`` objects
    are built on first request, so importing the AST never pays for them."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def __get__(self, obj, owner):
        if owner not in self._cache:
            import dataclasses

            shadow = dataclasses.make_dataclass(
                owner.__name__,
                [(n, object, dataclasses.field(default=None)) for n in owner._fields],
            )
            self._cache[owner] = {f.name: f for f in dataclasses.fields(shadow)}
        return self._cache[owner]


class Node:
    """Base record: a subclass's annotations are its fields.

    Fields are positional in declaration order after ``line``/``col`` and
    every one has a default — the class-level value, where ``list`` stands
    for a fresh ``[]`` per node.  Nodes are mutable, compare by value
    ignoring the source position, and are therefore unhashable.  One
    generic ``__init__``/``__eq__``/``__repr__`` serves every class, so
    defining the 38 node types costs no per-class code generation.
    """

    line: int = 0
    col: int = 0
    _fields: Tuple[str, ...] = ("line", "col")
    _defaults: dict = {"line": 0, "col": 0}
    _list_fields: Tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own}}
        cls._list_fields = tuple(n for n, v in cls._defaults.items() if v is list)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if args:
            if len(args) > len(cls._fields):
                raise TypeError(
                    f"{cls.__name__}() takes at most {len(cls._fields)} "
                    f"arguments ({len(args)} given)"
                )
            for name, value in zip(cls._fields, args):
                if name in kwargs:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for argument {name!r}"
                    )
                kwargs[name] = value
        values = cls._defaults.copy()
        values.update(kwargs)
        if len(values) != len(cls._fields):
            unknown = next(k for k in kwargs if k not in cls._defaults)
            raise TypeError(
                f"{cls.__name__}() got an unexpected keyword argument {unknown!r}"
            )
        for name in cls._list_fields:
            if values[name] is list:
                values[name] = []
        self.__dict__ = values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields[2:]
        return tuple(getattr(self, n) for n in names) == tuple(
            getattr(other, n) for n in names
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


class IntLit(Expr):
    value: int = 0


class FloatLit(Expr):
    value: float = 0.0


class StringLit(Expr):
    value: str = ""


class InfLit(Expr):
    """The predefined constant INF (paper §3.2)."""


class Name(Expr):
    ident: str = ""


class Unary(Expr):
    op: str = ""  # '-', '+', '!', '~'
    operand: Expr = None  # type: ignore[assignment]


class Binary(Expr):
    op: str = ""  # C binary operator spelling: '+', '<=', '&&', '%', ...
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]


class Call(Expr):
    func: str = ""
    args: List[Expr] = list


class Index(Expr):
    """``base[sub0][sub1]...`` with all subscripts collected."""

    base: str = ""
    subs: List[Expr] = list


class ScExpr(Node):
    """One ``st (pred) exp`` arm of a reduction (pred None = no predicate)."""

    pred: Optional[Expr] = None
    expr: Expr = None  # type: ignore[assignment]


class Reduction(Expr):
    """``$op(idxs ; exp)`` / ``$op(idxs st (p) e ... others e)`` (§3.2)."""

    op: str = ""  # canonical: add, mul, logand, logor, logxor, max, min, arbitrary
    index_sets: List[str] = list
    arms: List[ScExpr] = list
    others: Optional[Expr] = None


class Assign(Expr):
    """``target op= value``; ``op`` is '' for plain assignment."""

    target: Expr = None  # type: ignore[assignment]  (Name or Index)
    op: str = ""  # '', '+', '-', '*', '/', '%', '&', '|', '^', '<<', '>>'
    value: Expr = None  # type: ignore[assignment]


class IncDec(Expr):
    """``target++`` / ``target--`` (pre/post makes no difference as a stmt)."""

    target: Expr = None  # type: ignore[assignment]
    op: str = "++"


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


class EmptyStmt(Stmt):
    pass


class Block(Stmt):
    stmts: List[Stmt] = list


class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    els: Optional[Stmt] = None


class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


class For(Stmt):
    init: Optional[Expr] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


class Return(Stmt):
    value: Optional[Expr] = None


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


class DeclGroup(Stmt):
    """Several declarators from one declaration (``int a, b;``).

    Unlike :class:`Block`, a DeclGroup introduces no scope — its
    declarations land in the surrounding scope, as C requires.
    """

    decls: List[Stmt] = list


class VarDecl(Stmt):
    """``int a[N][N], s;`` — one declarator (the parser splits lists)."""

    ctype: str = "int"  # 'int' | 'float'
    name: str = ""
    dims: List[Expr] = list  # empty = scalar
    init: Optional[Expr] = None


class IndexSetSpec(Node):
    """RHS of an index-set definition."""

    kind: str = "range"  # 'range' | 'listing' | 'alias'
    lo: Optional[Expr] = None
    hi: Optional[Expr] = None
    items: List[Expr] = list
    alias: str = ""


class IndexSetDecl(Stmt):
    """``index_set I:i = {0..N-1};`` — one set (lists are split)."""

    set_name: str = ""
    elem_name: str = ""
    spec: IndexSetSpec = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# UC constructs
# ---------------------------------------------------------------------------


class ScBlock(Node):
    """One ``st (pred) stmt`` arm (pred None = the unconditional body)."""

    pred: Optional[Expr] = None
    stmt: Stmt = None  # type: ignore[assignment]


class UCStmt(Stmt):
    """``[*] par|seq|solve|oneof (idxs) st-blocks [others stmt]`` (§3.3)."""

    kind: str = "par"  # 'par' | 'seq' | 'solve' | 'oneof'
    star: bool = False
    index_sets: List[str] = list
    blocks: List[ScBlock] = list
    others: Optional[Stmt] = None


# ---------------------------------------------------------------------------
# map section (§4)
# ---------------------------------------------------------------------------


class MapDecl(Node):
    """``permute (I) b[i+1] :- a[i];`` and the fold / copy forms."""

    kind: str = "permute"  # 'permute' | 'fold' | 'copy'
    index_sets: List[str] = list
    target: Index = None  # type: ignore[assignment]  # the array being remapped
    source: Optional[Index] = None  # relative-to reference (None for fold/copy forms without one)
    extent: Optional[Expr] = None  # copy: replication count


class MapSection(Node):
    index_sets: List[str] = list
    decls: List[MapDecl] = list


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


class Param(Node):
    ctype: str = "int"
    name: str = ""
    dims: int = 0  # number of array dimensions (passed as slice reference)


class FuncDef(Node):
    ret_type: str = "void"  # 'void' | 'int' | 'float'
    name: str = ""
    params: List[Param] = list
    body: Block = None  # type: ignore[assignment]


class Program(Node):
    decls: List[Stmt] = list  # VarDecl | IndexSetDecl
    maps: List[MapSection] = list
    funcs: List[FuncDef] = list
    main: Optional[Block] = None


# ---------------------------------------------------------------------------
# traversal helper
# ---------------------------------------------------------------------------


def children(node: Node) -> List[Node]:
    """All direct child nodes of ``node`` (for generic walks)."""
    out: List[Node] = []
    for f in vars(node).values():
        if isinstance(f, Node):
            out.append(f)
        elif isinstance(f, list):
            out.extend(x for x in f if isinstance(x, Node))
    return out


def walk(node: Node):
    """Pre-order generator over ``node`` and all descendants."""
    yield node
    for child in children(node):
        yield from walk(child)

"""An embedded Python DSL for building UC programs.

For users who prefer constructing programs from Python instead of writing
UC source text.  The builder assembles the same AST the parser would
produce, so the full pipeline (semantic checks, mappings, the simulator)
applies unchanged.

Example — ranksort:

>>> from repro.ucdsl import UCBuilder
>>> b = UCBuilder()
>>> I, i = b.index_set("I", "i", range(10))
>>> J, j = b.alias("J", "j", I)
>>> a = b.int_array("a", 10)
>>> with b.main():
...     with b.par(I):
...         rank = b.local("rank")
...         rank.set(b.sum(J, 1, where=(a[j] < a[i])))
...         a[rank].set(a[i])
>>> import numpy as np
>>> result = b.run({"a": np.array([5, 2, 7, 1, 9, 0, 4, 8, 3, 6])})
>>> result["a"].tolist()
[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]

Expressions use overloaded operators; because Python fixes the meaning of
``and``/``or``/``not`` and ``=``, the DSL spells those as ``&``/``|``/
``~`` (on boolean-valued expressions) and ``.set(...)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .interp.program import RunResult, UCProgram
from .lang import ast
from .lang.ast import expr_to_text
from .machine import MachineConfig

Operand = Union["E", int, float]


def _expr(x: Operand) -> ast.Expr:
    if isinstance(x, E):
        return x.node
    if isinstance(x, bool):
        return ast.IntLit(value=int(x))
    if isinstance(x, (int, np.integer)):
        return ast.IntLit(value=int(x))
    if isinstance(x, (float, np.floating)):
        return ast.FloatLit(value=float(x))
    raise TypeError(f"cannot use {type(x).__name__} in a UC expression")


class E:
    """A UC expression under construction."""

    __array_priority__ = 1000  # keep numpy scalars from hijacking ops

    def __init__(self, node: ast.Expr) -> None:
        self.node = node

    # -- arithmetic -----------------------------------------------------------

    def _bin(self, op: str, other: Operand, *, swap: bool = False) -> "E":
        left, right = (_expr(other), self.node) if swap else (self.node, _expr(other))
        return E(ast.Binary(op=op, left=left, right=right))

    def __add__(self, o: Operand) -> "E":
        return self._bin("+", o)

    def __radd__(self, o: Operand) -> "E":
        return self._bin("+", o, swap=True)

    def __sub__(self, o: Operand) -> "E":
        return self._bin("-", o)

    def __rsub__(self, o: Operand) -> "E":
        return self._bin("-", o, swap=True)

    def __mul__(self, o: Operand) -> "E":
        return self._bin("*", o)

    def __rmul__(self, o: Operand) -> "E":
        return self._bin("*", o, swap=True)

    def __truediv__(self, o: Operand) -> "E":
        return self._bin("/", o)

    def __rtruediv__(self, o: Operand) -> "E":
        return self._bin("/", o, swap=True)

    def __mod__(self, o: Operand) -> "E":
        return self._bin("%", o)

    def __rmod__(self, o: Operand) -> "E":
        return self._bin("%", o, swap=True)

    def __lshift__(self, o: Operand) -> "E":
        return self._bin("<<", o)

    def __rlshift__(self, o: Operand) -> "E":
        return self._bin("<<", o, swap=True)

    def __rshift__(self, o: Operand) -> "E":
        return self._bin(">>", o)

    def __rrshift__(self, o: Operand) -> "E":
        return self._bin(">>", o, swap=True)

    def __neg__(self) -> "E":
        return E(ast.Unary(op="-", operand=self.node))

    # -- comparisons / logic ------------------------------------------------------

    def __eq__(self, o: object) -> "E":  # type: ignore[override]
        return self._bin("==", o)  # type: ignore[arg-type]

    def __ne__(self, o: object) -> "E":  # type: ignore[override]
        return self._bin("!=", o)  # type: ignore[arg-type]

    def __lt__(self, o: Operand) -> "E":
        return self._bin("<", o)

    def __le__(self, o: Operand) -> "E":
        return self._bin("<=", o)

    def __gt__(self, o: Operand) -> "E":
        return self._bin(">", o)

    def __ge__(self, o: Operand) -> "E":
        return self._bin(">=", o)

    def __and__(self, o: Operand) -> "E":
        return self._bin("&&", o)

    def __rand__(self, o: Operand) -> "E":
        return self._bin("&&", o, swap=True)

    def __or__(self, o: Operand) -> "E":
        return self._bin("||", o)

    def __ror__(self, o: Operand) -> "E":
        return self._bin("||", o, swap=True)

    def __invert__(self) -> "E":
        return E(ast.Unary(op="!", operand=self.node))

    def __hash__(self) -> int:
        return id(self)

    def where(self, then: Operand, els: Operand) -> "E":
        """``self ? then : els`` (conditional expression)."""
        return E(ast.Ternary(cond=self.node, then=_expr(then), els=_expr(els)))

    def __repr__(self) -> str:
        return f"E({expr_to_text(self.node)})"


class LValue(E):
    """An assignable expression (scalar name, local or array element)."""

    def __init__(self, builder: "UCBuilder", node: ast.Expr) -> None:
        super().__init__(node)
        self._builder = builder

    def set(self, value: Operand) -> None:
        """Record ``self = value;`` in the current body."""
        self._builder._emit(
            ast.ExprStmt(
                expr=ast.Assign(target=self.node, op="", value=_expr(value))
            )
        )

    def add(self, value: Operand) -> None:
        """Record ``self += value;``."""
        self._builder._emit(
            ast.ExprStmt(
                expr=ast.Assign(target=self.node, op="+", value=_expr(value))
            )
        )


class ArrayRef:
    """A declared UC array; indexing yields assignable element references."""

    def __init__(self, builder: "UCBuilder", name: str, rank: int) -> None:
        self._builder = builder
        self.name = name
        self.rank = rank

    def __getitem__(self, subs) -> LValue:
        if not isinstance(subs, tuple):
            subs = (subs,)
        if len(subs) != self.rank:
            raise ValueError(
                f"array {self.name!r} needs {self.rank} subscripts, got {len(subs)}"
            )
        node = ast.Index(base=self.name, subs=[_expr(s) for s in subs])
        return LValue(self._builder, node)


class IndexSet:
    """Handle to a declared index set (also exposes its element)."""

    def __init__(self, builder: "UCBuilder", name: str, elem: str) -> None:
        self._builder = builder
        self.name = name
        self.elem_name = elem

    @property
    def elem(self) -> E:
        return E(ast.Name(ident=self.elem_name))


class UCBuilder:
    """Assembles a UC program AST through a fluent Python API."""

    def __init__(self) -> None:
        self._program = ast.Program()
        self._body_stack: List[List[ast.Stmt]] = []
        self._construct_stack: List[ast.UCStmt] = []
        self._pending_if: Optional[ast.If] = None

    # -- declarations -----------------------------------------------------------

    def index_set(
        self, name: str, elem: str, values: Iterable[int]
    ) -> Tuple[IndexSet, E]:
        vals = list(values)
        if vals == list(range(vals[0], vals[-1] + 1)) if vals else False:
            spec = ast.IndexSetSpec(
                kind="range",
                lo=ast.IntLit(value=vals[0]),
                hi=ast.IntLit(value=vals[-1]),
            )
        else:
            spec = ast.IndexSetSpec(
                kind="listing", items=[ast.IntLit(value=v) for v in vals]
            )
        self._program.decls.append(
            ast.IndexSetDecl(set_name=name, elem_name=elem, spec=spec)
        )
        handle = IndexSet(self, name, elem)
        return handle, handle.elem

    def alias(self, name: str, elem: str, base: IndexSet) -> Tuple[IndexSet, E]:
        self._program.decls.append(
            ast.IndexSetDecl(
                set_name=name,
                elem_name=elem,
                spec=ast.IndexSetSpec(kind="alias", alias=base.name),
            )
        )
        handle = IndexSet(self, name, elem)
        return handle, handle.elem

    def _array(self, ctype: str, name: str, *dims: int) -> ArrayRef:
        self._program.decls.append(
            ast.VarDecl(
                ctype=ctype,
                name=name,
                dims=[ast.IntLit(value=int(d)) for d in dims],
            )
        )
        return ArrayRef(self, name, len(dims))

    def int_array(self, name: str, *dims: int) -> ArrayRef:
        return self._array("int", name, *dims)

    def float_array(self, name: str, *dims: int) -> ArrayRef:
        return self._array("float", name, *dims)

    def _scalar(self, ctype: str, name: str, init=None) -> LValue:
        decl = ast.VarDecl(ctype=ctype, name=name)
        if init is not None:
            decl.init = _expr(init)
        self._program.decls.append(decl)
        return LValue(self, ast.Name(ident=name))

    def int_scalar(self, name: str, init: Optional[int] = None) -> LValue:
        return self._scalar("int", name, init)

    def float_scalar(self, name: str, init: Optional[float] = None) -> LValue:
        return self._scalar("float", name, init)

    def local(self, name: str, ctype: str = "int") -> LValue:
        """A per-lane local inside the current parallel body."""
        self._emit(ast.VarDecl(ctype=ctype, name=name))
        return LValue(self, ast.Name(ident=name))

    # -- body plumbing --------------------------------------------------------------

    def _emit(self, stmt: ast.Stmt) -> None:
        if not self._body_stack:
            raise RuntimeError("statements must be built inside b.main()")
        self._body_stack[-1].append(stmt)

    @contextmanager
    def main(self):
        if self._program.main is not None:
            raise RuntimeError("main() already built")
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        self._program.main = ast.Block(stmts=body)

    @contextmanager
    def _construct(self, kind: str, sets: Sequence[IndexSet], star: bool):
        body: List[ast.Stmt] = []
        node = ast.UCStmt(kind=kind, star=star, index_sets=[s.name for s in sets])
        self._construct_stack.append(node)
        self._body_stack.append(body)
        try:
            yield node
        finally:
            self._body_stack.pop()
            self._construct_stack.pop()
        if not node.blocks and node.others is None:
            # no st() arms: the whole body is one unconditional block
            stmt = body[0] if len(body) == 1 else ast.Block(stmts=body)
            node.blocks.append(ast.ScBlock(pred=None, stmt=stmt))
        elif body:
            raise RuntimeError(f"{kind}: mix of st() arms and bare statements")
        self._emit(node)

    def par(self, *sets: IndexSet, star: bool = False):
        return self._construct("par", sets, star)

    def seq(self, *sets: IndexSet, star: bool = False):
        return self._construct("seq", sets, star)

    def solve(self, *sets: IndexSet, star: bool = False):
        return self._construct("solve", sets, star)

    def oneof(self, *sets: IndexSet, star: bool = False):
        return self._construct("oneof", sets, star)

    @contextmanager
    def st(self, pred: Operand):
        """One ``st (pred)`` arm of the enclosing construct."""
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        stmt = body[0] if len(body) == 1 else ast.Block(stmts=body)
        node = self._enclosing_construct()
        node.blocks.append(ast.ScBlock(pred=_expr(pred), stmt=stmt))

    @contextmanager
    def others(self):
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        node = self._enclosing_construct()
        node.others = body[0] if len(body) == 1 else ast.Block(stmts=body)

    def _enclosing_construct(self) -> ast.UCStmt:
        if not self._construct_stack:
            raise RuntimeError("st()/others() outside a par/seq/solve/oneof block")
        return self._construct_stack[-1]

    # -- control flow -----------------------------------------------------------------

    @contextmanager
    def if_(self, cond: Operand):
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        node = ast.If(
            cond=_expr(cond),
            then=body[0] if len(body) == 1 else ast.Block(stmts=body),
        )
        self._pending_if = node
        self._emit(node)

    @contextmanager
    def else_(self):
        if self._pending_if is None:
            raise RuntimeError("else_() without a preceding if_()")
        node = self._pending_if
        self._pending_if = None
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        node.els = body[0] if len(body) == 1 else ast.Block(stmts=body)

    @contextmanager
    def while_(self, cond: Operand):
        body: List[ast.Stmt] = []
        self._body_stack.append(body)
        yield
        self._body_stack.pop()
        self._emit(
            ast.While(
                cond=_expr(cond),
                body=body[0] if len(body) == 1 else ast.Block(stmts=body),
            )
        )

    # -- reductions & builtins -------------------------------------------------------------

    def _reduction(self, op: str, sets, expr: Operand, where: Optional[Operand]) -> E:
        if isinstance(sets, IndexSet):
            sets = (sets,)
        node = ast.Reduction(op=op, index_sets=[s.name for s in sets])
        node.arms.append(
            ast.ScExpr(
                pred=_expr(where) if where is not None else None, expr=_expr(expr)
            )
        )
        return E(node)

    def sum(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("add", sets, expr, where)

    def product(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("mul", sets, expr, where)

    def min(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("min", sets, expr, where)

    def max(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("max", sets, expr, where)

    def any(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("logor", sets, expr, where)

    def all(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("logand", sets, expr, where)

    def arbitrary(self, sets, expr: Operand, *, where: Optional[Operand] = None) -> E:
        return self._reduction("arbitrary", sets, expr, where)

    def call(self, func: str, *args: Operand) -> E:
        return E(ast.Call(func=func, args=[_expr(a) for a in args]))

    def power2(self, x: Operand) -> E:
        return self.call("power2", x)

    def sqrt(self, x: Operand) -> E:
        return self.call("sqrt", x)

    def rand(self) -> E:
        return self.call("rand")

    def abs(self, x: Operand) -> E:
        return self.call("ABS", x)

    def min2(self, a: Operand, b: Operand) -> E:
        return self.call("min", a, b)

    def max2(self, a: Operand, b: Operand) -> E:
        return self.call("max", a, b)

    def swap(self, a: LValue, b: LValue) -> None:
        self._emit(ast.ExprStmt(expr=ast.Call(func="swap", args=[a.node, b.node])))

    # -- map sections ------------------------------------------------------------------------

    def permute(self, sets, target: LValue, anchor: LValue) -> None:
        self._map_decl("permute", sets, target, anchor)

    def fold(self, sets, target: LValue, anchor: LValue) -> None:
        self._map_decl("fold", sets, target, anchor)

    def copy(self, sets, target: LValue, anchor: LValue) -> None:
        """``copy (sets) a[..][e] :- anchor``: write ``target`` at the
        array's rank; the copy axis, the last set's element ``e``, is
        appended here (indexing refuses a subscript beyond the rank)."""
        last = sets if isinstance(sets, IndexSet) else sets[-1]
        spread = ast.Index(base=target.node.base, subs=target.node.subs + [last.elem.node])
        self._map_decl("copy", sets, LValue(self, spread), anchor)

    def _map_decl(self, kind: str, sets, target: LValue, anchor: LValue) -> None:
        if isinstance(sets, IndexSet):
            sets = (sets,)
        if not isinstance(target.node, ast.Index) or not isinstance(
            anchor.node, ast.Index
        ):
            raise TypeError("map declarations take array references")
        decl = ast.MapDecl(
            kind=kind,
            index_sets=[s.name for s in sets],
            target=target.node,
            source=anchor.node,
        )
        if not self._program.maps:
            self._program.maps.append(
                ast.MapSection(index_sets=[s.name for s in sets])
            )
        self._program.maps[0].decls.append(decl)

    # -- building / running -------------------------------------------------------------------

    def build(self, **kwargs) -> UCProgram:
        """Finalize into a UCProgram (checks semantics immediately)."""
        if self._program.main is None:
            raise RuntimeError("build() before main() was defined")
        return UCProgram.from_ast(self._program, **kwargs)

    def run(
        self,
        inputs: Optional[Dict[str, Union[int, float, np.ndarray]]] = None,
        *,
        seed: int = 20250704,
        machine_config: Optional[MachineConfig] = None,
        **kwargs,
    ) -> RunResult:
        prog = self.build(machine_config=machine_config, **kwargs)
        return prog.run(inputs or {}, seed=seed)

    def source(self) -> str:
        """A C*-style rendering of the built program (for inspection)."""
        from .compiler.cstar_gen import generate_cstar

        prog = self.build()
        return generate_cstar(prog.info, prog.layouts)

    def lint(
        self,
        *,
        defines: Optional[Dict[str, int]] = None,
        apply_maps: bool = True,
        filename: str = "<ucdsl>",
    ):
        """Run the whole-program static analyzer over the built program.

        Returns the :class:`~repro.analysis.diagnostics.LintReport`;
        never raises on analyzable input (front-end failures come back
        as UC001/UC002 diagnostics).  DSL nodes carry no source
        positions, so diagnostics have line 0 and the runtime sanitizer
        makes no per-site claims — the structural checks (races, solve
        cycles, tiers, hygiene) still run in full.
        """
        from .analysis import lint_program

        if self._program.main is None:
            raise RuntimeError("lint() before main() was defined")
        return lint_program(
            self._program,
            defines=defines,
            apply_maps=apply_maps,
            filename=filename,
        )

"""Static semantic analysis for UC programs.

Checks performed (paper references in parentheses):

* index-set bounds/listings are compile-time integer constants (§3.1);
* aliases name previously declared index sets (§3.1);
* array dimensions are positive constants;
* every UC construct names declared index sets, and the element
  identifiers in one cartesian product are distinct (§3.3);
* ``goto`` never appears (§3) — the parser already rejects it, the
  analyzer re-checks programmatically constructed trees;
* reduction operators are from the table of eight (§3.2);
* a ``solve`` body is a *proper set of assignments*: each constituent
  statement is a single assignment and no variable is the target of more
  than one statement (§3.6);
* map sections reference declared arrays and index sets, with subscript
  counts matching array ranks (§4);
* every identifier use resolves to a declaration, an enclosing index
  element, a function parameter or a builtin.

The result is a :class:`ProgramInfo` consumed by the interpreter, the
mapping subsystem and the compiler passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from . import ast
from .errors import UCSemanticError
from .operators import INT64_MAX, INT64_MIN, apply_binop, apply_unary
from .scope import IndexSetValue, Scope, ScopeStack, Symbol
from .tokens import REDUCTION_OPS


class Builtin(NamedTuple):
    """One function the runtime provides: how it is called, what one call
    charges, and what the static passes may assume about it."""

    #: argument count (-1: variadic)
    arity: int
    #: elementwise ops one call charges (ALU on the grid, host on the front end)
    alu: int
    #: the result is floating point: always (True), never (False), or
    #: exactly when an argument is (None)
    floats: Optional[bool]
    #: what a call does besides computing its value ("": a pure function
    #: of its arguments, which ``repro.interp.eval_expr.BUILTIN_VALUES``
    #: implements for scalars and arrays alike)
    effect: str = ""

    @property
    def pure(self) -> bool:
        return not self.effect


#: functions the runtime provides (paper programs use power2, rand, swap,
#: ABS).  A user definition of the same name overrides the builtin for the
#: whole program: every consumer checks ``ProgramInfo.functions`` first.
BUILTINS: Dict[str, Builtin] = {
    "power2": Builtin(1, 1, False),
    "abs": Builtin(1, 1, None),
    "ABS": Builtin(1, 1, None),
    "fabs": Builtin(1, 1, True),
    "sqrt": Builtin(1, 4, True),  # iterative on the CM's ALUs
    "min": Builtin(2, 1, None),
    "max": Builtin(2, 1, None),
    "rand": Builtin(0, 1, False, "consumes the RNG stream"),
    "srand": Builtin(1, 0, False, "reseeds the RNG stream"),
    "swap": Builtin(2, 0, False, "exchanges two array elements"),
    "printf": Builtin(-1, 0, False, "writes to the front end's output"),
}

_VALID_RED_OPS = frozenset(REDUCTION_OPS.values())


@dataclass
class ProgramInfo:
    """Everything later phases need to know about a checked program."""

    program: ast.Program
    index_sets: Dict[str, IndexSetValue] = field(default_factory=dict)
    #: element identifier -> index set name (outermost declaration)
    elements: Dict[str, str] = field(default_factory=dict)
    arrays: Dict[str, Tuple[str, Tuple[int, ...]]] = field(default_factory=dict)
    scalars: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, ast.FuncDef] = field(default_factory=dict)
    constants: Dict[str, int] = field(default_factory=dict)


class _ConstEvaluator:
    """Evaluates compile-time constant integer expressions with the
    run-time int64 semantics (:mod:`repro.lang.operators`)."""

    def __init__(self, constants: Dict[str, int]) -> None:
        self.constants = constants

    def eval(self, node: ast.Expr) -> int:
        if isinstance(node, ast.IntLit):
            return node.value
        if isinstance(node, ast.FloatLit):
            raise UCSemanticError(
                "float literal in constant integer context", node.line, node.col
            )
        if isinstance(node, ast.InfLit):
            raise UCSemanticError("INF is not an integer constant", node.line, node.col)
        if isinstance(node, ast.Name):
            if node.ident in self.constants:
                return self.constants[node.ident]
            raise UCSemanticError(
                f"{node.ident!r} is not a compile-time constant", node.line, node.col
            )
        if isinstance(node, ast.Unary):
            return int(apply_unary(node.op, self.eval(node.operand), node))
        if isinstance(node, ast.Binary):
            a, b = self.eval(node.left), self.eval(node.right)
            if node.op in ("/", "%") and b == 0:
                what = "division" if node.op == "/" else "mod"
                raise UCSemanticError(f"{what} by zero in constant", node.line, node.col)
            return int(apply_binop(node.op, a, b, node))
        if isinstance(node, ast.Ternary):
            return self.eval(node.then) if self.eval(node.cond) else self.eval(node.els)
        raise UCSemanticError(
            f"expression is not a compile-time constant ({type(node).__name__})",
            node.line,
            node.col,
        )


class Analyzer:
    """Walks a parsed program performing all static checks."""

    def __init__(self, defines: Optional[Dict[str, int]] = None) -> None:
        self.defines = dict(defines or {})
        self.scopes = ScopeStack()
        self.info: Optional[ProgramInfo] = None

    # -- entry point ------------------------------------------------------------

    def analyze(self, program: ast.Program) -> ProgramInfo:
        info = ProgramInfo(program=program, constants=dict(self.defines))
        self.info = info
        consts = _ConstEvaluator(info.constants)

        for name, value in self.defines.items():
            if not INT64_MIN <= int(value) <= INT64_MAX:
                raise UCSemanticError(f"define {name}={value} does not fit in 64 bits")
            self.scopes.declare(Symbol(name, "const", value=int(value)))

        for decl in program.decls:
            if isinstance(decl, ast.IndexSetDecl):
                self._declare_index_set(decl, consts, info)
            elif isinstance(decl, ast.VarDecl):
                self._declare_var(decl, consts, info)
            else:  # pragma: no cover - parser never produces this
                raise UCSemanticError("bad top-level declaration", decl.line, decl.col)

        for func in program.funcs:
            if func.name in info.functions:
                raise UCSemanticError(
                    f"duplicate function {func.name!r}", func.line, func.col
                )
            # a user definition overrides the like-named builtin (the paper's
            # programs define power2 themselves)
            info.functions[func.name] = func
            self.scopes.globals.declare(
                Symbol(func.name, "function", ctype=func.ret_type, value=func)
            )

        for section in program.maps:
            self._check_map_section(section, info)

        for func in program.funcs:
            self._check_function(func)

        if program.main is not None:
            with self.scopes.scoped():
                self._check_stmt(program.main, in_solve=False)
        return info

    # -- declarations --------------------------------------------------------------

    def _declare_index_set(
        self, decl: ast.IndexSetDecl, consts: _ConstEvaluator, info: ProgramInfo
    ) -> None:
        spec = decl.spec
        if spec.kind == "range":
            lo = consts.eval(spec.lo)
            hi = consts.eval(spec.hi)
            if hi < lo:
                raise UCSemanticError(
                    f"empty index-set range {{{lo}..{hi}}} for {decl.set_name!r}",
                    decl.line,
                    decl.col,
                )
            values = tuple(range(lo, hi + 1))
        elif spec.kind == "listing":
            values = tuple(consts.eval(item) for item in spec.items)
            if not values:
                raise UCSemanticError(
                    f"index set {decl.set_name!r} has no elements", decl.line, decl.col
                )
        else:  # alias
            base = self.scopes.lookup(spec.alias)
            if base is None or base.kind != "index_set":
                raise UCSemanticError(
                    f"index set {decl.set_name!r} aliases unknown set {spec.alias!r}",
                    decl.line,
                    decl.col,
                )
            values = base.value.values

        isv = IndexSetValue(decl.set_name, decl.elem_name, values)
        self.scopes.declare(Symbol(decl.set_name, "index_set", value=isv))
        # element identifiers are only *bound* inside constructs (§3.3); at
        # declaration time we merely reject collisions with real variables
        existing = self.scopes.lookup(decl.elem_name)
        if existing is not None and existing.kind not in ("element", "index_set"):
            raise UCSemanticError(
                f"element name {decl.elem_name!r} collides with a {existing.kind}",
                decl.line,
                decl.col,
            )
        info.index_sets[decl.set_name] = isv
        info.elements.setdefault(decl.elem_name, decl.set_name)

    def _declare_var(
        self, decl: ast.VarDecl, consts: _ConstEvaluator, info: ProgramInfo
    ) -> None:
        dims: List[int] = []
        for d in decl.dims:
            extent = consts.eval(d)
            if extent <= 0:
                raise UCSemanticError(
                    f"array {decl.name!r} has non-positive extent {extent}",
                    decl.line,
                    decl.col,
                )
            dims.append(extent)
        if dims:
            if decl.init is not None:
                raise UCSemanticError(
                    f"array {decl.name!r} cannot have an initializer", decl.line, decl.col
                )
            self.scopes.declare(
                Symbol(decl.name, "array", ctype=decl.ctype, dims=tuple(dims))
            )
            info.arrays[decl.name] = (decl.ctype, tuple(dims))
        else:
            self.scopes.declare(Symbol(decl.name, "scalar", ctype=decl.ctype))
            info.scalars[decl.name] = decl.ctype
            if decl.init is not None:
                # a top-level scalar with constant initializer doubles as a
                # compile-time constant (stands in for #define)
                try:
                    info.constants[decl.name] = consts.eval(decl.init)
                    self.scopes.globals.symbols[decl.name].value = info.constants[decl.name]
                except UCSemanticError:
                    self._check_expr(decl.init)

    # -- map sections ----------------------------------------------------------------

    def _check_map_section(self, section: ast.MapSection, info: ProgramInfo) -> None:
        for name in section.index_sets:
            self.scopes.require(name, "index_set", at=section)
        for decl in section.decls:
            for name in decl.index_sets:
                self.scopes.require(name, "index_set", at=decl)
            self._check_map_ref(decl.target, info, decl)
            if decl.source is not None:
                self._check_map_ref(decl.source, info, decl)
            if decl.kind == "copy":
                if decl.source is None or len(decl.target.subs) != len(decl.source.subs) + 1:
                    raise UCSemanticError(
                        "copy mapping target must have exactly one more subscript "
                        "than its source (the replication axis)",
                        decl.line,
                        decl.col,
                    )
            elif decl.kind == "fold":
                if decl.source is None or decl.target.base != decl.source.base:
                    raise UCSemanticError(
                        "fold mapping must fold an array onto itself",
                        decl.line,
                        decl.col,
                    )

    def _check_map_ref(self, ref: ast.Index, info: ProgramInfo, decl: ast.MapDecl) -> None:
        if ref.base not in info.arrays:
            raise UCSemanticError(
                f"map section references unknown array {ref.base!r}", ref.line, ref.col
            )
        rank = len(info.arrays[ref.base][1])
        expected = rank + 1 if (decl.kind == "copy" and ref is decl.target) else rank
        if len(ref.subs) != expected:
            raise UCSemanticError(
                f"map reference {ref.base!r} has {len(ref.subs)} subscripts, "
                f"array rank is {rank}",
                ref.line,
                ref.col,
            )
        with self.scopes.scoped():
            for s in decl.index_sets:
                isv = self.scopes.require(s, "index_set", at=decl).value
                self.scopes.declare(Symbol(isv.elem_name, "element", value=s))
            for sub in ref.subs:
                self._check_expr(sub)

    # -- functions --------------------------------------------------------------------

    def _check_function(self, func: ast.FuncDef) -> None:
        with self.scopes.scoped():
            for p in func.params:
                kind = "array" if p.dims else "scalar"
                self.scopes.declare(Symbol(p.name, kind, ctype=p.ctype, dims=(0,) * p.dims))
            self._check_stmt(func.body, in_solve=False)

    # -- statements ----------------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt, *, in_solve: bool) -> None:
        if isinstance(stmt, ast.Block):
            with self.scopes.scoped():
                for s in stmt.stmts:
                    self._check_stmt(s, in_solve=in_solve)
        elif isinstance(stmt, ast.DeclGroup):
            for s in stmt.decls:
                self._check_stmt(s, in_solve=in_solve)
        elif isinstance(stmt, ast.VarDecl):
            consts = _ConstEvaluator(self.info.constants if self.info else {})
            dims = []
            for d in stmt.dims:
                dims.append(consts.eval(d))
            kind = "array" if dims else "scalar"
            self.scopes.declare(Symbol(stmt.name, kind, ctype=stmt.ctype, dims=tuple(dims)))
            if stmt.init is not None:
                self._check_expr(stmt.init)
        elif isinstance(stmt, ast.IndexSetDecl):
            consts = _ConstEvaluator(self.info.constants if self.info else {})
            self._declare_index_set(stmt, consts, self.info)  # type: ignore[arg-type]
        elif isinstance(stmt, ast.UCStmt):
            self._check_uc_stmt(stmt, in_solve=in_solve)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond)
            self._check_stmt(stmt.then, in_solve=in_solve)
            if stmt.els is not None:
                self._check_stmt(stmt.els, in_solve=in_solve)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond)
            self._check_stmt(stmt.body, in_solve=in_solve)
        elif isinstance(stmt, ast.DoWhile):
            self._check_stmt(stmt.body, in_solve=in_solve)
            self._check_expr(stmt.cond)
        elif isinstance(stmt, ast.For):
            for e in (stmt.init, stmt.cond, stmt.step):
                if e is not None:
                    self._check_expr(e)
            self._check_stmt(stmt.body, in_solve=in_solve)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value)
        elif isinstance(stmt, (ast.EmptyStmt, ast.Break, ast.Continue)):
            pass
        else:
            raise UCSemanticError(
                f"unsupported statement {type(stmt).__name__}", stmt.line, stmt.col
            )

    def _check_uc_stmt(self, stmt: ast.UCStmt, *, in_solve: bool) -> None:
        if stmt.kind not in ("par", "seq", "solve", "oneof"):
            raise UCSemanticError(f"unknown UC construct {stmt.kind!r}", stmt.line, stmt.col)
        elems: Set[str] = set()
        with self.scopes.scoped():
            for name in stmt.index_sets:
                sym = self.scopes.require(name, "index_set", at=stmt)
                isv: IndexSetValue = sym.value
                if isv.elem_name in elems:
                    raise UCSemanticError(
                        f"element identifier {isv.elem_name!r} appears twice in "
                        f"one cartesian product",
                        stmt.line,
                        stmt.col,
                    )
                elems.add(isv.elem_name)
                # inner use hides any outer binding (paper §3.4)
                self.scopes.current.symbols[isv.elem_name] = Symbol(
                    isv.elem_name, "element", value=name
                )
            inner_solve = in_solve or stmt.kind == "solve"
            if stmt.kind == "solve":
                self._check_solve_body(stmt)
            for block in stmt.blocks:
                if block.pred is not None:
                    self._check_expr(block.pred)
                self._check_stmt(block.stmt, in_solve=inner_solve)
            if stmt.others is not None:
                if not stmt.blocks or all(b.pred is None for b in stmt.blocks):
                    raise UCSemanticError(
                        "'others' requires at least one 'st' arm", stmt.line, stmt.col
                    )
                self._check_stmt(stmt.others, in_solve=inner_solve)

    def _check_solve_body(self, stmt: ast.UCStmt) -> None:
        """A non-starred solve body must be a proper set of assignments (§3.6)."""
        if stmt.star:
            return  # *solve statements need not be single-assignment (§3.6)
        if stmt.others is not None:
            raise UCSemanticError(
                "solve does not take an 'others' clause (*solve does)", stmt.line, stmt.col
            )
        targets: Set[str] = set()
        for _pred, assign in solve_assignments(stmt):
            tgt = assign.target
            base = tgt.ident if isinstance(tgt, ast.Name) else tgt.base  # type: ignore[union-attr]
            if base in targets:
                raise UCSemanticError(
                    f"solve body assigns {base!r} in more than one statement "
                    "(not a proper set of equations)",
                    assign.line,
                    assign.col,
                )
            targets.add(base)

    # -- expressions ----------------------------------------------------------------------

    def _check_target(self, expr) -> None:
        """An assignment or ``++``/``--`` writes an array element or a
        scalar variable, never an element, set, function or array name."""
        if isinstance(expr.target, ast.Name):
            sym = self.scopes.require(expr.target.ident, at=expr.target)
            if sym.kind not in ("scalar",):
                raise UCSemanticError(
                    f"cannot assign to {expr.target.ident!r}: it is a "
                    f"{sym.kind}, not a variable",
                    expr.line,
                    expr.col,
                )
        self._check_expr(expr.target)

    def _check_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.InfLit)):
            return
        if isinstance(expr, ast.StringLit):
            raise UCSemanticError(
                "a string literal can only be printf's format", expr.line, expr.col
            )
        if isinstance(expr, ast.Name):
            self.scopes.require(expr.ident, at=expr)
            return
        if isinstance(expr, ast.Index):
            sym = self.scopes.require(expr.base, "array", at=expr)
            if sym.dims and sym.dims != (0,) * len(sym.dims):
                if len(expr.subs) > len(sym.dims):
                    raise UCSemanticError(
                        f"array {expr.base!r} indexed with {len(expr.subs)} subscripts, "
                        f"rank is {len(sym.dims)}",
                        expr.line,
                        expr.col,
                    )
            for s in expr.subs:
                self._check_expr(s)
            return
        if isinstance(expr, ast.Unary):
            self._check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left)
            self._check_expr(expr.right)
            return
        if isinstance(expr, ast.Ternary):
            self._check_expr(expr.cond)
            self._check_expr(expr.then)
            self._check_expr(expr.els)
            return
        if isinstance(expr, ast.Assign):
            if not isinstance(expr.target, (ast.Name, ast.Index)):
                raise UCSemanticError("bad assignment target", expr.line, expr.col)
            self._check_target(expr)
            self._check_expr(expr.value)
            return
        if isinstance(expr, ast.IncDec):
            self._check_target(expr)
            return
        if isinstance(expr, ast.Call):
            if expr.func in BUILTINS and expr.func not in self.info.functions:
                arity = BUILTINS[expr.func].arity
                if arity >= 0 and len(expr.args) != arity:
                    raise UCSemanticError(
                        f"builtin {expr.func!r} takes {arity} argument(s), "
                        f"got {len(expr.args)}",
                        expr.line,
                        expr.col,
                    )
            else:
                sym = self.scopes.require(expr.func, "function", at=expr)
                func: ast.FuncDef = sym.value
                if len(expr.args) != len(func.params):
                    raise UCSemanticError(
                        f"function {expr.func!r} takes {len(func.params)} argument(s), "
                        f"got {len(expr.args)}",
                        expr.line,
                        expr.col,
                    )
            args = expr.args
            if expr.func == "printf" and expr.func not in self.info.functions:
                if not args or not isinstance(args[0], ast.StringLit):
                    raise UCSemanticError(
                        "printf needs a literal format string", expr.line, expr.col
                    )
                args = args[1:]
            for a in args:
                self._check_expr(a)
            return
        if isinstance(expr, ast.Reduction):
            if expr.op not in _VALID_RED_OPS:
                raise UCSemanticError(
                    f"unknown reduction operator {expr.op!r}", expr.line, expr.col
                )
            elems: Set[str] = set()
            with self.scopes.scoped():
                for name in expr.index_sets:
                    sym = self.scopes.require(name, "index_set", at=expr)
                    isv: IndexSetValue = sym.value
                    if isv.elem_name in elems:
                        raise UCSemanticError(
                            f"element identifier {isv.elem_name!r} appears twice in "
                            "one reduction product",
                            expr.line,
                            expr.col,
                        )
                    elems.add(isv.elem_name)
                    self.scopes.current.symbols[isv.elem_name] = Symbol(
                        isv.elem_name, "element", value=name
                    )
                for arm in expr.arms:
                    if arm.pred is not None:
                        self._check_expr(arm.pred)
                    self._check_expr(arm.expr)
                if expr.others is not None:
                    self._check_expr(expr.others)
            return
        raise UCSemanticError(
            f"unsupported expression {type(expr).__name__}", expr.line, expr.col
        )


def solve_assignments(
    stmt: ast.UCStmt,
) -> List[Tuple[Optional[ast.Expr], ast.Assign]]:
    """The ``(predicate, assignment)`` pairs forming a solve body, in
    source order: what the semantic check, the runtime (scheduled and
    guarded) and the lint's dependence-cycle pass all read.  Raises
    :class:`UCSemanticError` on any other statement."""
    return [
        (block.pred, assign)
        for block in stmt.blocks
        for assign in _stmt_assignments(block.stmt)
    ]


def _stmt_assignments(stmt: ast.Stmt) -> List[ast.Assign]:
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Assign):
        return [stmt.expr]
    if isinstance(stmt, ast.Block):
        return [a for s in stmt.stmts for a in _stmt_assignments(s)]
    raise UCSemanticError(
        "solve body must consist solely of assignment statements",
        stmt.line,
        stmt.col,
    )


def analyze(program: ast.Program, defines: Optional[Dict[str, int]] = None) -> ProgramInfo:
    """Run all static checks over ``program``; returns the symbol info."""
    return Analyzer(defines).analyze(program)

"""UC → C* translation: the backend of the paper's prototype compiler.

"The UC compiler generates C* target code which can then be compiled and
executed using the C* compiler."  This module reproduces that stage as a
source-to-source translator whose output matches the *style* of the
paper's appendix listings (figures 9 and 10):

* arrays referenced in parallel constructs are grouped by shape into
  domains, with ``i``/``j``/``k`` coordinate fields and an address-
  arithmetic ``init()`` member;
* ``par`` becomes a domain activation with ``where`` selection;
* ``seq`` becomes a front-end ``for`` loop;
* min/max reductions over an index set become the paper's
  ``for (k...) x <?= e;`` pattern (``+`` reductions use ``+=``);
* ``*par`` becomes a global-or-driven ``while``;
* map sections are compiled away first by rewriting subscripts (C* has no
  mapping concept — which is exactly the contrast the paper draws).

The output is C* source *text*; it is validated structurally by tests
(domain shapes, where-clauses, ``<?=`` patterns), not executed — the
executable C* baseline lives in :mod:`repro.cstar`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.ast import expr_to_text
from ..lang.semantics import ProgramInfo
from ..mapping.layout import LayoutTable
from ..mapping.transform import rewrite_program
from .cstar_ast import CStarDomain, CStarField, CStarProgram


class CStarGenerator:
    """Translates one checked UC program to a :class:`CStarProgram`."""

    _RED_STMT_OP = {"min": "<?=", "max": ">?=", "add": "+=", "mul": "*="}

    def __init__(self, info: ProgramInfo, layouts: Optional[LayoutTable] = None) -> None:
        self.info = info
        program = info.program
        if layouts is not None and layouts.non_canonical():
            program = rewrite_program(program, layouts)
        self.program = program
        self.out = CStarProgram()
        self._tmp_counter = 0

    # -- driving ------------------------------------------------------------

    def generate(self) -> CStarProgram:
        self._build_domains()
        self._host_decls()
        if self.program.main is not None:
            self._emit_block(self.program.main, indent=0)
        return self.out

    def render(self) -> str:
        return self.generate().render()

    # -- domains ----------------------------------------------------------------

    def _build_domains(self) -> None:
        by_shape: Dict[Tuple[int, ...], List[Tuple[str, str]]] = {}
        for name, (ctype, dims) in self.info.arrays.items():
            by_shape.setdefault(dims, []).append((name, ctype))
        coord_names = ("i", "j", "k", "l")
        for idx, (shape, members) in enumerate(sorted(by_shape.items())):
            dname = f"GRID{idx}_" + "x".join(map(str, shape))
            fields = [CStarField(coord_names[a]) for a in range(min(len(shape), 4))]
            fields += [CStarField(n, t) for n, t in members]
            self.out.domains.append(
                CStarDomain(dname, f"g{idx}", shape, fields)
            )
        if len(by_shape) > 1:
            self.out.notes.append(
                "C* ties parallelism to data declarations: one domain per "
                "array shape (UC derived these layouts automatically)"
            )

    def _domain_of(self, array: str) -> CStarDomain:
        dims = self.info.arrays[array][1]
        return self.out.domain_for_shape(dims)

    def _host_decls(self) -> None:
        for name, ctype in self.info.scalars.items():
            init = ""
            if name in self.info.constants:
                init = f" = {self.info.constants[name]}"
            self.out.host_decls.append(f"{ctype} {name}{init};")

    # -- statements ---------------------------------------------------------------

    def _emit(self, line: str, indent: int) -> None:
        self.out.main_lines.append("    " * indent + line)

    def _emit_block(self, block: ast.Block, indent: int) -> None:
        for stmt in block.stmts:
            self._emit_stmt(stmt, indent)

    def _emit_stmt(self, stmt: ast.Stmt, indent: int) -> None:
        if isinstance(stmt, ast.Block):
            self._emit("{", indent)
            self._emit_block(stmt, indent + 1)
            self._emit("}", indent)
        elif isinstance(stmt, ast.ExprStmt):
            self._emit(self._expr_in_domain(stmt.expr) + ";", indent)
        elif isinstance(stmt, ast.VarDecl):
            dims = "".join(f"[{expr_to_text(d)}]" for d in stmt.dims)
            init = f" = {expr_to_text(stmt.init)}" if stmt.init else ""
            self._emit(f"{stmt.ctype} {stmt.name}{dims}{init};", indent)
        elif isinstance(stmt, ast.IndexSetDecl):
            self._emit(f"/* index_set {stmt.set_name}:{stmt.elem_name} */", indent)
        elif isinstance(stmt, ast.UCStmt):
            self._emit_uc(stmt, indent)
        elif isinstance(stmt, ast.If):
            self._emit(f"if ({expr_to_text(stmt.cond)})", indent)
            self._emit_stmt(stmt.then, indent + 1)
            if stmt.els is not None:
                self._emit("else", indent)
                self._emit_stmt(stmt.els, indent + 1)
        elif isinstance(stmt, ast.While):
            self._emit(f"while ({expr_to_text(stmt.cond)})", indent)
            self._emit_stmt(stmt.body, indent + 1)
        elif isinstance(stmt, ast.For):
            init = expr_to_text(stmt.init) if stmt.init else ""
            cond = expr_to_text(stmt.cond) if stmt.cond else ""
            step = expr_to_text(stmt.step) if stmt.step else ""
            self._emit(f"for ({init}; {cond}; {step})", indent)
            self._emit_stmt(stmt.body, indent + 1)
        elif isinstance(stmt, ast.Return):
            self._emit(
                "return" + (f" {expr_to_text(stmt.value)}" if stmt.value else "") + ";",
                indent,
            )
        elif isinstance(stmt, (ast.EmptyStmt, ast.Break, ast.Continue)):
            self._emit(";", indent)
        else:  # pragma: no cover
            self._emit(f"/* {type(stmt).__name__} */", indent)

    # -- UC constructs ---------------------------------------------------------------

    def _emit_uc(self, stmt: ast.UCStmt, indent: int) -> None:
        if stmt.kind == "seq":
            self._emit_seq(stmt, indent)
            return
        domain = self._construct_domain(stmt)
        header = f"[domain {domain.name}].{{" if domain else "{"
        if stmt.star:
            self._emit(
                f"while (/* global-or of the {stmt.kind} predicates */ 1) "
                + header,
                indent,
            )
        else:
            self._emit(header, indent)
        if stmt.kind == "solve":
            self._emit(
                "/* solve: assignments executed in dependency order "
                "(compiler-scheduled) */",
                indent + 1,
            )
        for block in stmt.blocks:
            if block.pred is not None:
                self._emit(f"where ({self._expr_in_domain(block.pred)}) {{", indent + 1)
                self._emit_stmt(block.stmt, indent + 2)
                self._emit("}", indent + 1)
            else:
                self._emit_stmt(block.stmt, indent + 1)
        if stmt.others is not None:
            preds = " || ".join(
                f"({self._expr_in_domain(b.pred)})" for b in stmt.blocks if b.pred
            )
            self._emit(f"where (!({preds})) {{", indent + 1)
            self._emit_stmt(stmt.others, indent + 2)
            self._emit("}", indent + 1)
        self._emit("}", indent)

    def _emit_seq(self, stmt: ast.UCStmt, indent: int) -> None:
        for set_name in stmt.index_sets:
            isv = self.info.index_sets[set_name]
            lo, hi = min(isv.values), max(isv.values)
            self._emit(
                f"for ({isv.elem_name} = {lo}; {isv.elem_name} <= {hi}; "
                f"{isv.elem_name}++) {{",
                indent,
            )
            indent += 1
        for block in stmt.blocks:
            if block.pred is not None:
                self._emit(f"if ({self._expr_in_domain(block.pred)})", indent)
                self._emit_stmt(block.stmt, indent + 1)
            else:
                self._emit_stmt(block.stmt, indent)
        for _ in stmt.index_sets:
            indent -= 1
            self._emit("}", indent)

    def _construct_domain(self, stmt: ast.UCStmt) -> Optional[CStarDomain]:
        """The domain whose shape matches the construct's product grid."""
        shape = tuple(
            len(self.info.index_sets[name]) for name in stmt.index_sets
            if name in self.info.index_sets
        )
        try:
            return self.out.domain_for_shape(shape)
        except KeyError:
            return None

    # -- expressions -------------------------------------------------------------------

    def _expr_in_domain(self, expr: ast.Expr) -> str:
        """Render an expression with reductions lowered to C* loops."""
        if isinstance(expr, ast.Assign) and isinstance(expr.value, ast.Reduction):
            red = expr.value
            stmt_op = self._RED_STMT_OP.get(red.op)
            if stmt_op and len(red.arms) == 1 and red.arms[0].pred is None and not expr.op:
                # the paper's pattern:  for (k...) target <?= exp;
                loops = []
                for set_name in red.index_sets:
                    isv = self.info.index_sets[set_name]
                    loops.append(
                        f"for ({isv.elem_name} = {min(isv.values)}; "
                        f"{isv.elem_name} <= {max(isv.values)}; {isv.elem_name}++) "
                    )
                return (
                    "".join(loops)
                    + f"{expr_to_text(expr.target)} {stmt_op} "
                    + expr_to_text(red.arms[0].expr)
                )
        return expr_to_text(expr)


def generate_cstar(
    info: ProgramInfo, layouts: Optional[LayoutTable] = None
) -> str:
    """C* source text for a checked UC program (map sections compiled away)."""
    return CStarGenerator(info, layouts).render()

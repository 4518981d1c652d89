"""``lint_program``: the programmatic whole-program analyzer entry.

Accepts UC source text, an already-parsed :class:`~repro.lang.ast.Program`
(what the embedded DSL builds) or a constructed
:class:`~repro.interp.program.UCProgram`, and returns a
:class:`~repro.analysis.diagnostics.LintReport`.  Front-end failures are
not raised — a syntax error becomes UC001 and a semantic error UC002, so
``repro lint`` can report them with the same machinery.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..lang import analyze, ast, parse_program
from ..lang.errors import UCSemanticError, UCSyntaxError
from ..machine.config import CostTable
from ..mapping.maps import build_layouts
from .commlints import analyze_comm
from .determinism import analyze_determinism
from .diagnostics import Diagnostic, LintReport
from .hygiene import analyze_hygiene
from .races import analyze_races
from .solvechecks import analyze_solves
from .staticref import default_costs


def lint_program(
    source: Union[str, ast.Program, "object"],
    *,
    defines: Optional[Dict[str, int]] = None,
    apply_maps: bool = True,
    filename: str = "<program>",
    costs: Optional[CostTable] = None,
) -> LintReport:
    """Run every static pass over one program; never raises on bad input."""
    report = LintReport(file=filename)
    try:
        info, layouts = _front_end(source, defines, apply_maps)
    except UCSyntaxError as exc:
        report.add(
            Diagnostic(
                code="UC001",
                severity="error",
                message=exc.message,
                line=exc.line or 0,
                col=exc.col or 0,
                file=filename,
            )
        )
        return report
    except UCSemanticError as exc:
        report.add(
            Diagnostic(
                code="UC002",
                severity="error",
                message=exc.message,
                line=exc.line or 0,
                col=exc.col or 0,
                file=filename,
            )
        )
        return report

    model, verdicts = build_verdicts(info, layouts)
    table = costs if costs is not None else default_costs()
    report.extend(analyze_races(model, verdicts, filename))
    report.extend(analyze_solves(model, filename))
    report.extend(analyze_comm(model, verdicts, table, filename))
    report.extend(analyze_hygiene(model, filename))
    report.extend(analyze_determinism(model, filename))
    report.sort()
    return report


def build_verdicts(info, layouts):
    """(model, per-reference static verdicts), through a private
    frontend entry — the runtime reads its program's shared one."""
    from ..interp.compile_store import FrontendEntry

    entry = FrontendEntry(info, layouts)
    return entry.model(), entry.verdicts()


def _front_end(source, defines, apply_maps):
    if isinstance(source, ast.Program):
        info = analyze(source, dict(defines or {}))
        return info, build_layouts(info, apply_maps=apply_maps)
    if isinstance(source, str):
        program = parse_program(source)
        info = analyze(program, dict(defines or {}))
        return info, build_layouts(info, apply_maps=apply_maps)
    info = getattr(source, "info", None)
    layouts = getattr(source, "layouts", None)
    if info is None or layouts is None:
        raise TypeError(
            "lint_program expects UC source text, an ast.Program or a UCProgram"
        )
    return info, layouts

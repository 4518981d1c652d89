"""UC2xx: proper-equation checks for ``solve`` (paper §3.6).

The guarded executor (``interp/solve.py``) starts every target element
*undefined* and only fires an assignment for lanes whose right-hand side
touches defined values.  A dependence that can never become defined
therefore deadlocks at run time with "solve cannot make progress".  Two
statically-detectable shapes of that deadlock:

* an assignment whose RHS reads its *own* target element (grid-position
  shift zero) — the lane waits on itself;
* a cycle of assignments whose references chain back to the starting
  array with net shift zero along every grid axis.

Both come from the solve's dependence table
(:func:`repro.compiler.solve_sched.dependence_table`): its references
that block readiness and have a uniform shift are the edges.

Pred-less cycles are errors (every lane of the grid deadlocks);
predicated ones are warnings (a mask may break the cycle, but the
analysis cannot see how).  ``*solve`` iterates to a global fixed point
and never consults readiness, so it is exempt.

UC202 flags an ``others`` arm made unreachable by a constantly-true
``st`` predicate before it, and UC203 flags any ``st`` predicate in a
``solve`` that folds to a compile-time constant — a solve arm's
predicate is meant to carve the equation domain, so a constant one is
almost always a typo (and a constantly-false one deletes the equation).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..compiler.solve_sched import dependence_table
from ..lang import ast
from ..lang.semantics import _ConstEvaluator, solve_assignments
from .context import AnalysisModel, ConstructSite
from .diagnostics import Diagnostic


def analyze_solves(model: AnalysisModel, file: str) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    consts = _ConstEvaluator(model.info.constants)
    for site in model.constructs:
        if site.kind != "solve" or site.stmt.star:
            continue
        _constant_preds(site, consts, file, diags)
        _dependence_cycles(model, site, file, diags)
    _unreachable_others(model, consts, file, diags)
    return diags


def _const_value(consts: _ConstEvaluator, expr: ast.Expr) -> Optional[int]:
    try:
        return consts.eval(expr)
    except Exception:
        return None


def _constant_preds(
    site: ConstructSite, consts: _ConstEvaluator, file: str, diags: List[Diagnostic]
) -> None:
    for block in site.stmt.blocks:
        if block.pred is None:
            continue
        value = _const_value(consts, block.pred)
        if value is None:
            continue
        what = (
            "constantly false — the equation set it guards never fires"
            if value == 0
            else "constantly true — it does not restrict the equation domain"
        )
        diags.append(
            Diagnostic(
                code="UC203",
                severity="warning",
                message=f"'st' predicate in solve is {what}",
                line=block.pred.line,
                col=block.pred.col,
                file=file,
                hint="solve predicates should depend on the index elements",
            )
        )


def _unreachable_others(
    model: AnalysisModel, consts: _ConstEvaluator, file: str, diags: List[Diagnostic]
) -> None:
    for site in model.constructs:
        stmt = site.stmt
        if stmt.others is None:
            continue
        for block in stmt.blocks:
            if block.pred is None:
                continue
            value = _const_value(consts, block.pred)
            if value is not None and value != 0:
                diags.append(
                    Diagnostic(
                        code="UC202",
                        severity="warning",
                        message=(
                            "'others' arm is unreachable: the st predicate at "
                            f"line {block.pred.line} is constantly true"
                        ),
                        line=stmt.others.line,
                        col=stmt.others.col,
                        file=file,
                        hint="remove the others arm or fix the predicate",
                    )
                )
                break


# ---------------------------------------------------------------------------
# dependence cycles
# ---------------------------------------------------------------------------


def _dependence_cycles(
    model: AnalysisModel, site: ConstructSite, file: str, diags: List[Diagnostic]
) -> None:
    assignments = solve_assignments(site.stmt)
    table = dependence_table(assignments, site.axes, model.info.constants)
    # node per assignment; an edge per blocking reference with a uniform
    # shift, to the assignment whose target it reads
    owner = {
        eq.assign.target.base: m for m, eq in enumerate(table) if eq.target is not None
    }
    edges = [
        [(owner[ref.node.base], ref.shift, ref.node) for ref in eq.refs
         if ref.blocks and ref.shift is not None]
        for eq in table
    ]  # fmt: skip

    # DFS for cycles whose per-axis shifts sum to zero
    reported = set()
    n = len(assignments)

    def dfs(start: int, node: int, total: Tuple[int, ...], path: List[int]) -> None:
        for m, shift, ref in edges[node]:
            new_total = tuple(t + d for t, d in zip(total, shift))
            if m == start:
                if not any(new_total):
                    _report_cycle(assignments, path + [node], start, ref, file, diags, reported)
                continue
            if m in path or m == node or len(path) >= n:
                continue
            dfs(start, m, new_total, path + [node])

    for k in range(n):
        dfs(k, k, (0,) * len(site.axes), [])


def _report_cycle(
    assignments,
    path: List[int],
    start: int,
    ref: ast.Index,
    file: str,
    diags: List[Diagnostic],
    reported: set,
) -> None:
    nodes = frozenset(path)  # the path starts at ``start``
    if (nodes, start) in reported:
        return
    reported.add((nodes, start))
    guarded = any(assignments[k][0] is not None for k in nodes)
    # every assignment on a cycle has an identity target (its edge's end)
    bases = sorted({assignments[k][1].target.base for k in nodes})
    assign = assignments[start][1]
    if len(nodes) == 1:
        message = (
            f"solve equation for {bases[0]!r} depends on its own element "
            f"(reference at line {ref.line} has net offset zero): the "
            "lane can never become ready"
        )
    else:
        message = (
            "solve equations form a dependence cycle with net offset zero "
            f"({' -> '.join(bases)}): no lane on the cycle can become ready"
        )
    diags.append(
        Diagnostic(
            code="UC201",
            severity="warning" if guarded else "error",
            message=message,
            line=assign.target.line,
            col=assign.target.col,
            file=file,
            hint=(
                "a proper system must let every element be computed from "
                "already-defined ones — shift the reference (e.g. a[i-1]) or "
                "add a base-case st arm (paper §3.6)"
            ),
        )
    )

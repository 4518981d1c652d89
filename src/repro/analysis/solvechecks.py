"""UC2xx: proper-equation checks for ``solve`` (paper §3.6).

The guarded executor (``interp/solve.py``) starts every target element
*undefined* and only fires an assignment for lanes whose right-hand side
touches defined values.  A dependence that can never become defined
therefore deadlocks at run time with "solve cannot make progress".  Two
statically-detectable shapes of that deadlock:

* an assignment whose RHS reads its *own* target element (identical
  realised subscripts, net offset zero) — the lane waits on itself;
* a cycle of assignments whose identity-structured references chain back
  to the starting array with net offset zero along every axis.

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

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.semantics import _ConstEvaluator, solve_assignments
from .context import AnalysisModel, ConstructSite
from .diagnostics import Diagnostic
from .staticref import A, C, SubVal, realize_subscript


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


def _identity_offsets(
    subvals: Sequence[SubVal]
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """((grid axis, offset), ...) when every subscript is ``elem + const``
    with exactly-known values forming an arithmetic identity, else None."""
    out: List[Tuple[int, int]] = []
    for v in subvals:
        if v.kind == C:
            continue  # constant rows pin one array axis; no grid dependence
        if v.kind != A or not v.exact or v.vals.size == 0:
            return None
        base = int(v.vals[0])
        if any(int(v.vals[k]) != base + k for k in range(v.vals.size)):
            return None
        out.append((v.g, base))
    return tuple(out)


def _refs_outside_escapes(expr: ast.Expr) -> List[ast.Index]:
    """Array references whose readiness unconditionally blocks the
    assignment: everything except ternary branches (the readiness formula
    discards the untaken side)."""
    out: List[ast.Index] = []

    def go(e: ast.Expr) -> None:
        if isinstance(e, ast.Index):
            out.append(e)
            for s in e.subs:
                go(s)
        elif isinstance(e, ast.Unary):
            go(e.operand)
        elif isinstance(e, ast.Binary):
            go(e.left)
            go(e.right)
        elif isinstance(e, ast.Ternary):
            go(e.cond)
        elif isinstance(e, ast.Call):
            for a in e.args:
                go(a)
        elif isinstance(e, ast.Assign):
            go(e.value)
        # reductions extend the grid: their references cover whole slices,
        # which the offset model here cannot describe — skip them

    go(expr)
    return out


def _dependence_cycles(
    model: AnalysisModel, site: ConstructSite, file: str, diags: List[Diagnostic]
) -> None:
    assignments = solve_assignments(site.stmt)
    if not assignments:
        return
    # node per assignment; edges carry per-axis offset deltas (RHS ref
    # offset minus target offset on the same grid axis)
    targets: List[Optional[Tuple[str, Dict[int, int]]]] = []
    for _pred, assign in assignments:
        t = assign.target
        if not isinstance(t, ast.Index):
            targets.append(None)
            continue
        subvals = [realize_subscript(s, site, model) for s in t.subs]
        offs = _identity_offsets(subvals)
        targets.append((t.base, dict(offs)) if offs is not None else None)

    edges: List[List[Tuple[int, Dict[int, int], ast.Index]]] = [
        [] for _ in assignments
    ]
    for k, (_pred, assign) in enumerate(assignments):
        if targets[k] is None:
            continue
        for ref in _refs_outside_escapes(assign.value):
            for m, tgt in enumerate(targets):
                if tgt is None or tgt[0] != ref.base:
                    continue
                subvals = [realize_subscript(s, site, model) for s in ref.subs]
                offs = _identity_offsets(subvals)
                if offs is None:
                    continue
                delta: Dict[int, int] = {}
                for g in set(dict(offs)) | set(tgt[1]):
                    delta[g] = dict(offs).get(g, 0) - tgt[1].get(g, 0)
                edges[k].append((m, delta, ref))

    # DFS for cycles whose per-axis offsets sum to zero
    reported = set()
    n = len(assignments)

    def dfs(start: int, node: int, total: Dict[int, int], path: List[int]) -> None:
        for m, delta, ref in edges[node]:
            new_total = dict(total)
            for g, d in delta.items():
                new_total[g] = new_total.get(g, 0) + d
            if m == start:
                if all(d == 0 for d in new_total.values()):
                    _report_cycle(
                        assignments, path + [node], start, ref, site, file, diags, reported
                    )
                continue
            if m in path or m == node or len(path) >= n:
                continue
            dfs(start, m, new_total, path + [node])

    for k in range(n):
        dfs(k, k, {}, [])


def _report_cycle(
    assignments,
    path: List[int],
    start: int,
    ref: ast.Index,
    site: ConstructSite,
    file: str,
    diags: List[Diagnostic],
    reported: set,
) -> None:
    key = (tuple(sorted(set(path))), start)
    if key in reported:
        return
    reported.add(key)
    preds = [assignments[k][0] for k in set(path) | {start}]
    guarded = any(p is not None for p in preds)
    bases = sorted({
        assignments[k][1].target.base  # type: ignore[union-attr]
        for k in set(path) | {start}
        if isinstance(assignments[k][1].target, ast.Index)
    })
    assign = assignments[start][1]
    if len(bases) == 1 and len(set(path)) <= 1:
        message = (
            f"solve equation for {bases[0]!r} depends on its own element "
            f"(reference at line {ref.line} has net offset zero): the "
            "lane can never become ready"
        )
    else:
        message = (
            "solve equations form a dependence cycle with net offset zero "
            f"({' -> '.join(bases) or 'scalar targets'}): no lane on the "
            "cycle can become ready"
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

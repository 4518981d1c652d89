"""Processor optimizations: virtual-processor count deduction (paper §4).

The paper's example:

    par (J)
        count[j] = $+(I st (samples[i]==j) 1);

A simplistic implementation uses ``|J| * |I|`` virtual processors (one
reduction grid per j).  But the predicate equates an expression over the
*reduction* elements with the *par* element, so each operand contributes
to exactly one result — the whole thing runs with ``max(|I|, |J|)``
processors as a single send-with-add through the router.

:func:`partition_split` is the one verdict on that pattern.  The static
report (:func:`analyze_program` over the analysis model's reduction
sites: ``repro analyze`` and Table P) reads it, and the interpreter's static gate
(:func:`repro.interp.sendreduce.send_reduce_split`, which the oracle and
the fusion pass both call) takes the router path exactly where it holds.
Whether a run *takes* that path also depends on the machine: the runtime
keeps the product grid while it needs no more VPs per PE than the operand
grid would (:func:`repro.interp.sendreduce.shrinks`), a test this module
cannot make because it does not know the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..lang import ast
from ..lang.tokens import REDUCTION_OPS

#: the reductions a combining router send can deliver: all but ``$,``
COMBINING_OPS = frozenset(REDUCTION_OPS.values()) - {"arbitrary"}


@dataclass(frozen=True)
class ReductionPlan:
    """VP requirements for one reduction inside a parallel statement."""

    op: str
    par_sets: Tuple[str, ...]
    red_sets: Tuple[str, ...]
    naive_vps: int
    optimized_vps: int
    partitioned: bool
    line: int = 0

    @property
    def saving(self) -> float:
        return self.naive_vps / max(1, self.optimized_vps)


def _free_names(expr: ast.Expr) -> Set[str]:
    """The plain identifiers ``expr`` mentions (array bases excluded)."""
    return {node.ident for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _conjuncts(expr: ast.Expr):
    """The clauses of an ``&&`` chain, left to right."""
    if isinstance(expr, ast.Binary) and expr.op == "&&":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def partition_split(
    red: ast.Reduction, par_elems: Sequence[str], red_elems: Sequence[str]
) -> Optional[Tuple[ast.Expr, str, List[ast.Expr]]]:
    """``(address_expr, par_elem, other_clauses)`` when ``red`` partitions
    its operands across the results of a one-axis parallel context whose
    element is the one of ``par_elems`` not rebound by ``red_elems``;
    None otherwise.

    The pattern: a combining op, one predicated arm and no ``others``;
    exactly one conjunct of the form ``f(reduction elements) == par_elem``
    (either way round, ``f`` free of the par element), every other
    conjunct and the contribution itself free of the par element — then
    each operand is counted toward at most one result.
    """
    if (
        red.op not in COMBINING_OPS
        or red.others is not None
        or len(red.arms) != 1
        or red.arms[0].pred is None
        or len(par_elems) != 1
    ):
        return None
    red_set = set(red_elems)
    parent = set(par_elems) - red_set
    if not parent:
        return None
    arm = red.arms[0]
    address: Optional[Tuple[ast.Expr, str]] = None
    rest: List[ast.Expr] = []
    for clause in _conjuncts(arm.pred):
        matched = False
        if isinstance(clause, ast.Binary) and clause.op == "==" and address is None:
            for a, b in ((clause.left, clause.right), (clause.right, clause.left)):
                names = _free_names(a)
                if (
                    isinstance(b, ast.Name)
                    and b.ident in parent
                    and names & red_set
                    and not names & parent
                ):
                    address, matched = (a, b.ident), True
                    break
        if not matched:
            if _free_names(clause) & parent:
                return None
            rest.append(clause)
    if address is None or _free_names(arm.expr) & parent:
        return None
    return address[0], address[1], rest


def analyze_program(model) -> List[ReductionPlan]:
    """VP-count plans for every reduction nested inside a parallel
    construct, read off the :class:`~repro.analysis.context.AnalysisModel`'s
    reduction sites (the construct's axes are the par grid, the site's
    own axes the reduction grid)."""
    plans: List[ReductionPlan] = []
    for site in model.reductions:
        if site.construct is None:
            continue  # host-level reduction: nothing to deduce
        par_axes, red_axes = site.construct.axes, site.reduce_axes
        par_extent = math.prod(a.extent for a in par_axes)
        red_extent = math.prod(a.extent for a in red_axes)
        red = site.node
        partitioned = (
            partition_split(
                red, [a.elem for a in par_axes], [a.elem for a in red_axes]
            )
            is not None
        )
        naive = par_extent * red_extent
        plans.append(
            ReductionPlan(
                op=red.op,
                par_sets=tuple(a.set_name for a in par_axes),
                red_sets=tuple(a.set_name for a in red_axes),
                naive_vps=naive,
                optimized_vps=max(par_extent, red_extent) if partitioned else naive,
                partitioned=partitioned,
                line=red.line,
            )
        )
    return plans

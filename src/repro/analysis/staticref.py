"""Static subscript realisation: the lint-time twin of the runtime classifier.

Every array reference the walker records is re-evaluated *symbolically*
over the grid that surrounds it: a subscript expression either reduces
to a compile-time constant, to a vector of values along exactly one grid
axis (the element's realised values pushed through the arithmetic, with
the engines' C semantics, :func:`repro.lang.operators.apply_binop`), to a
grid-uniform value the analysis cannot pin down (a ``seq`` element or a
host scalar), or to "data-dependent" (array contents, calls, several
elements at once).

Fully-known realisations feed :func:`repro.mapping.locality.classify_affine`
— the *same* routine both engines use — so the static verdict is
bit-identical to what the runtime classifier will compute, and
:func:`repro.interp.commtiers.decide_tier` turns it into the same tier.
Those exact verdicts are the ones the runtime sanitizer is allowed to
hold the engines to; inexact ones only produce advisory lints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..interp.commtiers import decide_tier
from ..lang import ast
from ..lang.errors import UCError
from ..lang.operators import apply_binop
from ..machine.config import CostTable, MachineConfig
from ..mapping.layout import Layout
from ..mapping.locality import RefClass, classify_affine, classify_write_affine
from .context import AnalysisModel, RefSite

#: subscript value kinds: constant / single-axis vector / uniform-unknown /
#: data-dependent
C, A, U, D = "c", "a", "u", "d"


@dataclass(frozen=True)
class SubVal:
    """Statically realised value of one subscript expression."""

    kind: str  # 'c' | 'a' | 'u' | 'd'
    value: int = 0  # kind 'c'
    g: int = -1  # kind 'a': grid axis the value varies along
    vals: Optional[np.ndarray] = None  # kind 'a': value at each coordinate
    #: False when a placeholder stood in for an unknown uniform term —
    #: the *structure* is right but the numbers are not trustworthy
    exact: bool = True

    def bounds(self) -> Optional[Tuple[int, int]]:
        """(min, max) of the realised values, when exactly known."""
        if not self.exact:
            return None
        if self.kind == C:
            return (self.value, self.value)
        if self.kind == A:
            return (int(self.vals.min()), int(self.vals.max()))
        return None


_DATA = SubVal(D, exact=False)


def _combine(op: str, left: SubVal, right: SubVal, node: ast.Node) -> SubVal:
    if left.kind == D or right.kind == D:
        return _DATA
    if left.kind == A and right.kind == A and left.g != right.g:
        return _DATA  # varies along two grid axes: no single-axis structure
    exact = left.exact and right.exact
    try:
        if left.kind == A or right.kind == A:
            g = left.g if left.kind == A else right.g
            lv = left.vals if left.kind == A else np.int64(left.value)
            rv = right.vals if right.kind == A else np.int64(right.value)
            out = np.asarray(apply_binop(op, lv, rv, node), dtype=np.int64)
            return SubVal(A, g=g, vals=out, exact=exact)
        if left.kind == C and right.kind == C:
            out = int(apply_binop(op, left.value, right.value, node))
            return SubVal(C, value=out, exact=exact)
    except (UCError, TypeError, ValueError, OverflowError):
        return _DATA
    # at least one grid-uniform unknown: still uniform, value untrusted
    return SubVal(U, exact=False)


def realize_subscript(expr: ast.Expr, ref: RefSite, model: AnalysisModel) -> SubVal:
    """Reduce one subscript expression to a :class:`SubVal`."""
    if isinstance(expr, ast.IntLit):
        return SubVal(C, value=int(expr.value))
    if isinstance(expr, ast.Name):
        name = expr.ident
        g = ref.bind.get(name)
        if g is not None:
            vals = np.asarray(ref.axes[g].values, dtype=np.int64)
            return SubVal(A, g=g, vals=vals)
        if name in ref.scalars:
            return SubVal(U, exact=False)  # seq element: uniform per sweep
        if name in model.info.constants:
            return SubVal(C, value=int(model.info.constants[name]))
        if name in model.info.scalars or name in model.host_scalars:
            return SubVal(U, exact=False)  # front-end scalar: grid-uniform
        return _DATA  # parallel local / unknown: per-VP data
    if isinstance(expr, ast.Unary):
        v = realize_subscript(expr.operand, ref, model)
        if v.kind == D:
            return _DATA
        zero = SubVal(C, value=0)
        if expr.op == "-":
            return _combine("-", zero, v, expr)
        if expr.op == "+":
            return v
        if expr.op == "!":
            return _combine("==", v, zero, expr)
        if expr.op == "~":
            return _combine("-", _combine("-", zero, v, expr), SubVal(C, value=1), expr)
        return _DATA
    if isinstance(expr, ast.Binary):
        left = realize_subscript(expr.left, ref, model)
        right = realize_subscript(expr.right, ref, model)
        return _combine(expr.op, left, right, expr)
    if isinstance(expr, ast.Ternary):
        cond = realize_subscript(expr.cond, ref, model)
        if cond.kind == C and cond.exact:
            branch = expr.then if cond.value else expr.els
            return realize_subscript(branch, ref, model)
        return _DATA
    # Index / Call / Reduction / InfLit / FloatLit / ...: data-dependent
    return _DATA


def realize_site(ref: RefSite, model: AnalysisModel) -> List[SubVal]:
    return [realize_subscript(sub, ref, model) for sub in ref.node.subs]


@dataclass
class SiteVerdict:
    """Static classification of one reference site."""

    ref: RefSite
    subvals: List[SubVal]
    rc: Optional[RefClass]  # read-side verdict (None: rank mismatch)
    rc_write: Optional[RefClass]  # write-side verdict, when the site writes
    #: True when every subscript realisation is numerically trustworthy —
    #: only then does the verdict equal the runtime classifier's verdict
    exact: bool
    #: (subscript position, offending value, extent) for a proven
    #: out-of-range subscript, else None
    oob: Optional[Tuple[int, int, int]] = None
    #: verdict on the reduction axes alone, for operands the processor
    #: optimization (§4) may evaluate on the operand grid (None otherwise)
    rc_operand: Optional[RefClass] = None

    def tier(self, costs: CostTable, *, write: bool) -> Optional[str]:
        rc = self.rc_write if write else self.rc
        if rc is None:
            return None
        return decide_tier(rc, costs, write=write)


def classify_site(ref: RefSite, model: AnalysisModel) -> SiteVerdict:
    """Run the shared affine classifier on one statically realised site."""
    subvals = realize_site(ref, model)
    dims = model.array_dims(ref.node.base)
    layout = (
        model.layouts.get(ref.node.base)
        if ref.node.base in model.layouts
        else Layout(ref.node.base, dims or ())
    )
    if dims is None or len(subvals) != len(dims):
        return SiteVerdict(ref, subvals, None, None, exact=False)

    exact = all(v.exact for v in subvals)
    descs: Optional[List[Tuple]] = []
    for v in subvals:
        if v.kind == C:
            descs.append(("u", v.value))
        elif v.kind == U:
            descs.append(("u", 0))  # placeholder: uniform structure only
        elif v.kind == A:
            descs.append(("a", v.g, v.vals))
        else:
            descs = None
            break

    grid_shape = tuple(a.extent for a in ref.axes)
    axis_elems = [a.elem for a in ref.axes]
    if descs is None:
        rc = RefClass("router", detail="data-dependent subscript", axes=None)
        rc_w = RefClass("router", detail="write: data-dependent subscript", axes=None)
        return SiteVerdict(ref, subvals, rc, rc_w if ref.write else None, exact=False)

    rc = classify_affine(descs, grid_shape, axis_elems, layout)
    rc_w = (
        classify_write_affine(descs, grid_shape, axis_elems, layout)
        if ref.write
        else None
    )

    oob = None
    for a, v in enumerate(subvals):
        b = v.bounds()
        if b is None:
            continue
        lo, hi = b
        if lo < 0:
            oob = (a, lo, dims[a])
            break
        if hi >= dims[a]:
            oob = (a, hi, dims[a])
            break

    rc_operand = None
    base = ref.red_base
    if base is not None and all(v.kind != A or v.g >= base for v in subvals):
        op_descs = [
            ("a", d[1] - base, d[2]) if d[0] == "a" else d for d in descs
        ]
        rc_operand = classify_affine(
            op_descs, grid_shape[base:], axis_elems[base:], layout
        )
    return SiteVerdict(
        ref, subvals, rc, rc_w, exact=exact, oob=oob, rc_operand=rc_operand
    )


def default_costs() -> CostTable:
    return MachineConfig().costs

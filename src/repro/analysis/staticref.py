"""Static subscript realisation: the lint-time twin of the runtime classifier.

Every array reference the walker records is read by
:func:`repro.mapping.maps.read_subscript` — the one subscript reader the
solve scheduler, the frontier engine and the map builders use too — over
the grid that surrounds it: a subscript expression either reduces to a
compile-time constant, to a vector of values along exactly one grid axis
(the element's realised values pushed through the arithmetic, with the
engines' C semantics), to a grid-uniform value the analysis cannot pin
down (a ``seq`` element or a host scalar), or to "data-dependent" (array
contents, calls, several elements at once).

Its descriptors go to :func:`repro.mapping.locality.classify_affine` —
the *same* routine both engines use — so the static verdict is
bit-identical to what the runtime classifier will compute, and
:func:`repro.interp.commtiers.decide_tier` turns it into the same tier.
Those exact verdicts are the ones the runtime sanitizer is allowed to
hold the engines to; inexact ones only produce advisory lints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..interp.commtiers import decide_tier
from ..lang import ast
from ..machine.config import CostTable, MachineConfig
from ..mapping.layout import Layout
from ..mapping.locality import RefClass, classify_affine, classify_write_affine
from ..mapping.maps import Subscript, read_subscript
from .context import AnalysisModel, AssignSite, RefSite


def read_at(expr: ast.Expr, site: Union[RefSite, AssignSite], model: AnalysisModel) -> Subscript:
    """Read ``expr`` with the bindings in force at ``site``."""
    axes = {e: (g, np.asarray(site.axes[g].values, dtype=np.int64)) for e, g in site.bind.items()}
    uniform = site.scalars.keys() | model.info.scalars.keys() | model.host_scalars
    return read_subscript(expr, axes, model.info.constants, uniform)


@dataclass
class SiteVerdict:
    """Static classification of one reference site."""

    ref: RefSite
    subs: List[Subscript]
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
    subs = [read_at(sub, ref, model) for sub in ref.node.subs]
    dims = model.array_dims(ref.node.base)
    layout = (
        model.layouts.get(ref.node.base)
        if ref.node.base in model.layouts
        else Layout(ref.node.base, dims or ())
    )
    if dims is None or len(subs) != len(dims):
        return SiteVerdict(ref, subs, None, None, exact=False)

    grid_shape = tuple(a.extent for a in ref.axes)
    axis_elems = [a.elem for a in ref.axes]
    descs = [s.desc for s in subs]
    if None in descs:
        rc = RefClass("router", detail="data-dependent subscript", axes=None)
        rc_w = RefClass("router", detail="write: data-dependent subscript", axes=None)
        return SiteVerdict(ref, subs, rc, rc_w if ref.write else None, exact=False)

    rc = classify_affine(descs, grid_shape, axis_elems, layout)
    rc_w = (
        classify_write_affine(descs, grid_shape, axis_elems, layout)
        if ref.write
        else None
    )

    oob = None
    for a, s in enumerate(subs):
        if not s.exact:
            continue
        vals = np.asarray(s.desc[1] if s.axis is None else s.desc[2])
        lo, hi = int(vals.min()), int(vals.max())
        if lo < 0:
            oob = (a, lo, dims[a])
            break
        if hi >= dims[a]:
            oob = (a, hi, dims[a])
            break

    rc_operand = None
    base = ref.red_base
    if base is not None and all(s.axis is None or s.axis >= base for s in subs):
        op_descs = [
            ("a", d[1] - base, d[2]) if d[0] == "a" else d for d in descs
        ]
        rc_operand = classify_affine(
            op_descs, grid_shape[base:], axis_elems[base:], layout
        )
    return SiteVerdict(
        ref, subs, rc, rc_w, exact=all(s.exact for s in subs), oob=oob, rc_operand=rc_operand
    )


def default_costs() -> CostTable:
    return MachineConfig().costs

"""UC1xx: par write-write races and provably bad subscripts.

The single-assignment rule (paper §3.4) says a ``par`` may write one
element twice only with identical values.  The runtime enforces it per
scatter; this pass proves it — or its violation — ahead of time.

Because every statically-realised subscript varies along at most one
grid axis (see :mod:`.staticref`), the map *grid coordinate → written
element* factorises per axis, so injectivity decomposes axis by axis:

* an axis some subscript covers injectively (distinct realised values)
  cannot collide;
* an axis of extent > 1 that no subscript varies along collapses all its
  lanes onto one element — a structural collision;
* an axis covered non-injectively collides exactly on the duplicate
  values.

A collision only violates §3.4 when the colliding lanes carry *distinct*
values, so the right-hand side is pushed through the same realisation:
uniform along the colliding axes → benign (the write is redundant, not
racy); provably distinct → UC101; not provable either way → UC102.
Distinct unguarded statements writing overlapping elements of the same
array are UC103, and a subscript that is provably out of range (which
the runtime would reject on its bounds check) is UC104.

The per-site injectivity verdicts double as the static claims the
runtime sanitizer holds both engines to: a site this pass proves
``injective`` must never produce a duplicate flat index at run time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lang import ast
from ..mapping.maps import Subscript
from .context import AnalysisModel, AssignSite, Axis, ConstructSite
from .diagnostics import Diagnostic
from .staticref import SiteVerdict, read_at

#: grids larger than this are not enumerated for cross-statement overlap
_ENUM_LIMIT = 1 << 16


def analyze_races(
    model: AnalysisModel, verdicts: Sequence[SiteVerdict], file: str
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    _check_bounds(verdicts, file, diags)
    for site in model.constructs:
        if site.kind != "par":
            # solve writes each element once under its readiness masks and
            # oneof runs a single arm; §3.4 races are a par property
            continue
        _check_construct(model, site, verdicts, file, diags)
    return diags


def write_claims(verdicts: Sequence[SiteVerdict]) -> Dict[Tuple[int, int, str], str]:
    """Sanitizer claims: (line, col, base) -> 'injective' | 'collision' |
    'unknown'.  Only positions that identify a unique source node claim
    anything; a proven-injective site must never scatter a duplicate."""
    claims: Dict[Tuple[int, int, str], str] = {}
    nodes: Dict[Tuple[int, int, str], set] = {}
    for v in verdicts:
        if not v.ref.write or v.ref.node.line <= 0:
            continue
        key = (v.ref.node.line, v.ref.node.col, v.ref.node.base)
        verdict, _axes = injectivity(v.subs, v.ref.axes)
        nodes.setdefault(key, set()).add(id(v.ref.node))
        prev = claims.get(key)
        if prev is None:
            claims[key] = verdict
        elif prev != verdict:
            claims[key] = "unknown"
    return {
        key: verdict
        for key, verdict in claims.items()
        if len(nodes[key]) == 1
    }


# ---------------------------------------------------------------------------
# injectivity
# ---------------------------------------------------------------------------


def injectivity(
    subs: Sequence[Subscript], axes: Sequence[Axis]
) -> Tuple[str, List[int]]:
    """('injective' | 'collision' | 'unknown', colliding grid axes)."""
    has_data = any(s.desc is None for s in subs)
    colliding: List[int] = []
    unknown = False
    for g, axis in enumerate(axes):
        if axis.extent <= 1:
            continue
        varying = [s for s in subs if s.axis == g]
        exact = [s.desc[2] for s in varying if s.exact]
        # one exactly-known injective component makes the whole tuple
        # injective along this axis
        if any(np.unique(vals).size == vals.size for vals in exact):
            continue
        if len(exact) > 1:
            stacked = np.stack(exact)
            if np.unique(stacked, axis=1).shape[1] == stacked.shape[1]:
                continue
        if has_data or len(exact) != len(varying):
            # a data-dependent or value-unknown subscript may still
            # separate the lanes — no verdict either way
            unknown = True
            continue
        colliding.append(g)
    if colliding:
        return "collision", colliding
    if unknown:
        return "unknown", []
    return "injective", []


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _check_bounds(
    verdicts: Sequence[SiteVerdict], file: str, diags: List[Diagnostic]
) -> None:
    seen = set()
    for v in verdicts:
        if v.oob is None:
            continue
        node = v.ref.node
        key = (node.line, node.col, node.base, v.oob)
        if key in seen:
            continue
        seen.add(key)
        a, value, extent = v.oob
        diags.append(
            Diagnostic(
                code="UC104",
                severity="error" if not v.ref.guarded else "warning",
                message=(
                    f"subscript {a} of {node.base!r} out of range "
                    f"(value {value}, extent {extent})"
                ),
                line=node.line,
                col=node.col,
                file=file,
                hint=(
                    "every active lane must index inside the array; shrink "
                    "the index set or guard the statement with an st predicate"
                ),
            )
        )


def _check_construct(
    model: AnalysisModel,
    site: ConstructSite,
    verdicts: Sequence[SiteVerdict],
    file: str,
    diags: List[Diagnostic],
) -> None:
    by_node = {id(v.ref.node): v for v in verdicts if v.ref.write}
    enumerable: List[Tuple[AssignSite, SiteVerdict]] = []
    for asn in site.assigns:
        target = asn.assign.target
        if isinstance(target, ast.Name):
            _check_scalar_target(model, asn, target, file, diags)
            continue
        if not isinstance(target, ast.Index):
            continue
        v = by_node.get(id(target))
        if v is None:
            continue
        _check_self_collision(model, asn, v, file, diags)
        if not asn.guarded and all(s.exact for s in v.subs):
            enumerable.append((asn, v))
    _check_cross_statement(model, enumerable, file, diags)


def _check_self_collision(
    model: AnalysisModel,
    asn: AssignSite,
    v: SiteVerdict,
    file: str,
    diags: List[Diagnostic],
) -> None:
    target = asn.assign.target
    verdict, colliding = injectivity(v.subs, asn.axes)
    if verdict == "injective":
        return
    if verdict == "unknown":
        diags.append(
            Diagnostic(
                code="UC102",
                severity="warning" if not asn.guarded else "info",
                message=(
                    f"cannot prove single assignment for write to "
                    f"{target.base!r} (subscripts are not statically "
                    "analysable)"
                ),
                line=target.line,
                col=target.col,
                file=file,
                hint=(
                    "the runtime enforces the rule per scatter; if collisions "
                    "are intended, make the non-determinism explicit with the "
                    "$, operator (paper §3.4)"
                ),
            )
        )
        return
    # structural collision: decide whether the colliding lanes agree
    rhs = read_at(asn.assign.value, asn, model)
    worst = "benign"
    for g in colliding:
        worst = _max_verdict(worst, _rhs_verdict(rhs, g, v.subs))
        if worst == "definite":
            break
    if worst == "benign":
        return
    elems = ", ".join(repr(asn.axes[g].elem) for g in colliding)
    lanes = " x ".join(str(asn.axes[g].extent) for g in colliding)
    if worst == "definite":
        diags.append(
            Diagnostic(
                code="UC101",
                severity="error" if not asn.guarded else "warning",
                message=(
                    f"par assigns multiple distinct values to {target.base!r}: "
                    f"grid axis {elems} ({lanes} lanes) collapses onto one "
                    "element while the value varies along it"
                ),
                line=target.line,
                col=target.col,
                file=file,
                hint=(
                    f"subscript {target.base!r} with {elems}, or make the "
                    "non-determinism explicit with the $, operator (paper §3.4)"
                ),
            )
        )
        return
    diags.append(
        Diagnostic(
            code="UC102",
            severity="warning" if not asn.guarded else "info",
            message=(
                f"possible write-write race on {target.base!r}: lanes along "
                f"{elems} write the same element and the value cannot be "
                "proven equal"
            ),
            line=target.line,
            col=target.col,
            file=file,
            hint=f"subscript {target.base!r} with {elems} if each lane owns one element",
        )
    )


def _rhs_verdict(rhs: Subscript, g: int, target_subs: Sequence[Subscript]) -> str:
    """Do colliding lanes along axis ``g`` carry equal values?"""
    if rhs.desc is None:
        return "possible"
    if rhs.axis != g:
        # grid-uniform (even when the value is unknown), or constant
        # along the colliding axis
        return "benign"
    if not rhs.exact:
        return "possible"
    # duplicate-collision axis: lanes with equal target values must
    # carry equal RHS values; a fully-collapsed axis has one group
    groups: Dict[Tuple, List[int]] = {}
    cols = [s.desc[2] for s in target_subs if s.axis == g and s.exact]
    rhs_vals = rhs.desc[2]
    for k in range(len(rhs_vals)):
        key = tuple(int(vals[k]) for vals in cols)
        groups.setdefault(key, []).append(k)
    for members in groups.values():
        if len({int(rhs_vals[k]) for k in members}) > 1:
            return "definite"
    return "benign"


def _max_verdict(a: str, b: str) -> str:
    order = {"benign": 0, "possible": 1, "definite": 2}
    return a if order[a] >= order[b] else b


def _check_scalar_target(
    model: AnalysisModel,
    asn: AssignSite,
    target: ast.Name,
    file: str,
    diags: List[Diagnostic],
) -> None:
    name = target.ident
    if name not in model.info.scalars and name not in model.host_scalars:
        return  # element bindings / parallel locals have their own rules
    rhs = read_at(asn.assign.value, asn, model)
    if rhs.desc is not None and rhs.axis is None:
        return
    if rhs.axis is not None and rhs.exact and np.unique(rhs.desc[2]).size > 1:
        diags.append(
            Diagnostic(
                code="UC101",
                severity="error" if not asn.guarded else "warning",
                message=(
                    f"par assigns multiple distinct values to scalar {name!r} "
                    f"(the value varies along {asn.axes[rhs.axis].elem!r})"
                ),
                line=target.line,
                col=target.col,
                file=file,
                hint=(
                    "reduce the grid value first ($+, $min, ...) or make the "
                    "choice explicit with the $, operator"
                ),
            )
        )
        return
    if rhs.axis is not None and rhs.exact:
        return  # varies along an axis but with a single realised value
    diags.append(
        Diagnostic(
            code="UC102",
            severity="warning" if not asn.guarded else "info",
            message=(
                f"possible multiple assignment to scalar {name!r}: all "
                "enabled lanes must agree on the value at run time"
            ),
            line=target.line,
            col=target.col,
            file=file,
            hint="reduce the grid value first ($+, $min, ...)",
        )
    )


def _check_cross_statement(
    model: AnalysisModel,
    enumerable: List[Tuple[AssignSite, SiteVerdict]],
    file: str,
    diags: List[Diagnostic],
) -> None:
    """UC103: distinct unguarded statements whose write sets overlap."""
    sets: List[Tuple[AssignSite, SiteVerdict, Optional[frozenset]]] = []
    for asn, v in enumerable:
        sets.append((asn, v, _element_set(asn, v)))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a_asn, a_v, a_set = sets[i]
            b_asn, b_v, b_set = sets[j]
            a_t, b_t = a_asn.assign.target, b_asn.assign.target
            if a_t.base != b_t.base or a_t is b_t:
                continue
            if a_set is None or b_set is None or not (a_set & b_set):
                continue
            if _same_constant_rhs(model, a_asn, b_asn):
                continue
            diags.append(
                Diagnostic(
                    code="UC103",
                    severity="warning",
                    message=(
                        f"writes to {b_t.base!r} overlap with the assignment "
                        f"at line {a_t.line} on {len(a_set & b_set)} "
                        "element(s)"
                    ),
                    line=b_t.line,
                    col=b_t.col,
                    file=file,
                    hint=(
                        "guard the two statements with disjoint st "
                        "predicates, or merge them into one assignment"
                    ),
                )
            )


def _element_set(asn: AssignSite, v: SiteVerdict) -> Optional[frozenset]:
    """All element tuples the write touches, or None when unenumerable."""
    shape = tuple(a.extent for a in asn.axes)
    size = int(np.prod(shape)) if shape else 0
    if not size or size > _ENUM_LIMIT:
        return None
    cols = []
    for sub in v.subs:
        if not sub.exact:
            return None
        if sub.axis is None:
            cols.append(np.full(size, sub.desc[1], dtype=np.int64))
        else:
            view = [1] * len(shape)
            view[sub.axis] = shape[sub.axis]
            cols.append(
                np.broadcast_to(sub.desc[2].reshape(view), shape).reshape(-1)
            )
    if not cols:
        return None
    return frozenset(zip(*(c.tolist() for c in cols)))


def _same_constant_rhs(
    model: AnalysisModel, a: AssignSite, b: AssignSite
) -> bool:
    if a.assign.op or b.assign.op:
        return False
    ra = read_at(a.assign.value, a, model)
    rb = read_at(b.assign.value, b, model)
    return ra.exact and rb.exact and ra.axis is None and ra.desc == rb.desc

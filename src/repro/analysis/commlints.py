"""UC3xx: predicted communication tiers and the maps that improve them.

Every statically-classified reference is pushed through the *same*
:func:`repro.interp.commtiers.decide_tier` the engines use, so the lint
names the tier the machine will actually charge:

* ``router`` traffic is a warning (UC301) — with a concrete map
  suggestion when the pattern is a transpose or a constant shift;
* ``spread`` (UC302), ``news`` (UC303) and ``broadcast`` (UC304) are
  informational: cheap, but each has a map that makes it cheaper;
* UC305 (info) flags references the placement model proves cross the
  shard boundary under the program's *own* map section — the same
  :meth:`~repro.mapping.placement.Placement.split` the runtime sink
  charges from, evaluated at the partition axis the same search the
  runtime uses would pick — with a fix-it naming the fold / permute /
  copy map that would localize the traffic.

References already demoted to ``local`` — or promoted to the
precomputed ``permute`` tier by an active map — produce no UC301-304
diagnostic.

:func:`site_advice` is the one place a verdict becomes a tier, a note
and a map hint: UC301-304 and ``repro analyze``'s per-reference report
(:func:`reference_rows`) both read it, so they propose the same maps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..lang import ast
from ..lang.ast import expr_to_text
from ..machine.config import CostTable
from .context import AnalysisModel
from .diagnostics import Diagnostic
from .staticref import A, SiteVerdict


#: shard count the UC305 cross-shard lint models.  Any K > 1 proves the
#: same set of references cross (the affine owner map only rescales the
#: band widths); 4 matches the benchmark partition, so the lint's
#: elements-per-sweep figures line up with ``repro run --shards 4``.
LINT_SHARDS = 4


def analyze_comm(
    model: AnalysisModel,
    verdicts: Sequence[SiteVerdict],
    costs: CostTable,
    file: str,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    seen: Set[Tuple[int, int, str, str, bool]] = set()
    for v in verdicts:
        for write in (False, True):
            if write and not v.ref.write:
                continue
            if not write and not v.ref.read:
                continue
            d = _diag_for(model, v, costs, write, file)
            if d is None:
                continue
            key = (d.line, d.col, v.ref.node.base, d.code, write)
            if key in seen:
                continue
            seen.add(key)
            diags.append(d)
    diags.extend(_shard_lints(model, verdicts, costs, file))
    return diags


def _shard_lints(
    model: AnalysisModel,
    verdicts: Sequence[SiteVerdict],
    costs: CostTable,
    file: str,
) -> List[Diagnostic]:
    """UC305: references still crossing shards under the best placement.

    Shares :func:`~repro.mapping.placement.score_axes` and
    :meth:`~repro.mapping.placement.Placement.split` with the runtime
    tier machinery, so the lint flags exactly the slabs the shard ledger
    would charge."""
    from ..mapping.placement import Placement, score_axes

    try:
        scored = score_axes(verdicts, model.layouts, LINT_SHARDS)
    except Exception:  # pragma: no cover - defensive: lint must not crash
        return []
    if not scored or scored[0][0] == 0:
        return []  # a placement with zero cross-shard traffic exists
    axis = scored[0][1]
    pl = Placement(LINT_SHARDS, axis=axis, policy="map")
    diags: List[Diagnostic] = []
    seen: Set[Tuple[int, int, str, bool]] = set()
    for v in verdicts:
        for write in (False, True):
            if write and not v.ref.write:
                continue
            if not write and not v.ref.read:
                continue
            tier = v.tier(costs, write=write)
            if tier in (None, "local", "broadcast"):
                continue
            rc = v.rc_write if write else v.rc
            if rc is None:
                continue
            layout = (
                model.layouts.get(v.ref.node.base)
                if v.ref.node.base in model.layouts
                else None
            )
            grid_shape = tuple(a.extent for a in v.ref.axes)
            split = pl.split(rc, layout, grid_shape, write)
            if split.cross == 0:
                continue
            node = v.ref.node
            key = (node.line, node.col, node.base, write)
            if key in seen:
                continue
            seen.add(key)
            text = expr_to_text(node)
            role = "written" if write else "serviced"
            diags.append(
                Diagnostic(
                    code="UC305",
                    severity="info",
                    message=(
                        f"{text} is {role} across the shard boundary under a "
                        f"{LINT_SHARDS}-way partition (axis {axis}): "
                        f"{split.cross} element(s) per sweep on the "
                        "inter-machine link"
                    ),
                    line=node.line,
                    col=node.col,
                    file=file,
                    hint=_shard_hint(v, rc, layout, pl, grid_shape, text),
                )
            )
    return diags


def _shard_hint(v, rc, layout, pl, grid_shape, text: str) -> str:
    """Name the fold/permute/copy map that would localize the reference."""
    from ..mapping.placement import rank_of

    base = v.ref.node.base
    if rc.axes is None:
        return (
            "data-dependent subscripts scatter across every shard; index "
            f"{base!r} with affine expressions of the construct elements so "
            "the placement can localize them"
        )
    g_a = pl.grid_axis(len(grid_shape))
    elem = v.ref.axes[g_a].elem  # the partitioned construct element
    part_desc = None
    if layout is not None and rc.axes and len(rc.axes) == rank_of(layout):
        perm = layout.axis_perm or tuple(range(rank_of(layout)))
        part_desc = rc.axes[perm[min(pl.axis, rank_of(layout) - 1)]]
    if (
        part_desc is not None
        and part_desc[0] == "i"
        and part_desc[1] == g_a
        and part_desc[2] != 0
    ):
        return (
            f"only the shift's halo crosses: a permute map with offset "
            f"{int(part_desc[2])} storing {text} locally removes the exchange"
        )
    if part_desc is not None and part_desc[0] == "m" and part_desc[1] == g_a:
        return (
            f"a mirror fold map on {base!r} co-locates each element with its "
            f"reflection, making {text} shard-local"
        )
    for slot, desc in enumerate(rc.axes):
        if desc[0] in ("i", "m") and desc[1] == g_a:
            return (
                f"a permute map transposing {base!r} so subscript axis {slot} "
                f"(bound to element {elem!r}) lands on the partitioned slot "
                f"would make {text} shard-local"
            )
    return (
        f"{text} has no subscript bound to the partitioned element {elem!r}: "
        f"a copy map replicating {base!r} along {elem!r} gives every shard a "
        "local replica"
    )


def site_advice(
    model: AnalysisModel, v: SiteVerdict, costs: CostTable, *, write: bool
) -> Optional[Tuple[str, str, str]]:
    """``(tier, note, hint)`` for one reference read (or, with ``write``,
    scattered) through ``v``: the tier the engines will charge, a short
    note on why, and the map that would make it cheaper ("" when there is
    none to suggest).  None on a rank mismatch (the semantic analyzer
    reports it).  UC301-304 and ``repro analyze`` both read this."""
    rc = v.rc_write if write else v.rc
    if rc is None:
        return None
    tier = v.tier(costs, write=write)
    if tier == "local":
        return tier, "", ""
    node = v.ref.node
    text = expr_to_text(node)
    note, hint = rc.detail, ""
    if rc.axes is None and "data-dependent" in rc.detail:
        note = "data-dependent subscript"
        hint = (
            "data-dependent subscripts need the general router; index with "
            "affine expressions of the construct elements to enable a "
            "cheaper tier"
        )
    elif "permutes the grid alignment" in rc.detail:
        note = "transposed element order"
        if tier == "router":
            hint = (
                f"add a transposing permute map for {node.base!r} so {text} "
                "becomes a precomputed permutation (docs/LANGUAGE.md, map "
                "sections)"
            )
    elif tier == "router" and rc.kind == "news":
        hint = (
            f"the constant shift is longer than one router cycle; a permute "
            f"map storing {text} locally removes it entirely"
        )
    elif tier == "spread":
        unused = _unused_elems(model, v)
        which = ", ".join(unused) if unused else "a fixed row/column"
        note = f"constant along {which}"
        hint = f"copy {node.base!r} along {which} to avoid spreading {text}"
    elif tier == "news":
        note = f"constant shift of {rc.news_distance}"
        hint = (
            f"permute {node.base!r} with offset {rc.news_distance} so that "
            f"{text} is stored locally"
        )
    return tier, note, hint


def reference_rows(
    model: AnalysisModel, verdicts: Sequence[SiteVerdict], costs: CostTable
) -> List[Tuple[ast.Index, str, str, str]]:
    """``repro analyze``'s report: one ``(node, tier, note, hint)`` row per
    reference, local ones included.  A pure write is reported as the
    scatter it compiles to, anything read as its gather."""
    rows = []
    for v in verdicts:
        advice = site_advice(
            model, v, costs, write=v.ref.write and not v.ref.read
        )
        if advice is not None:
            rows.append((v.ref.node,) + advice)
    return rows


#: the tiers UC301-304 report, with their code and severity; ``local``
#: and the precomputed ``permute`` tier draw no diagnostic
_TIER_CODES = {
    "router": ("UC301", "warning"),
    "spread": ("UC302", "info"),
    "news": ("UC303", "info"),
    "broadcast": ("UC304", "info"),
}


def _diag_for(
    model: AnalysisModel, v: SiteVerdict, costs: CostTable, write: bool, file: str
) -> Optional[Diagnostic]:
    advice = site_advice(model, v, costs, write=write)
    if advice is None or advice[0] not in _TIER_CODES:
        return None
    tier, note, hint = advice
    node = v.ref.node
    rc = v.rc_write if write else v.rc
    text = expr_to_text(node)
    if tier == "router":
        role = "written through" if write else "serviced by"
        message = f"{text} is {role} the general router" + (
            f" ({rc.detail})" if rc.detail else ""
        )
    elif tier == "spread":
        message = f"{text} is {note}: serviced by a log-depth spread"
    elif tier == "news":
        message = f"{text} is a NEWS shift of {rc.news_distance} hop(s)"
    else:
        message = f"{text} is uniform across the grid (front-end broadcast)"
    code, severity = _TIER_CODES[tier]
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        line=node.line,
        col=node.col,
        file=file,
        hint=hint,
    )


def _unused_elems(model: AnalysisModel, v: SiteVerdict) -> List[str]:
    used = {s.g for s in v.subvals if s.kind == A}
    layout = (
        model.layouts.get(v.ref.node.base) if v.ref.node.base in model.layouts else None
    )
    out: List[str] = []
    for g, axis in enumerate(v.ref.axes):
        if g in used or axis.extent <= 1:
            continue
        if layout is not None and layout.copy_elem == axis.elem:
            continue
        out.append(axis.elem)
    return out

"""Turning parsed ``map`` sections into concrete layouts, and reading
subscripts.

A map declaration relates two array references over index-set elements,
e.g. ``permute (I) b[i+1] :- a[i];`` — "place element ``i+1`` of ``b``
where element ``i`` of ``a`` lives".  With ``a`` canonical this gives
``b`` a per-axis offset; transposed element orders give an axis
permutation; ``fold`` and ``copy`` populate the corresponding layout
fields.  Map declarations never change program results (the paper's
central claim, property-tested in ``tests/properties``).

:func:`read_subscript` is the one reader of a subscript expression.  The
map builders below take its symbolic form; the solve dependence table
(:mod:`repro.compiler.solve_sched`), the frontier engine
(:mod:`repro.interp.frontier`) and the static analyzer
(:mod:`repro.analysis.staticref`) take its realisation, which is the
descriptor :func:`repro.mapping.locality.classify_affine` classifies.
"""

from __future__ import annotations

from typing import Container, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import UCError, UCSemanticError
from ..lang.operators import apply_binop, apply_unary
from ..lang.semantics import ProgramInfo, _ConstEvaluator
from .layout import AxisFold, Layout, LayoutTable
from .default import default_layouts


class Affine(NamedTuple):
    """A subscript as ``scale*elem + offset`` (``elem`` None and ``scale``
    0 for a compile-time constant)."""

    elem: Optional[str]
    scale: int
    offset: int


class Subscript(NamedTuple):
    """One subscript expression, read once by :func:`read_subscript`."""

    #: its value over the bound element values, as ``classify_affine``
    #: takes it: ``('u', v)``, uniform over the grid; ``('a', g, vals)``,
    #: ``vals[k]`` at coordinate ``k`` of grid axis ``g`` and constant
    #: along every other axis; None, data-dependent
    desc: Optional[Tuple]
    #: the numbers in ``desc`` are the subscript's values (False when a
    #: grid-uniform term of unknown value stood in as 0: structure only)
    exact: bool
    #: its symbolic form when it is ``+``/``-`` of at most one element
    #: and compile-time constants, else None
    affine: Optional[Affine]
    #: where that form breaks (``affine`` None)
    broken: Optional[ast.Node] = None

    @property
    def axis(self) -> Optional[int]:
        """The grid axis ``desc`` varies along, or None."""
        return self.desc[1] if self.desc is not None and self.desc[0] == "a" else None

    def require_affine(self, constants: Dict[str, int]) -> Affine:
        """The symbolic form, or the map builders' error for ``broken``."""
        if self.affine is not None:
            return self.affine
        node = self.broken
        if not (isinstance(node, ast.Binary) and node.op in ("+", "-")):
            _ConstEvaluator(constants).eval(node)  # raises: not a compile-time constant
        raise UCSemanticError("map subscript uses two index elements", node.line, node.col)


#: a grid-uniform term of unknown value (a ``seq`` element, a host scalar)
_UNKNOWN = ("u", 0)


def read_subscript(
    expr: ast.Expr,
    axes: Mapping[str, Tuple[int, np.ndarray]],
    constants: Mapping[str, int],
    uniform: Container[str] = (),
) -> Subscript:
    """Read ``expr`` once: its realisation and its symbolic form.

    A name is looked up in ``axes`` (each bound element's grid axis and
    int64 values), then among the ``constants``, then in ``uniform``
    (grid-uniform names of unknown value: ``seq`` elements, host
    scalars); anything else is data-dependent.  The realisation pushes the
    element values through the arithmetic with the engines' C semantics
    (:func:`repro.lang.operators.apply_binop`); it is data-dependent
    where array contents, calls or two grid axes enter, and it takes the
    branch of a ternary whose condition is a known constant.
    """
    if isinstance(expr, ast.IntLit):
        return _folded(expr, ("u", int(expr.value)), True)
    if isinstance(expr, ast.Name):
        name = expr.ident
        if name in axes:
            g, vals = axes[name]
            return Subscript(("a", g, vals), True, Affine(name, 1, 0))
        if name in constants:
            return _folded(expr, ("u", int(constants[name])), True)
        if name in uniform:
            return Subscript(_UNKNOWN, False, None, expr)
        return Subscript(None, False, None, expr)
    if isinstance(expr, ast.Unary):
        v = read_subscript(expr.operand, axes, constants, uniform)
        desc, exact = _realise(lambda x: apply_unary(expr.op, x, expr), v)
        if expr.op == "-":
            affine = v.affine and Affine(v.affine.elem, -v.affine.scale, -v.affine.offset)
            return Subscript(desc, exact, affine, v.broken)
        return _folded(expr, desc, exact)
    if isinstance(expr, ast.Binary):
        left = read_subscript(expr.left, axes, constants, uniform)
        right = read_subscript(expr.right, axes, constants, uniform)
        desc, exact = _realise(lambda x, y: apply_binop(expr.op, x, y, expr), left, right)
        if expr.op not in ("+", "-"):
            return _folded(expr, desc, exact)
        if left.affine is None or right.affine is None:
            return Subscript(desc, exact, None, left.broken or right.broken)
        (l_elem, l_scale, l_off), (r_elem, r_scale, r_off) = left.affine, right.affine
        if expr.op == "-":
            r_scale, r_off = -r_scale, -r_off
        if l_elem is not None and r_elem is not None:
            return Subscript(desc, exact, None, expr)
        affine = Affine(l_elem or r_elem, l_scale if l_elem else r_scale, l_off + r_off)
        return Subscript(desc, exact, affine)
    if isinstance(expr, ast.Ternary):
        cond = read_subscript(expr.cond, axes, constants, uniform)
        if cond.exact and cond.desc[0] == "u":
            branch = expr.then if cond.desc[1] else expr.els
            v = read_subscript(branch, axes, constants, uniform)
            return _folded(expr, v.desc, v.exact)
    # Index / Call / Reduction / float and INF literals / a ternary on an
    # unknown condition: data-dependent
    return Subscript(None, False, None, expr)


def _folded(expr: ast.Expr, desc: Optional[Tuple], exact: bool) -> Subscript:
    """A node the symbolic form takes only as a compile-time constant."""
    if exact and desc[0] == "u":
        return Subscript(desc, True, Affine(None, 0, desc[1]))
    return Subscript(desc, exact, None, expr)


def _realise(fn, *operands: Subscript):
    """``(desc, exact)`` of ``fn`` (C semantics) over the operands' values."""
    descs = [s.desc for s in operands]
    if any(d is None for d in descs):
        return None, False
    axes = {d[1] for d in descs if d[0] == "a"}
    if len(axes) > 1:
        return None, False  # varies along two grid axes
    exact = all(s.exact for s in operands)
    try:
        if axes:
            vals = [d[2] if d[0] == "a" else np.int64(d[1]) for d in descs]
            return ("a", axes.pop(), np.asarray(fn(*vals), dtype=np.int64)), exact
        if exact:
            return ("u", int(fn(*(d[1] for d in descs)))), True
    except (UCError, TypeError, ValueError, OverflowError):
        return None, False
    return _UNKNOWN, False  # a uniform term of unknown value: still uniform


def read_reference(
    node: ast.Index, axes: Mapping[str, Tuple[int, np.ndarray]], constants: Mapping[str, int]
) -> Optional[Tuple[Tuple, ...]]:
    """The realised descriptor of every subscript of ``node``, or None
    when one is not known exactly."""
    subs = [read_subscript(sub, axes, constants) for sub in node.subs]
    return tuple(s.desc for s in subs) if all(s.exact for s in subs) else None


def grid_reader(grid_axes) -> Dict[str, Tuple[int, np.ndarray]]:
    """``read_subscript``'s ``axes`` for grid axes (anything with ``elem``
    and ``values``), numbered in order."""
    return {
        axis.elem: (g, np.asarray(axis.values, dtype=np.int64))
        for g, axis in enumerate(grid_axes)
    }


def _decl_subscripts(decl: ast.MapDecl, info: ProgramInfo):
    """The symbolic form of each subscript of the target and the source
    (it does not depend on the element values: one value each will do)."""
    sets = [info.index_sets[name] for name in decl.index_sets]
    axes = {isv.elem_name: (g, np.asarray(isv.values[:1], dtype=np.int64))
            for g, isv in enumerate(sets)}
    return [
        [read_subscript(s, axes, info.constants).require_affine(info.constants) for s in ref.subs]
        for ref in (decl.target, decl.source)
    ]


def apply_map_decl(decl: ast.MapDecl, table: LayoutTable, info: ProgramInfo) -> None:
    """Apply one ``permute`` / ``fold`` / ``copy`` declaration to ``table``."""
    if decl.kind == "permute":
        _apply_permute(decl, table, info)
    elif decl.kind == "fold":
        _apply_fold(decl, table, info)
    elif decl.kind == "copy":
        _apply_copy(decl, table, info)
    else:  # pragma: no cover - parser restricts kinds
        raise UCSemanticError(f"unknown map kind {decl.kind!r}", decl.line, decl.col)


def _apply_permute(decl: ast.MapDecl, table: LayoutTable, info: ProgramInfo) -> None:
    """``permute (I) target[f(i)] :- source[g(i)];``

    For every element value, the referenced target element must land on
    the physical position of the referenced source element.  Supported
    shapes: per-axis shifts (unit positive coefficient) and axis
    permutations; mirror coefficients belong to ``fold``.
    """
    assert decl.source is not None
    tgt_subs, src_subs = _decl_subscripts(decl, info)
    target = table.get(decl.target.base)
    source = table.get(decl.source.base)

    if not source.is_canonical:
        raise UCSemanticError(
            f"permute source {decl.source.base!r} must have the default layout "
            "(chain permutes from canonical anchors)",
            decl.line,
            decl.col,
        )

    # match target axes to source axes by shared element identifiers
    offsets: List[int] = list(target.offsets)
    perm: List[int] = list(range(target.rank))
    for t_axis, t_sub in enumerate(tgt_subs):
        if t_sub.elem is None:
            continue  # constant-pinned axis keeps its default placement
        if t_sub.scale != 1:
            raise UCSemanticError(
                "permute with mirrored subscripts: use a fold mapping",
                decl.line,
                decl.col,
            )
        matches = [a for a, s in enumerate(src_subs) if s.elem == t_sub.elem]
        if not matches:
            raise UCSemanticError(
                f"permute: element {t_sub.elem!r} of target does not appear "
                "in the source reference",
                decl.line,
                decl.col,
            )
        s_axis = matches[0]
        s_sub = src_subs[s_axis]
        # target element (e + t_off) lives where source element (e + s_off)
        # lives; source is canonical, so physical(target x) = x - t_off + s_off
        offsets[t_axis] = s_sub.offset - t_sub.offset
        perm[t_axis] = s_axis

    new = target.with_offsets(tuple(offsets))
    if perm != list(range(target.rank)):
        if sorted(perm) != list(range(target.rank)):
            raise UCSemanticError(
                "permute axis correspondence is not a permutation", decl.line, decl.col
            )
        new = new.with_axis_perm(tuple(perm))
    table.add(new)


def _apply_fold(decl: ast.MapDecl, table: LayoutTable, info: ProgramInfo) -> None:
    """``fold (I) a[expr(i)] :- a[i];`` — co-locate the two references.

    ``a[i + p] :- a[i]`` gives a *wrap* fold with pivot ``p``;
    ``a[c - i] :- a[i]`` gives a *mirror* fold around ``c/2``.
    """
    assert decl.source is not None
    tgt_subs, src_subs = _decl_subscripts(decl, info)
    layout = table.get(decl.target.base)

    fold_axis = None
    fold_spec: Optional[AxisFold] = None
    for axis, (t, s) in enumerate(zip(tgt_subs, src_subs)):
        if t == s:
            continue
        if fold_axis is not None:
            raise UCSemanticError("fold mapping may fold only one axis", decl.line, decl.col)
        if s.elem is None or s.scale != 1 or s.offset != 0:
            raise UCSemanticError(
                "fold source subscript must be a bare element", decl.line, decl.col
            )
        if t.elem != s.elem:
            raise UCSemanticError(
                "fold target must use the same element as its source", decl.line, decl.col
            )
        fold_axis = axis
        if t.scale == 1:
            if t.offset <= 0:
                raise UCSemanticError(
                    "wrap fold needs a positive pivot offset", decl.line, decl.col
                )
            fold_spec = AxisFold(axis=axis, kind="wrap", param=t.offset)
        else:  # scale == -1: mirror around t.offset
            fold_spec = AxisFold(axis=axis, kind="mirror", param=t.offset)
    if fold_spec is None:
        raise UCSemanticError(
            "fold mapping target equals its source (nothing folded)", decl.line, decl.col
        )
    table.add(layout.with_fold(fold_spec))


def _apply_copy(decl: ast.MapDecl, table: LayoutTable, info: ProgramInfo) -> None:
    """``copy (I, K) a[i][k] :- a[i];`` — replicate ``a`` along ``k``.

    The extra subscript of the target (relative to the source) names the
    replication element; its index set's size is the replication extent.
    """
    assert decl.source is not None
    tgt_subs, src_subs = _decl_subscripts(decl, info)
    src_elems = {s.elem for s in src_subs if s.elem is not None}
    extra = [s for s in tgt_subs if s.elem is not None and s.elem not in src_elems]
    if len(extra) != 1:
        raise UCSemanticError(
            "copy mapping needs exactly one replication element in the target",
            decl.line,
            decl.col,
        )
    elem = extra[0].elem
    sets = [info.index_sets[name] for name in decl.index_sets]
    extent = next(len(isv) for isv in sets if isv.elem_name == elem)
    layout = table.get(decl.target.base)
    table.add(layout.with_copy(elem, extent))


def build_layouts(info: ProgramInfo, *, apply_maps: bool = True) -> LayoutTable:
    """Default layouts for all arrays, then apply the program's map sections."""
    table = default_layouts(info.arrays)
    if apply_maps:
        for section in info.program.maps:
            for decl in section.decls:
                apply_map_decl(decl, table, info)
    return table

"""Determinism envelopes for reductions (uclint UC5xx).

Every reduction site — the ``$op`` expressions both engines evaluate,
the send-with-op scatters of the processor optimization
(``interp/sendreduce.py``'s ``_COMBINE_AT`` table) and the router
``COMBINERS`` they dispatch — is classified into one envelope:

UC501
    proven commutative + associative: the idempotent/logical builtins
    (``$<``, ``$>``, ``$&&``, ``$||``, ``$^``) and integer ``$+``/``$*``
    (int64 arithmetic wraps, so it is exact modulo 2^64 in any order),
    only when the body passes the syntactic commutativity check over
    the tractable expression fragment (arxiv 1605.01497).
UC502
    floating-point ``$+``/``$*``: the value is order-sensitive because
    rounding does not associate.
UC503
    body outside the tractable fragment (side effects, RNG, calls whose
    purity cannot be established): commutativity unprovable.
UC504
    order-sensitive selection (``$,`` / ``oneof``) whose result escapes
    the construct — read later, returned, or printed.
UC505
    informational: a batched or sharded execution path consults this
    site's verdict before reordering partials.

The per-site :class:`ReductionVerdict` table built by
:func:`determinism_claims` is the runtime's single reordering legality
oracle: ``interp/batch.py``'s blocked reduction, ``machine/shards.py``'s
cross-shard pre-combining and the sanitizer's order-permutation mode all
consult it instead of assuming.  A site without a UC501 proof is demoted
to the order-preserving path, bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang import ast
from ..lang.semantics import BUILTINS
from ..lang.tokens import REDUCTION_OPS
from .context import AnalysisModel, ConstructSite, ReductionSite
from .diagnostics import Diagnostic, SEVERITIES

#: canonical op name -> source spelling after '$'
_OP_SPELLING = {canon: spell for spell, canon in REDUCTION_OPS.items()}

#: the always-commutative, always-associative combiners (idempotent or
#: boolean — reordering cannot change the value for any operand set)
_SAFE_OPS = frozenset({"min", "max", "logand", "logor", "logxor"})


@dataclass(frozen=True)
class ReductionVerdict:
    """One reduction site's determinism envelope.

    ``order_safe`` is the runtime legality bit: True means reordering
    the combine (blocked reductions, cross-shard pre-combining, operand
    permutation) is proven value-identical; anything else must take the
    order-preserving path.
    """

    code: str  # "UC501" | "UC502" | "UC503" | "UC504"
    order_safe: bool
    op: str
    reason: str
    line: int = 0
    col: int = 0

    @property
    def proven(self) -> bool:
        return self.code == "UC501"


def spelled(op: str) -> str:
    """Display form of a canonical reduction op (``add`` -> ``$+``)."""
    return "$" + _OP_SPELLING.get(op, op)


# ---------------------------------------------------------------------------
# the tractable expression fragment
# ---------------------------------------------------------------------------


def _body_issue(node: ast.Reduction, model: AnalysisModel) -> Optional[str]:
    """Why the reduction body falls outside the tractable fragment.

    The syntactic commutativity check (the arxiv 1605.01497 fragment):
    a body built only of literals, bound names, array reads and pure
    arithmetic is a per-operand function, so the builtin combiner's own
    algebra decides commutativity.  Side effects, RNG consumption and
    opaque calls make the evaluation order itself observable.  Purity is
    the builtin table's (``lang.semantics.BUILTINS``); a user function —
    one overriding a builtin's name included — is an opaque call.
    """
    for sub in ast.walk(node):
        if sub is node:
            continue
        if isinstance(sub, (ast.Assign, ast.IncDec)):
            return "the body assigns to program state"
        if isinstance(sub, ast.Call):
            builtin = _builtin(sub, model)
            if builtin is None:
                return (
                    f"the body calls {sub.func}(), a user function: an opaque "
                    "call, outside the tractable commutativity fragment"
                )
            if not builtin.pure:
                return f"the body calls {sub.func}(), which {builtin.effect}"
        if isinstance(sub, ast.Reduction) and sub.op == "arbitrary":
            return "an operand is itself a $, (arbitrary) selection"
    return None


def _builtin(call: ast.Call, model: AnalysisModel):
    """The builtin ``call`` reaches, or None for a user function."""
    if call.func in model.info.functions:
        return None
    return BUILTINS.get(call.func)


def _is_float(e: ast.Expr, site: ReductionSite, model: AnalysisModel) -> bool:
    """Static float-ness of an expression (C-style promotion rules)."""
    if isinstance(e, (ast.FloatLit, ast.InfLit)):
        return True
    if isinstance(e, ast.IntLit):
        return False
    if isinstance(e, ast.Name):
        name = e.ident
        if name in site.bind or name in site.scalars:
            return False  # index-set elements are integers
        ctype = model.scalar_types.get(name)
        return ctype == "float"
    if isinstance(e, ast.Index):
        entry = model.info.arrays.get(e.base) or model.local_arrays.get(e.base)
        return entry is not None and entry[0] == "float"
    if isinstance(e, ast.Call):
        builtin = _builtin(e, model)
        if builtin is None:
            return model.info.functions[e.func].ret_type == "float"  # semantics vetted the name
        if builtin.floats is None:
            return any(_is_float(a, site, model) for a in e.args)
        return builtin.floats
    if isinstance(e, ast.Unary):
        if e.op in ("!", "~"):
            return False
        return _is_float(e.operand, site, model)
    if isinstance(e, ast.Binary):
        if e.op in ("+", "-", "*", "/"):
            return _is_float(e.left, site, model) or _is_float(
                e.right, site, model
            )
        return False  # comparisons, logicals, %, shifts, bitwise: int
    if isinstance(e, ast.Ternary):
        return _is_float(e.then, site, model) or _is_float(e.els, site, model)
    if isinstance(e, ast.Assign):
        return _is_float(e.value, site, model)
    if isinstance(e, ast.Reduction):
        return any(_is_float(a.expr, site, model) for a in e.arms) or (
            e.others is not None and _is_float(e.others, site, model)
        )
    return False


def _operands_float(node: ast.Reduction, site, model) -> bool:
    if any(_is_float(arm.expr, site, model) for arm in node.arms):
        return True
    return node.others is not None and _is_float(node.others, site, model)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify_reduction(
    site: ReductionSite, model: AnalysisModel
) -> ReductionVerdict:
    """One site's determinism envelope (the legality-oracle entry)."""
    node = site.node
    if node.op == "arbitrary":
        return ReductionVerdict(
            code="UC504",
            order_safe=False,
            op=node.op,
            reason="the $, operator delivers one RNG-chosen operand",
            line=node.line,
            col=node.col,
        )
    issue = _body_issue(node, model)
    if issue is not None:
        return ReductionVerdict(
            code="UC503",
            order_safe=False,
            op=node.op,
            reason=issue,
            line=node.line,
            col=node.col,
        )
    if node.op in _SAFE_OPS:
        return ReductionVerdict(
            code="UC501",
            order_safe=True,
            op=node.op,
            reason=(
                f"{spelled(node.op)} is idempotent/boolean: commutative and "
                "associative for every operand order"
            ),
            line=node.line,
            col=node.col,
        )
    # add / mul
    if _operands_float(node, site, model):
        return ReductionVerdict(
            code="UC502",
            order_safe=False,
            op=node.op,
            reason=(
                f"floating-point {spelled(node.op)} rounds differently "
                "under reordering (addition does not associate in float64)"
            ),
            line=node.line,
            col=node.col,
        )
    return ReductionVerdict(
        code="UC501",
        order_safe=True,
        op=node.op,
        reason=(
            f"integer {spelled(node.op)} is exact modulo 2^64 two's-complement "
            "wraparound, identically on every engine"
        ),
        line=node.line,
        col=node.col,
    )


def determinism_claims(model: AnalysisModel) -> Dict[int, ReductionVerdict]:
    """``id(Reduction node) -> verdict`` for every reduction site.

    Keyed by node identity because the analyzer walks the same AST
    objects the interpreter executes (the same trick the sanitizer's
    tier claims rely on), so DSL-built programs without positions
    resolve just as well as parsed sources.
    """
    claims: Dict[int, ReductionVerdict] = {}
    for site in model.reductions:
        claims[id(site.node)] = classify_reduction(site, model)
    return claims


# ---------------------------------------------------------------------------
# escape analysis (UC504)
# ---------------------------------------------------------------------------


def _read_sites(program: ast.Program) -> Tuple[List[Tuple[int, int, str]], set]:
    """(ordered reads of each name, names escaping via return/printf).

    Reads are (line, col, name) in source position; a pure-overwrite
    assignment target is a write, not a read (op-assigns read too).
    """
    reads: List[Tuple[int, int, str]] = []
    outputs: set = set()

    def note(e: ast.Expr, *, as_output: bool) -> None:
        for sub in ast.walk(e):
            if isinstance(sub, ast.Name):
                reads.append((sub.line, sub.col, sub.ident))
                if as_output:
                    outputs.add(sub.ident)
            elif isinstance(sub, ast.Index):
                reads.append((sub.line, sub.col, sub.base))
                if as_output:
                    outputs.add(sub.base)

    def walk(node: ast.Node) -> None:
        if isinstance(node, ast.Assign):
            if isinstance(node.target, ast.Index):
                if node.op:
                    reads.append((node.target.line, node.target.col, node.target.base))
                for sub in node.target.subs:
                    note(sub, as_output=False)
            elif isinstance(node.target, ast.Name) and node.op:
                reads.append((node.target.line, node.target.col, node.target.ident))
            walk(node.value)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                note(node.value, as_output=True)
            return
        if isinstance(node, ast.Call) and node.func == "printf":
            for a in node.args:
                note(a, as_output=True)
            return
        if isinstance(node, (ast.Name, ast.Index)):
            note(node, as_output=False)
            return
        for child in ast.children(node):
            walk(child)

    walk(program)
    return reads, outputs


def _escapes(
    name: str,
    after: Tuple[int, int],
    reads: List[Tuple[int, int, str]],
    outputs: set,
) -> Optional[str]:
    """Where the written name escapes, or None (source-order heuristic)."""
    if name in outputs:
        return "reaches program output"
    for line, col, read in reads:
        if read == name and (line, col) > after:
            return f"read at line {line}"
    return None


def _construct_end(stmt: ast.UCStmt) -> int:
    return max((n.line for n in ast.walk(stmt) if n.line), default=stmt.line)


def _enclosing_assign(program: ast.Program, node: ast.Reduction):
    """The ``Assign`` whose value subtree contains ``node``, if any."""
    for sub in ast.walk(program):
        if isinstance(sub, ast.Assign):
            if any(inner is node for inner in ast.walk(sub.value)):
                return sub
    return None


# ---------------------------------------------------------------------------
# the lint pass
# ---------------------------------------------------------------------------


def _demote(severity: str, guarded: bool) -> str:
    """Inside an ``st`` arm findings are demoted one level, as everywhere."""
    if not guarded:
        return severity
    idx = SEVERITIES.index(severity)
    return SEVERITIES[max(0, idx - 1)]


def analyze_determinism(model: AnalysisModel, file: str) -> List[Diagnostic]:
    """Emit the UC5xx envelope of every reduction and ``oneof`` site."""
    diags: List[Diagnostic] = []
    reads, outputs = _read_sites(model.info.program)

    for site in model.reductions:
        node = site.node
        verdict = classify_reduction(site, model)
        if verdict.code == "UC501":
            diags.append(
                Diagnostic(
                    code="UC501",
                    severity="info",
                    message=(
                        f"reduction {spelled(node.op)} proven commutative+"
                        f"associative: {verdict.reason}"
                    ),
                    line=node.line,
                    col=node.col,
                    file=file,
                )
            )
        elif verdict.code == "UC502":
            diags.append(
                Diagnostic(
                    code="UC502",
                    severity=_demote("warning", site.guarded),
                    message=(
                        f"reduction {spelled(node.op)} is order-sensitive: "
                        f"{verdict.reason}"
                    ),
                    line=node.line,
                    col=node.col,
                    file=file,
                    hint=(
                        "accumulate in an integer domain (scaled fixed-point) "
                        "or compare downstream results with an explicit "
                        "tolerance; batched and sharded engines preserve the "
                        "written operand order at this site"
                    ),
                )
            )
        elif verdict.code == "UC503":
            diags.append(
                Diagnostic(
                    code="UC503",
                    severity=_demote("warning", site.guarded),
                    message=(
                        f"reduction {spelled(node.op)} body is not provably "
                        f"commutativity-safe: {verdict.reason}"
                    ),
                    line=node.line,
                    col=node.col,
                    file=file,
                    hint=(
                        "restrict the body to a pure arithmetic expression "
                        "over the bound elements so the syntactic "
                        "commutativity check (the arxiv 1605.01497 tractable "
                        "fragment) can prove reordering safe"
                    ),
                )
            )
        else:  # UC504: arbitrary selection — flag only when it escapes
            assign = _enclosing_assign(model.info.program, node)
            target = None
            if assign is not None:
                if isinstance(assign.target, ast.Index):
                    target = assign.target.base
                elif isinstance(assign.target, ast.Name):
                    target = assign.target.ident
            where = (
                _escapes(target, (assign.line, assign.col), reads, outputs)
                if target is not None
                else "reaches program output"
            )
            if where is not None:
                diags.append(
                    Diagnostic(
                        code="UC504",
                        severity=_demote("warning", site.guarded),
                        message=(
                            f"order-sensitive $, selection escapes the "
                            f"construct ({where}): the value depends on the "
                            "RNG-chosen operand"
                        ),
                        line=node.line,
                        col=node.col,
                        file=file,
                        hint=(
                            "fold the selection into a deterministic "
                            "reduction ($< or $>) or keep its result local "
                            "to the construct"
                        ),
                    )
                )
        if node.op != "arbitrary":
            diags.append(
                Diagnostic(
                    code="UC505",
                    severity="info",
                    message=(
                        "batched blocked-reduction and cross-shard "
                        "pre-combining consult this site's determinism "
                        f"verdict ({verdict.code}) before reordering partials"
                    ),
                    line=node.line,
                    col=node.col,
                    file=file,
                )
            )

    # oneof constructs: one RNG-chosen arm runs; escaping writes are
    # order-sensitive in exactly the $, sense
    for site in model.constructs:
        if site.kind != "oneof":
            continue
        end = _construct_end(site.stmt)
        seen = set()
        for a in site.assigns:
            target = None
            if isinstance(a.assign.target, ast.Index):
                target = a.assign.target.base
            elif isinstance(a.assign.target, ast.Name):
                target = a.assign.target.ident
            if target is None or target in seen:
                continue
            seen.add(target)
            where = _escapes(target, (end, 10**9), reads, outputs)
            if where is not None:
                diags.append(
                    Diagnostic(
                        code="UC504",
                        severity=_demote("warning", site.guarded),
                        message=(
                            f"'oneof' runs one RNG-chosen arm and its write "
                            f"to {target!r} escapes the construct ({where})"
                        ),
                        line=site.stmt.line,
                        col=site.stmt.col,
                        file=file,
                        hint=(
                            "make the selection deterministic (a predicate "
                            f"choosing one arm) or keep {target!r} local to "
                            "the construct"
                        ),
                    )
                )
    return diags

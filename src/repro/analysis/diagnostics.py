"""The structured diagnostic model behind ``repro lint``.

Every finding the analyzer can produce is a :class:`Diagnostic` with a
stable code, a severity, a source position and (where the analysis can
compute one) a concrete fix-it hint.  Codes are grouped by area:

========  ==================================================================
UC0xx     front-end failures surfaced as diagnostics (syntax / semantics)
UC1xx     par races — violations of the single-assignment rule (§3.4)
UC2xx     solve convergence — proper-equation checks (§3.6)
UC3xx     communication tiers — references the router must service (§4)
UC4xx     hygiene — unused index sets, shadowing, dead branches
UC5xx     determinism envelopes — reduction commutativity & order proofs
========  ==================================================================

The full table lives in ``docs/ANALYSIS.md``.  :class:`LintReport`
aggregates the diagnostics of one program and knows how to render itself
as human-readable text or JSON and how to map onto a process exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: severity order, least to most severe
SEVERITIES = ("info", "warning", "error")

#: code -> short title (the one-line meaning; details in docs/ANALYSIS.md)
CODES = {
    "UC001": "syntax error",
    "UC002": "semantic error",
    "UC101": "par write-write race (distinct values proven)",
    "UC102": "possible par write-write race",
    "UC103": "overlapping writes from distinct par statements",
    "UC104": "subscript provably out of range",
    "UC201": "solve dependence cycle (not forward-substitutable)",
    "UC202": "unreachable 'others' arm",
    "UC203": "statically-constant 'st' predicate in solve",
    "UC301": "router-tier reference",
    "UC302": "spread-tier reference",
    "UC303": "NEWS-shift reference",
    "UC304": "broadcast reference",
    "UC305": "cross-shard reference under the derived placement",
    "UC401": "unused index set",
    "UC402": "element binding shadows an outer binding",
    "UC403": "dead construct arm (predicate constant false)",
    "UC501": "reduction proven commutative+associative (order-safe)",
    "UC502": "order-sensitive floating-point reduction",
    "UC503": "reduction body not provably commutativity-safe",
    "UC504": "order-sensitive oneof/$, selection escapes the construct",
    "UC505": "batched/sharded reordering gated on this site's verdict",
}

#: code -> (default severity, detail paragraph, fix-it template) — the
#: table behind ``repro lint --explain UCxxx``.  Severities are for
#: unguarded code; inside an ``st`` arm findings demote one level.
DETAILS = {
    "UC001": (
        "error",
        "The front end could not parse the file; the position points at "
        "the offending token.  Surfaced as a diagnostic so 'repro lint' "
        "reports it with the same machinery as every other finding.",
        "fix the syntax at the reported position",
    ),
    "UC002": (
        "error",
        "The program parsed but failed semantic analysis (unknown name, "
        "arity mismatch, bad index-set use, ...).",
        "fix the declaration or use at the reported position",
    ),
    "UC101": (
        "error",
        "The affine dependence test proves two active VPs write distinct "
        "values to one element or scalar — the single-assignment rule "
        "(LANGUAGE.md 3.4) is violated and the run will raise.",
        "make the target subscript injective over the active lanes, or "
        "guard the arms with disjoint 'st' predicates",
    ),
    "UC102": (
        "warning",
        "The write target has a data-dependent subscript; the analyzer "
        "can prove neither injectivity nor a collision.  The sanitizer "
        "observes such sites at runtime.",
        "prefer an affine subscript in the bound elements, or run with "
        "REPRO_SANITIZE=1 to observe the actual write set",
    ),
    "UC103": (
        "warning",
        "Two statements of one 'par' body write overlapping elements of "
        "the same array; evaluation order between statements is defined, "
        "but the overlap is usually unintended.",
        "split the writes across constructs or disjoint index ranges",
    ),
    "UC104": (
        "error",
        "A subscript is provably outside the array extent for some "
        "active VP.",
        "clamp the subscript or shrink the index set to the array extent",
    ),
    "UC201": (
        "error",
        "The 'solve' body has a dependence cycle at zero offset: it is "
        "not forward-substitutable and not a proper set of equations "
        "(LANGUAGE.md 3.6).  '*solve' is exempt — it iterates to a fixed "
        "point.",
        "break the zero-offset cycle, or use '*solve' for fixed-point "
        "iteration",
    ),
    "UC202": (
        "warning",
        "An 'others' arm can never run because an 'st' predicate is "
        "constant true.",
        "drop the 'others' arm or make the predicate non-trivial",
    ),
    "UC203": (
        "warning",
        "An 'st' predicate in 'solve' is statically constant, so it "
        "selects the same lanes every sweep.",
        "hoist the constant predicate out of the solve",
    ),
    "UC301": (
        "warning",
        "The reference is serviced by the general router (data-dependent "
        "or alignment-permuting subscript) — the most expensive tier.",
        "add the suggested 'map' section, or restructure the subscript "
        "into a constant-offset shift",
    ),
    "UC302": (
        "info",
        "The reference is serviced by a log-depth spread (value constant "
        "along unused grid axes).",
        "a 'copy' map would make the reference local",
    ),
    "UC303": (
        "info",
        "The reference is a constant-offset NEWS shift.",
        "a 'permute' map would make the reference local",
    ),
    "UC304": (
        "info",
        "The reference is a front-end broadcast (value uniform across "
        "the grid).",
        "no action needed; broadcasts are cheap",
    ),
    "UC305": (
        "info",
        "The reference is proven to cross the shard boundary under the "
        "derived placement (see 'Sharded execution' in PERFORMANCE.md).",
        "the named fold/permute/copy map would localize the reference",
    ),
    "UC401": (
        "warning",
        "An index set is declared but never used.",
        "delete the declaration",
    ),
    "UC402": (
        "info",
        "An element binding shadows an outer binding of the same name.",
        "rename the inner element",
    ),
    "UC403": (
        "warning",
        "A construct arm is dead: its 'st' predicate is constant false.",
        "delete the arm or fix the predicate",
    ),
    "UC501": (
        "info",
        "The reduction is proven commutative and associative: the "
        "idempotent/boolean builtins ($<, $>, $&&, $||, $^) uncondition"
        "ally; integer $+/$* with an interval-proven no-overflow "
        "certificate (or the exact mod-2^64 wraparound argument); and "
        "only when the body passes the syntactic commutativity check "
        "over the tractable fragment (arxiv 1605.01497).  Batched "
        "blocked reductions, cross-shard pre-combining and the order-"
        "permuting sanitizer treat UC501 as the reorder-legality bit.",
        "no action needed; this site may be reordered freely",
    ),
    "UC502": (
        "warning",
        "Floating-point $+/$* is order-sensitive: float64 rounding does "
        "not associate, so a reordered combine may differ in the last "
        "ulp.  The engines preserve the written operand order at such "
        "sites (no blocked reordering, no cross-shard pre-combining).",
        "accumulate in an integer domain (scaled fixed-point), or "
        "compare downstream results with an explicit tolerance",
    ),
    "UC503": (
        "warning",
        "The reduction body falls outside the tractable commutativity "
        "fragment (side effects, RNG, opaque calls, nested $,), so the "
        "analyzer cannot prove reordering safe.  The site runs on the "
        "order-preserving path.  An error under --werror.",
        "restrict the body to pure arithmetic over the bound elements "
        "so the syntactic check can prove commutativity",
    ),
    "UC504": (
        "warning",
        "An order-sensitive selection ($, or 'oneof') produces a value "
        "that escapes the construct — it is read later, returned, or "
        "printed — so the program's output depends on the RNG-chosen "
        "operand.",
        "fold the selection into a deterministic reduction ($< or $>), "
        "or keep the selected value local to the construct",
    ),
    "UC505": (
        "info",
        "A batched or sharded execution path consults this reduction "
        "site's determinism verdict before reordering partials; unproven "
        "sites fall back to the order-preserving path bit-identically.",
        "no action needed; informational cross-reference to UC501-UC503",
    ),
}


def explain(code: str) -> str:
    """The ``repro lint --explain UCxxx`` rendering for one stable code."""
    code = code.upper()
    if code not in CODES:
        known = ", ".join(sorted(CODES))
        raise KeyError(f"unknown diagnostic code {code!r}; known codes: {known}")
    severity, detail, fixit = DETAILS[code]
    return "\n".join(
        [
            f"{code}: {CODES[code]}",
            f"  severity: {severity} (demoted one level inside an 'st' arm)",
            f"  {detail}",
            f"  fix-it: {fixit}",
            "  see: docs/ANALYSIS.md",
        ]
    )


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str  # stable code, e.g. 'UC101'
    severity: str  # 'error' | 'warning' | 'info'
    message: str
    line: int = 0
    col: int = 0
    file: str = "<program>"
    hint: str = ""  # fix-it suggestion, empty when none applies

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:  # pragma: no cover - programmer error
            raise ValueError(f"bad severity {self.severity!r}")
        if self.code not in CODES:  # pragma: no cover - programmer error
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self) -> str:
        text = (
            f"{self.file}:{self.line}:{self.col}: "
            f"{self.severity}: {self.code}: {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """All diagnostics for one linted program."""

    file: str = "<program>"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def sort(self) -> None:
        """Stable source order: position first, then code."""
        self.diagnostics.sort(key=lambda d: (d.line, d.col, d.code))

    # -- queries ---------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def exit_code(self, *, werror: bool = False) -> int:
        """CLI convention: 1 when errors (or warnings under --werror)."""
        if self.errors:
            return 1
        if werror and self.warnings:
            return 1
        return 0

    # -- rendering -------------------------------------------------------------

    def render_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{self.file}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} note(s)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        import json  # lint-only: the runtime's verdict oracle never renders

        return json.dumps(
            {
                "file": self.file,
                "diagnostics": [d.to_json() for d in self.diagnostics],
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
            indent=2,
        )

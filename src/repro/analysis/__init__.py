"""Whole-program static analysis for UC programs (``repro lint``).

The analyzer proves — ahead of any run — the properties the paper's
runtime enforces dynamically: single assignment under ``par`` (§3.4),
properness of ``solve`` equation sets (§3.6), and the communication
tier every remote reference will be serviced by (§4).  Verdicts are
surfaced as :class:`Diagnostic` objects with stable codes (UC1xx races,
UC2xx solve, UC3xx communication, UC4xx hygiene, UC5xx determinism
envelopes), and the exact subset doubles as the claim set the runtime
sanitizer (:class:`~repro.analysis.sanitize.Sanitizer`,
``REPRO_SANITIZE=1``) holds both engines to.  The UC5xx reduction
verdicts (:func:`~repro.analysis.determinism.determinism_claims`) are
additionally the runtime's reorder-legality oracle for batched blocked
reductions and cross-shard pre-combining.
"""

from importlib import import_module

#: public name -> defining submodule, imported on first attribute access
#: (PEP 562): the runtime's reduction oracle needs ``context`` and
#: ``determinism`` only, and must not pay for the linter passes
_EXPORTS = {
    "CODES": "diagnostics",
    "DETAILS": "diagnostics",
    "Diagnostic": "diagnostics",
    "LintReport": "diagnostics",
    "ReductionVerdict": "determinism",
    "Sanitizer": "sanitize",
    "build_verdicts": "linter",
    "determinism_claims": "determinism",
    "explain": "diagnostics",
    "lint_program": "linter",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value

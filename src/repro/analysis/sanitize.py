"""Runtime sanitizer: cross-check engine behaviour against static verdicts.

With ``REPRO_SANITIZE=1`` (or ``UCProgram(sanitize=True)``) both engines
record, per statement, the scatter index sets they build and the
communication tiers they dispatch.  This module turns the analyzer's
*exact* verdicts into claims about that record:

* a write site :func:`repro.analysis.races.injectivity` proved
  ``injective`` must never produce a duplicate flat index;
* a reference site whose every subscript realised exactly must be
  serviced only by tiers in the static verdict set — the same
  :func:`repro.interp.commtiers.decide_tier` call, fed the machine's own
  cost table, so the comparison is decision-for-decision;
* a reduction site the determinism pass proved **UC501** (commutative +
  associative, :mod:`repro.analysis.determinism`) must be insensitive to
  operand order: every observed reduction is re-executed with a seeded
  permutation of its operands (and reversed arm order) and the values
  must agree bit-for-bit.  A difference at a proven site is a hard
  failure; at a UC502/UC503 site it is the *expected* behaviour and is
  recorded as a confirming observation.

A contradiction means the analyzer and an engine disagree about the
program — a bug in one of them, never a property of the user's code —
and raises :class:`~repro.lang.errors.UCSanitizerError` as a hard
failure.

One deliberate widening: operands of reductions may be evaluated on the
*operand* grid when the processor optimization (paper §4) collapses the
parent axes (``interp/sendreduce.py``), so for in-reduction references
the claim is the union of the product-grid and operand-grid verdicts.
Inexact sites (data-dependent or value-unknown subscripts) claim
nothing: the analyzer only holds the engines to what it proved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..interp.commtiers import decide_tier
from ..lang import ast
from ..lang.errors import UCSanitizerError
from ..mapping.locality import RefClass
from .determinism import ReductionVerdict
from .races import write_claims

#: tier claim key, matching the interpreter's ``tier_log`` keying
TierKey = Tuple[int, str]  # (line, array base)
#: write claim key: line, col, array base
WriteKey = Tuple[int, int, str]


class Sanitizer:
    """Static claims plus the counters the runtime checks them against.

    One instance is shared by a program run (both engines consult the
    interpreter's ``sanitizer`` attribute), so the summary counts every
    scatter and every cross-checked tier site of the run.
    """

    def __init__(self, frontend) -> None:
        """``frontend`` is the program's
        :class:`~repro.interp.compile_store.FrontendEntry`: the claims are
        drawn from its one static analysis, shared by every run."""
        verdicts = frontend.verdicts()
        self.model = frontend.model()
        self.tier_claims: Dict[TierKey, List[Tuple[RefClass, bool]]] = _tier_claims(
            verdicts
        )
        self.write_claims: Dict[WriteKey, str] = write_claims(verdicts)
        self.writes_checked = 0
        self.duplicate_writes = 0
        # reduction determinism claims (UC5xx), keyed by node identity —
        # the model walks the same AST objects the engines execute.  A
        # copy: the entry's verdicts are shared, these are this run's
        red_claims = frontend.reduction_claims()
        if frontend.claims_error:
            # the sanitizer hard-fails where the runtime degrades
            raise UCSanitizerError(
                f"sanitizer: the determinism analyzer failed ({frontend.claims_error})"
            )
        self.red_claims: Dict[int, ReductionVerdict] = dict(red_claims)
        self.reductions_checked = 0
        self.reductions_confirmed = 0
        self.order_sensitivity_observed = 0
        # private stream: permutations must not consume the program RNG
        self._perm_rng = np.random.default_rng(0x5C501)

    # -- reduction order-permutation claims ---------------------------------

    def check_reduction(
        self, node, arm_values, arm_masks, reduce_axes, result
    ) -> None:
        """Re-run one observed reduction with permuted operand order.

        Called by both engines right after the combine (``$,`` excluded —
        it is order-sensitive by definition and claimed under UC504).
        The permutation is joint across arms and masks (operands keep
        their enablement) and drawn from a private seeded stream so the
        program's own RNG — and hence its fingerprint — is untouched.
        """
        verdict = self.red_claims.get(id(node))
        if verdict is None:
            return  # unmodeled site: the analyzer claims nothing
        self.reductions_checked += 1
        from ..interp import eval_expr as E

        lead = arm_values[0].ndim - len(reduce_axes)
        extent = 1
        for ax in reduce_axes:
            extent *= arm_values[0].shape[ax]
        perm = self._perm_rng.permutation(extent)

        def permuted(a):
            flat = np.ascontiguousarray(a).reshape(a.shape[:lead] + (extent,))
            return flat[..., perm].reshape(a.shape)

        order = list(range(len(arm_values)))[::-1]
        redo = E._reduce_op(
            node.op,
            [permuted(arm_values[i]) for i in order],
            [permuted(arm_masks[i]) for i in order],
            reduce_axes,
        )
        res = np.asarray(result)
        same = redo.dtype == res.dtype and np.array_equal(
            redo, res, equal_nan=True
        )
        self.note_reduction(node, verdict, same)

    def check_send_reduce(self, node, combine_at, identity, dtype, dest, vals, out) -> None:
        """The send-with-op scatter variant of :meth:`check_reduction`.

        Replays the ``ufunc.at`` combine against a fresh identity array
        with jointly permuted (destination, value) pairs.
        """
        verdict = self.red_claims.get(id(node))
        if verdict is None:
            return
        self.reductions_checked += 1
        perm = self._perm_rng.permutation(len(dest))
        redo = np.full(out.shape, identity, dtype=dtype)
        combine_at(redo, dest[perm], vals[perm])
        same = np.array_equal(redo, out, equal_nan=True)
        self.note_reduction(node, verdict, same)

    def note_reduction(self, node, verdict: ReductionVerdict, same: bool) -> None:
        """Record one permutation observation; hard-fail a broken proof."""
        if same:
            self.reductions_confirmed += 1
            return
        if verdict.code == "UC501":
            raise UCSanitizerError(
                f"sanitizer: reduction {verdict.op!r} produced a different "
                "value under permuted operand order at a site the analyzer "
                "proved commutative+associative [UC501] "
                f"({verdict.reason}) — the proof and the engine disagree",
                node.line,
                node.col,
            )
        # UC502/UC503: order sensitivity is the *claimed* behaviour —
        # the observation confirms the warning, it does not fail the run
        self.order_sensitivity_observed += 1

    # -- write-side claims --------------------------------------------------

    def record_write(self, node: ast.Index, has_dup: bool) -> None:
        """Called by both scatter paths after the single-assignment check.

        ``has_dup`` says whether the flat index vector contained a
        duplicate (benign duplicates — equal values — included: the
        injectivity claim is about the index map, not the values).
        """
        self.writes_checked += 1
        if not has_dup:
            return
        self.duplicate_writes += 1
        key = (node.line, node.col, node.base)
        if self.write_claims.get(key) == "injective":
            raise UCSanitizerError(
                f"sanitizer: scatter to {node.base!r} produced a duplicate "
                "element index at a site the analyzer proved injective "
                "(static race analysis and the engine disagree)",
                node.line,
                node.col,
            )

    # -- tier claims --------------------------------------------------------

    def cross_check(self, ip) -> Dict[str, int]:
        """Compare the run's observed tiers against the static claims.

        Raises on any contradiction; returns the summary statistics that
        ``repro run --stats`` prints.
        """
        log = getattr(ip, "tier_log", None) or {}
        costs = ip.machine.clock.costs
        enabled = ip.config.comm_tiers
        observed_sites = 0
        verified = 0
        contradictions: List[str] = []
        for key, observed in sorted(log.items()):
            claim = self.tier_claims.get(key)
            if claim is None:
                continue  # inexact or unclaimed site: advisory lints only
            observed_sites += 1
            expected = {
                decide_tier(rc, costs, write=w, enabled=enabled) for rc, w in claim
            }
            extra = set(observed) - expected
            if extra:
                line, base = key
                contradictions.append(
                    f"line {line}: reference to {base!r} used tier(s) "
                    f"{sorted(extra)} but the analyzer proved "
                    f"{sorted(expected)}"
                )
            else:
                verified += 1
        if contradictions:
            raise UCSanitizerError(
                "sanitizer: observed communication tiers contradict the "
                "static verdicts:\n  " + "\n  ".join(contradictions)
            )
        return {
            "writes_checked": self.writes_checked,
            "duplicate_writes": self.duplicate_writes,
            "write_sites_claimed": len(self.write_claims),
            "tier_sites_claimed": len(self.tier_claims),
            "tier_sites_observed": observed_sites,
            "tier_sites_verified": verified,
            "reduction_sites_claimed": len(self.red_claims),
            "reductions_checked": self.reductions_checked,
            "reductions_confirmed": self.reductions_confirmed,
            "order_sensitivity_observed": self.order_sensitivity_observed,
        }


def _tier_claims(verdicts) -> Dict[TierKey, List[Tuple[RefClass, bool]]]:
    """Exact static verdicts per ``tier_log`` key.

    ``tier_log`` keys by (line, base), which can merge several source
    references; a single inexact contributor poisons the whole key, so
    those keys claim nothing.  DSL-built nodes without positions (line 0)
    are skipped for the same reason — the key cannot identify a site.
    """
    claims: Dict[TierKey, List[Tuple[RefClass, bool]]] = {}
    poisoned = set()
    for v in verdicts:
        node = v.ref.node
        if node.line <= 0:
            continue
        key = (node.line, node.base)
        if not v.exact or v.rc is None or v.rc.axes is None:
            poisoned.add(key)
            continue
        pairs = claims.setdefault(key, [])
        if v.ref.read or not v.ref.write:
            pairs.append((v.rc, False))
        if v.ref.write and v.rc_write is not None:
            pairs.append((v.rc_write, True))
        if v.rc_operand is not None:
            # the processor optimization may service this reference on
            # the operand grid instead
            pairs.append((v.rc_operand, False))
    for key in poisoned:
        claims.pop(key, None)
    return claims

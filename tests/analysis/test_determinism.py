"""The UC5xx determinism envelopes: classification, the legality oracle,
the order-permuting sanitizer, and the ``--explain`` code table."""

import numpy as np
import pytest

from repro.analysis import explain, lint_program
from repro.analysis.determinism import ReductionVerdict, determinism_claims
from repro.analysis.sanitize import Sanitizer
from repro.bench import workloads as W
from repro.cli import main
from repro.interp import eval_expr as E
from repro.interp.program import UCProgram
from repro.lang import ast
from repro.lang.errors import UCSanitizerError

from tests.conftest import run_uc

EXAMPLES = ("apsp.uc", "histogram.uc", "shifted.uc")
EXAMPLE_DEFINES = {"apsp.uc": {"N": 8}, "histogram.uc": {"N": 16}}


def _example(name):
    return open(f"examples/uc/{name}").read()


def _find_reduction(prog) -> ast.Reduction:
    for node in ast.walk(prog.info.program):
        if isinstance(node, ast.Reduction):
            return node
    raise AssertionError("no reduction in program")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_builtin_min_max_logical_are_uc501(self):
        for op in ("$<", "$>", "$&&", "$||", "$^"):
            src = (
                "index_set I:i = {0..7};\nint x[8]; int m;\n"
                f"main {{ m = {op}(I; x[i]); par (I) x[i] = 0; }}"
            )
            rep = lint_program(src)
            assert rep.has("UC501"), op
            assert not rep.has("UC502") and not rep.has("UC503"), op

    def test_int_add_with_interval_proof(self):
        src = (
            "index_set I:i = {0..15};\nint s;\n"
            "main { s = $+(I; i * 2); }"
        )
        rep = lint_program(src)
        d = rep.by_code("UC501")
        assert d and "no-overflow" in d[0].message

    def test_int_add_unbounded_falls_back_to_wraparound(self):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int s;\n"
            "main { s = $+(I; x[i]); par (I) x[i] = 0; }"
        )
        rep = lint_program(src)
        d = rep.by_code("UC501")
        assert d and "wraparound" in d[0].message

    def test_float_add_is_uc502_with_fixit(self):
        src = (
            "index_set I:i = {0..7};\nfloat x[8]; float s;\n"
            "main { s = $+(I; x[i]); par (I) x[i] = 0.0; }"
        )
        rep = lint_program(src)
        d = rep.by_code("UC502")
        assert d and d[0].severity == "warning" and d[0].hint
        assert not rep.has("UC501")

    def test_impure_body_is_uc503(self):
        src = "index_set I:i = {0..7};\nint s;\nmain { s = $+(I; rand() % 4); }"
        rep = lint_program(src)
        d = rep.by_code("UC503")
        assert d and "rand" in d[0].message and d[0].hint

    @pytest.mark.parametrize("call", ["ABS(x[i] - 3)", "abs(x[i] - 3)", "power2(i % 4)"])
    def test_pure_builtin_body_is_uc501(self, call):
        """Purity comes from the one builtin table, every spelling included."""
        src = (
            "index_set I:i = {0..7};\nint x[8]; int s;\n"
            f"main {{ s = $+(I; {call}); par (I) x[i] = 0; }}"
        )
        rep = lint_program(src)
        assert rep.has("UC501") and not rep.has("UC503"), rep.render_text()

    def test_user_override_of_a_builtin_is_an_opaque_call(self):
        """A user ``abs`` that writes program state is not the pure builtin
        it shadows: commutativity is decided, not assumed from a name."""
        src = (
            "index_set I:i = {0..7};\nint a[8]; int s;\n"
            "int abs(int v) { a[0] = v; return v < 0 ? 0 - v : v; }\n"
            "main { s = $+(I; abs(a[i] - 3)); }"
        )
        rep = lint_program(src)
        d = rep.by_code("UC503")
        assert d and "user function" in d[0].message, rep.render_text()
        assert not rep.has("UC501")

    def test_escaping_arbitrary_is_uc504(self):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int a;\n"
            'main { a = $,(I; x[i]); printf("%d", a); par (I) x[i] = 0; }'
        )
        rep = lint_program(src)
        assert rep.by_code("UC504")

    def test_escaping_oneof_write_is_uc504(self):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int y;\n"
            "main { oneof (I) st (i < 4) x[i] = 1; st (i >= 2) x[i] = 2;\n"
            "       y = x[3]; }"
        )
        d = lint_program(src).by_code("UC504")
        assert d and "'oneof' runs one RNG-chosen arm and its write to 'x'" in d[0].message
        assert "read at line 4" in d[0].message

    def test_local_arbitrary_is_quiet(self):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int a;\n"
            "main { a = $,(I; x[i]); par (I) x[i] = 0; }"
        )
        assert not lint_program(src).has("UC504")

    def test_uc505_cross_references_the_verdict(self):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int s;\n"
            "main { s = $+(I; x[i]); par (I) x[i] = 0; }"
        )
        rep = lint_program(src)
        d = rep.by_code("UC505")
        assert d and d[0].severity == "info" and "UC501" in d[0].message

    def test_every_example_reduction_gets_a_verdict(self):
        for name in EXAMPLES:
            prog = UCProgram(_example(name), defines=EXAMPLE_DEFINES.get(name))
            claims = determinism_claims(Sanitizer(prog.frontend).model)
            n_reductions = sum(
                1 for n in ast.walk(prog.info.program)
                if isinstance(n, ast.Reduction)
            )
            assert len(claims) == n_reductions, name

    def test_examples_are_uc5xx_clean_under_werror(self):
        for name in EXAMPLES:
            src = _example(name)
            defines = EXAMPLE_DEFINES.get(name)
            rep = lint_program(src, defines=defines, filename=name)
            assert rep.exit_code(werror=True) == 0, (name, rep.render_text())


# ---------------------------------------------------------------------------
# the legality oracle
# ---------------------------------------------------------------------------


class TestLegalityOracle:
    INT_SUM = (
        "index_set I:i = {0..31};\nint x[32]; int s;\n"
        "main { par (I) x[i] = i; s = $+(I; x[i]); }"
    )
    FLOAT_SUM = (
        "index_set I:i = {0..31};\nfloat x[32]; float s;\n"
        "main { par (I) x[i] = 1.0 / (i + 1); s = $+(I; x[i]); }"
    )

    def test_interpreter_oracle_matches_lint(self):
        prog = UCProgram(self.INT_SUM)
        interp = prog.prepare().interp
        node = _find_reduction(prog)
        assert interp.reduction_order_safe(node)
        v = interp.reduction_verdict(node)
        assert v.code == "UC501" and v.proven

        progf = UCProgram(self.FLOAT_SUM)
        interpf = progf.prepare().interp
        nodef = _find_reduction(progf)
        assert not interpf.reduction_order_safe(nodef)
        assert interpf.reduction_verdict(nodef).code == "UC502"

    def test_fused_reduce_steps_carry_the_verdict(self, monkeypatch):
        from repro.interp import fuse as fuse_mod

        seen = []
        orig = fuse_mod._Reduce.__init__

        def spy(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            seen.append(self.order_safe)

        monkeypatch.setattr(fuse_mod._Reduce, "__init__", spy)
        src = (
            "int N = 10;\nindex_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            "int dist[10][10];\n"
            "main { *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]); }\n"
        )
        d = np.full((10, 10), 10**6, dtype=np.int64)
        np.fill_diagonal(d, 0)
        for a in range(9):
            d[a, a + 1] = d[a + 1, a] = 3
        UCProgram(src).run({"dist": d.copy()})
        assert seen and all(seen), "min reductions must compile order-safe"

    def test_batch_demotes_unproven_sites_bit_identically(self, monkeypatch):
        """Forging every verdict to unproven must not change one bit of
        any lane: the blocked reorder falls back to the grouping-
        preserving path."""
        from repro.interp.interpreter import Interpreter

        src = (
            "int N = 14;\nindex_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            "int dist[14][14];\n"
            "main { *solve (I, J) dist[i][j] = $<(K; dist[i][k] + dist[k][j]); }\n"
        )
        # distinct source text for the forged build: the cross-run compile
        # store keys on the source hash and must not serve the unforged
        # fused programs to the patched interpreter
        src_forged = src + "\n"

        def lanes(n, w):
            d = np.full((14, 14), 10**6, dtype=np.int64)
            np.fill_diagonal(d, 0)
            for a in range(13):
                d[a, a + 1] = d[a + 1, a] = w
            return {"dist": d}

        inputs = [lanes(14, w) for w in (2, 5, 9)]
        honest = UCProgram(src).run_batch(
            [{k: v.copy() for k, v in inp.items()} for inp in inputs]
        )
        monkeypatch.setattr(
            Interpreter, "reduction_order_safe", lambda self, node: False
        )
        forged = UCProgram(src_forged).run_batch(
            [{k: v.copy() for k, v in inp.items()} for inp in inputs]
        )
        for a, b in zip(honest, forged):
            assert np.array_equal(a["dist"], b["dist"])
            assert a.fingerprint == b.fingerprint


# ---------------------------------------------------------------------------
# the order-permuting sanitizer
# ---------------------------------------------------------------------------


class TestOrderPermutation:
    def test_uc501_sites_are_confirmed(self):
        res = run_uc(
            "index_set I:i = {0..31};\nint x[32]; int s;\n"
            "main { par (I) x[i] = i * 3; s = $+(I; x[i]); }",
            sanitize=True,
        )
        s = res.sanitizer
        assert s["reduction_sites_claimed"] == 1
        assert s["reductions_checked"] == 1
        assert s["reductions_confirmed"] == 1
        assert s["order_sensitivity_observed"] == 0

    def test_uc502_order_sensitivity_is_a_confirming_observation(self):
        res = run_uc(
            "index_set I:i = {0..63};\nfloat x[64]; float s;\n"
            "main { par (I) x[i] = 1.0 / (i + 1); s = $+(I; x[i]); }",
            sanitize=True,
        )
        s = res.sanitizer
        assert s["reductions_checked"] == 1
        # a permuted float sum differing is the CLAIMED behaviour: no raise
        assert s["order_sensitivity_observed"] == 1
        assert s["reductions_confirmed"] == 0

    def test_forged_uc501_claim_is_a_hard_failure(self):
        """The acceptance check: forge a commutativity proof onto a
        float site whose permuted sum really differs -> UCSanitizerError."""
        prog = UCProgram(
            "index_set I:i = {0..3};\nfloat x[4]; float s;\n"
            "main { s = $+(I; x[i]); par (I) x[i] = 0.0; }"
        )
        node = _find_reduction(prog)
        san = Sanitizer(prog.frontend)
        assert san.red_claims[id(node)].code == "UC502"
        san.red_claims[id(node)] = ReductionVerdict(
            code="UC501", order_safe=True, op="add", reason="forged"
        )
        # catastrophic cancellation: any order change moves the result
        vals = np.array([2.0**53, 1.0, -(2.0**53), 1.0])
        perm = np.random.default_rng(0x5C501).permutation(4)
        ordered = np.add.reduce(vals)
        permuted = np.add.reduce(vals[perm])
        assert ordered != permuted, "precondition: the seeded permutation moves the sum"
        arm_values = [vals]
        arm_masks = [np.ones(4, dtype=bool)]
        result = E._reduce_op("add", arm_values, arm_masks, (0,))
        with pytest.raises(UCSanitizerError, match="UC501"):
            san.check_reduction(node, arm_values, arm_masks, (0,), result)

    def test_send_reduce_path_is_permutation_checked(self):
        # the digit-count pattern on a machine small enough to trigger
        # the processor optimization (product grid would not fit)
        src = (
            "index_set I:i = {0..255}, J:j = {0..9};\n"
            "int samples[256]; int count[10];\n"
            "main {\n"
            "    par (I) samples[i] = rand() % 10;\n"
            "    par (J) count[j] = $+(I st (samples[i] == j) 1);\n"
            "}\n"
        )
        from repro.machine import Machine, small_config

        prog = UCProgram(src, sanitize=True)
        res = prog.run(machine=Machine(small_config(64), seed=7))
        assert res.sanitizer["reductions_checked"] >= 1
        assert res.sanitizer["order_sensitivity_observed"] == 0

    @pytest.mark.parametrize(
        "src, defines, sample_key",
        [
            (W.DIGIT_COUNT_UC, {"N": 256}, "samples"),
            (W.MATMUL_UC, {"N": 8}, None),
            (W.APSP_N3_UC, {"N": 8, "LOGN": 3}, None),
        ],
        ids=["digit-count", "matmul", "apsp-n3"],
    )
    def test_every_permuted_site_confirms_or_observes(self, src, defines, sample_key):
        inputs = {}
        if sample_key:
            inputs[sample_key] = np.random.default_rng(11).integers(0, 10, defines["N"])
        plain = run_uc(src, dict(inputs), defines=defines)
        san = run_uc(src, dict(inputs), defines=defines, sanitize=True)
        for var in plain.keys():
            assert np.array_equal(plain[var], san[var]), var
        s = san.sanitizer
        assert s["reductions_checked"] > 0
        assert (
            s["reductions_confirmed"] + s["order_sensitivity_observed"]
            == s["reductions_checked"]
        )

    def test_examples_fingerprints_unchanged_and_confirmed(self):
        """Order permutation is observational: sanitized runs keep the
        fingerprint of the unsanitized full-sweep run (the same clock
        key) and confirm every UC501 proof."""
        for name in ("histogram.uc",):
            src = _example(name)
            defines = EXAMPLE_DEFINES.get(name)
            plain = UCProgram(src, defines=defines, frontier=False).run()
            san = UCProgram(src, defines=defines, sanitize=True).run()
            assert san.fingerprint == plain.fingerprint, name
            assert san.sanitizer["reductions_checked"] > 0, name
            assert san.sanitizer["order_sensitivity_observed"] == 0, name


# ---------------------------------------------------------------------------
# repro lint --explain
# ---------------------------------------------------------------------------


class TestExplainCli:
    def test_explain_prints_entry_for_every_family(self, capsys):
        for code in ("UC001", "UC101", "UC201", "UC301", "UC401", "UC501"):
            assert main(["lint", "--explain", code]) == 0
            out = capsys.readouterr().out
            assert code in out and "severity:" in out and "fix-it:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "uc502"]) == 0
        assert "UC502" in capsys.readouterr().out

    def test_explain_unknown_code_fails(self):
        with pytest.raises(SystemExit):
            main(["lint", "--explain", "UC999"])

    def test_explain_then_lint_files(self, capsys, tmp_path):
        f = tmp_path / "p.uc"
        f.write_text(
            "index_set I:i = {0..7};\nint x[8]; int s;\n"
            "main { s = $+(I; x[i]); par (I) x[i] = 0; }\n"
        )
        assert main(["lint", "--explain", "UC505", str(f)]) == 0
        out = capsys.readouterr().out
        assert "UC505" in out and "0 error(s)" in out

    def test_lint_without_files_or_explain_fails(self):
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_explain_matches_api(self, capsys):
        main(["lint", "--explain", "UC503"])
        assert capsys.readouterr().out.strip() == explain("UC503").strip()


# ---------------------------------------------------------------------------
# identity elements & empty selections
# ---------------------------------------------------------------------------


class TestIdentityElements:
    def _empty(self, op):
        src = (
            "index_set I:i = {0..7};\nint x[8]; int r;\n"
            f"main {{ r = {op}(I st (0) x[i]); par (I) x[i] = 5; }}"
        )
        return run_uc(src)["r"]

    def test_empty_selection_yields_identity(self):
        assert self._empty("$+") == 0
        assert self._empty("$*") == 1
        assert self._empty("$&&") == 1  # vacuous truth
        assert self._empty("$||") == 0
        assert self._empty("$^") == 0

    def test_empty_min_max_yield_infinities(self):
        from repro.machine.scan import INF

        assert self._empty("$<") == INF
        assert self._empty("$>") == -INF

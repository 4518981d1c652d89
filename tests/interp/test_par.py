"""par / *par construct tests (paper §3.4)."""

import numpy as np
import pytest

from repro.lang.errors import UCMultipleAssignmentError, UCRuntimeError
from tests.conftest import run_uc


class TestSimplePar:
    def test_assignment_over_set(self):
        r = run_uc("index_set I:i = {0..4};\nint a[5];\nmain { par (I) a[i] = i; }")
        assert r["a"].tolist() == [0, 1, 2, 3, 4]

    def test_predicate_selects_subset(self):
        r = run_uc(
            "index_set I:i = {0..5};\nint a[6];\n"
            "main { par (I) st (i % 2 == 1) a[i] = 9; }"
        )
        assert r["a"].tolist() == [0, 9, 0, 9, 0, 9]

    def test_reciprocal_example(self):
        """§3.4: the predicate protects the division."""
        src = (
            "index_set I:i = {0..3};\nfloat f[4];\n"
            "main { par (I) st (f[i] != 0) f[i] = 1.0 / f[i]; }"
        )
        r = run_uc(src, {"f": np.array([2.0, 0.0, 4.0, 0.5])})
        assert r["f"].tolist() == [0.5, 0.0, 0.25, 2.0]

    def test_st_and_others(self):
        """§3.4: odd elements to 0, others to 1."""
        r = run_uc(
            "index_set I:i = {0..5};\nint a[6];\n"
            "main { par (I) st (i % 2 == 1) a[i] = 0; others a[i] = 1; }"
        )
        assert r["a"].tolist() == [1, 0, 1, 0, 1, 0]

    def test_multiple_st_blocks(self):
        r = run_uc(
            "index_set I:i = {0..8};\nint a[9];\n"
            "main { par (I) st (i % 3 == 0) a[i] = 3; "
            "st (i % 3 == 1) a[i] = 1; others a[i] = 2; }"
        )
        assert r["a"].tolist() == [3, 1, 2, 3, 1, 2, 3, 1, 2]

    def test_sequence_body_is_synchronous(self):
        """Each statement completes for all lanes before the next starts:
        the second statement sees the first statement's writes."""
        r = run_uc(
            "index_set I:i = {0..3};\nint a[4], b[4];\n"
            "main { par (I) { a[i] = i + 1; b[i] = a[3 - i]; } }"
        )
        assert r["b"].tolist() == [4, 3, 2, 1]

    def test_rhs_reads_before_writes_within_statement(self):
        """a[i] = a[i-1] uses the OLD neighbour values (synchronous)."""
        src = (
            "index_set I:i = {1..3};\nint a[4];\n"
            "main { par (I) a[i] = a[i-1]; }"
        )
        r = run_uc(src, {"a": np.array([1, 2, 3, 4])})
        assert r["a"].tolist() == [1, 1, 2, 3]

    def test_cartesian_product(self):
        r = run_uc(
            "index_set I:i = {0..2}, J:j = I;\nint d[3][3];\n"
            "main { par (I, J) d[i][j] = 10 * i + j; }"
        )
        assert r["d"][2][1] == 21

    def test_nested_par_extends_grid(self):
        r = run_uc(
            "index_set I:i = {0..2}, J:j = I;\nint d[3][3];\n"
            "main { par (I) par (J) d[i][j] = i + j; }"
        )
        assert r["d"].tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]


class TestSingleAssignment:
    def test_paper_illegal_example(self):
        """par (I,J) a[i] = b[j] assigns N values to each a[i] (§3.4)."""
        src = (
            "index_set I:i = {0..3}, J:j = I;\nint a[4], b[4];\n"
            "main { par (I, J) a[i] = b[j]; }"
        )
        with pytest.raises(UCMultipleAssignmentError):
            run_uc(src, {"b": np.array([1, 2, 3, 4])})

    def test_identical_values_allowed(self):
        src = (
            "index_set I:i = {0..3}, J:j = I;\nint a[4], b[4];\n"
            "main { par (I, J) a[i] = b[0]; }"
        )
        r = run_uc(src, {"b": np.array([7, 8, 9, 10])})
        assert r["a"].tolist() == [7, 7, 7, 7]

    def test_scalar_target_conflict(self):
        src = "index_set I:i = {0..3};\nint s;\nmain { par (I) s = i; }"
        with pytest.raises(UCMultipleAssignmentError):
            run_uc(src)

    def test_scalar_target_agreeing_values(self):
        src = "index_set I:i = {0..3};\nint s;\nmain { par (I) s = 5; }"
        assert run_uc(src)["s"] == 5

    def test_explicit_nondeterminism_via_arbitrary(self):
        """The paper's fix: use $, to choose one value explicitly."""
        src = (
            "index_set I:i = {0..3}, J:j = I;\nint a[4], b[4];\n"
            "main { par (I) a[i] = $,(J; b[j]); }"
        )
        b = np.array([1, 2, 3, 4])
        r = run_uc(src, {"b": b})
        assert all(v in b for v in r["a"])


class TestStarPar:
    def test_prefix_sums_figure2(self):
        src = (
            "int N = 32;\nindex_set I:i = {0..N-1};\nint a[32], cnt[32];\n"
            "int power2(int x) { return 1 << x; }\n"
            "main { par (I) { a[i] = i; cnt[i] = 0; }\n"
            "*par (I) st (i >= power2(cnt[i])) {\n"
            "  a[i] = a[i] + a[i - power2(cnt[i])];\n"
            "  cnt[i] = cnt[i] + 1; } }"
        )
        r = run_uc(src)
        assert np.array_equal(r["a"], np.cumsum(np.arange(32)))
        # every lane ran exactly ceil(log2(max(i,1)))-ish iterations
        assert r["cnt"][31] == 5

    def test_terminates_immediately_when_nothing_enabled(self):
        r = run_uc(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *par (I) st (a[i] > 100) a[i] = 0; }"
        )
        assert r["a"].tolist() == [0, 0, 0, 0]

    def test_star_par_without_predicate_rejected(self):
        with pytest.raises(UCRuntimeError):
            run_uc(
                "index_set I:i = {0..3};\nint a[4];\nmain { *par (I) a[i] = 0; }"
            )

    def test_star_par_with_others_rejected(self):
        with pytest.raises(UCRuntimeError):
            run_uc(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { *par (I) st (a[i] < 0) a[i] = 0; others a[i] = 1; }"
            )

    def test_countdown(self):
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) a[i] = i; *par (I) st (a[i] > 0) a[i] = a[i] - 1; }"
        )
        assert run_uc(src)["a"].tolist() == [0, 0, 0, 0]


class TestSweepLimit:
    """``*par``/``*seq``/``*oneof`` (and plain loops) obey the one
    configurable sweep limit: a predicate that never falsifies is a
    located diagnostic within a second, not a spin to 100 000 sweeps."""

    #: the obstacle relaxation with ``=`` mutated to ``*=``: never converges
    SRC = (
        "index_set I:i = {0..7};\nint a[8];\n"
        "main {\n  *par (I)\n    st (a[i] != 1 + (i > 0 ? a[i-1] : 0))\n"
        "      a[i] *= 1 + (i > 0 ? a[i-1] : 0);\n}"
    )
    WANT = (
        "*par exceeded the sweep limit (50; raise via UCProgram(solve_sweep_limit=...) "
        "or REPRO_SOLVE_SWEEP_LIMIT); some 'st' predicate still holds after every sweep"
    )

    @pytest.mark.parametrize("engine", [{}, {"frontier": False}, {"plans": False}])
    def test_non_converging_star_par_raises_quickly(self, engine):
        import time

        t0 = time.perf_counter()
        with pytest.raises(UCRuntimeError) as err:
            run_uc(self.SRC, solve_sweep_limit=50, **engine)
        assert time.perf_counter() - t0 < 1.0
        assert self.WANT in str(err.value)
        assert (err.value.line, err.value.col) == (4, 4)

    def test_run_batch_raises_the_solo_error(self):
        from repro.interp.program import UCProgram

        with pytest.raises(UCRuntimeError) as err:
            UCProgram(self.SRC, solve_sweep_limit=50).run_batch([{}, {}, {}])
        assert self.WANT in str(err.value) and err.value.line == 4

    @pytest.mark.parametrize(
        "body, what",
        [
            ("*seq (I) st (a[i] < 9) a[i] = 0;", "*seq"),
            ("*oneof (I) st (a[i] < 9) a[i] = 0;", "*oneof"),
            ("int k; k = 0; while (k < 1) a[0] = 0;", "while loop"),
            ("int k; for (k = 0; k < 1; k = k * 2) a[0] = 0;", "for loop"),
            ("int k; k = 0; do a[0] = 0; while (k < 1);", "do-while loop"),
        ],
    )
    def test_every_iterating_construct_and_loop(self, body, what):
        src = f"index_set I:i = {{0..3}};\nint a[4];\nmain {{ {body} }}"
        with pytest.raises(UCRuntimeError, match="sweep limit") as err:
            run_uc(src, solve_sweep_limit=20)
        assert str(err.value).startswith(f"{what} exceeded the sweep limit (20; ")


class TestParallelControlFlow:
    def test_if_inside_par_masks(self):
        r = run_uc(
            "index_set I:i = {0..5};\nint a[6];\n"
            "main { par (I) { if (i < 3) a[i] = 1; else a[i] = 2; } }"
        )
        assert r["a"].tolist() == [1, 1, 1, 2, 2, 2]

    def test_while_with_grid_condition_rejected(self):
        with pytest.raises(UCRuntimeError):
            run_uc(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { par (I) { while (a[i] < 3) a[i] = a[i] + 1; } }"
            )

    def test_array_decl_in_parallel_body_rejected(self):
        with pytest.raises(UCRuntimeError):
            run_uc(
                "index_set I:i = {0..3};\nint a[4];\n"
                "main { par (I) { int t[2]; a[i] = 0; } }"
            )

    def test_seq_loop_inside_par(self):
        """figure 3's structure."""
        src = (
            "int N = 16;\nint LOGN = 4;\n"
            "index_set I:i = {0..N-1}, J:j = {0..LOGN-1};\nint a[16];\n"
            "int power2(int x) { return 1 << x; }\n"
            "main { par (I) { a[i] = i;\n"
            "  seq (J) st (i - power2(j) >= 0) a[i] = a[i] + a[i - power2(j)]; } }"
        )
        r = run_uc(src)
        assert np.array_equal(r["a"], np.cumsum(np.arange(16)))

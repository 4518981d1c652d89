"""Processor-optimization analysis tests (paper §4)."""

import numpy as np
import pytest

from repro.analysis.context import build_model
from repro.compiler.processor_opt import analyze_program, partition_split
from repro.lang import analyze, parse_expression, parse_program
from repro.mapping.maps import build_layouts

DIGIT_SRC = """
int N = 40;
index_set I:i = {0..N-1}, J:j = {0..9};
int samples[40];
int count[10];
main {
    par (J)
        count[j] = $+(I st (samples[i] == j) 1);
}
"""


def match_partition(red, par_elems, red_elems):
    return partition_split(red, par_elems, red_elems) is not None


def plans_for(src):
    info = analyze(parse_program(src))
    return analyze_program(build_model(info, build_layouts(info)))


class TestMatchPartition:
    def _red(self, text):
        return parse_expression(text)

    def test_paper_example_matches(self):
        red = self._red("$+(I st (samples[i] == j) 1)")
        assert match_partition(red, ["j"], ["i"])

    def test_reversed_equality_matches(self):
        red = self._red("$+(I st (j == samples[i]) 1)")
        assert match_partition(red, ["j"], ["i"])

    def test_conjunction_matches(self):
        red = self._red("$+(I st (samples[i] == j && i > 3) 1)")
        assert match_partition(red, ["j"], ["i"])

    def test_inequality_does_not_match(self):
        red = self._red("$+(I st (samples[i] < j) 1)")
        assert not match_partition(red, ["j"], ["i"])

    def test_par_element_on_both_sides_does_not_match(self):
        red = self._red("$+(I st (samples[i] + j == j) 1)")
        assert not match_partition(red, ["j"], ["i"])

    def test_no_predicate_does_not_match(self):
        red = self._red("$+(I; samples[i])")
        assert not match_partition(red, ["j"], ["i"])

    def test_equality_between_reduction_elems_only(self):
        red = self._red("$+(I st (samples[i] == i) 1)")
        assert not match_partition(red, ["j"], ["i"])

    def test_par_element_in_another_conjunct_does_not_match(self):
        """``j > 2`` keeps the predicate from partitioning on the operand
        grid alone: each operand would need the result's element too."""
        red = self._red("$+(I st (samples[i] == j && j > 2) 1)")
        assert not match_partition(red, ["j"], ["i"])


GATED_SRC = """
index_set I:i = {0..4095}, J:j = {0..15};
int samples[4096];
int count[16];
main {
    par (J)
        count[j] = $+(I st (%s) 1);
}
"""


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize(
    "pred", ["samples[i] == j", "samples[i] == j && j > 2"], ids=["partition", "gated"]
)
def test_analyze_reports_the_optimization_exactly_when_the_run_takes_it(pred, tmp_path, capsys):
    """On a product grid that outgrows the machine (65 536 VPs on 16K PEs)
    ``repro analyze`` names the §4 optimization if and only if the run's
    ledger shows the combining ``router_send`` it compiles to."""
    from repro.cli import main
    from tests.conftest import run_uc

    path = tmp_path / "digits.uc"
    path.write_text(GATED_SRC % pred)
    assert main(["analyze", str(path)]) == 0
    reported = "processor optimization" in capsys.readouterr().out
    samples = np.arange(4096) % 16
    sent = run_uc(GATED_SRC % pred, {"samples": samples}).counts.get("router_send", 0)
    assert reported == (pred == "samples[i] == j")
    assert reported == (sent > 0)


class TestAnalyzeProgram:
    def test_digit_count_plan(self):
        plans = plans_for(DIGIT_SRC)
        assert len(plans) == 1
        plan = plans[0]
        assert plan.partitioned
        assert plan.naive_vps == 10 * 40
        assert plan.optimized_vps == 40
        assert plan.saving == pytest.approx(10.0)

    def test_unpartitioned_reduction_keeps_naive_vps(self):
        src = DIGIT_SRC.replace("samples[i] == j", "samples[i] <= j")
        plan = plans_for(src)[0]
        assert not plan.partitioned
        assert plan.optimized_vps == plan.naive_vps

    def test_reduction_outside_par_not_planned(self):
        src = (
            "index_set I:i = {0..9};\nint a[10], s;\n"
            "main { s = $+(I; a[i]); }"
        )
        assert plans_for(src) == []

    def test_matmul_reduction_planned_unpartitioned(self):
        src = (
            "index_set I:i = {0..3}, J:j = I, K:k = I;\n"
            "int a[4][4], b[4][4], c[4][4];\n"
            "main { par (I, J) c[i][j] = $+(K; a[i][k] * b[k][j]); }"
        )
        plans = plans_for(src)
        assert len(plans) == 1
        assert not plans[0].partitioned
        assert plans[0].naive_vps == 4 * 4 * 4

"""Table P — processor optimization (paper §4).

The digit-count program

    par (J) count[j] = $+(I st (samples[i] == j) 1);

naively needs 10·N virtual processors (one reduction grid per digit); the
compiler deduces from the predicate that every sample affects at most one
count and implements the whole thing as one combining router send with
max(N, 10) VPs.  We report, per N: the deduced VP requirement (static
analysis) and the simulated elapsed time with the optimization off/on —
the saving materialises exactly when the naive VP set outgrows the 16K
physical machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.report import format_table
from repro.bench.workloads import DIGIT_COUNT_UC
from repro.compiler.processor_opt import analyze_program
from repro.interp.program import UCProgram

from _common import save_report

NS = (64, 1024, 8192, 32768, 131072)


def run_table_p():
    rows = []
    for n in NS:
        samples = np.random.default_rng(3).integers(0, 10, n)
        reference = np.bincount(samples, minlength=10)

        prog_naive = UCProgram(DIGIT_COUNT_UC, defines={"N": n}, processor_opt=False)
        plans = analyze_program(prog_naive.frontend.model())
        assert len(plans) == 1 and plans[0].partitioned
        plan = plans[0]

        naive = prog_naive.run({"samples": samples})
        opt = UCProgram(DIGIT_COUNT_UC, defines={"N": n}, processor_opt=True).run(
            {"samples": samples}
        )
        assert np.array_equal(naive["count"], reference)
        assert np.array_equal(opt["count"], reference)
        rows.append(
            (
                n,
                plan.naive_vps,
                plan.optimized_vps,
                naive.elapsed_us / 1e3,
                opt.elapsed_us / 1e3,
                naive.elapsed_us / opt.elapsed_us,
            )
        )
    return rows


def check_table_p(rows) -> None:
    for n, naive_vps, opt_vps, t_naive, t_opt, speedup in rows:
        assert naive_vps == 10 * n
        assert opt_vps == max(n, 10)
        # never slower, and clearly faster once 10*N exceeds the machine
        assert speedup >= 0.95
        if naive_vps > 16384 >= opt_vps or naive_vps // 16384 > max(1, opt_vps // 16384):
            assert speedup > 2.0, f"expected a real saving at N={n}"
    assert max(r[5] for r in rows) > 5.0


@pytest.mark.benchmark(group="processor-opt")
def test_processor_opt(benchmark):
    rows = benchmark.pedantic(run_table_p, iterations=1, rounds=1)
    check_table_p(rows)
    save_report(
        "table_processor_opt",
        format_table(
            ["N", "naive VPs", "optimized VPs", "naive (ms)", "optimized (ms)", "speedup"],
            rows,
            title="Table P: VP deduction for the digit-count reduction (16K PEs)",
        ),
    )


if __name__ == "__main__":
    rows = run_table_p()
    check_table_p(rows)
    save_report(
        "table_processor_opt",
        format_table(
            ["N", "naive VPs", "optimized VPs", "naive (ms)", "optimized (ms)", "speedup"],
            rows,
        ),
    )

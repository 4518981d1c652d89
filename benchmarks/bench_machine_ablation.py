"""Machine-size ablation — the design choice DESIGN.md calls out.

The simulator's headline behaviours are (a) VP-ratio time-slicing: work
beyond the physical machine multiplies instruction cost, and (b) fixed
per-instruction front-end dispatch: small machines and small problems pay
the same instruction overheads.  This ablation runs the figure-8 workload
across machine sizes and checks both effects — including the paper's
implicit claim that a 16K CM-2 holds the (up to) 120-row grid at VP
ratio 1, i.e. the near-flat UC curve *depends on* the machine being big
enough.

Two series, because two cost models are in play:

* ``full sweeps`` (``frontier=False``) is the machine model the claim is
  about: every sweep of the ``*par`` runs over the whole VP set, so an
  undersized machine pays the full VP ratio on every instruction.  The
  "more than 2x slower at 256 PEs" assertion pins this line.
* ``default`` is what ``repro run`` does: compressed sweeps charge only
  the *active* VP set, which on a small machine often fits a lower VP
  ratio than the whole grid — so the penalty for being undersized
  shrinks (1.75x here) while the dispatch floor stays.  This line is
  pinned by "never above the full-sweep line"; both lines are pinned by
  the monotone and flat-above-4096 checks.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import Sweep
from repro.bench.report import format_series_table
from repro.bench.workloads import OBSTACLE_UC
from repro.algorithms.grid_path import BIG
from repro.interp.program import UCProgram
from repro.machine import MachineConfig

from _common import save_report

ROWS = 48  # 2304 cells
PE_COUNTS = (256, 1024, 4096, 16384, 65536)


#: series tag -> the ``frontier`` switch its runs are made with
MODELS = {"full sweeps": False, "default": True}


def _series(sweep: Sweep, tag: str):
    return sweep.series[f"UC obstacle, {tag}"]


def run_ablation() -> Sweep:
    sweep = Sweep(
        f"Machine-size ablation: {ROWS}x{ROWS} obstacle grid", "physical PEs"
    )
    for tag, frontier in MODELS.items():
        for pes in PE_COUNTS:
            cfg = MachineConfig(n_pes=pes, name=f"CM/{pes}")
            run = UCProgram(
                OBSTACLE_UC,
                defines={"R": ROWS, "WALL": BIG},
                machine_config=cfg,
                frontier=frontier,
            ).run()
            sweep.record(f"UC obstacle, {tag}", pes, run.elapsed_us / 1e6)
    return sweep


def check_ablation(sweep: Sweep) -> None:
    full, default = _series(sweep, "full sweeps"), _series(sweep, "default")
    # undersized machines pay the VP ratio: 256 PEs hold 2304 cells at
    # ratio 9 — clearly slower than the 16K machine (though dispatch
    # overhead, which no amount of PEs removes, damps the difference)
    assert full.at(256) > 2 * full.at(16384)
    # charging the active VP set never costs more than charging them all
    assert all(default.at(pes) <= full.at(pes) for pes in PE_COUNTS)
    for s in (full, default):
        # monotone non-increasing in machine size
        ys = s.ys()
        assert all(a >= b * 0.999 for a, b in zip(ys, ys[1:]))
        # once the grid fits (4096 PEs and up), extra hardware buys nothing:
        # the dispatch/latency floor dominates — the SIMD host-driven effect
        assert s.at(16384) == pytest.approx(s.at(65536), rel=0.01)
        assert s.at(4096) == pytest.approx(s.at(16384), rel=0.15)


def report(sweep: Sweep) -> None:
    floors = ", ".join(
        f"{_series(sweep, tag).at(65536):.3f} s ({tag})" for tag in MODELS
    )
    save_report(
        "ablation_machine_size",
        format_series_table(sweep)
        + f"\n\ndispatch/latency floor regardless of extra PEs: {floors}",
    )


@pytest.mark.benchmark(group="ablation")
def test_machine_size_ablation(benchmark):
    sweep = benchmark.pedantic(run_ablation, iterations=1, rounds=1)
    check_ablation(sweep)
    report(sweep)


if __name__ == "__main__":
    s = run_ablation()
    check_ablation(s)
    report(s)

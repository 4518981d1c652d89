"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Outside tier-1 ``testpaths``.  Every test drives ``run.py --smoke`` as a
subprocess, the way the driver does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload of the harness; BENCHMARK.json declares the ones the
#: driver gates, which must be among them
WORKLOADS = ["cold_cli", "apsp_dense", "grid_frontier", "map_kernels",
             "construct_mix", "batch_lanes", "serve_mix"]  # fmt: skip
EXACT = re.compile(r"machine\.sim_clock_us|mapping\.map_sim_speedup|machine\.charges\.")


def run_py(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )  # fmt: skip


def checkout_copy(tmp_path: Path, with_program: bool) -> Path:
    """What the driver sees: BENCHMARK.json + ``paths`` (+ the program)."""
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"),
    )  # fmt: skip
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
        (tmp_path / "examples").symlink_to(ROOT / "examples")
    return tmp_path


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """Two complete smoke passes (untraced + traced) of every workload."""
    sets = []
    for label in ("a", "b"):
        out = tmp_path_factory.mktemp("smoke") / f"{label}.json"
        proc = run_py(ROOT, "--smoke", "--trace", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        sets.append(json.loads(out.read_text()))
    return sets


def test_every_declared_metric_once_per_workload(smoke_sets):
    runs = smoke_sets[0]["runs"]
    assert {r["workload"] for r in runs} == set(WORKLOADS)
    assert {w["name"] for w in DECL["workloads"]} <= set(WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = [m["name"] for m in DECL[section]]
        assert len(declared) == len(set(declared))
        for workload in WORKLOADS:
            mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            assert len(mine) == 1
            assert list(mine[0]["metrics"]) == declared
            units = {m["name"]: m["unit"] for m in DECL[section]}
            assert {k: v["unit"] for k, v in mine[0]["metrics"].items()} == units
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in DECL[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])


def test_no_op_fails_and_end_to_end_metrics_are_never_zero(smoke_sets):
    for run in smoke_sets[0]["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        if run["trace"] == 0:
            assert all(m["value"] > 0 for m in run["metrics"].values()), run


def test_simulated_statistics_repeat_exactly(smoke_sets):
    def exact(result):
        return {
            (r["workload"], name): m["value"]
            for r in result["runs"] if r["trace"] == 1
            for name, m in r["metrics"].items() if EXACT.match(name)
        }  # fmt: skip

    a, b = exact(smoke_sets[0]), exact(smoke_sets[1])
    assert a == b
    assert a["map_kernels", "mapping.map_sim_speedup"] > 1.0
    assert all(a[w, "machine.sim_clock_us"] > 0 for w in WORKLOADS)


def test_trace_parses_and_every_parent_is_present(smoke_sets):
    for workload in WORKLOADS:
        trace = json.loads((HERE / "results" / f"trace-{workload}.json").read_text())
        events = trace["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        assert len(ids) == len(events) > 0
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0
            assert e["args"]["parent"] == -1 or e["args"]["parent"] in ids


def test_self_times_add_up_to_the_traced_window(smoke_sets):
    for run in smoke_sets[0]["runs"]:
        if run["trace"] == 1:
            shares = [m["value"] for k, m in run["metrics"].items() if k.startswith("selftime.")]
            assert sum(shares) == pytest.approx(100.0, abs=5.0)


def test_compare_accepts_a_set_against_itself(smoke_sets, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(smoke_sets[0]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path), str(path)],
        capture_output=True, text=True,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REGRESSION" not in proc.stdout


def test_corrupted_expected_file_fails_ops(tmp_path):
    checkout = checkout_copy(tmp_path, with_program=True)
    path = checkout / "benchmarks" / "e2e" / "expected" / "seed-11-smoke.json"
    expected = json.loads(path.read_text())
    for key in expected:
        if key.startswith("apsp_dense/"):
            expected[key]["fingerprint"] = "0" * 16
    path.write_text(json.dumps(expected))
    proc = run_py(checkout, "--workload", "apsp_dense", "--smoke", "--seed", "11")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    checkout = checkout_copy(tmp_path, with_program=False)
    proc = run_py(checkout, "--workload", "apsp_dense", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Processor-optimization (send-reduce) execution-path tests."""

import numpy as np
import pytest

from repro.machine import MachineConfig
from tests.conftest import run_uc

DIGIT = (
    "index_set I:i = {0..N-1}, J:j = {0..9};\n"
    "int samples[N];\nint count[10];\n"
    "main { par (J) count[j] = $+(I st (samples[i] == j) 1); }"
)


def both_ways(src, inputs, defines=None, **kw):
    on = run_uc(src, dict(inputs), defines=defines, processor_opt=True, **kw)
    off = run_uc(src, dict(inputs), defines=defines, processor_opt=False, **kw)
    return on, off


class TestEquivalence:
    def test_digit_count_matches_naive_and_reference(self):
        n = 300
        s = np.random.default_rng(8).integers(0, 10, n)
        # a small machine makes the optimization kick in at n=300
        cfg = MachineConfig(n_pes=256)
        on, off = both_ways(DIGIT, {"samples": s}, {"N": n}, machine_config=cfg)
        ref = np.bincount(s, minlength=10)
        assert np.array_equal(on["count"], ref)
        assert np.array_equal(off["count"], ref)

    def test_optimized_is_cheaper_when_vp_limited(self):
        n = 300
        s = np.random.default_rng(8).integers(0, 10, n)
        cfg = MachineConfig(n_pes=256)
        on, off = both_ways(DIGIT, {"samples": s}, {"N": n}, machine_config=cfg)
        assert on.elapsed_us < off.elapsed_us
        assert on.counts.get("router_send", 0) >= 1

    def test_no_change_when_product_fits(self):
        """The compiler keeps the naive form while 10*N fits the machine."""
        n = 64
        s = np.random.default_rng(8).integers(0, 10, n)
        on, off = both_ways(DIGIT, {"samples": s}, {"N": n})
        assert on.elapsed_us == pytest.approx(off.elapsed_us)

    @pytest.mark.parametrize("op,expected", [("$<", "min"), ("$>", "max")])
    def test_min_max_partitioned_reductions(self, op, expected):
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..3};\n"
            "int key[N], val[N];\nint out[4];\n"
            f"main {{ par (J) out[j] = {op}(I st (key[i] == j) val[i]); }}"
        )
        n = 200
        rng = np.random.default_rng(3)
        key = rng.integers(0, 4, n)
        val = rng.integers(0, 1000, n)
        cfg = MachineConfig(n_pes=128)
        on, off = both_ways(src, {"key": key, "val": val}, {"N": n}, machine_config=cfg)
        fn = np.minimum if expected == "min" else np.maximum
        ref = [getattr(val[key == j], expected)() for j in range(4)]
        assert on["out"].tolist() == ref
        assert off["out"].tolist() == ref

    @pytest.mark.parametrize("op", ["$&&", "$||", "$^"])
    def test_logical_partitioned_reductions(self, op):
        """The logical combines run on a bool buffer and widen to int."""
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..3};\n"
            "int key[N], val[N];\nint out[4];\n"
            f"main {{ par (J) out[j] = {op}(I st (key[i] == j) val[i] > 500); }}"
        )
        n = 200
        rng = np.random.default_rng(5)
        key = rng.integers(0, 4, n)
        val = rng.integers(0, 1000, n)
        cfg = MachineConfig(n_pes=128)
        on, off = both_ways(src, {"key": key, "val": val}, {"N": n}, machine_config=cfg)
        assert on.elapsed_us < off.elapsed_us  # the send-reduce form ran
        fn = {"$&&": np.all, "$||": np.any, "$^": lambda v: np.sum(v) % 2}[op]
        assert on["out"].tolist() == [int(fn(val[key == j] > 500)) for j in range(4)]

    def test_extra_conjunct_respected(self):
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..9};\n"
            "int samples[N];\nint count[10];\n"
            "main { par (J) count[j] = "
            "$+(I st (samples[i] == j && i % 2 == 0) 1); }"
        )
        n = 400
        s = np.random.default_rng(1).integers(0, 10, n)
        cfg = MachineConfig(n_pes=256)
        on, off = both_ways(src, {"samples": s}, {"N": n}, machine_config=cfg)
        ref = np.bincount(s[::2], minlength=10)
        assert np.array_equal(on["count"], ref)
        assert np.array_equal(off["count"], ref)

    def test_empty_buckets_get_identity(self):
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..9};\n"
            "int samples[N];\nint count[10];\n"
            "main { par (J) count[j] = $+(I st (samples[i] == j) 1); }"
        )
        n = 300
        s = np.full(n, 4)  # everything in bucket 4
        cfg = MachineConfig(n_pes=64)
        on, _ = both_ways(src, {"samples": s}, {"N": n}, machine_config=cfg)
        assert on["count"].tolist() == [0, 0, 0, 0, n, 0, 0, 0, 0, 0]


class TestFallbacks:
    def test_non_partitioned_predicate_falls_back(self):
        """samples[i] < j does not partition; results must still be right."""
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..9};\n"
            "int samples[N];\nint count[10];\n"
            "main { par (J) count[j] = $+(I st (samples[i] < j) 1); }"
        )
        n = 300
        s = np.random.default_rng(2).integers(0, 10, n)
        cfg = MachineConfig(n_pes=64)
        on, off = both_ways(src, {"samples": s}, {"N": n}, machine_config=cfg)
        ref = [(s < j).sum() for j in range(10)]
        assert on["count"].tolist() == ref
        assert on.elapsed_us == pytest.approx(off.elapsed_us)

    def test_masked_parent_falls_back(self):
        src = (
            "index_set I:i = {0..N-1}, J:j = {0..9};\n"
            "int samples[N];\nint count[10];\n"
            "main { par (J) st (j < 5) count[j] = "
            "$+(I st (samples[i] == j) 1); }"
        )
        n = 300
        s = np.random.default_rng(2).integers(0, 10, n)
        cfg = MachineConfig(n_pes=64)
        on, _ = both_ways(src, {"samples": s}, {"N": n}, machine_config=cfg)
        ref = np.bincount(s, minlength=10)
        ref[5:] = 0
        assert np.array_equal(on["count"], ref)

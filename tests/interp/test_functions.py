"""Function-call tests: builtins, user functions, slices, swap."""

import numpy as np
import pytest

from repro.interp import frontier
from repro.interp.eval_expr import BUILTIN_VALUES, eval_expr
from repro.interp.program import UCProgram
from repro.interp.statements import enter_grid
from repro.lang import parse_expression
from repro.lang.errors import UCRuntimeError
from repro.lang.semantics import BUILTINS
from repro.machine import small_config
from repro.machine.cost import Recorder
from tests.conftest import run_lanes, run_uc

PURE = sorted(name for name, b in BUILTINS.items() if b.pure)


def _call(name):
    return f"{name}({', '.join(['b[i] - 3', 'a[i]'][: BUILTINS[name].arity])})"


class TestBuiltinTable:
    """One table (``lang.semantics.BUILTINS``) and one value implementation
    per pure builtin (``eval_expr.BUILTIN_VALUES``), which the oracle and
    the frontier lane programs both call."""

    def test_every_pure_builtin_has_one_implementation(self):
        assert set(BUILTIN_VALUES) == set(PURE)
        assert {name: BUILTINS[name].alu for name in PURE} == {
            "ABS": 1, "abs": 1, "fabs": 1, "max": 1, "min": 1, "power2": 1, "sqrt": 4,
        }  # fmt: skip

    @pytest.mark.parametrize("name", PURE)
    def test_oracle_and_lane_program_record_the_same_charges(self, name, monkeypatch):
        """The charges of one call: the oracle's as it evaluates it, the
        lane compiler's as it lowers it (VP ratio vs scope aside)."""
        src = "index_set I:i = {0..7};\nint a[8], b[8];\nmain { par (I) a[i] = 0; }"
        pr = UCProgram(src, compile_store=None).prepare({"b": np.arange(8)})
        ip = pr.interp
        inner = enter_grid(ip, ip.info.program.main.stmts[0], pr.context)
        call = parse_expression(_call(name))

        comp = frontier._Compiler(
            ip, inner, frontier._Analysis(inner.grid, "par", ip.machine.clock.costs), set()
        )
        comp.begin_arm()
        comp.begin_program()
        lane = Recorder()
        comp.compile(call, lane)

        class _Clock(Recorder):
            costs = ip.machine.clock.costs

        oracle = _Clock()
        monkeypatch.setattr(ip.machine, "clock", oracle)
        eval_expr(ip, call, inner)

        def charges(rec):
            return [e[:3] if e[0] == "c" else e[:2] for e in rec.entries if e[0] in "ct"]

        assert charges(oracle) == charges(lane)
        assert charges(lane)[-1] == ("c", "alu", BUILTINS[name].alu)

    @pytest.mark.parametrize("name", PURE)
    def test_lane_program_values_match_full_sweeps(self, name):
        """A front of activity evaluates the call on the lane path, sweep
        after compressed sweep; full oracle sweeps must agree."""
        src = (
            "index_set I:i = {0..31};\nint a[32], b[32];\n"
            "main { *par (I) st (a[i] < (i > 0 ? a[i-1] : 0))\n"
            f"    a[i] = a[i] + 1 + ({_call(name)} > 1); }}"
        )
        a = np.zeros(32, dtype=np.int64)
        a[0] = 5
        inputs = {"a": a, "b": np.arange(32) % 7}
        kw = dict(machine_config=small_config(16))
        lanes = run_lanes(src, inputs, **kw)
        full = run_uc(src, inputs, plans=False, frontier=False, **kw)
        assert lanes.frontier["compressed_sweeps"] >= 5
        assert np.array_equal(lanes["a"], full["a"])


class TestBuiltins:
    def test_power2(self):
        r = run_uc("int x;\nmain { x = power2(10); }")
        assert r["x"] == 1024

    def test_power2_vectorised(self):
        r = run_uc(
            "index_set I:i = {0..4};\nint a[5];\nmain { par (I) a[i] = power2(i); }"
        )
        assert r["a"].tolist() == [1, 2, 4, 8, 16]

    def test_abs_both_spellings(self):
        r = run_uc("int x, y;\nmain { x = abs(0 - 5); y = ABS(0 - 7); }")
        assert r["x"] == 5 and r["y"] == 7

    def test_min_max(self):
        r = run_uc("int x, y;\nmain { x = min(3, 7); y = max(3, 7); }")
        assert r["x"] == 3 and r["y"] == 7

    def test_min_vectorised(self):
        r = run_uc(
            "index_set I:i = {0..4};\nint a[5];\nmain { par (I) a[i] = min(i, 2); }"
        )
        assert r["a"].tolist() == [0, 1, 2, 2, 2]

    def test_rand_deterministic_per_seed(self):
        src = "index_set I:i = {0..7};\nint a[8];\nmain { par (I) a[i] = rand() % 100; }"
        a1 = run_uc(src, seed=5)["a"]
        a2 = run_uc(src, seed=5)["a"]
        a3 = run_uc(src, seed=6)["a"]
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_rand_range(self):
        r = run_uc(
            "index_set I:i = {0..63};\nint a[64];\nmain { par (I) a[i] = rand() % 10; }"
        )
        assert r["a"].min() >= 0 and r["a"].max() <= 9

    def test_srand_reseeds(self):
        src = (
            "int x, y;\nmain { srand(42); x = rand() % 1000; "
            "srand(42); y = rand() % 1000; }"
        )
        r = run_uc(src)
        assert r["x"] == r["y"]

    def test_printf(self):
        r = run_uc('int x;\nmain { x = 3; printf("x=%d\\n", x); }')
        assert r.stdout == "x=3\n"

    def test_printf_parallel_context_rejected(self):
        with pytest.raises(UCRuntimeError):
            run_uc(
                "index_set I:i = {0..3};\nint a[4];\n"
                'main { par (I) printf("%d", a[i]); }'
            )

    def test_swap(self):
        src = (
            "index_set I:i = {0..3};\nint x[8];\n"
            "main { par (I) swap(x[2 * i], x[2 * i + 1]); }"
        )
        r = run_uc(src, {"x": np.arange(8)})
        assert r["x"].tolist() == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_unknown_function(self):
        with pytest.raises(Exception):
            run_uc("main { mystery(); }")


class TestUserFunctions:
    def test_host_function_with_control_flow(self):
        src = (
            "int fact(int n) { int r; r = 1; while (n > 1) { r = r * n; "
            "n = n - 1; } return r; }\n"
            "int x;\nmain { x = fact(5); }"
        )
        assert run_uc(src)["x"] == 120

    def test_recursion_on_host(self):
        src = (
            "int fib(int n) { if (n < 2) return n; "
            "return fib(n - 1) + fib(n - 2); }\n"
            "int x;\nmain { x = fib(10); }"
        )
        assert run_uc(src)["x"] == 55

    def test_straightline_function_vectorises(self):
        src = (
            "int double_plus(int x, int y) { int t; t = 2 * x; return t + y; }\n"
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) a[i] = double_plus(i, 1); }"
        )
        assert run_uc(src)["a"].tolist() == [1, 3, 5, 7]

    def test_loopy_function_rejected_in_parallel(self):
        src = (
            "int f(int n) { while (n > 0) n = n - 1; return n; }\n"
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) a[i] = f(i); }"
        )
        with pytest.raises(UCRuntimeError):
            run_uc(src)

    def test_array_parameter_by_reference(self):
        src = (
            "void bump(int v[], int k) { v[k] = v[k] + 1; }\n"
            "int a[4];\nmain { bump(a, 2); bump(a, 2); }"
        )
        assert run_uc(src)["a"].tolist() == [0, 0, 2, 0]

    def test_array_slice_argument(self):
        """Passing a row of a matrix — the paper's only pointer use."""
        src = (
            "int rowsum(int v[], int n) { int s, k; s = 0; "
            "for (k = 0; k < n; k++) s = s + v[k]; return s; }\n"
            "int m[3][4], x;\n"
            "main { x = rowsum(m[1], 4); }"
        )
        m = np.arange(12).reshape(3, 4)
        assert run_uc(src, {"m": m})["x"] == m[1].sum()

    def test_void_function_returns_zero(self):
        src = "void nop() { ; }\nint x;\nmain { x = nop(); }"
        assert run_uc(src)["x"] == 0

    def test_return_stops_execution(self):
        src = (
            "int early(int n) { if (n > 0) return 1; return 2; }\n"
            "int x;\nmain { x = early(5); }"
        )
        assert run_uc(src)["x"] == 1

    def test_user_power2_overrides_builtin(self):
        src = (
            "int power2(int x) { return 99; }\n"
            "int x;\nmain { x = power2(3); }"
        )
        assert run_uc(src)["x"] == 99

    def test_function_reading_globals(self):
        src = (
            "int N = 6;\nint twice_n() { return 2 * N; }\n"
            "int x;\nmain { x = twice_n(); }"
        )
        assert run_uc(src)["x"] == 12

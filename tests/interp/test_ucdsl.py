"""Embedded-DSL (UCBuilder) tests."""

import numpy as np
import pytest

from repro.lang.errors import UCMultipleAssignmentError
from repro.ucdsl import UCBuilder


class TestExpressions:
    def _run_expr(self, build):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(8))
        a = b.int_array("a", 8)
        with b.main():
            with b.par(I):
                a[i].set(build(b, i))
        return b.run()["a"]

    def test_arithmetic(self):
        out = self._run_expr(lambda b, i: i * 2 + 1)
        assert out.tolist() == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_reflected_operators(self):
        out = self._run_expr(lambda b, i: 10 - i)
        assert out.tolist() == [10, 9, 8, 7, 6, 5, 4, 3]

    def test_division_and_mod(self):
        out = self._run_expr(lambda b, i: (i * 7) % 5 + i / 4)
        expect = [(k * 7) % 5 + k // 4 for k in range(8)]
        assert out.tolist() == expect

    def test_comparisons_and_logic(self):
        out = self._run_expr(lambda b, i: (i > 2) & (i < 6))
        assert out.tolist() == [0, 0, 0, 1, 1, 1, 0, 0]
        out = self._run_expr(lambda b, i: (i == 0) | (i == 7))
        assert out.tolist() == [1, 0, 0, 0, 0, 0, 0, 1]
        out = self._run_expr(lambda b, i: ~(i > 3))
        assert out.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_conditional_expression(self):
        out = self._run_expr(lambda b, i: (i % 2 == 0).where(i, -i))
        assert out.tolist() == [0, -1, 2, -3, 4, -5, 6, -7]

    def test_shifts_and_neg(self):
        out = self._run_expr(lambda b, i: (1 << i) >> 1)
        assert out.tolist() == [0, 1, 2, 4, 8, 16, 32, 64]
        out = self._run_expr(lambda b, i: -i)
        assert out.tolist() == [0, -1, -2, -3, -4, -5, -6, -7]

    def test_builtins(self):
        out = self._run_expr(lambda b, i: b.power2(i) + b.abs(0 - i))
        assert out.tolist() == [2**k + k for k in range(8)]
        out = self._run_expr(lambda b, i: b.min2(i, 3) + b.max2(i, 5))
        assert out.tolist() == [min(k, 3) + max(k, 5) for k in range(8)]

    def test_bad_operand_type(self):
        with pytest.raises(TypeError):
            self._run_expr(lambda b, i: i + "three")


class TestReductions:
    def test_sum_min_max(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(10))
        a = b.int_array("a", 10)
        total = b.int_scalar("total")
        lo = b.int_scalar("lo")
        hi = b.int_scalar("hi")
        with b.main():
            total.set(b.sum(I, a[i]))
            lo.set(b.min(I, a[i]))
            hi.set(b.max(I, a[i]))
        data = np.array([4, 8, 1, 9, 2, 7, 3, 6, 0, 5])
        r = b.run({"a": data})
        assert r["total"] == data.sum()
        assert r["lo"] == 0 and r["hi"] == 9

    def test_predicated_and_logical(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(10))
        a = b.int_array("a", 10)
        evens = b.int_scalar("evens")
        any_big = b.int_scalar("any_big")
        all_pos = b.int_scalar("all_pos")
        with b.main():
            evens.set(b.sum(I, 1, where=(a[i] % 2 == 0)))
            any_big.set(b.any(I, a[i] > 7))
            all_pos.set(b.all(I, a[i] >= 0))
        r = b.run({"a": np.arange(10)})
        assert r["evens"] == 5
        assert r["any_big"] == 1
        assert r["all_pos"] == 1

    def test_arbitrary(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(5))
        a = b.int_array("a", 5)
        pick = b.int_scalar("pick")
        with b.main():
            pick.set(b.arbitrary(I, a[i]))
        data = np.array([11, 22, 33, 44, 55])
        assert b.run({"a": data})["pick"] in data

    def test_matmul_product_grid(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(4))
        J, j = b.alias("J", "j", I)
        K, k = b.alias("K", "k", I)
        x = b.int_array("x", 4, 4)
        y = b.int_array("y", 4, 4)
        c = b.int_array("c", 4, 4)
        with b.main():
            with b.par(I, J):
                c[i, j].set(b.sum(K, x[i, k] * y[k, j]))
        rng = np.random.default_rng(1)
        xv, yv = rng.integers(0, 9, (4, 4)), rng.integers(0, 9, (4, 4))
        r = b.run({"x": xv, "y": yv})
        assert np.array_equal(r["c"], xv @ yv)


class TestConstructs:
    def test_st_and_others(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(6))
        a = b.int_array("a", 6)
        with b.main():
            with b.par(I):
                with b.st(i % 2 == 1):
                    a[i].set(0)
                with b.others():
                    a[i].set(1)
        assert b.run()["a"].tolist() == [1, 0, 1, 0, 1, 0]

    def test_star_par(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(6))
        a = b.int_array("a", 6)
        with b.main():
            with b.par(I):
                a[i].set(i)
            with b.par(I, star=True):
                with b.st(a[i] > 0):
                    a[i].set(a[i] - 1)
        assert b.run()["a"].tolist() == [0] * 6

    def test_seq_order(self):
        b = UCBuilder()
        L, l = b.index_set("L", "l", [4, 2, 9])
        order = b.int_array("order", 10)
        n = b.int_scalar("n", 0)
        with b.main():
            with b.seq(L):
                n.add(1)
                order[l].set(n)
        r = b.run()
        assert r["order"][4] == 1 and r["order"][2] == 2 and r["order"][9] == 3

    def test_solve_wavefront(self):
        from repro.algorithms import wavefront_matrix

        b = UCBuilder()
        I, i = b.index_set("I", "i", range(6))
        J, j = b.alias("J", "j", I)
        a = b.int_array("a", 6, 6)
        with b.main():
            with b.solve(I, J):
                a[i, j].set(
                    ((i == 0) | (j == 0)).where(
                        1, a[i - 1, j] + a[i - 1, j - 1] + a[i, j - 1]
                    )
                )
        assert np.array_equal(b.run()["a"], wavefront_matrix(6))

    def test_oneof_star_sorts(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(7))
        x = b.int_array("x", 8)
        with b.main():
            with b.oneof(I, star=True):
                with b.st((i % 2 == 0) & (x[i] > x[i + 1])):
                    b.swap(x[i], x[i + 1])
                with b.st((i % 2 == 1) & (x[i] > x[i + 1])):
                    b.swap(x[i], x[i + 1])
        data = np.array([7, 3, 5, 0, 6, 2, 4, 1])
        assert b.run({"x": data})["x"].tolist() == sorted(data.tolist())

    def test_if_else_and_while(self):
        b = UCBuilder()
        n = b.int_scalar("n", 10)
        steps = b.int_scalar("steps", 0)
        parity = b.int_scalar("parity")
        with b.main():
            with b.while_(n > 1):
                with b.if_(n % 2 == 0):
                    n.set(n / 2)
                with b.else_():
                    n.set(3 * n + 1)
                steps.add(1)
        r = b.run()
        assert r["n"] == 1 and r["steps"] == 6  # collatz(10)

    def test_single_assignment_enforced(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(4))
        J, j = b.alias("J", "j", I)
        a = b.int_array("a", 4)
        c = b.int_array("c", 4)
        with b.main():
            with b.par(I, J):
                a[i].set(c[j])
        with pytest.raises(UCMultipleAssignmentError):
            b.run({"c": np.array([1, 2, 3, 4])})


class TestMappingsAndMisc:
    def test_permute_mapping_goes_local(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(7))
        a = b.int_array("a", 8)
        c = b.int_array("c", 8)
        b.permute(I, c[i + 1], a[i])
        with b.main():
            with b.par(I):
                a[i].set(a[i] + c[i + 1])
        r = b.run({"a": np.zeros(8, np.int64), "c": np.arange(8)})
        assert r["a"].tolist() == [1, 2, 3, 4, 5, 6, 7, 0]
        assert r.counts.get("news", 0) == 0

    def test_float_arrays_and_sqrt(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(5))
        f = b.float_array("f", 5)
        with b.main():
            with b.par(I):
                f[i].set(b.sqrt(i * i * 1.0))
        assert b.run()["f"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_errors(self):
        b = UCBuilder()
        with pytest.raises(RuntimeError):
            b.build()  # no main
        with pytest.raises(RuntimeError):
            with b.st(1):  # st outside construct
                pass
        b2 = UCBuilder()
        arr = b2.int_array("a", 4, 4)
        with pytest.raises(ValueError):
            arr[1]  # wrong subscript count
        with pytest.raises(RuntimeError):
            b2.else_().__enter__()  # else without if

    def test_wrong_subscript_rank(self):
        b = UCBuilder()
        a = b.int_array("a", 4)
        with pytest.raises(ValueError):
            a[1, 2]

    def test_run_seed_plumbs_through(self):
        def build():
            b = UCBuilder()
            I, i = b.index_set("I", "i", range(8))
            a = b.int_array("a", 8)
            with b.main():
                with b.par(I):
                    a[i].set(b.rand() % 100)
            return b

        r1 = build().run(seed=3)["a"]
        r2 = build().run(seed=3)["a"]
        r3 = build().run(seed=4)["a"]
        assert np.array_equal(r1, r2)
        assert not np.array_equal(r1, r3)


class TestRemainingSurface:
    """Every builder entry point runs at least once (reflected operators,
    locals, products, fold/copy maps, source rendering, misuse errors)."""

    def test_reflected_and_remaining_operators(self):
        out = TestExpressions()._run_expr(
            lambda b, i: (1 + i) + (100 / (i + 1)) + (17 % (i + 2)) + (64 >> i)
            + ((i != 3) & (i <= 5)) + (True & (i > 0)) + (False | (i > 6))
        )
        expect = [
            (1 + k) + 100 // (k + 1) + 17 % (k + 2) + (64 >> k)
            + ((k != 3) and (k <= 5)) + (k > 0) + (k > 6)
            for k in range(8)
        ]
        assert out.tolist() == expect

    def test_expressions_hash_by_identity_and_render(self):
        b = UCBuilder()
        _I, i = b.index_set("I", "i", range(4))
        e = i * 2 + 1
        assert len({e, e}) == 1
        assert repr(e) == "E(i * 2 + 1)"

    def test_locals_floats_and_products(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(5))
        J, j = b.alias("J", "j", I)
        a = b.int_array("a", 5)
        p = b.int_array("p", 5)
        scale = b.float_scalar("scale", 0.5)
        with b.main():
            with b.par(I):
                rank = b.local("rank")
                rank.set(b.sum(J, 1, where=(a[j] < a[i])))
                p[i].set(b.product(J, j + 1, where=(j <= i)))
                a[rank].set(a[i])
        r = b.run({"a": np.array([30, 10, 40, 20, 0])})
        assert r["a"].tolist() == [0, 10, 20, 30, 40]
        assert r["p"].tolist() == [1, 2, 6, 24, 120]
        assert r["scale"] == 0.5

    @pytest.mark.parametrize("kind", ["fold", "copy"])
    def test_fold_and_copy_maps_keep_values(self, kind):
        def build(mapped):
            b = UCBuilder()
            I, i = b.index_set("I", "i", range(4))
            J, j = b.alias("J", "j", I)
            a = b.int_array("a", 8)
            c = b.int_array("c", 4, 4)
            if mapped and kind == "fold":
                b.fold(I, a[i + 4], a[i])  # fold (I) a[i+4] :- a[i]
            elif mapped:
                b.copy((I, J), a[i], a[i])  # copy (I, J) a[i][j] :- a[i]
            with b.main():
                with b.par(I):
                    a[i].set(i * 2)
                    a[i + 4].set(a[i] + 1)
                with b.par(I, J):
                    c[i, j].set(a[i] + a[j + 4])
            return b

        assert build(True)._program.maps[0].decls[0].kind == kind
        mapped, plain = build(True).run(), build(False).run()
        assert mapped["a"].tolist() == plain["a"].tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
        assert np.array_equal(mapped["c"], plain["c"])

    def test_source_renders_the_program(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(4))
        a = b.int_array("a", 4)
        with b.main():
            with b.par(I):
                a[i].set(i + 1)
        src = b.source()
        assert "domain GRID0_4 {" in src and "a[i] = i + 1;" in src

    def test_misuse_errors(self):
        b = UCBuilder()
        I, i = b.index_set("I", "i", range(4))
        a = b.int_array("a", 4)
        x = b.int_scalar("x")
        with pytest.raises(RuntimeError, match="inside b.main"):
            x.set(1)
        with pytest.raises(RuntimeError, match="lint"):
            b.lint()
        with pytest.raises(TypeError, match="array references"):
            b.permute(I, x, a[i])
        with b.main():
            with pytest.raises(RuntimeError, match="mix of st"):
                with b.par(I):
                    a[i].set(0)
                    with b.st(i > 1):
                        a[i].set(1)
        with pytest.raises(RuntimeError, match="already built"):
            with b.main():
                pass

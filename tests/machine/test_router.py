"""General-router tests: get, send, combining, permutes."""

import numpy as np
import pytest

from repro.machine import router
from repro.machine.errors import RouterError


class TestGet:
    def test_gather_by_address(self, machine):
        vps = machine.vpset((4,))
        src = machine.field(vps)
        src.data[:] = [10, 20, 30, 40]
        dst = machine.field(vps)
        router.get(dst, src, np.array([3, 2, 1, 0]))
        assert dst.read().tolist() == [40, 30, 20, 10]

    def test_cross_vpset_gather(self, machine):
        src = machine.field(machine.vpset((2, 2)))
        src.data[:] = [[1, 2], [3, 4]]
        dvps = machine.vpset((3,))
        dst = machine.field(dvps)
        router.get(dst, src, np.array([0, 3, 2]))
        assert dst.read().tolist() == [1, 4, 3]

    def test_masked_get(self, machine):
        vps = machine.vpset((3,))
        src = machine.field(vps)
        src.data[:] = [5, 6, 7]
        dst = machine.field(vps)
        with vps.where(np.array([False, True, False])):
            router.get(dst, src, np.array([2, 2, 2]))
        assert dst.read().tolist() == [0, 7, 0]

    def test_out_of_range_address(self, machine):
        vps = machine.vpset((3,))
        src = machine.field(vps)
        dst = machine.field(vps)
        with pytest.raises(RouterError):
            router.get(dst, src, np.array([0, 1, 3]))

    def test_masked_out_of_range_tolerated(self, machine):
        vps = machine.vpset((3,))
        src = machine.field(vps)
        dst = machine.field(vps)
        with vps.where(np.array([True, True, False])):
            router.get(dst, src, np.array([0, 1, 99]))

    def test_wrong_address_shape(self, machine):
        vps = machine.vpset((3,))
        src = machine.field(vps)
        dst = machine.field(vps)
        with pytest.raises(RouterError):
            router.get(dst, src, np.array([0, 1]))

    def test_get_charges_router(self, machine):
        vps = machine.vpset((3,))
        src, dst = machine.field(vps), machine.field(vps)
        before = machine.clock.count("router_get")
        router.get(dst, src, np.zeros(3, np.int64))
        assert machine.clock.count("router_get") == before + 1


class TestSend:
    def _setup(self, machine, n=4):
        vps = machine.vpset((n,))
        src = machine.field(vps)
        dst = machine.field(vps)
        return vps, src, dst

    def test_overwrite(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [1, 2, 3, 4]
        router.send(dst, src, np.array([3, 2, 1, 0]))
        assert dst.read().tolist() == [4, 3, 2, 1]

    def test_add_combining(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [1, 2, 3, 4]
        router.send(dst, src, np.array([0, 0, 1, 1]), combiner="add")
        assert dst.read().tolist() == [3, 7, 0, 0]

    def test_min_combining(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [9, 2, 5, 4]
        dst.data[:] = 100
        router.send(dst, src, np.array([0, 0, 0, 1]), combiner="min")
        assert dst.read().tolist() == [2, 4, 100, 100]

    def test_max_combining(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [9, 2, 5, 4]
        router.send(dst, src, np.array([1, 1, 1, 1]), combiner="max")
        assert dst.read()[1] == 9

    def test_logor_combining(self, machine):
        vps = machine.vpset((3,))
        src = machine.field(vps, bool)
        dst = machine.field(vps, bool)
        src.data[:] = [True, False, True]
        router.send(dst, src, np.array([0, 0, 0]), combiner="logor")
        assert dst.read().tolist() == [True, False, False]

    def test_arbitrary_delivers_exactly_one(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [1, 2, 3, 4]
        router.send(dst, src, np.array([0, 0, 0, 0]), combiner="arbitrary")
        assert dst.read()[0] in (1, 2, 3, 4)

    def test_arbitrary_deterministic_with_rng(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [1, 2, 3, 4]
        rng1 = np.random.default_rng(99)
        rng2 = np.random.default_rng(99)
        router.send(dst, src, np.array([0, 0, 0, 0]), combiner="arbitrary", rng=rng1)
        first = dst.read()[0]
        dst.data[:] = 0
        router.send(dst, src, np.array([0, 0, 0, 0]), combiner="arbitrary", rng=rng2)
        assert dst.read()[0] == first

    def test_masked_send(self, machine):
        vps, src, dst = self._setup(machine)
        src.data[:] = [1, 2, 3, 4]
        with vps.where(np.array([True, False, False, True])):
            router.send(dst, src, np.array([0, 1, 2, 3]), combiner="add")
        assert dst.read().tolist() == [1, 0, 0, 4]

    def test_unknown_combiner(self, machine):
        vps, src, dst = self._setup(machine)
        with pytest.raises(RouterError):
            router.send(dst, src, np.zeros(4, np.int64), combiner="median")

    def test_send_charges_router(self, machine):
        vps, src, dst = self._setup(machine)
        before = machine.clock.count("router_send")
        router.send(dst, src, np.zeros(4, np.int64), combiner="add")
        assert machine.clock.count("router_send") == before + 1


class TestPermute:
    def test_valid_permutation(self, machine):
        vps = machine.vpset((4,))
        src, dst = machine.field(vps), machine.field(vps)
        src.data[:] = [1, 2, 3, 4]
        router.permute(dst, src, np.array([1, 0, 3, 2]))
        assert dst.read().tolist() == [2, 1, 4, 3]

    def test_collision_rejected(self, machine):
        vps = machine.vpset((4,))
        src, dst = machine.field(vps), machine.field(vps)
        with pytest.raises(RouterError):
            router.permute(dst, src, np.array([0, 0, 1, 2]))

    def test_collision_under_a_context_mask_is_ignored(self, machine):
        vps = machine.vpset((4,))
        src, dst = machine.field(vps), machine.field(vps)
        src.data[:] = [1, 2, 3, 4]
        with vps.where(np.array([True, False, True, True])):
            router.permute(dst, src, np.array([0, 0, 1, 2]))
        assert dst.read().tolist()[:3] == [1, 3, 4]


class TestHasDuplicates:
    """The one address-collision probe (sort + neighbour compare)."""

    @pytest.mark.parametrize(
        "values,expected",
        [
            ([], False),
            ([5], False),
            ([3, 1, 2], False),
            ([3, 1, 3], True),
            ([[0, 1], [2, 0]], True),
            ([[0, 1], [2, 3]], False),
            ([-1, 0, -1], True),
        ],
    )
    def test_matches_a_set_count(self, values, expected):
        arr = np.asarray(values, dtype=np.int64)
        assert router.has_duplicates(arr) is expected
        assert expected == (len(set(arr.reshape(-1).tolist())) != arr.size)

    def test_input_is_not_reordered_and_views_work(self):
        arr = np.array([4, 2, 9, 2])
        assert router.has_duplicates(arr) and arr.tolist() == [4, 2, 9, 2]
        assert not router.has_duplicates(np.broadcast_to(np.arange(3), (1, 3)))
        assert router.has_duplicates(np.broadcast_to(np.arange(3), (2, 3)))


class TestLogicalCombinerDtypes:
    """Logical combining must stay meaningful on non-bool destinations."""

    def _setup(self, machine, dtype):
        vps = machine.vpset((4,))
        src = machine.field(vps)
        dst = machine.field(vps, dtype=dtype)
        return src, dst

    def test_logor_on_int_destination_stores_truth_values(self, machine):
        src, dst = self._setup(machine, np.int64)
        dst.data[:] = [5, 0, 7, 0]
        src.data[:] = [2, 0, 0, 4]
        router.send(dst, src, np.arange(4), combiner="logor")
        # 5 logor 2 must come out true (1), not a bitwise artefact
        assert list(dst.data) == [1, 0, 1, 1]

    def test_logand_on_int_destination(self, machine):
        src, dst = self._setup(machine, np.int64)
        dst.data[:] = [3, 1, 0, 2]
        src.data[:] = [1, 0, 1, 8]
        router.send(dst, src, np.arange(4), combiner="logand")
        assert list(dst.data) == [1, 0, 0, 1]

    def test_logxor_collisions_on_int_destination(self, machine):
        src, dst = self._setup(machine, np.int64)
        dst.data[:] = [0, 0, 0, 0]
        src.data[:] = [1, 1, 1, 0]
        router.send(dst, src, np.zeros(4, np.int64), combiner="logxor")
        assert dst.data[0] == 1  # three true messages xor to true

    def test_float_destination_rejected(self, machine):
        src, dst = self._setup(machine, np.float64)
        src.data[:] = [1, 0, 1, 0]
        with pytest.raises(RouterError, match="bool or integer"):
            router.send(dst, src, np.arange(4), combiner="logor")

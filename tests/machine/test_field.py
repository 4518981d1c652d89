"""Field (per-VP memory) tests."""

import numpy as np
import pytest

from repro.machine.errors import FieldError
from repro.machine.field import Field


class TestAllocation:
    def test_zero_initialised(self, machine):
        f = machine.field(machine.vpset((3, 3)))
        assert np.array_equal(f.read(), np.zeros((3, 3)))

    def test_supported_dtypes(self, machine):
        vps = machine.vpset((2,))
        for dt in (np.int64, np.float64, bool):
            assert machine.field(vps, dt).dtype == np.dtype(dt)

    def test_unsupported_dtype_rejected(self, machine):
        with pytest.raises(FieldError):
            machine.field(machine.vpset((2,)), np.int8)

    def test_allocation_charges_clock(self, machine):
        vps = machine.vpset((2,))
        before = machine.clock.count("alloc")
        machine.field(vps)
        assert machine.clock.count("alloc") == before + 1

    def test_copy_like(self, machine):
        f = machine.field(machine.vpset((4,)), np.float64, "orig")
        g = f.copy_like()
        assert g.dtype == f.dtype
        assert g.vpset is f.vpset
        assert g is not f


class TestAccess:
    def test_fill_respects_context(self, machine):
        vps = machine.vpset((4,))
        f = machine.field(vps)
        with vps.where(np.array([True, False, True, False])):
            f.fill(7)
        assert f.read().tolist() == [7, 0, 7, 0]

    def test_read_is_a_copy(self, machine):
        f = machine.field(machine.vpset((2,)))
        snap = f.read()
        f.data[0] = 99
        assert snap[0] == 0

    def test_scalar_read_write_cost(self, machine):
        f = machine.field(machine.vpset((2, 2)))
        before = machine.clock.count("host_cm_latency")
        f.write_scalar((1, 1), 5)
        assert f.read_scalar((1, 1)) == 5
        assert machine.clock.count("host_cm_latency") == before + 2

    def test_load_bulk(self, machine):
        f = machine.field(machine.vpset((2, 3)))
        f.load(np.arange(6).reshape(2, 3))
        assert f.read()[1, 2] == 5

    def test_load_shape_mismatch(self, machine):
        f = machine.field(machine.vpset((2, 3)))
        with pytest.raises(FieldError):
            f.load(np.zeros((3, 2)))

    def test_load_casts_dtype(self, machine):
        f = machine.field(machine.vpset((2,)), np.int64)
        f.load(np.array([1.9, 2.1]))
        assert f.read().dtype == np.int64

    def test_load_lays_the_field_out_in_c_order(self, machine):
        f = machine.field(machine.vpset((2, 3)))
        for src in (np.asfortranarray(np.arange(6).reshape(2, 3)), np.arange(6).reshape(3, 2).T):
            f.load(src)
            assert f.data.flags.c_contiguous and np.array_equal(f.data, src)
            f.data.reshape(-1)[0] = 9  # a flat view, not a copy
            assert f.data[0, 0] == 9

    def test_same_vpset_check(self, machine):
        a = machine.field(machine.vpset((2,)))
        b = machine.field(machine.vpset((2,)))
        with pytest.raises(Exception):
            a.same_vpset(b)

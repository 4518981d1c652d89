"""Static solve-scheduling tests (paper §3.6 / reference [14])."""

import numpy as np
import pytest

from repro.compiler.solve_sched import _dependency_levels, _shift_levels, try_schedule
from repro.interp.program import UCProgram
from repro.interp.values import GridAxis
from repro.lang import ast as uc_ast
from repro.lang.semantics import solve_assignments


def schedule_for(src, defines=None):
    info = UCProgram(src, defines=defines).info
    solve_stmt = next(
        s for s in uc_ast.walk(info.program.main) if isinstance(s, uc_ast.UCStmt)
    )
    sets = [info.index_sets[name] for name in solve_stmt.index_sets]
    axes = [GridAxis(isv.elem_name, isv.name, isv.values) for isv in sets]
    return try_schedule(solve_stmt, solve_assignments(solve_stmt), axes, info.constants)


WAVEFRONT = (
    "int N = 6;\nindex_set I:i = {0..N-1}, J:j = I;\nint a[6][6];\n"
    "main { solve (I, J) a[i][j] = (i == 0 || j == 0) ? 1 "
    ": a[i-1][j] + a[i-1][j-1] + a[i][j-1]; }"
)


class TestSchedule:
    def test_wavefront_levels_are_antidiagonals(self):
        sched = schedule_for(WAVEFRONT)
        assert sched is not None
        i, j = np.indices((6, 6))
        assert np.array_equal(sched.levels, i + j)
        assert sched.max_level == 10

    def test_1d_recurrence_levels(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = (i == 0) ? 1 : f[i-1] * 2; }"
        )
        sched = schedule_for(src)
        assert sched is not None
        assert sched.levels.tolist() == list(range(8))

    def test_no_dependencies_single_level(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = i * i; }"
        )
        sched = schedule_for(src)
        assert sched is not None
        assert sched.max_level == 0

    def test_data_dependent_reference_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint f[8], p[8];\n"
            "main { solve (I) f[i] = (i == 0) ? 1 : f[p[i]]; }"
        )
        assert schedule_for(src) is None

    def test_forward_dependency_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = (i == 7) ? 1 : f[i+1]; }"
        )
        assert schedule_for(src) is None

    def test_scalar_target_unschedulable(self):
        src = (
            "index_set I:i = {0..7};\nint s;\n"
            "main { solve (I) s = 3; }"
        )
        assert schedule_for(src) is None

    def test_strided_set_levels_by_position(self):
        src = (
            "index_set I:i = {0,2,4,6};\nint a[8];\n"
            "main { solve (I) a[i] = (i == 0) ? 5 : a[i-2] + 1; }"
        )
        sched = schedule_for(src)
        assert sched is not None
        assert sched.levels.tolist() == [0, 1, 2, 3]

    def test_descending_set_declined(self):
        # a[i-2] over {6,4,2,0} reads the *next* lane: a forward shift
        src = (
            "index_set I:i = {6,4,2,0};\nint a[8];\n"
            "main { solve (I) a[i] = (i == 0) ? 5 : a[i-2] + 1; }"
        )
        assert schedule_for(src) is None

    def test_self_dependence_declined(self):
        src = (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { solve (I) a[i] = a[i] + 1; }"
        )
        assert schedule_for(src) is None

    def test_predicate_reading_its_own_element_schedules(self):
        src = (
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { solve (I) st (a[i] == 0) a[i] = (i == 0) ? 1 : a[i-1] + 1; }"
        )
        sched = schedule_for(src)
        assert sched is not None and sched.max_level == 7

    def test_predicate_reading_another_element_declined(self):
        # guarded may test a[i-1] before lane i-1 defines it
        src = (
            "index_set I:i = {1..3};\nint a[4];\n"
            "main { solve (I) st (a[i-1] == 0) a[i] = 7; }"
        )
        assert schedule_for(src) is None

    def test_reduction_over_target_unschedulable(self):
        src = (
            "index_set I:i = {0..7}, J:j = I;\nint f[8];\n"
            "main { solve (I) f[i] = $+(J st (j < i) f[j]); }"
        )
        assert schedule_for(src) is None


class TestLevelMachinery:
    def test_shift_levels_negative_offset(self):
        levels = np.arange(6).reshape(2, 3)
        out = _shift_levels(levels, (-1, 0))
        assert out.tolist() == [[-1, -1, -1], [0, 1, 2]]

    def test_shift_levels_positive_offset(self):
        levels = np.arange(6).reshape(2, 3)
        out = _shift_levels(levels, (0, 1))
        assert out.tolist() == [[1, 2, -1], [4, 5, -1]]

    def test_dependency_levels_simple_chain(self):
        levels = _dependency_levels((5,), [(-1,)])
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_dependency_levels_empty_deps(self):
        levels = _dependency_levels((3, 3), [])
        assert levels.max() == 0

    def test_dependency_levels_two_offsets(self):
        levels = _dependency_levels((4, 4), [(-1, 0), (0, -1)])
        i, j = np.indices((4, 4))
        assert np.array_equal(levels, i + j)

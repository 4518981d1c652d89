"""Oracle paths no shipped program takes: C control flow, host-side
declarations, error exits, function-call binding, solve targets and
empty-mask writes; then one program per engine fallback site a UC
program reaches (``FALLBACKS`` and the ``run_batch`` tests) and the
compressed-sweep lane path (``COMPRESSED``).  Each runs on every engine through
:func:`tests.properties.test_lowering_diff.assert_engines_agree`; the
table names what the oracle must produce (values or the located error).
"""

import pytest

from repro.analysis import lint_program
from repro.cli import main
from repro.interp import batch
from repro.interp.program import UCProgram
from repro.interp.statements import enter_grid
from repro.lang.errors import UCSemanticError
from repro.machine import small_config
from tests.properties.test_lowering_diff import assert_engines_agree

HEAD = (
    "index_set I:i = {0..3}, J:j = {0..2}, K:k = {0..1};\n"
    "int a[4], b[4], c[4], q[4][4], x, s;\nfloat h[4];\n"
)

#: (id, program after HEAD, expected values or "Class: message")
CASES = [
    ("empty_statements", "main { ; par (I) ; a[0] = 1; }", {"a": [1, 0, 0, 0]}),
    (
        "break_and_continue",
        "main {\n"
        "  while (1) { x = x + 1; if (x > 3) break; else continue; }\n"
        "  do { s = s + 1; if (s == 2) continue; if (s > 4) break; } while (s < 10);\n"
        "  do { b[3] = b[3] + 1; } while (b[3] < 3);\n"
        "  for (c[0] = 0; c[0] < 6; c[0]++) { if (c[0] == 1) continue;\n"
        "    if (c[0] == 3) break; a[c[0]] = 7; }\n}",
        {"x": 4, "s": 5, "b": [0, 0, 0, 3], "a": [7, 0, 7, 0], "c": [3, 0, 0, 0]},
    ),
    (
        "host_declarations",
        "main { int tmp[3]; int m = 4; tmp[1] = m; a[0] = tmp[1]; h[1] = 2; h[2] = 1.5; }",
        {"a": [4, 0, 0, 0], "h": [0.0, 2.0, 1.5, 0.0]},
    ),
    ("return_from_main", "main { a[0] = 1; return; a[1] = 2; }", {"a": [1, 0, 0, 0]}),
    (
        "seq_others_under_a_parallel_predicate",
        "main { par (I) { a[i] = i; seq (J) st (a[i] > j) b[i] = b[i] + 1;"
        " others c[i] = c[i] + 1; } }",
        {"b": [0, 1, 2, 3], "c": [3, 2, 1, 0]},
    ),
    (
        "oneof_others_arm",
        "main { oneof (I) st (i > 10) a[i] = 1; others a[i] = 2; }",
        {"a": [2, 2, 2, 2]},
    ),
    ("set_name_as_value", "main { x = I; }",
     "UCRuntimeError: 'I' cannot be used as a value here (line 4, column 12)"),
    (
        "printf_format_error",
        'main { printf("%d %d", 1); }',
        "UCRuntimeError: printf format error: not enough arguments for format string"
        " (line 4, column 8)",
    ),
    ("swap_of_scalars", "main { swap(x, s); }",
     "UCRuntimeError: swap takes two array references (line 4, column 8)"),
    ("infinity_into_an_int_scalar", "main { x = 1.0 / 0.0; }",
     "UCRuntimeError: cannot convert inf to int (line 4, column 10)"),
    (
        "empty_mask_writes_in_an_untaken_branch",
        "main { par (I) a[i] = (i > 10) ? (b[i] = 1) + (x = i) : 5; }",
        {"a": [5, 5, 5, 5], "b": [0, 0, 0, 0], "x": 0},
    ),
    (
        "parallel_write_of_an_agreeing_scalar",
        "main { par (I) a[i] = i; par (I) x = $+(I; a[i]) + 1; }",
        {"x": 7},
    ),
    (
        "local_assigned_from_an_extended_grid",
        "main { par (I) { int t; par (J) t = i * 2; a[i] = t; } }",
        {"a": [0, 2, 4, 6]},
    ),
    (
        "local_from_an_extended_grid_disagrees",
        "main { par (I) { int t; par (J) t = j; a[i] = t; } }",
        "UCMultipleAssignmentError: [UC101] par assigns multiple distinct values to 't'"
        " (the extended axes disagree); make the non-determinism explicit with the $,"
        " operator (paper §3.4) (line 4, column 35)",
    ),
    ("missing_subscript", "int m[4][4];\nmain { m[1] = 3; }",
     "UCRuntimeError: array 'm' needs 2 subscripts, got 1 (line 5, column 8)"),
    ("float_global_initialiser", "float scale = 0.5;\nmain { h[0] = scale * 3; }",
     {"h": [1.5, 0.0, 0.0, 0.0]}),
    # constants fold with the run-time int64 semantics: a shift by 64 or
    # more is 0 as a constant, as a host scalar and in a parallel value
    (
        "shift_beyond_64_bits",
        "int N = 1 << 70;\nint W = 1 << 64;\n"
        "main { s = 64; x = (1 << s) + W; par (I) a[i] = N + i; par (I) b[i] = 1 << (s + i); }",
        {"x": 0, "s": 64, "a": [0, 1, 2, 3], "b": [0, 0, 0, 0]},
    ),
    # an uninitialised float holds 0.0, not the int 0: z / z is nan
    ("uninitialised_float_scalar", "float z, w;\nmain { w = z / z; x = w != w; }",
     {"x": 1}),
    (
        "solve_scalar_target",
        "main { solve (I) { a[i] = i * 2; s = $+(I; a[i]); } }",
        {"a": [0, 2, 4, 6], "s": 12},
    ),
    (
        "solve_parallel_local_target",
        "main { par (I) { int t; solve (J) t = j; a[i] = t; } }",
        "UCRuntimeError: solve target 't' must be an array or scalar (line 4, column 25)",
    ),
    (
        "guarded_solve_with_a_predicate_and_unary_readiness",
        "main { par (I) c[i] = (i + 1) % 4;\n"
        "  solve (I) st (i != 2) a[i] = -(c[i] < i ? a[c[i]] : 1) + $+(J; j); }",
        {"a": [2, 2, 0, 1]},
    ),
    (
        "star_solve_increment_and_scalar",
        "main { *solve (I) st (a[i] < 2) a[i]++;\n"
        "  *solve (I) x = max(x, $>(I; a[i]) + 1); }",
        {"a": [2, 2, 2, 2], "x": 3},
    ),
    (
        "star_solve_reduction_reads_a_fixed_element",
        "main { *solve (I) a[i] = $<(J; a[0] + j + i); }",
        {"a": [0, 1, 2, 3]},
    ),
    (
        "star_solve_min_operand",
        "main { par (I) c[i] = 4 - i; *solve (I) a[i] = $<(J; min(a[j], c[j]) + i); }",
        {"a": [0, 1, 2, 3]},
    ),
    (
        "guarded_solve_predicate_and_two_assignments",
        "main { solve (I) st (i > 0) { a[i] = i; b[i] = a[i] + 1; } }",
        {"a": [0, 1, 2, 3], "b": [0, 2, 3, 4]},
    ),
    (
        "guarded_solve_assignment_in_a_value",
        "main { solve (I) st (i > 0) { a[i] = (x = 1); b[i] = 2; } }",
        {"a": [0, 1, 1, 1], "b": [0, 2, 2, 2], "x": 1},
    ),
    (
        "diverging_next_to_a_stable_target",
        "main { *solve (I) { a[i] = 1 - a[i]; b[i] = 2; } }",
        "UCRuntimeError: *solve exceeded the sweep limit (64; raise via UCProgram("
        "solve_sweep_limit=...) or REPRO_SOLVE_SWEEP_LIMIT); still changing each sweep:"
        " a (frontier 4 of 4 elements, max |delta| 1) (line 4, column 9)",
    ),
    (
        "diverging_scalar",
        "main { *solve (I) { a[i] = 1; x = 1 - x; } }",
        "UCRuntimeError: *solve exceeded the sweep limit (64; raise via UCProgram("
        "solve_sweep_limit=...) or REPRO_SOLVE_SWEEP_LIMIT); still changing each sweep:"
        " x (0 -> 1) (line 4, column 9)",
    ),
    (
        "constant_subscript_over_two_axes",
        "main { b[0] = 5; par (I, J) q[i][j] = b[i * 0 + j * 0]; }",
        {"q": [[5, 5, 5, 0]] * 4},
    ),
    (
        "news_over_an_extent_one_axis",
        "index_set O:o = {0..0};\nmain { par (I) a[i] = i;\n"
        "  par (I, O) c[i] = (i < 3 ? a[i + 1] : 0); par (O, I) b[i] = (i < 3 ? a[i + 1] : 0); }",
        {"b": [1, 2, 3, 0], "c": [1, 2, 3, 0]},
    ),
    (
        "function_local_array_across_calls",
        "void g() { int tmp[4]; par (I) tmp[i] = i; par (I) a[i] = a[i] + tmp[i]; }\n"
        "main { g(); g(); }",
        {"a": [0, 2, 4, 6]},
    ),
    (
        "guarded_solve_assignment_inside_a_value",
        "main { solve (I) { a[i] = (b[i] = 1) + c[i]; c[i] = 2; } }",
        "UCRuntimeError: solve cannot analyse Assign (line 4, column 33)",
    ),
]


#: programs that reach each engine fallback site: the fused kernel demotes
#: (``fuse._Demote``), the frontier analysis declines (``frontier.
#: _NotFrontierable`` / ``_FALLBACK``) or ``run_batch`` leaves the lanes
#: to the solo loop (``batch._BatchAbort``); the oracle's answer stands
FALLBACKS = [
    ("set_name_in_a_parallel_expression", "main { par (I) a[i] = I; }",
     "UCRuntimeError: 'I' cannot be used as a value here (line 4, column 23)"),
    ("static_division_by_zero", "main { par (I) a[i] = 1 / 0; }",
     "UCRuntimeError: integer division by zero (line 4, column 25)"),
    ("infinity_literal", "main { par (I) h[i] = INF; }", {"h": [2.0**53] * 4}),
    ("static_short_circuits", "main { par (I) a[i] = (1 || b[i]) + (0 && b[i]); }",
     {"a": [1, 1, 1, 1]}),
    (
        "scalar_left_short_circuits",
        "main { x = 1; par (I) { a[i] = i; b[i] = (x > 0 && a[i] > 1) + (x < 0 || c[i] == 0); } }",
        {"a": [0, 1, 2, 3], "b": [1, 1, 2, 2]},
    ),
    ("gather_missing_subscript", "main { par (I) a[i] = q[i]; }",
     "UCRuntimeError: array 'q' needs 2 subscripts, got 1 (line 4, column 23)"),
    ("gather_constant_out_of_range", "main { par (I) a[i] = b[7]; }",
     "UCRuntimeError: subscript 0 of 'b' out of range (value 7, extent 4) (line 4, column 23)"),
    ("scatter_missing_subscript", "main { par (I) q[i] = 1; }",
     "UCRuntimeError: array 'q' needs 2 subscripts, got 1 (line 4, column 16)"),
    ("scatter_constant_out_of_range", "main { par (I) b[7] = i; }",
     "UCRuntimeError: subscript 0 of 'b' out of range (value 7, extent 4) (line 4, column 16)"),
    (
        "star_par_on_a_row_slice",
        "void bump(int w[4]) { *par (I) st (w[i] < 3) w[i] = w[i] + 1; }\nmain { bump(q[1]); }",
        {"q": [[0] * 4, [3] * 4, [0] * 4, [0] * 4]},
    ),
    (
        "star_par_on_a_mapped_array",
        "map (I) { permute (I) b[i+1] :- a[i]; }\nmain { *par (I) st (b[i] < 3) b[i] = b[i] + 1; }",
        {"b": [3, 3, 3, 3]},
    ),
    (
        "star_par_reads_a_parallel_local",
        "main { par (I) { int t; t = i; *par (J) st (q[i][j] < t) q[i][j] = q[i][j] + 1; } }",
        {"q": [[0, 0, 0, 0], [1, 1, 1, 0], [2, 2, 2, 0], [3, 3, 3, 0]]},
    ),
    (
        "star_par_diagonal_reference",
        "main { par (I) *par (I) st (q[i][i] < 2) q[i][i] = q[i][i] + 1; }",
        {"q": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]},
    ),
    (
        "star_par_over_repeated_values",
        "index_set D:d = {0, 0, 1};\nmain { *par (D) st (a[d] < 3) a[d] = a[d] + 1; }",
        {"a": [3, 3, 0, 0]},
    ),
    ("star_par_host_predicate", "main { *par (I) st (0) a[i] = 1; }", {"a": [0] * 4}),
    ("star_par_lower_rank_target", "main { *par (I, J) st (a[i] < 3) a[i] = a[i] + 1; }",
     {"a": [3, 3, 3, 3]}),
    (
        "star_par_constant_target_subscript",
        "main { *par (I, J) st (q[0][j] < 3) q[0][j] = q[0][j] + 1; }",
        {"q": [[3, 3, 3, 0], [0] * 4, [0] * 4, [0] * 4]},
    ),
    ("star_par_diagonal_target", "main { *par (I, J) st (j < 0) q[i][i] = 1; }",
     {"q": [[0] * 4] * 4}),
    (
        "star_solve_reduction_over_two_sets",
        "main { par (J) c[j] = 5 - j; *solve (I) a[i] = $<(J, K; c[j] + k + i); }",
        {"a": [3, 4, 5, 6]},
    ),
    ("star_solve_partitioned_reduction", "main { *solve (I) a[i] = $<(J st (j != i) c[j] + 1); }",
     {"a": [1, 1, 1, 1]}),
    (
        "star_solve_diverges",
        "main { *solve (I) a[i] = 1 - a[i]; }",
        "UCRuntimeError: *solve exceeded the sweep limit (64; raise via UCProgram("
        "solve_sweep_limit=...) or REPRO_SOLVE_SWEEP_LIMIT); still changing each sweep:"
        " a (frontier 4 of 4 elements, max |delta| 1) (line 4, column 9)",
    ),
    (
        "guarded_solve_diagonal_reference",
        "main { solve (I) { q[i][0] = i; b[i] = q[i][i] + 1; } }",
        "UCRuntimeError: solve cannot make progress: the assignments are not a proper set"
        " (circular dependency) (line 4, column 8)",
    ),
    (
        "guarded_solve_on_arrays_of_two_shapes",
        "int e[6];\nvoid fill(int w[4]) { solve (I) { w[i] = i; b[i] = w[i] + 1; } }\n"
        "main { fill(a); fill(e); }",
        {"a": [0, 1, 2, 3], "e": [0, 1, 2, 3, 0, 0], "b": [1, 2, 3, 4]},
    ),
    (
        "guarded_solve_stalls_after_progress",
        "main { solve (I) { a[i] = 1; b[i] = (i > 0 ? c[i - 1] : c[3]); c[i] = b[i] + 1; } }",
        "UCRuntimeError: solve cannot make progress: the assignments are not a proper set"
        " (circular dependency) (line 4, column 8)",
    ),
    (
        "folded_argument_beyond_64_bits",
        "int f(int u) { return u + 1; }\nmain { par (I) a[i] = f(4611686018427387904 * 4); }",
        {"a": [1, 1, 1, 1]},
    ),
    ("scalar_condition_ternary", "main { par (I) a[i] = (x > 1 ? b[i] : 2); }", {"a": [2] * 4}),
    (
        "star_par_constant_subscript_out_of_range",
        "main { *par (I) st (a[i] < 3) a[i] = a[i] + b[7]; }",
        "UCRuntimeError: subscript 0 of 'b' out of range (value 7, extent 4) (line 4, column 45)",
    ),
    ("star_par_infinity", "main { *par (I) st (a[i] < 3) a[i] = min(a[i] + 1, INF); }",
     {"a": [3, 3, 3, 3]}),
    (
        "star_par_on_arrays_of_two_shapes",
        "int e[6];\nvoid bump(int w[4]) { *par (I) st (w[i] < 3) w[i] = w[i] + 1; }\n"
        "main { bump(a); bump(e); }",
        {"a": [3, 3, 3, 3], "e": [3, 3, 3, 3, 0, 0]},
    ),
    ("guarded_solve_missing_subscript", "main { solve (I) { q[i][0] = i; b[i] = q[i] + 1; } }",
     "UCRuntimeError: array 'q' needs 2 subscripts, got 1 (line 4, column 40)"),
]


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("case", CASES + FALLBACKS, ids=[c[0] for c in CASES + FALLBACKS])
def test_oracle_path_on_every_engine(case):
    _id, body, want = case
    kind, result = assert_engines_agree(HEAD + body, [{}, {}])
    if isinstance(want, dict):
        assert kind == "ok", result
        for name, value in want.items():
            got = result[name]
            assert (got.tolist() if hasattr(got, "tolist") else got) == value, name
    else:
        assert kind == "error"
        assert f"{result[0].__name__}: {result[1]}" == want


FUNCS = (
    "int m[2][4], r[2], v[2], x;\n"
    "int sum(int w[4]) { return w[0] + w[3]; }\n"
    "int first(int w[4]) { return w[1]; }\n"
    "int pick(int w[2][4]) { return first(w[1]); }\n"
    "int fall(int u) { if (u > 1) return u; }\n"
    "int quiet(int u) { { int t; t = u * 2; m[0][0] = t; } return; }\n"
    "int blk(int u) { { return u + 1; } }\n"
    "int cube[2][2][4];\n"
    "int row(int w[2][4]) { return first(w[1]); }\n"
)

CALLS = [
    ("scalar_for_an_array_parameter", "main { x = sum(x); }",
     "UCRuntimeError: argument for array parameter 'w' is not an array (line 11, column 16)"),
    ("expression_for_an_array_parameter", "main { x = sum(3); }",
     "UCRuntimeError: argument for array parameter 'w' must be an array name or slice"
     " (line 11, column 16)"),
    ("parallel_slice_subscript", "main { par (I) r[i] = sum(m[i]); }",
     "UCRuntimeError: slice subscripts must be scalar (line 11, column 29)"),
    ("slices_of_slices", "main { m[1][1] = 9; m[1][3] = 5; x = pick(m) + sum(m[1]); }",
     {"x": 14}),
    (
        "functions_without_a_returned_value",
        "main { v[0] = fall(0); v[1] = fall(5); par (J) st (j == 1) r[j] = quiet(j) + 1; }",
        {"v": [0, 5], "r": [0, 1], "m": [[2, 0, 0, 0], [0, 0, 0, 0]]},
    ),
    ("host_return_without_a_value", "main { v[0] = quiet(3) + 1; }", {"v": [1, 0]}),
    # inf / NaN bound to an int parameter: the fused kernel's argument
    # cast demotes (static) or casts per sweep (dynamic), then raises the
    # oracle's error
    ("infinity_for_a_host_int_parameter", "main { x = blk(1.0 / 0.0); }",
     "UCRuntimeError: cannot convert inf to int (line 11, column 20)"),
    ("nan_for_a_parallel_int_parameter", "main { par (J) r[j] = blk(0.0 / 0.0); }",
     "UCRuntimeError: cannot convert nan to int (line 11, column 31)"),
    (
        "nan_for_a_parallel_int_parameter_at_run_time",
        "main { float z = 0.0; par (J) r[j] = blk(z / z); }",
        "UCRuntimeError: cannot convert nan to int (line 11, column 44)",
    ),
    ("slice_of_a_slice_parameter", "main { cube[1][1][1] = 7; x = row(cube[1]); }", {"x": 7}),
    (
        "parallel_calls_with_an_array_argument_and_a_block_return",
        "main { m[1][1] = 4; par (J) r[j] = first(m[1]) + blk(j); }",
        {"r": [5, 6]},
    ),
]


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("case", CALLS, ids=[c[0] for c in CALLS])
def test_function_binding_on_every_engine(case):
    _id, body, want = case
    src = "index_set I:i = {0..1}, J:j = {0..1};\n" + FUNCS + body
    kind, result = assert_engines_agree(src, [{}, {}])
    if isinstance(want, dict):
        assert kind == "ok", result
        for name, value in want.items():
            got = result[name]
            assert (got.tolist() if hasattr(got, "tolist") else got) == value, name
    else:
        assert kind == "error"
        assert f"{result[0].__name__}: {result[1]}" == want


@pytest.mark.parametrize(
    "body, message",
    [
        ('main { a[0] = "hi"; }', "a string literal can only be printf's format"),
        ("main { printf(x); }", "printf needs a literal format string"),
        ("main { par (I) i++; }", "cannot assign to 'i': it is a element, not a variable"),
        ("main { I--; }", "cannot assign to 'I': it is a index_set, not a variable"),
    ],
)
def test_front_end_rejects_what_the_oracle_cannot_run(body, message):
    report = lint_program(HEAD + body)
    assert report.exit_code() == 1
    assert message in report.render_text()


def test_define_outside_int64_is_one_line_naming_it(tmp_path):
    """A ``-D`` value no int64 holds is refused where the defines enter
    the front end: a semantic error naming it, one line from the CLI."""
    src = HEAD + "main { par (I) a[i] = N; }"
    with pytest.raises(UCSemanticError, match=r"^define N=-?\d+ does not fit in 64 bits$"):
        UCProgram(src, defines={"N": 2**70})
    path = tmp_path / "d.uc"
    path.write_text(src)
    for value in ("99999999999999999999", "-9223372036854775809"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(path), "-D", f"N={value}"])
        assert exit_.value.code == f"{path}: define N={value} does not fit in 64 bits"
    assert main(["run", str(path), "-D", "N=-9223372036854775808"]) == 0


def test_logical_subscripts_fold_in_the_static_classifier():
    """``&&``/``||`` inside a subscript reach ``apply_binop`` through the
    static reference analysis (``analysis/staticref.py``)."""
    src = HEAD + "main { par (I) a[i] = b[(i > 0) && (i < 3)] + c[(i == 0) || (i == 3)]; }"
    assert lint_program(src).exit_code() == 0
    kind, _ = assert_engines_agree(src, [{}, {}])
    assert kind == "ok"


STAR_PAR = "index_set I:i = {0..7};\nint a[8], t;\nmain { par (I) a[i] = i + t; *par (I) st (a[i] < 9) a[i] = a[i] + 1; }"
LANES = [{"t": 0}, {"t": 1}, {"t": 2}]


def _same_as_solo(results, src, **kw):
    for lane, res in zip(LANES, results):
        solo = UCProgram(src, **kw).run(lane)
        assert res["a"].tolist() == solo["a"].tolist()
        assert res.fingerprint == solo.fingerprint


@pytest.mark.usefixtures("default_engines")
def test_batch_over_the_memory_cap_runs_the_lanes_solo(monkeypatch):
    """``_BatchConstruct._screen`` declines a construct whose lane stacks
    would pass ``_MEMORY_CAP_BYTES``."""
    monkeypatch.setattr(batch, "_MEMORY_CAP_BYTES", 0)
    results = UCProgram(STAR_PAR).run_batch(LANES)
    _same_as_solo(results, STAR_PAR)


@pytest.mark.usefixtures("default_engines")
def test_batch_whose_kernel_left_the_cache_reruns_sequentially(monkeypatch):
    """The screened kernel leaves the plan cache while the lanes enter the
    grid (cleared as the second lane enters): ``_prepare`` meets another
    kernel, aborts, and the batch reruns solo.  (The lanes share the
    private cache their lead's interpreter made.)"""
    entered = []

    def evicting(ip, stmt, ctx):
        entered.append(stmt)
        if len(entered) == 2:
            ip.plan_cache.clear()
        return enter_grid(ip, stmt, ctx)

    monkeypatch.setattr(batch, "enter_grid", evicting)
    results = UCProgram(STAR_PAR, compile_store=None).run_batch(LANES)
    assert "batched_lanes" not in results[0].compile
    _same_as_solo(results, STAR_PAR, compile_store=None)


#: compressed frontier sweeps: on a 16-PE machine these grids shrink to
#: their active lanes, which run as lane programs (frontier._run_lanes)
CHAIN = (
    "index_set I:i = {0..47}, J:j = {0..47};\nint a[48], b[48], c[48], w[48][48];\n"
    "main { par (I, J) w[i][j] = (i == j ? 0 : (i == j + 1 ? 1 : 100));\n"
    "  par (I) a[i] = 1000; a[0] = 0;\n  "
)
WAVE = "min(a[i], (i > 0 ? a[i - 1] + 1 : 0))"
COMPRESSED = {
    "wavefront_with_an_invariant_gather": CHAIN + "c[0] = 1; *solve (I) a[i] = " + WAVE.replace("+ 1", "+ c[0]") + "; }",
    "invariant_predicate": CHAIN + "*solve (I) st (c[0] < 1) a[i] = " + WAVE + "; }",
    "reduction_over_a_chain": CHAIN + "*solve (I) a[i] = $<(J; a[j] + w[i][j]); }",
    "reduction_with_a_fixed_element": CHAIN + "*solve (I) a[i] = $<(J; a[j] + w[i][j] + a[0]); }",
    "reduction_of_lane_invariant_operands": (
        CHAIN + "*solve (I) st (i >= 0) a[i] = " + WAVE + "; st (a[i] < 1000) b[i] = $<(J; a[j] + 1); }"
    ),
    "star_par_with_an_invariant_predicate_term": (
        "index_set I:i = {0..63};\nint a[64], c[64];\n"
        "main { par (I) a[i] = i % 8; *par (I) st (c[0] < 1 && a[i] < 7) a[i] = a[i] + 1; }"
    ),
    "out_of_range_inside_a_reduction": (
        CHAIN + "*solve (I) a[i] = $<(J; (a[i] > 40 && a[i] < 1000 ? a[j + 1] : a[j]) + w[i][j]); }",
        "UCRuntimeError: subscript 0 of 'a' out of range (value 48, extent 48) (line 5, column 55)",
    ),
}


@pytest.mark.usefixtures("default_engines")
@pytest.mark.parametrize("name", sorted(COMPRESSED))
def test_compressed_sweeps_on_every_engine(name):
    src, want = COMPRESSED[name] if isinstance(COMPRESSED[name], tuple) else (COMPRESSED[name], None)
    kind, result = assert_engines_agree(src, [{}, {}], machine_config=small_config(16))
    if want is None:
        assert kind == "ok", result
    else:
        assert f"{result[0].__name__}: {result[1]}" == want

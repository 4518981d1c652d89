"""Whole-program static analyzer (``repro lint``) tests."""

import json
from pathlib import Path

import pytest

from repro.analysis import CODES, Diagnostic, LintReport, lint_program

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "uc"
EXAMPLE_DEFINES = {"apsp.uc": {"N": 8}, "histogram.uc": {"N": 16}}


def codes(report):
    return [d.code for d in report.diagnostics]


class TestDiagnosticModel:
    def test_codes_are_documented(self):
        for code in ("UC101", "UC201", "UC301", "UC401"):
            assert code in CODES

    def test_render_has_position_and_code(self):
        d = Diagnostic(
            code="UC101",
            severity="error",
            message="boom",
            line=3,
            col=7,
            file="x.uc",
            hint="fix it",
        )
        text = d.render()
        assert "x.uc:3:7: error: UC101: boom" in text
        assert "hint: fix it" in text

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="UC999", severity="error", message="?")

    def test_exit_codes(self):
        rep = LintReport(file="x.uc")
        assert rep.exit_code() == 0
        rep.add(Diagnostic(code="UC102", severity="warning", message="w"))
        assert rep.exit_code() == 0
        assert rep.exit_code(werror=True) == 1
        rep.add(Diagnostic(code="UC101", severity="error", message="e"))
        assert rep.exit_code() == 1


class TestRaceDetection:
    def test_definite_race_is_uc101(self):
        rep = lint_program(
            "index_set I:i = {0..7}, J:j = I;\nint a[8];\n"
            "main { par (I, J) a[i] = j; }"
        )
        errs = [d for d in rep.errors if d.code == "UC101"]
        assert len(errs) == 1
        assert errs[0].line == 3
        assert "multiple distinct values" in errs[0].message
        assert "$," in errs[0].hint

    def test_benign_collapse_not_flagged(self):
        # all colliding lanes write the same value: §3.4 allows it
        rep = lint_program(
            "index_set I:i = {0..7}, J:j = I;\nint a[8];\n"
            "main { par (I, J) a[i] = i; }"
        )
        assert not rep.has("UC101")

    def test_injective_write_clean(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8];\nmain { par (I) a[i] = i; }"
        )
        assert not rep.has("UC101") and not rep.has("UC102")

    def test_data_dependent_target_is_possible_race(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8], p[8];\n"
            "main { par (I) a[p[i]] = i; }"
        )
        assert rep.has("UC102")

    def test_scalar_target_race(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint s;\nmain { par (I) s = i; }"
        )
        assert any(d.code == "UC101" and "scalar" in d.message for d in rep.errors)

    def test_cross_statement_overlap_is_uc103(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { par (I) { a[i] = i; a[7 - i] = i; } }"
        )
        assert rep.has("UC103")

    def test_static_out_of_bounds_is_uc104(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8];\nmain { par (I) a[i + 4] = 0; }"
        )
        oob = [d for d in rep.diagnostics if d.code == "UC104"]
        assert oob and oob[0].severity == "error"
        assert "out of range" in oob[0].message


class TestSolveChecks:
    PROGRAMS = {
        "zero_offset_cycle": (
            "index_set I:i = {0..7};\nint x[8], y[8];\n"
            "main { solve (I) { x[i] = y[i] + 1; y[i] = x[i] * 2; } }"
        ),
        "self_dependence": (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { solve (I) a[i] = a[i] + 1; }"
        ),
        "strided_self_dependence": (
            "index_set I:i = {0,2,4,6};\nint a[8];\n"
            "main { solve (I) a[i] = a[i] + 1; }"
        ),
        "shifted_recurrence": (
            "index_set I:i = {0..7};\nint f[8];\n"
            "main { solve (I) f[i] = (i < 2) ? 1 : f[i-1] + f[i-2]; }"
        ),
        "strided_recurrence": (
            "index_set I:i = {0,2,4,6};\nint a[8];\n"
            "main { solve (I) a[i] = (i == 0) ? 5 : a[i-2] + 1; }"
        ),
        "star_solve": (
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { *solve (I) a[i] = a[i]; }"
        ),
        "constant_pred": (
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { solve (I) st (0 == 1) a[i] = (i == 0) ? 1 : a[i - 1]; }"
        ),
    }

    def test_zero_offset_cycle_is_uc201(self):
        rep = lint_program(self.PROGRAMS["zero_offset_cycle"])
        errs = [d for d in rep.errors if d.code == "UC201"]
        assert errs and errs[0].line in (3,)
        assert "cycle" in errs[0].message

    def test_self_dependence_is_uc201(self):
        assert lint_program(self.PROGRAMS["self_dependence"]).has("UC201")

    def test_strided_self_dependence_is_uc201(self):
        # the shift is found in grid positions, so a listing set's
        # self-reference is the same zero shift
        assert lint_program(self.PROGRAMS["strided_self_dependence"]).has("UC201")

    def test_shifted_recurrence_is_proper(self):
        assert not lint_program(self.PROGRAMS["shifted_recurrence"]).has("UC201")
        assert not lint_program(self.PROGRAMS["strided_recurrence"]).has("UC201")

    def test_star_solve_exempt_from_cycle_check(self):
        assert not lint_program(self.PROGRAMS["star_solve"]).has("UC201")

    def test_constant_solve_predicate_is_uc203(self):
        assert lint_program(self.PROGRAMS["constant_pred"]).has("UC203")

    def test_uc201_errors_raise_under_every_strategy(self):
        """An error-severity UC201 names a deadlock: the scheduled default
        declines it and guarded raises, so no strategy runs it."""
        from repro.interp.program import UCProgram
        from repro.lang.errors import UCRuntimeError

        flagged = [
            name for name, src in self.PROGRAMS.items()
            if any(d.code == "UC201" for d in lint_program(src).errors)
        ]  # fmt: skip
        assert flagged == ["zero_offset_cycle", "self_dependence", "strided_self_dependence"]
        for name in flagged:
            for strategy in ("auto", "guarded"):
                with pytest.raises(UCRuntimeError, match="cannot make progress"):
                    UCProgram(self.PROGRAMS[name], solve_strategy=strategy).run()

    def test_unreachable_others_is_uc202(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { par (I) st (1) a[i] = 0; others a[i] = 1; }"
        )
        assert rep.has("UC202")


class TestCommLints:
    def test_data_dependent_router_is_uc301(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8], p[8];\n"
            "main { par (I) a[i] = a[p[i]]; }"
        )
        routers = [d for d in rep.diagnostics if d.code == "UC301"]
        assert routers
        assert routers[0].line == 3
        assert "router" in routers[0].message

    def test_strided_set_names_its_stride(self):
        # affine, but off unit stride: still the router, and not for data
        rep = lint_program(
            "index_set I:i = {0,2,4,6};\nint a[8], b[8];\n"
            "main { par (I) b[i] = a[i]; }"
        )
        routers = [d for d in rep.diagnostics if d.code == "UC301"]
        assert len(routers) == 2
        assert all("element stride 2 along i" in d.message for d in routers)
        assert not any("data-dependent" in d.message + d.hint for d in routers)

    def test_news_shift_is_uc303(self):
        rep = lint_program(
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "main { par (I) a[i] = b[i + 1]; }"
        )
        news = [d for d in rep.diagnostics if d.code == "UC303"]
        assert news and "permute" in news[0].hint

    def test_spread_is_uc302_with_copy_hint(self):
        rep = lint_program(
            "index_set I:i = {0..3}, K:k = I;\nint v[4], m[4][4];\n"
            "main { par (I, K) m[i][k] = v[i]; }"
        )
        spreads = [d for d in rep.diagnostics if d.code == "UC302"]
        assert spreads and "copy" in spreads[0].hint

    def test_permute_map_silences_the_lint(self):
        src = (
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "map (I) { permute (I) b[i+1] :- a[i]; }\n"
            "main { par (I) a[i] = a[i] + b[i + 1]; }"
        )
        assert not lint_program(src).has("UC303")
        assert lint_program(src, apply_maps=False).has("UC303")


class TestHygiene:
    def test_unused_index_set(self):
        rep = lint_program(
            "index_set I:i = {0..7}, DEAD:q = {0..3};\nint a[8];\n"
            "main { par (I) a[i] = i; }"
        )
        unused = [d for d in rep.diagnostics if d.code == "UC401"]
        assert unused and "DEAD" in unused[0].message

    def test_shadowed_element(self):
        rep = lint_program(
            "index_set I:i = {0..3};\nint a[4];\n"
            "main { par (I) par (I) a[i] = 0; }"
        )
        assert rep.has("UC402")

    def test_dead_arm(self):
        rep = lint_program(
            "index_set I:i = {0..7};\nint a[8];\n"
            "main { par (I) st (0) a[i] = 1; }"
        )
        assert rep.has("UC403")


class TestFrontEndErrors:
    def test_syntax_error_is_uc001(self):
        rep = lint_program("main { par (I a[i] = 0; }")
        assert rep.has("UC001") and rep.exit_code() == 1

    def test_semantic_error_is_uc002(self):
        rep = lint_program("index_set I:i = {0..N-1};\nmain { }")
        assert rep.has("UC002")
        assert rep.errors[0].line > 0


class TestReportFormats:
    SRC = (
        "index_set I:i = {0..7}, J:j = I;\nint a[8];\n"
        "main { par (I, J) a[i] = j; }"
    )

    def test_text_has_footer(self):
        text = lint_program(self.SRC, filename="race.uc").render_text()
        assert "race.uc:" in text and "error(s)" in text

    def test_json_roundtrips(self):
        data = json.loads(lint_program(self.SRC, filename="race.uc").render_json())
        assert data["file"] == "race.uc"
        assert data["errors"] >= 1
        assert any(d["code"] == "UC101" for d in data["diagnostics"])

    def test_diagnostics_sorted_by_position(self):
        rep = lint_program(self.SRC)
        lines = [d.line for d in rep.diagnostics]
        assert lines == sorted(lines)


class TestExamplesGate:
    """The shipped examples must stay lint-clean (no errors)."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in EXAMPLES.glob("*.uc"))
    )
    def test_example_has_no_errors(self, name):
        rep = lint_program(
            (EXAMPLES / name).read_text(),
            defines=EXAMPLE_DEFINES.get(name, {}),
            filename=name,
        )
        assert rep.errors == [], rep.render_text()
        assert rep.warnings == [], rep.render_text()


class TestDslLint:
    def test_builder_lint_finds_structural_race(self):
        from repro.ucdsl import UCBuilder

        b = UCBuilder()
        I, i = b.index_set("I", "i", range(8))
        J, j = b.alias("J", "j", I)
        a = b.int_array("a", 8)
        with b.main():
            with b.par(I, J):
                a[i].set(j)
        rep = b.lint()
        assert any(d.code in ("UC101", "UC102") for d in rep.diagnostics)

    def test_builder_lint_clean_program(self):
        from repro.ucdsl import UCBuilder

        b = UCBuilder()
        I, i = b.index_set("I", "i", range(8))
        a = b.int_array("a", 8)
        with b.main():
            with b.par(I):
                a[i].set(i)
        rep = b.lint()
        assert rep.errors == []


class TestCli:
    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.uc"
        good.write_text(
            "index_set I:i = {0..7};\nint a[8];\nmain { par (I) a[i] = i; }"
        )
        bad = tmp_path / "bad.uc"
        bad.write_text(
            "index_set I:i = {0..7}, J:j = I;\nint a[8];\n"
            "main { par (I, J) a[i] = j; }"
        )
        assert main(["lint", str(good)]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "UC101" in out

    def test_lint_werror_and_json(self, tmp_path, capsys):
        from repro.cli import main

        warn = tmp_path / "warn.uc"
        warn.write_text(
            "index_set I:i = {0..7}, DEAD:q = {0..3};\nint a[8];\n"
            "main { par (I) a[i] = i; }"
        )
        assert main(["lint", str(warn)]) == 0
        capsys.readouterr()
        assert main(["lint", str(warn), "--werror"]) == 1
        capsys.readouterr()
        assert main(["lint", str(warn), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["warnings"] >= 1


def _agreement_corpus():
    """``(source, defines)`` params: the shipped examples and every
    ``repro.bench.workloads`` program, map kernels with and without
    their map sections, plus an extent-1 axis the spread hint must skip
    and a diagonal ``m[i][i]``."""
    from repro.bench import workloads

    out = [
        pytest.param(p.read_text(), EXAMPLE_DEFINES.get(p.name, {}), id=p.stem)
        for p in sorted(EXAMPLES.glob("*.uc"))
    ]
    defines = {"N": 8, "REPS": 2, "LOGN": 3, "R": 8, "WALL": 1000}
    for name in sorted(dir(workloads)):
        src = getattr(workloads, name)
        if not (name.endswith("_UC") and isinstance(src, str)):
            continue
        if "MAYBE_MAP" in src:
            section = getattr(workloads, name[:-3] + "_MAP")
            mapped = workloads.with_map(src, section, True)
            out.append(pytest.param(mapped, defines, id=name + "+map"))
            src = workloads.with_map(src, section, False)
        out.append(pytest.param(src, defines, id=name))
    out.append(pytest.param(
        "index_set I:i = {0..3}, J:j = I, K:k = {0..0};\n"
        "int v[4], m[4][4][1];\nmain { par (I, J, K) m[i][j][k] = v[i]; }\n",
        {},
        id="extent_one_axis",
    ))
    # a second subscript on one grid axis: ``classify_affine``'s
    # data-dependent-subscript verdict, a router reference
    out.append(pytest.param(
        "index_set I:i = {0..3};\nint v[4], m[4][4];\nmain { par (I) v[i] = m[i][i]; }\n",
        {},
        id="diagonal_subscript",
    ))
    return out


class TestAnalyzeAgreesWithLint:
    """``repro analyze`` and ``repro lint`` read one static analysis:
    every non-local reference ``analyze`` reports has the UC301-304
    diagnostic of its tier at the same position, and the map suggestions
    ``analyze`` lists are exactly those diagnostics' hints."""

    TIER_CODES = {"router": "UC301", "spread": "UC302", "news": "UC303",
                  "broadcast": "UC304"}

    @pytest.mark.parametrize("no_maps", [False, True], ids=["mapped", "unmapped"])
    @pytest.mark.parametrize("source, defines", _agreement_corpus())
    def test_same_tiers_and_hints(self, source, defines, no_maps, tmp_path, capsys):
        import re

        from repro.cli import main

        path = tmp_path / "prog.uc"
        path.write_text(source)
        args = [str(path)] + [f"-D{k}={v}" for k, v in defines.items()]
        args += ["--no-maps"] if no_maps else []
        assert main(["analyze"] + args) == 0
        rows, suggestions = [], set()
        for line in capsys.readouterr().out.splitlines():
            m = re.match(r"\s+line\s+(\d+)(?::(\d+))?\s+(\w+)\s", line)
            if m:
                col = int(m.group(2)) if m.group(2) else None
                rows.append((int(m.group(1)), col, m.group(3)))
            elif line.startswith("  - "):
                suggestions.add(line[4:])
        main(["lint", "--format", "json"] + args)
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        hints = set()
        for line, col, tier in rows:
            if tier not in self.TIER_CODES:
                continue
            matches = [
                d for d in diags
                if d["code"] == self.TIER_CODES[tier] and d["line"] == line
                and col in (None, d["col"])
            ]
            assert matches, f"no {self.TIER_CODES[tier]} at {line}:{col}"
            hints.update(d["hint"] for d in matches if d["hint"])
        assert suggestions == hints

"""Static communication report tests: ``repro analyze``'s per-reference
rows, read from the analysis model through ``commlints.site_advice``."""

from types import SimpleNamespace

from repro.analysis.commlints import reference_rows
from repro.analysis.staticref import default_costs
from repro.interp.program import UCProgram
from repro.lang.ast import expr_to_text


def report_for(src, defines=None, apply_maps=True):
    prog = UCProgram(src, defines=defines, apply_maps=apply_maps)
    rows = reference_rows(
        prog.frontend.model(), prog.frontend.verdicts(), default_costs()
    )
    refs = [
        SimpleNamespace(text=expr_to_text(node), kind=tier, note=note)
        for node, tier, note, _hint in rows
    ]
    suggestions = list(dict.fromkeys(hint for *_row, hint in rows if hint))
    return SimpleNamespace(
        references=refs,
        suggestions=suggestions,
        count=lambda kind: sum(1 for r in refs if r.kind == kind),
        remote_count=sum(1 for r in refs if r.kind != "local"),
    )


class TestClassification:
    def test_local_reference(self):
        rep = report_for(
            "index_set I:i = {0..7};\nint a[8], b[8];\nmain { par (I) a[i] = b[i]; }"
        )
        assert all(r.kind == "local" for r in rep.references)
        assert rep.suggestions == []

    def test_shift_reported_as_news(self):
        rep = report_for(
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "main { par (I) a[i] = b[i + 1]; }"
        )
        kinds = {r.text: r.kind for r in rep.references}
        assert kinds["b[i + 1]"] == "news"
        assert any("permute" in s for s in rep.suggestions)

    def test_transpose_reported_as_router(self):
        rep = report_for(
            "index_set I:i = {0..3}, J:j = I;\nint a[4][4], b[4][4];\n"
            "main { par (I, J) a[i][j] = b[j][i]; }"
        )
        kinds = {r.text: r.kind for r in rep.references}
        assert kinds["b[j][i]"] == "router"

    def test_data_dependence_reported_as_router(self):
        rep = report_for(
            "index_set I:i = {0..7};\nint a[8], p[8];\n"
            "main { par (I) a[i] = a[p[i]]; }"
        )
        assert any(
            r.kind == "router" and "data-dependent" in r.note for r in rep.references
        )

    def test_spread_for_unused_axis(self):
        rep = report_for(
            "index_set I:i = {0..3}, K:k = I;\nint v[4], m[4][4];\n"
            "main { par (I, K) m[i][k] = v[i]; }"
        )
        kinds = {r.text: r.kind for r in rep.references}
        assert kinds["v[i]"] == "spread"
        assert any("copy" in s for s in rep.suggestions)

    def test_map_section_changes_verdict(self):
        src = (
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "map (I) { permute (I) b[i+1] :- a[i]; }\n"
            "main { par (I) a[i] = b[i + 1]; }"
        )
        mapped = report_for(src)
        unmapped = report_for(src, apply_maps=False)
        m_kinds = {r.text: r.kind for r in mapped.references}
        u_kinds = {r.text: r.kind for r in unmapped.references}
        assert m_kinds["b[i + 1]"] == "local"
        assert u_kinds["b[i + 1]"] == "news"

    def test_reduction_operand_classified(self):
        rep = report_for(
            "index_set I:i = {0..3}, J:j = I, K:k = I;\nint d[4][4], c[4][4];\n"
            "main { par (I, J) c[i][j] = $<(K; d[i][k] + d[k][j]); }"
        )
        spreads = [r for r in rep.references if r.kind in ("spread", "router")]
        assert len(spreads) >= 1

    def test_counts_helpers(self):
        rep = report_for(
            "index_set I:i = {0..6};\nint a[8], b[8];\n"
            "main { par (I) a[i] = b[i + 1]; }"
        )
        assert rep.count("news") == 1
        assert rep.remote_count == 1

    def test_suggestions_deduplicated(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "twice.uc"
        path.write_text(
            "index_set I:i = {0..5};\nint a[8], b[8];\n"
            "main { par (I) { a[i] = b[i + 2]; a[i] = b[i + 2]; } }"
        )
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        suggestions = [ln for ln in out.splitlines() if ln.startswith("  - ")]
        assert out.count(" news ") == 2
        assert suggestions == [
            "  - permute 'b' with offset 2 so that b[i + 2] is stored locally"
        ]


class TestSeqElements:
    """seq-bound elements are run-time scalars: references subscripted by
    them are uniform per iteration, and the static pass must agree with
    the runtime tier dispatcher (the apsp inner loop is the motivating
    case: d[i][k] is a spread, not data-dependent router traffic)."""

    def test_seq_subscript_is_spread_not_router(self):
        report = report_for(
            "int N = 8;\n"
            "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
            "int d[N][N], c[N][N];\n"
            "main { seq (K) par (I, J) c[i][j] = d[i][k] + d[k][j]; }"
        )
        kinds = {r.text: r.kind for r in report.references}
        assert kinds["d[i][k]"] == "spread"
        assert kinds["d[k][j]"] == "spread"
        assert report.count("router") == 0

    def test_seq_only_subscripts_are_broadcast(self):
        report = report_for(
            "int N = 4;\n"
            "index_set I:i = {0..N-1}, K:k = I;\n"
            "int a[N], b[N];\n"
            "main { seq (K) par (I) a[i] = b[k]; }"
        )
        kinds = {r.text: r.kind for r in report.references}
        assert kinds["b[k]"] == "broadcast"

    def test_par_rebinding_shadows_seq_scalar(self):
        # the inner par re-binds k as a grid axis: b[k] is local again
        report = report_for(
            "int N = 4;\n"
            "index_set K:k = {0..N-1};\n"
            "int a[N], b[N];\n"
            "main { seq (K) par (K) a[k] = b[k]; }"
        )
        kinds = {r.text: r.kind for r in report.references}
        assert kinds["b[k]"] == "local"
        assert kinds["a[k]"] == "local"

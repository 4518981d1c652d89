"""CLI tests (run/check/cstar/analyze)."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def apsp_file(tmp_path):
    f = tmp_path / "apsp.uc"
    f.write_text(
        """
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int d[N][N];
        main {
            par (I, J) st (i == j) d[i][j] = 0;
              others d[i][j] = rand() % N + 1;
            seq (K)
              par (I, J)
                st (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
        }
        """
    )
    return str(f)


@pytest.fixture
def mapped_file(tmp_path):
    f = tmp_path / "shift.uc"
    f.write_text(
        """
        int N = 16;
        index_set I:i = {0..N-2};
        int a[16], b[16];
        map (I) { permute (I) b[i+1] :- a[i]; }
        main { par (I) a[i] = a[i] + b[i+1]; }
        """
    )
    return str(f)


class TestRun:
    def test_run_prints_variables_and_timing(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4"]) == 0
        out = capsys.readouterr().out
        assert "d =" in out
        assert "simulated elapsed" in out

    def test_run_selected_variable(self, apsp_file, capsys):
        main(["run", apsp_file, "-D", "N=4", "--print", "d"])
        out = capsys.readouterr().out
        assert out.count(" = ") == 1

    def test_run_unknown_variable(self, apsp_file):
        with pytest.raises(SystemExit):
            main(["run", apsp_file, "-D", "N=4", "--print", "zz"])

    def test_run_ledger(self, apsp_file, capsys):
        main(["run", apsp_file, "-D", "N=4", "--ledger"])
        out = capsys.readouterr().out
        assert "instruction ledger" in out
        assert "alu" in out

    def test_run_with_pes_override(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--pes", "64"]) == 0

    def test_missing_define_fails_cleanly(self, apsp_file):
        with pytest.raises(SystemExit):
            main(["check", apsp_file])

    def test_bad_define_syntax(self, apsp_file):
        with pytest.raises(SystemExit):
            main(["run", apsp_file, "-D", "N"])
        with pytest.raises(SystemExit):
            main(["run", apsp_file, "-D", "N=four"])

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["run", "/nonexistent.uc"])


class TestCheck:
    def test_check_ok(self, apsp_file, capsys):
        assert main(["check", apsp_file, "-D", "N=8"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_reports_mapped_arrays(self, mapped_file, capsys):
        main(["check", mapped_file])
        assert "1 mapped arrays" in capsys.readouterr().out

    def test_check_semantic_error(self, tmp_path):
        f = tmp_path / "bad.uc"
        f.write_text("index_set I:i = {5..2};")
        with pytest.raises(SystemExit):
            main(["check", str(f)])


    def test_solve_others_fails_check_lint_and_run_alike(self, tmp_path, capsys):
        f = tmp_path / "solve_others.uc"
        f.write_text(
            "index_set I:i = {0..3};\nint a[4], b[4];\nmain {\n"
            "  solve (I) st (i > 0) a[i] = a[i-1] + 1; others b[i] = 5;\n}"
        )
        want = "solve does not take an 'others' clause (*solve does) (line 4, column 3)"
        for cmd in ("check", "run"):
            with pytest.raises(SystemExit) as exit_:
                main([cmd, str(f)])
            assert exit_.value.code == f"{f}: {want}"
        assert main(["lint", str(f)]) == 1
        out = capsys.readouterr().out
        assert "solve does not take an 'others' clause" in out and "1 error" in out
        f.write_text(f.read_text().replace("solve", "*solve"))
        assert main(["run", str(f), "--print", "b"]) == 0
        assert "b = [5 0 0 0]" in capsys.readouterr().out

    def test_check_bad_octal_literal_is_one_line(self, tmp_path):
        f = tmp_path / "bad.uc"
        f.write_text("int a[4];\nmain { a[0] = 09; }")
        with pytest.raises(SystemExit) as exit_:
            main(["check", str(f)])
        msg = exit_.value.code  # a str: printed to stderr, exit status 1
        assert msg == f"{f}: invalid octal literal '09' (line 2, column 15)"


class TestCstar:
    def test_emits_domains(self, apsp_file, capsys):
        main(["cstar", apsp_file, "-D", "N=8"])
        out = capsys.readouterr().out
        assert "domain" in out and "where (" in out

    def test_mapping_rewritten_away(self, mapped_file, capsys):
        main(["cstar", mapped_file])
        out = capsys.readouterr().out
        assert "b[i + 1]" not in out


class TestAnalyze:
    def test_reports_and_suggestions(self, mapped_file, capsys):
        main(["analyze", mapped_file, "--no-maps"])
        out = capsys.readouterr().out
        assert "news" in out
        assert "permute" in out

    def test_mapped_program_reports_local(self, mapped_file, capsys):
        main(["analyze", mapped_file])
        out = capsys.readouterr().out
        assert "local" in out

    def test_processor_opt_reported(self, tmp_path, capsys):
        f = tmp_path / "hist.uc"
        f.write_text(
            "index_set I:i = {0..63}, J:j = {0..9};\n"
            "int samples[64];\nint count[10];\n"
            "main { par (J) count[j] = $+(I st (samples[i] == j) 1); }"
        )
        main(["analyze", str(f)])
        out = capsys.readouterr().out
        assert "processor optimization" in out
        assert "64 VPs" in out


class TestStats:
    def test_run_stats_prints_counters(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "execution stats" in out
        assert "plan_cache." in out
        assert "tier." in out

    def test_run_without_stats_silent(self, apsp_file, capsys):
        main(["run", apsp_file, "-D", "N=4"])
        out = capsys.readouterr().out
        assert "execution stats" not in out


@pytest.mark.usefixtures("default_engines")
class TestConfigStats:
    def test_default_run_reports_defaults(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "   config: defaults\n" in out
        assert "   config." not in out

    def test_sanitize_names_every_engine_it_stands_down(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--sanitize", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "   config: sanitize=True\n" in out
        for engine in ("fusion", "frontier", "batch"):
            assert f"   config.{engine} off (sanitizer armed)\n" in out

    def test_environment_and_flags_show_up_resolved(self, apsp_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_PLANS", "yes")
        assert main(["run", apsp_file, "-D", "N=4", "--shards", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "   config: plans=False shards=2\n" in out
        assert "   config.fusion off (plans off)\n" in out
        assert "   config.batch off (2 shards)\n" in out
        assert "config.frontier" not in out


@pytest.mark.usefixtures("default_engines")
class TestMalformedEnvironment:
    """A malformed ``REPRO_*`` variable is a one-line ``file: message``
    exit — never a traceback, never silently ignored."""

    @pytest.mark.parametrize("var", ["REPRO_SOLVE_SWEEP_LIMIT", "REPRO_SHARDS"])
    def test_run(self, apsp_file, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", apsp_file, "-D", "N=4"])
        assert str(exit_info.value) == (
            f"{apsp_file}: {var}='abc': expected a positive integer"
        )

    def test_run_batch(self, apsp_file, tmp_path, monkeypatch):
        batch = tmp_path / "batch.json"
        batch.write_text("[null, null]")
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(SystemExit, match=r"apsp\.uc: REPRO_SHARDS='0'"):
            main(["run", apsp_file, "-D", "N=4", "--batch", str(batch)])

    def test_serve(self, tmp_path, monkeypatch):
        jobs = tmp_path / "jobs.json"
        jobs.write_text('[{"source": "main { }"}]')
        monkeypatch.setenv("REPRO_SOLVE_SWEEP_LIMIT", "-1")
        with pytest.raises(SystemExit, match=r"jobs\.json: REPRO_SOLVE_SWEEP_LIMIT='-1'"):
            main(["serve", str(jobs)])

    def test_every_boolean_spelling_counts(self, apsp_file, tmp_path, capsys, monkeypatch):
        batch = tmp_path / "batch.json"
        batch.write_text("[null, null]")
        args = ["run", apsp_file, "-D", "N=4", "--batch", str(batch)]
        assert main(args) == 0
        assert "(batched x2 lanes)" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_SANITIZE", "true")
        assert main(args) == 0
        assert "(sequential fallback)" in capsys.readouterr().out


class TestShards:
    def test_run_sharded_stats_prints_shard_counters(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--shards", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "shards: 2 (map placement" in out
        assert "shards.cross_refs" in out
        assert "shards.intershard" in out
        assert "shards.shard[0]" in out and "shards.shard[1]" in out

    def test_run_block_placement_accepted(self, apsp_file, capsys):
        rc = main(
            [
                "run",
                apsp_file,
                "-D",
                "N=4",
                "--shards",
                "2",
                "--placement",
                "block",
                "--stats",
            ]
        )
        assert rc == 0
        assert "shards: 2 (block placement" in capsys.readouterr().out

    def test_unsharded_stats_has_no_shard_section(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "execution stats" in out
        assert "shards:" not in out

    def test_sharded_fingerprint_matches_unsharded(self, apsp_file, capsys):
        main(["run", apsp_file, "-D", "N=4", "--fingerprint"])
        solo = capsys.readouterr().out
        main(["run", apsp_file, "-D", "N=4", "--shards", "4", "--fingerprint"])
        sharded = capsys.readouterr().out
        fp = [l for l in solo.splitlines() if "fingerprint" in l]
        assert fp and fp == [l for l in sharded.splitlines() if "fingerprint" in l]


SLOW_UC = """
int N = 32;
index_set I:i = {0..N-1};
int a[32];
main {
    par (I) a[i] = 2000;
    *par (I) st (a[i] > 0) a[i] = a[i] - 1;
}
"""

SERVE_UC = """
int N = 8;
index_set I:i = {0..N-1};
int a[8];
main {
  par (I) a[i] = i * i;
  *par (I) st (a[i] < 100) a[i] = a[i] + 1;
}
"""


class TestRunTimeout:
    def test_timeout_cancels_with_diagnostic(self, tmp_path, capsys):
        from repro.cli import TIMEOUT_EXIT

        f = tmp_path / "slow.uc"
        f.write_text(SLOW_UC)
        rc = main(["run", str(f), "--timeout", "0.001"])
        assert rc == TIMEOUT_EXIT
        err = capsys.readouterr().err
        assert "timeout: wall deadline exceeded" in err
        # checkpoint-position diagnostic: where the run was cancelled
        assert "cancelled at" in err

    def test_generous_timeout_is_harmless(self, apsp_file, capsys):
        assert main(["run", apsp_file, "-D", "N=4", "--timeout", "600"]) == 0
        assert "simulated elapsed" in capsys.readouterr().out

    def test_timeout_rejected_with_batch(self, tmp_path):
        f = tmp_path / "slow.uc"
        f.write_text(SLOW_UC)
        batch = tmp_path / "batch.json"
        batch.write_text("[]")
        with pytest.raises(SystemExit, match="--timeout"):
            main(["run", str(f), "--timeout", "1", "--batch", str(batch)])


BATCH_UC = """
index_set I:i = {0..N-1};
int a[N], t;
main {
    par (I) a[i] = a[i] * 2 + t + i;
    printf("t=%d\\n", t);
}
"""


def _solo_lines(result):
    """What ``repro run --print a --print t --fingerprint`` prints."""
    import numpy as np

    from repro.cli import _digest

    lines = result.stdout.splitlines()
    for name in ("a", "t"):
        with np.printoptions(threshold=64, linewidth=100):
            lines.append(f"{name} = {result[name]}")
    lines.append(f"{result.elapsed_us / 1e3:.3f}")
    lines.append(_digest(result.fingerprint))
    return lines


@pytest.mark.usefixtures("default_engines")
class TestRunBatch:
    """``repro run --batch params.json``: one lane per params entry."""

    PARAMS = [{"a": [3, 1, 4, 1], "t": 5}, None, {"t": -2}, {"a": [9, 9, 9, 9]}]

    @pytest.fixture
    def batch_args(self, tmp_path):
        f = tmp_path / "lanes.uc"
        f.write_text(BATCH_UC)
        return [str(f), "-D", "N=4", "--print", "a", "--print", "t", "--fingerprint"]

    def _lanes(self, out):
        """Per lane: its stdout, values, elapsed ms and fingerprint."""
        import re

        lanes, cur = [], []
        for line in out.splitlines():
            m = re.match(r"-- lane (\d+): simulated elapsed (\S+) ms  fingerprint (\w+)", line)
            if m:
                assert int(m.group(1)) == len(lanes)
                lanes.append(cur + [m.group(2), m.group(3)])
                cur = []
            elif not line.startswith("-- batch:"):
                cur.append(re.sub(r"^\[\d+\] ", "", line))
        return lanes

    def test_each_lane_prints_what_a_solo_run_prints(self, batch_args, tmp_path, capsys):
        import json

        from repro.interp.program import UCProgram

        params = tmp_path / "params.json"
        params.write_text(json.dumps(self.PARAMS))
        assert main(["run", "--batch", str(params)] + batch_args) == 0
        out = capsys.readouterr().out
        assert "-- batch: 4 instances" in out
        lanes = self._lanes(out)
        assert len(lanes) == len(self.PARAMS)
        # the no-inputs lane against a solo ``repro run`` process line for line
        assert main(["run"] + batch_args) == 0
        solo = capsys.readouterr().out.splitlines()
        elapsed = solo[-2].split()[3]
        fingerprint = solo[-1].split()[-1]
        assert lanes[1] == solo[:-2] + [elapsed, fingerprint]
        # every lane against a solo run of the same program on its inputs
        seed = build_parser("run").parse_args(["run", "x.uc"]).seed
        prog = UCProgram(BATCH_UC, defines={"N": 4})
        for lane, entry in zip(lanes, self.PARAMS):
            inputs = {k: (np.asarray(v) if isinstance(v, list) else v)
                      for k, v in (entry or {}).items()}
            assert lane == _solo_lines(prog.run(inputs, seed=seed))

    @pytest.mark.parametrize(
        "params, message",
        [
            ('{"t": 1}', "expected a non-empty JSON list"),
            ("[]", "expected a non-empty JSON list"),
            ("[null, 3]", "each batch entry must be an object or null"),
            ('[{"a": ["x", "y", "z", "w"]}]', "'a' must be a numeric array or scalar"),
            ('[{"t": "five"}]', "'t' must be a number or an array"),
            ("[null,", "cannot read batch params"),
        ],
        ids=["not_a_list", "empty", "non_object_entry", "non_numeric_array",
             "non_numeric_scalar", "bad_json"],
    )
    def test_bad_params_exit_with_one_line(self, batch_args, tmp_path, params, message):
        path = tmp_path / "params.json"
        path.write_text(params)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--batch", str(path)] + batch_args)
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text  # exit status 1
        assert message in text

    def test_bad_params_process_has_no_traceback(self, batch_args, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "params.json"
        path.write_text("[null, 3]")
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--batch", str(path)] + batch_args,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"{path}: each batch entry must be an object or null\n"
        )


class TestServe:
    @pytest.fixture
    def jobs_file(self, tmp_path):
        import json

        f = tmp_path / "jobs.json"
        f.write_text(json.dumps([{"source": SERVE_UC}, {"source": SERVE_UC}]))
        return str(f)

    def test_serve_runs_jobs_file(self, jobs_file, capsys):
        assert main(["serve", jobs_file, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("done") >= 2
        assert "fingerprint" in out
        assert "0 lost" in out

    def test_serve_reports_failures_per_job(self, tmp_path, capsys):
        import json

        f = tmp_path / "jobs.json"
        f.write_text(
            json.dumps([{"source": SERVE_UC}, {"source": "main { par ("}])
        )
        assert main(["serve", str(f)]) == 0  # failed != lost
        out = capsys.readouterr().out
        assert "failed" in out
        assert "1 failed" in out

    def test_serve_deadline_and_retry_keys(self, tmp_path, capsys):
        import json

        f = tmp_path / "jobs.json"
        f.write_text(
            json.dumps(
                [
                    {
                        "source": SERVE_UC,
                        "deadline": {"clock_us": 1.0},
                        "retry": {"max_attempts": 2},
                    }
                ]
            )
        )
        assert main(["serve", str(f)]) == 0
        out = capsys.readouterr().out
        assert "clock" in out

    def test_serve_resume_round_trip(self, jobs_file, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["serve", jobs_file, "--spool", spool]) == 0
        capsys.readouterr()
        # a fresh process would do exactly this: replay the journal
        assert main(["serve", "--resume", spool]) == 0
        out = capsys.readouterr().out
        assert "resumed 2 journalled jobs" in out
        assert "0 lost" in out

    def test_serve_admits_the_jobs_file_under_one_commit(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.service import ExecutionService

        f = tmp_path / "jobs.json"
        f.write_text(json.dumps([{"source": SERVE_UC}] * 6))
        commits_at_round = []
        step = ExecutionService.step

        def spy(svc):
            commits_at_round.append(svc.stats["commits"])
            return step(svc)

        monkeypatch.setattr(ExecutionService, "step", spy)
        assert main(["serve", str(f), "--spool", str(tmp_path / "spool")]) == 0
        assert commits_at_round[0] == 1  # six jobs, one fsync before the first round
        out = capsys.readouterr().out
        assert f"{commits_at_round[-1] + 1} journal commits" in out
        assert f"{(tmp_path / 'spool' / 'journal.jsonl').stat().st_size} bytes" in out

    def test_serve_refuses_a_spool_of_another_layout(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        # the first line of a journal written before the one-file layout
        (spool / "journal.jsonl").write_text(
            '{"ev": "submit", "job": "j1", "spec": "spec-j1.pkl", "tenant": "default"}\n'
        )
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--resume", str(spool)])
        message = str(exc.value.code)
        assert message.startswith(f"{spool / 'journal.jsonl'}: ") and "\n" not in message
        assert "layout" in message

    def test_serve_requires_jobs_or_resume(self):
        with pytest.raises(SystemExit, match="jobs file"):
            main(["serve"])

    def test_serve_bad_budget_spec(self, jobs_file):
        with pytest.raises(SystemExit, match="budget"):
            main(["serve", jobs_file, "--budget", "nonsense"])

    def test_serve_chaos_matches_clean_fingerprints(self, jobs_file, capsys):
        import re

        assert main(["serve", jobs_file, "--no-coalesce"]) == 0
        clean = re.findall(r"fingerprint (\w+)", capsys.readouterr().out)
        assert main(
            ["serve", jobs_file, "--no-coalesce", "--chaos", "0.7", "--seed", "5"]
        ) == 0
        chaotic = re.findall(r"fingerprint (\w+)", capsys.readouterr().out)
        assert clean and sorted(clean) == sorted(chaotic)

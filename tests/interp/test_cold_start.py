"""Cold-start budget: a ``repro run`` process pays for the program it
runs, not for the package (import hygiene), and a lazy RNG or a failed
analyzer never changes what a run computes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.interp.interpreter import Interpreter
from repro.interp.program import UCProgram
from repro.machine import Machine

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "uc"

#: runs ``repro.cli.main(argv)`` and reports what the process loaded on
#: top of a bare ``import numpy`` (old numpys import ``numpy.ma`` and
#: ``numpy.random`` eagerly; that is not this package's doing) and which
#: modules had a class put through ``@dataclass``
_PROBE = """
import contextlib, dataclasses, io, json, sys
import numpy
base = set(sys.modules)
processed = []
real = dataclasses._process_class
def spy(cls, *args, **kwargs):
    processed.append(cls.__module__)
    return real(cls, *args, **kwargs)
dataclasses._process_class = spy
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - base),
                  "eager_numpy_random": "numpy.random" in base,
                  "dataclassed": processed, "stdout": out.getvalue()}))
"""


def _probe(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the sanitizer and the shard overlay legitimately load analysis /
    # placement code; every other engine toggle must keep the run lean
    for var in ("REPRO_SANITIZE", "REPRO_SHARDS"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    return report


#: nothing a plain run needs lives in these
_NEVER = (
    "numpy.ma",
    "repro.analysis.linter",
    "repro.analysis.sanitize",
    "repro.analysis.races",
    "repro.analysis.solvechecks",
    "repro.interp.batch",
    "repro.service",
    "repro.bench",
    "repro.cstar",
    "repro.compiler.cstar_gen",
    "repro.compiler.cstar_ast",
)


def _assert_lean(report):
    loaded = report["loaded"]
    for name in _NEVER:
        hits = [m for m in loaded if m == name or m.startswith(name + ".")]
        assert not hits, f"a plain run imported {hits}"
    assert "repro.lang.ast" in loaded
    assert "repro.lang.ast" not in report["dataclassed"]


class TestImportHygiene:
    def test_shifted_loads_no_analyzer_no_masked_arrays_no_rng(self):
        report = _probe("run", str(EXAMPLES / "shifted.uc"), "--fingerprint")
        _assert_lean(report)
        assert "-- clock fingerprint:" in report["stdout"]
        assert not [m for m in report["loaded"] if m.startswith("numpy.random")]
        assert not [m for m in report["loaded"] if m.startswith("repro.analysis")]

    def test_apsp_reduction_oracle_loads_only_its_two_modules(self):
        report = _probe("run", str(EXAMPLES / "apsp.uc"), "-D", "N=8")
        _assert_lean(report)
        analysis = {m for m in report["loaded"] if m.startswith("repro.analysis")}
        assert analysis <= {
            "repro.analysis",
            "repro.analysis.context",
            "repro.analysis.determinism",
            "repro.analysis.diagnostics",
        }

    def test_a_program_that_draws_gets_its_generator(self):
        report = _probe(
            "run", str(EXAMPLES / "histogram.uc"), "-D", "N=32", "--print", "count"
        )
        _assert_lean(report)
        assert "numpy.random" in report["loaded"] or report["eager_numpy_random"]


class TestLazyAnalysisExports:
    def test_public_names_resolve_and_unknown_ones_fail(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert getattr(analysis, name) is not None
        from repro.analysis.linter import lint_program

        assert analysis.lint_program is lint_program
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            analysis.nope


RAND_UC = """
index_set I:i = {0..31}, J:j = {0..7};
int a[32], pick[8], total, first;
main {
    first = rand() % 1000;
    par (I) a[i] = rand() % 97;
    par (J) pick[j] = $,(I st (a[i] % 8 == j) a[i]);
    srand(5);
    total = $+(I; a[i]) + rand() % 10;
}
"""

ONEOF_UC = """
int N = 16;
index_set I:i = {0..N-2};
int x[N];
main {
    par (I) x[i] = (i * 7 + 3) % N;
    x[N-1] = 1;
    *oneof (I)
        st (x[i] > x[i+1]) swap(x[i], x[i+1]);
}
"""


def _eager_rng(monkeypatch):
    """The parent commit's behaviour: both generators built from the seed
    at construction time."""
    for cls in (Interpreter, Machine):
        real = cls.__init__

        def eager(self, *args, _real=real, **kwargs):
            _real(self, *args, **kwargs)
            self._rng = np.random.default_rng(self._seed)

        monkeypatch.setattr(cls, "__init__", eager)


@pytest.mark.parametrize("seed", [1, 20250704, 987654321])
class TestLazyRngIsTheSameStream:
    def _both(self, monkeypatch, seed, source, **kwargs):
        lazy = UCProgram(source, compile_store=None, **kwargs).run(seed=seed)
        with monkeypatch.context() as patched:
            _eager_rng(patched)
            eager = UCProgram(source, compile_store=None, **kwargs).run(seed=seed)
        assert lazy.fingerprint == eager.fingerprint
        assert sorted(lazy.keys()) == sorted(eager.keys())
        for name in lazy.keys():
            assert np.array_equal(lazy[name], eager[name]), name
        return lazy

    def test_rand_srand_and_arbitrary_reduction(self, monkeypatch, seed):
        result = self._both(monkeypatch, seed, RAND_UC)
        other = UCProgram(RAND_UC, compile_store=None).run(seed=seed + 1)
        assert not np.array_equal(result["a"], other["a"])

    def test_oneof_selection(self, monkeypatch, seed):
        result = self._both(monkeypatch, seed, ONEOF_UC)
        assert list(result["x"]) == sorted(result["x"])

    def test_checkpoint_restore_rewinds_the_stream(self, monkeypatch, seed):
        # the fault fires after draws were made: recovery restores the
        # generator state captured at the checkpoint and replays
        faults = "drop@alu#3;kill:2@alu#6"
        result = self._both(monkeypatch, seed, RAND_UC, faults=faults)
        clean = UCProgram(RAND_UC, compile_store=None).run(seed=seed)
        assert result.fault_log
        for name in ("a", "pick", "total", "first"):
            assert np.array_equal(result[name], clean[name]), name


class TestLazyRngLifecycle:
    def test_no_generator_until_first_draw(self):
        prog = UCProgram((EXAMPLES / "shifted.uc").read_text(), compile_store=None)
        prog.run()
        ip = prog.last_interpreter
        assert ip._rng is None and ip.machine._rng is None
        assert ip.rng is ip.rng  # created once

    def test_reseed_and_cold_boot_restart_the_stream(self):
        m = Machine(seed=42)
        first = m.rng.integers(0, 1 << 30, size=4)
        m.cold_boot()
        assert np.array_equal(m.rng.integers(0, 1 << 30, size=4), first)
        prog = UCProgram("int s; main { s = rand(); }", compile_store=None)
        ip = prog.prepare(seed=9).interp
        a = ip.rng.integers(0, 1 << 30)
        ip.reseed(9)
        assert ip.rng.integers(0, 1 << 30) == a
        ip.reseed(10)
        assert ip.rng.integers(0, 1 << 30) != a


SUM_UC = """
index_set I:i = {0..15};
int a[16], s;
main { par (I) a[i] = i; s = $+(I; a[i]); }
"""


class TestDeterminismErrorIsReported:
    def test_clean_run_has_no_error_key(self):
        result = UCProgram(SUM_UC, compile_store=None).run()
        assert result["s"] == 120
        assert "determinism_error" not in result.compile

    def test_analyzer_failure_is_recorded_once_and_never_blocks(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.analysis.determinism as determinism

        calls = []

        def boom(model):
            calls.append(model)
            raise RuntimeError("model build exploded")

        monkeypatch.setattr(determinism, "determinism_claims", boom)
        prog = UCProgram(SUM_UC, compile_store=None)
        result = prog.run()
        assert result["s"] == 120
        assert result.compile["determinism_error"] == "RuntimeError: model build exploded"
        assert len(calls) == 1
        assert not prog.last_interpreter.reduction_order_safe(object())

        path = tmp_path / "sum.uc"
        path.write_text(SUM_UC)
        assert main(["run", str(path), "--stats", "--print", "s"]) == 0
        out = capsys.readouterr().out
        assert "s = 120" in out
        assert "compile.determinism_error RuntimeError: model build exploded" in out


class TestParserBuildsOneCommand:
    def _options(self, parser, command):
        sub = parser._subparsers._group_actions[0].choices[command]
        return {s for a in sub._actions for s in a.option_strings}

    def test_only_the_chosen_command_declares_arguments(self):
        parser = build_parser("run")
        assert {"--seed", "--ledger", "--fingerprint", "-D"} <= self._options(parser, "run")
        for other in ("serve", "check", "cstar", "analyze", "lint"):
            assert self._options(parser, other) == {"-h", "--help"}
        assert "--werror" in self._options(build_parser("lint"), "lint")
        assert "--workers" in self._options(build_parser("serve"), "serve")

    def test_every_command_is_listed_whatever_was_chosen(self, capsys):
        for argv in (["-h"], ["bogus"], []):
            with pytest.raises(SystemExit):
                main(argv)
            text = "".join(capsys.readouterr())
            assert "{run,serve,check,cstar,analyze,lint}" in text
        with pytest.raises(SystemExit):
            main(["-h"])
        listing = capsys.readouterr().out
        for line in ("execute main on the simulator", "emit C* target source",
                     "communication report + map suggestions"):
            assert line in listing

    def test_subcommand_help_and_errors_are_complete(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "-h"])
        out = capsys.readouterr().out
        for flag in ("--seed", "--print", "--batch", "--faults", "--shards", "--timeout"):
            assert flag in out
        with pytest.raises(SystemExit):
            main(["check", "prog.uc", "--ledger"])
        assert "unrecognized arguments: --ledger" in capsys.readouterr().err

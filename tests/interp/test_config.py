"""The one resolved :class:`EngineConfig`: precedence, parsing, keys and
stand-down rules — and the guarantee that nothing else in the package
interprets the environment."""

import pathlib
import re

import pytest

import repro
from repro.interp.config import MAX_SWEEPS, ConfigError, EngineConfig
from repro.interp.program import UCProgram

pytestmark = pytest.mark.usefixtures("default_engines")

TRUTHY = ["1", "true", "yes", "on", "TRUE", "Yes", " on ", "1 "]
FALSY = ["", " ", "0", "false", "no", "off", "2", "y", "enabled"]
HATCHES = {
    "REPRO_NO_PLANS": "plans",
    "REPRO_NO_FRONTIER": "frontier",
}


def resolve(env=None, **kw):
    return EngineConfig(**kw).resolved(env or {})


class TestPrecedence:
    def test_defaults(self):
        cfg = resolve()
        assert cfg == EngineConfig(solve_sweep_limit=MAX_SWEEPS, shards=1)
        assert cfg.fused and cfg.frontier_sweeps and cfg.batched

    @pytest.mark.parametrize("var,field", sorted(HATCHES.items()))
    def test_hatch_forces_off_whatever_the_kwarg_says(self, var, field):
        assert getattr(resolve({var: "1"}, **{field: True}), field) is False
        assert getattr(resolve({var: "0"}, **{field: True}), field) is True
        assert getattr(resolve({var: "0"}, **{field: False}), field) is False

    def test_sanitize_ors_in_and_implies_tier_log(self):
        assert resolve({"REPRO_SANITIZE": "1"}).sanitize
        assert resolve({"REPRO_SANITIZE": "0"}, sanitize=True).sanitize
        assert not resolve({"REPRO_SANITIZE": "0"}).sanitize
        for sanitize in (False, True):  # the tier log's one setter
            interp = UCProgram("main { }", sanitize=sanitize).prepare().interp
            assert (interp.tier_log is not None) is sanitize

    def test_shards_env_overrides_both_ways(self):
        assert resolve(shards=4).shards == 4
        assert resolve({"REPRO_SHARDS": "1"}, shards=4).shards == 1
        assert resolve({"REPRO_SHARDS": "4"}).shards == 4
        assert resolve({"REPRO_SHARDS": "2"}, shards=8).shards == 2
        # the keyword stays lenient: anything below two is "unsharded"
        assert resolve(shards=0).shards == resolve(shards=None).shards == 1

    def test_sweep_limit_kwarg_then_env_then_default(self):
        env = {"REPRO_SOLVE_SWEEP_LIMIT": "9"}
        assert resolve(env, solve_sweep_limit=5).solve_sweep_limit == 5
        assert resolve(env).solve_sweep_limit == 9
        assert resolve().solve_sweep_limit == MAX_SWEEPS

    def test_reads_the_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FRONTIER", "yes")
        assert EngineConfig().resolved().frontier is False
        assert EngineConfig().resolved({}).frontier is True


class TestParsing:
    @pytest.mark.parametrize("var", sorted(HATCHES) + ["REPRO_SANITIZE"])
    def test_every_boolean_variable_takes_the_same_spellings(self, var):
        field = EngineConfig.ENV[var][0]
        base = getattr(resolve(), field)
        for text in TRUTHY:
            assert getattr(resolve({var: text}), field) is not base, (var, text)
        for text in FALSY:
            assert getattr(resolve({var: text}), field) is base, (var, text)

    @pytest.mark.parametrize("var", ["REPRO_SHARDS", "REPRO_SOLVE_SWEEP_LIMIT"])
    @pytest.mark.parametrize("text", ["abc", "0", "-3", "1.5", "4k"])
    def test_malformed_integer_names_variable_and_value(self, var, text):
        with pytest.raises(ValueError) as err:
            resolve({var: text})
        assert isinstance(err.value, ConfigError)
        assert var in str(err.value) and repr(text) in str(err.value)

    def test_unset_and_blank_integers_are_ignored(self):
        assert resolve({"REPRO_SHARDS": " "}, shards=4).shards == 4
        assert resolve({"REPRO_SOLVE_SWEEP_LIMIT": ""}).solve_sweep_limit == MAX_SWEEPS

    def test_invalid_keywords(self):
        with pytest.raises(ValueError, match="solve strategy"):
            resolve(solve_strategy="telepathy")
        with pytest.raises(ValueError, match="positive"):
            resolve(solve_sweep_limit=0)


#: every field: (a non-default value, in ``compile_key``?, moves
#: ``clock_key``?) — a new field has to be placed here on purpose
KEYS = {
    "solve_strategy": ("guarded", True, True),
    "processor_opt": (False, True, True),
    "cse": (False, True, True),
    "plans": (False, True, False),
    "comm_tiers": (False, True, True),
    "frontier": (False, True, True),
    "sanitize": (True, True, True),  # through standing frontier sweeps down
    "solve_sweep_limit": (7, True, False),
    "shards": (4, False, False),
    "placement": ("block", False, False),
    "checkpoints": (True, False, False),
}


class TestValue:
    def test_hashable_and_asdict_round_trip(self):
        a = resolve({"REPRO_NO_PLANS": "1"}, shards=4, cse=False)
        b = EngineConfig(**a._asdict())
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != resolve(shards=4, cse=False)
        assert a.resolved({}) == a  # resolving is idempotent
        assert list(a._asdict()) == list(EngineConfig._fields)

    def test_every_field_is_placed_in_or_out_of_each_key(self):
        assert list(KEYS) == list(EngineConfig._fields)
        assert EngineConfig.COMPILE_FIELDS == tuple(f for f, k in KEYS.items() if k[1])
        base = resolve()
        for field, (value, compiled, clocked) in KEYS.items():
            cfg = resolve(**{field: value})
            assert (cfg.compile_key != base.compile_key) is compiled, field
            assert (cfg.clock_key != base.clock_key) is clocked, field

    def test_clock_key_is_the_fingerprint_class(self):
        base = resolve()
        # portable snapshots are stamped with it: its tuples never move
        assert base.clock_key == ("auto", True, True, True, True)
        assert resolve(sanitize=True).clock_key == ("auto", True, True, True, False)
        assert resolve(cse=False, comm_tiers=False).clock_key == (
            "auto", True, False, False, True
        )
        assert resolve(sanitize=True).clock_key == resolve(frontier=False).clock_key
        assert (
            resolve(frontier=False, sanitize=True).clock_key
            == resolve(frontier=False).clock_key
        )


#: (keywords, environment, the tuple ``resolve_engine_flags`` returned for
#: them before ``EngineConfig`` existed, minus the positions of switches
#: deleted since) — the compile-store key must not move, or
#: ``backend_hits``/``misses`` and plan-cache counters would
PARENT_FLAGS = [
    ({'comm_tiers': False, 'sanitize': False, 'solve_strategy': 'guarded'},
     {'REPRO_SANITIZE': ' on ', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('guarded', True, True, True, False, True, True, 3)),
    ({'processor_opt': True, 'plans': True, 'solve_strategy': 'guarded'},
     {'REPRO_NO_PLANS': 'false', 'REPRO_SANITIZE': 'off', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('guarded', True, True, True, True, True, False, 3)),
    ({'cse': False, 'frontier': True, 'solve_sweep_limit': 500},
     {'REPRO_NO_FRONTIER': '0', 'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, False, True, True, True, False, 500)),
    ({'plans': True, 'comm_tiers': False, 'solve_strategy': 'scheduled'},
     {'REPRO_NO_FRONTIER': ' on '},
     ('scheduled', True, True, True, False, False, False, 100000)),
    ({'cse': False, 'plans': False, 'comm_tiers': True, 'frontier': True,
      'solve_strategy': 'guarded', 'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '0'},
     ('guarded', True, False, False, True, True, False, 7)),
    ({'processor_opt': True, 'plans': True, 'comm_tiers': True},
     {'REPRO_NO_PLANS': 'false', 'REPRO_NO_FRONTIER': '', 'REPRO_SANITIZE': ' on ',
      'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, True, True, True, True, True, 42)),
    ({'cse': True, 'plans': False, 'sanitize': False, 'solve_strategy': 'scheduled',
      'solve_sweep_limit': 7},
     {'REPRO_SANITIZE': '1', 'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('scheduled', True, True, False, True, True, True, 7)),
    ({'cse': True},
     {'REPRO_NO_PLANS': 'no', 'REPRO_SANITIZE': '', 'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, True, True, True, True, False, 42)),
    ({'processor_opt': False, 'frontier': False, 'sanitize': False, 'solve_strategy': 'scheduled',
      'solve_sweep_limit': 7},
     {'REPRO_SANITIZE': 'true'},
     ('scheduled', False, True, True, True, False, True, 7)),
    ({'processor_opt': True, 'cse': True, 'frontier': True, 'sanitize': False,
      'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '', 'REPRO_SANITIZE': 'no', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('auto', True, True, True, True, True, False, 7)),
    ({'processor_opt': False, 'comm_tiers': False, 'sanitize': True, 'solve_strategy': 'auto',
      'solve_sweep_limit': 7},
     {'REPRO_NO_FRONTIER': 'YES', 'REPRO_SANITIZE': 'false'},
     ('auto', False, True, True, False, False, True, 7)),
    ({'cse': True, 'plans': True, 'comm_tiers': False},
     {'REPRO_NO_FRONTIER': 'false', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('auto', True, True, True, False, True, False, 3)),
    ({'processor_opt': False, 'comm_tiers': False},
     {'REPRO_NO_FRONTIER': ' on '},
     ('auto', False, True, True, False, False, False, 100000)),
    ({'processor_opt': False, 'plans': False, 'comm_tiers': False, 'frontier': False,
      'sanitize': True, 'solve_strategy': 'scheduled', 'solve_sweep_limit': 500},
     {'REPRO_NO_PLANS': 'false'},
     ('scheduled', False, True, False, False, False, True, 500)),
    ({'solve_strategy': 'scheduled', 'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '1'},
     ('scheduled', True, True, False, True, True, False, 7)),
    ({'plans': False, 'frontier': False, 'solve_strategy': 'guarded', 'solve_sweep_limit': 500},
     {'REPRO_NO_PLANS': 'off', 'REPRO_NO_FRONTIER': ' on ', 'REPRO_SANITIZE': 'YES'},
     ('guarded', True, True, False, True, False, True, 500)),
    ({'processor_opt': False, 'cse': False},
     {'REPRO_NO_PLANS': 'true', 'REPRO_NO_FRONTIER': ' on ', 'REPRO_SANITIZE': 'false'},
     ('auto', False, False, False, True, False, False, 100000)),
    ({'cse': False, 'plans': True, 'solve_strategy': 'guarded'},
     {'REPRO_SANITIZE': 'false'},
     ('guarded', True, False, True, True, True, False, 100000)),
    ({'sanitize': False},
     {},
     ('auto', True, True, True, True, True, False, 100000)),
    ({'plans': True, 'comm_tiers': True, 'frontier': False, 'solve_strategy': 'scheduled'},
     {'REPRO_NO_FRONTIER': 'true', 'REPRO_SANITIZE': '0'},
     ('scheduled', True, True, True, True, False, False, 100000)),
]


class TestCompileKey:
    @pytest.mark.parametrize("kw,env,flags", PARENT_FLAGS)
    def test_equals_the_parent_flags_tuple(self, kw, env, flags):
        key = resolve(env, **kw).compile_key
        assert type(key) is tuple and key == flags and hash(key) == hash(flags)

    def test_sharding_checkpoints_and_batching_stay_outside(self):
        base = resolve().compile_key
        env = {"REPRO_SHARDS": "4"}
        assert resolve(env, checkpoints=True, placement="block").compile_key == base


class TestStandDown:
    @pytest.mark.parametrize(
        "engine,env,kw,reason",
        [
            ("fusion", {}, dict(plans=False), "plans off"),
            ("fusion", {"REPRO_NO_PLANS": "1"}, {}, "plans off"),
            ("fusion", {}, dict(sanitize=True), "sanitizer armed"),
            ("frontier", {}, dict(frontier=False), "frontier off"),
            ("frontier", {"REPRO_SANITIZE": "1"}, {}, "sanitizer armed"),
            ("batch", {}, dict(sanitize=True), "sanitizer armed"),
            ("batch", {}, dict(checkpoints=True), "checkpoints armed"),
            ("batch", {}, dict(shards=4), "4 shards"),
        ],
    )
    def test_each_reason(self, engine, env, kw, reason):
        cfg = resolve(env, **kw)
        assert cfg.why_off(engine) == reason
        prop = {"fusion": "fused", "frontier": "frontier_sweeps", "batch": "batched"}
        assert getattr(cfg, prop[engine]) is False

    def test_engines_on_by_default_and_unknown_engine_rejected(self):
        cfg = resolve()
        assert [cfg.why_off(e) for e in EngineConfig.ENGINES] == ["", "", ""]
        # frontier sweeps and batched lanes do not need plans; fusion does
        assert resolve(plans=False).frontier_sweeps and resolve(plans=False).batched
        with pytest.raises(KeyError):
            cfg.why_off("warp drive")

    def test_a_fault_plan_arms_checkpoints_for_the_run(self):
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, faults="drop@alu#1")
        assert prog.resolved_config().why_off("batch") == "checkpoints armed"
        assert prog.resolved_config(None).batched  # this run: no faults
        assert UCProgram(src).resolved_config("drop@alu#1").checkpoints


ROOT = pathlib.Path(__file__).resolve().parents[2]
#: where switches are named outside the package (not in the history
#: files CHANGES.md and ROADMAP.md, which name deleted ones on purpose)
NAMING = [ROOT / ".github/workflows/ci.yml", ROOT / "README.md",
          ROOT / ".claude/skills/verify/SKILL.md",
          *(ROOT / "tests").rglob("*.py"), *(ROOT / "docs").rglob("*.md")]  # fmt: skip


class TestOneInterpreterOfTheEnvironment:
    SRC = pathlib.Path(repro.__file__).parent

    def test_only_config_reads_the_environment(self):
        readers = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if re.search(r"os\.environ|getenv", path.read_text())
        ]
        assert readers == ["interp/config.py"]

    def test_every_variable_named_in_the_package_is_in_the_table(self):
        def named(path):
            return set(re.findall(r"REPRO_[A-Z_]*[A-Z]", path.read_text()))

        assert set().union(*map(named, self.SRC.rglob("*.py"))) == set(EngineConfig.ENV)
        # a CI step or recipe setting a deleted variable (or passing a
        # deleted keyword) would silently run the default engine and pass
        gone = re.compile(r"\blog_tiers\b|\b(?:fusion|batch)=(?:True|False)\b")
        stale = {
            str(path.relative_to(ROOT)): sorted(named(path) - set(EngineConfig.ENV))
            + gone.findall(path.read_text())
            for path in NAMING
        }
        assert {path: names for path, names in stale.items() if names} == {}
        # the configuration table documents every field, in order
        doc = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        table = doc.split("## Configuration", 1)[1].split("\n\n| field |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        assert [row.split("|")[1].strip(" `") for row in rows] == list(EngineConfig._fields)

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
    "REPRO_NO_COMM_TIERS": "comm_tiers",
    "REPRO_NO_FRONTIER": "frontier",
    "REPRO_NO_FUSION": "fusion",
    "REPRO_NO_BATCH": "batch",
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
        assert resolve(sanitize=True).log_tiers
        assert resolve({"REPRO_SANITIZE": "1"}).log_tiers
        assert resolve(log_tiers=True).sanitize is False

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
        monkeypatch.setenv("REPRO_NO_FUSION", "yes")
        assert EngineConfig().resolved().fusion is False
        assert EngineConfig().resolved({}).fusion is True


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


class TestValue:
    def test_hashable_and_asdict_round_trip(self):
        a = resolve({"REPRO_NO_FUSION": "1"}, shards=4, cse=False)
        b = EngineConfig(**a._asdict())
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != resolve(shards=4, cse=False)
        assert a.resolved({}) == a  # resolving is idempotent
        assert list(a._asdict()) == list(EngineConfig._fields)

    def test_clock_key_is_the_fingerprint_class(self):
        base = resolve()
        # wall-clock-only switches leave it alone ...
        for kw in (dict(plans=False), dict(fusion=False), dict(shards=4),
                   dict(checkpoints=True), dict(solve_sweep_limit=7),
                   dict(placement="block")):
            assert resolve(**kw).clock_key == base.clock_key, kw
        assert resolve({"REPRO_NO_BATCH": "1"}).clock_key == base.clock_key
        # ... the Clock-moving ones (and whatever stands frontier down) do not
        for kw in (dict(comm_tiers=False), dict(frontier=False), dict(cse=False),
                   dict(processor_opt=False), dict(solve_strategy="guarded"),
                   dict(log_tiers=True), dict(sanitize=True)):
            assert resolve(**kw).clock_key != base.clock_key, kw
        assert resolve(sanitize=True).clock_key == resolve(frontier=False).clock_key
        assert (
            resolve(frontier=False, sanitize=True).clock_key
            == resolve(frontier=False).clock_key
        )


#: (keywords, environment, the ten-field tuple ``resolve_engine_flags``
#: returned for them at the parent commit) — the compile-store key must
#: not move, or ``backend_hits``/``misses`` and plan-cache counters would
PARENT_FLAGS = [
    ({'comm_tiers': False, 'log_tiers': True, 'sanitize': False, 'solve_strategy': 'guarded'},
     {'REPRO_NO_FUSION': '', 'REPRO_SANITIZE': ' on ', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('guarded', True, True, True, False, True, True, True, True, 3)),
    ({'processor_opt': True, 'plans': True, 'solve_strategy': 'guarded'},
     {'REPRO_NO_PLANS': 'false', 'REPRO_SANITIZE': 'off', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('guarded', True, True, True, True, True, True, False, False, 3)),
    ({'cse': False, 'frontier': True, 'log_tiers': False, 'solve_sweep_limit': 500},
     {'REPRO_NO_COMM_TIERS': 'false', 'REPRO_NO_FRONTIER': '0', 'REPRO_NO_FUSION': '1',
      'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, False, True, True, True, False, False, False, 500)),
    ({'plans': True, 'comm_tiers': False, 'solve_strategy': 'scheduled'},
     {'REPRO_NO_FRONTIER': ' on '},
     ('scheduled', True, True, True, False, False, True, False, False, 100000)),
    ({'cse': False, 'plans': False, 'comm_tiers': True, 'frontier': True, 'log_tiers': True,
      'solve_strategy': 'guarded', 'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '0', 'REPRO_NO_FUSION': 'off'},
     ('guarded', True, False, False, True, True, True, True, False, 7)),
    ({'processor_opt': True, 'plans': True, 'comm_tiers': True},
     {'REPRO_NO_PLANS': 'false', 'REPRO_NO_FRONTIER': '', 'REPRO_NO_FUSION': 'false',
      'REPRO_SANITIZE': ' on ', 'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, True, True, True, True, True, True, True, 42)),
    ({'cse': True, 'plans': False, 'fusion': True, 'sanitize': False,
      'solve_strategy': 'scheduled', 'solve_sweep_limit': 7},
     {'REPRO_NO_FUSION': '0', 'REPRO_SANITIZE': '1', 'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('scheduled', True, True, False, True, True, True, True, True, 7)),
    ({'cse': True},
     {'REPRO_NO_PLANS': 'no', 'REPRO_NO_FUSION': '', 'REPRO_SANITIZE': '',
      'REPRO_SOLVE_SWEEP_LIMIT': ' 42 '},
     ('auto', True, True, True, True, True, True, False, False, 42)),
    ({'processor_opt': False, 'frontier': False, 'fusion': False, 'sanitize': False,
      'solve_strategy': 'scheduled', 'solve_sweep_limit': 7},
     {'REPRO_NO_COMM_TIERS': 'off', 'REPRO_SANITIZE': 'true'},
     ('scheduled', False, True, True, True, False, False, True, True, 7)),
    ({'processor_opt': True, 'cse': True, 'frontier': True, 'sanitize': False,
      'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '', 'REPRO_SANITIZE': 'no', 'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('auto', True, True, True, True, True, True, False, False, 7)),
    ({'processor_opt': False, 'comm_tiers': False, 'log_tiers': True, 'sanitize': True,
      'solve_strategy': 'auto', 'solve_sweep_limit': 7},
     {'REPRO_NO_FRONTIER': 'YES', 'REPRO_NO_FUSION': '0', 'REPRO_SANITIZE': 'false'},
     ('auto', False, True, True, False, False, True, True, True, 7)),
    ({'cse': True, 'plans': True, 'comm_tiers': False},
     {'REPRO_NO_COMM_TIERS': ' on ', 'REPRO_NO_FRONTIER': 'false',
      'REPRO_SOLVE_SWEEP_LIMIT': '3'},
     ('auto', True, True, True, False, True, True, False, False, 3)),
    ({'processor_opt': False, 'comm_tiers': False, 'fusion': False},
     {'REPRO_NO_COMM_TIERS': 'no', 'REPRO_NO_FRONTIER': ' on '},
     ('auto', False, True, True, False, False, False, False, False, 100000)),
    ({'processor_opt': False, 'plans': False, 'comm_tiers': False, 'frontier': False,
      'sanitize': True, 'solve_strategy': 'scheduled', 'solve_sweep_limit': 500},
     {'REPRO_NO_PLANS': 'false', 'REPRO_NO_FUSION': 'no'},
     ('scheduled', False, True, False, False, False, True, True, True, 500)),
    ({'log_tiers': True, 'solve_strategy': 'scheduled', 'solve_sweep_limit': 7},
     {'REPRO_NO_PLANS': '1', 'REPRO_NO_COMM_TIERS': '0'},
     ('scheduled', True, True, False, True, True, True, True, False, 7)),
    ({'plans': False, 'frontier': False, 'fusion': True, 'log_tiers': True,
      'solve_strategy': 'guarded', 'solve_sweep_limit': 500},
     {'REPRO_NO_PLANS': 'off', 'REPRO_NO_COMM_TIERS': 'off', 'REPRO_NO_FRONTIER': ' on ',
      'REPRO_NO_FUSION': 'true', 'REPRO_SANITIZE': 'YES'},
     ('guarded', True, True, False, True, False, False, True, True, 500)),
    ({'processor_opt': False, 'cse': False},
     {'REPRO_NO_PLANS': 'true', 'REPRO_NO_FRONTIER': ' on ', 'REPRO_NO_FUSION': '0',
      'REPRO_SANITIZE': 'false'},
     ('auto', False, False, False, True, False, True, False, False, 100000)),
    ({'cse': False, 'plans': True, 'log_tiers': True, 'solve_strategy': 'guarded'},
     {'REPRO_SANITIZE': 'false'},
     ('guarded', True, False, True, True, True, True, True, False, 100000)),
    ({'sanitize': False},
     {},
     ('auto', True, True, True, True, True, True, False, False, 100000)),
    ({'plans': True, 'comm_tiers': True, 'frontier': False, 'solve_strategy': 'scheduled'},
     {'REPRO_NO_FRONTIER': 'true', 'REPRO_NO_FUSION': '0', 'REPRO_SANITIZE': '0'},
     ('scheduled', True, True, True, True, False, True, False, False, 100000)),
]


class TestCompileKey:
    @pytest.mark.parametrize("kw,env,flags", PARENT_FLAGS)
    def test_equals_the_parent_flags_tuple(self, kw, env, flags):
        key = resolve(env, **kw).compile_key
        assert type(key) is tuple and key == flags and hash(key) == hash(flags)

    def test_sharding_checkpoints_and_batching_stay_outside(self):
        base = resolve().compile_key
        env = {"REPRO_SHARDS": "4", "REPRO_NO_BATCH": "1"}
        assert resolve(env, checkpoints=True, placement="block").compile_key == base


class TestStandDown:
    @pytest.mark.parametrize(
        "engine,env,kw,reason",
        [
            ("fusion", {}, dict(fusion=False), "fusion off"),
            ("fusion", {"REPRO_NO_FUSION": "1"}, {}, "fusion off"),
            ("fusion", {}, dict(plans=False), "plans off"),
            ("fusion", {}, dict(log_tiers=True), "tier log armed"),
            ("fusion", {}, dict(sanitize=True), "tier log armed by sanitize"),
            ("frontier", {}, dict(frontier=False), "frontier off"),
            ("frontier", {}, dict(log_tiers=True), "tier log armed"),
            ("frontier", {"REPRO_SANITIZE": "1"}, {}, "tier log armed by sanitize"),
            ("batch", {"REPRO_NO_BATCH": "on"}, {}, "batch off"),
            ("batch", {}, dict(log_tiers=True), "tier log armed"),
            ("batch", {}, dict(sanitize=True), "tier log armed by sanitize"),
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
        # frontier sweeps do not need plans; fusion does
        assert resolve(plans=False).frontier_sweeps
        with pytest.raises(KeyError):
            cfg.why_off("warp drive")

    def test_a_fault_plan_arms_checkpoints_for_the_run(self):
        src = "index_set I:i = {0..7}; int a[8]; main { par (I) a[i] = i; }"
        prog = UCProgram(src, faults="drop@alu#1")
        assert prog.resolved_config().why_off("batch") == "checkpoints armed"
        assert prog.resolved_config(None).batched  # this run: no faults
        assert UCProgram(src).resolved_config("drop@alu#1").checkpoints


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
        named = set()
        for path in self.SRC.rglob("*.py"):
            named.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert named == set(EngineConfig.ENV)

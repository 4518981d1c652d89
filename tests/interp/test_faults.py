"""Fault injection, checkpoint/restore, and degraded-mode recovery.

The acceptance bar (see ``docs/ROBUSTNESS.md``): a seeded fault run must
recover via checkpoint restore (+ remap for processor kills) and finish
with results equal to the fault-free run, in *both* engines, with
identical Clock fingerprints between engines.  With faults disabled,
fingerprints must stay bit-identical to a build without the fault layer.
"""

import numpy as np
import pytest

from repro.algorithms.shortest_path import random_distance_matrix
from repro.bench import workloads as W
from repro.interp.program import UCProgram
from repro.interp.recovery import RecoveryPolicy
from repro.lang.errors import UCRuntimeError
from repro.machine.faults import FaultEvent, FaultPlan

N = 8
DIST = random_distance_matrix(N, seed=3)
APSP_DEFS = {"N": N}
SEQPAR_DEFS = {"N": N, "LOGN": 3}

# trigger choices are tied to the N=8 charge profiles:
#   *solve APSP:  alu=9, scan_step=27   → alu#5 / scan_step#20 fire mid-run
#   seq/par APSP: alu=6, scan_step=27   → alu#4 fires mid-run
KILL_MID_SOLVE = "kill:2@alu#5"
KILL_MID_SEQPAR = "kill:2@alu#4"
TRANSIENT_DROP = "drop@scan_step#20"


def run_apsp(src, defines, inputs, **kw):
    prog = UCProgram(src, defines=defines, **kw)
    return prog.run({k: v.copy() for k, v in inputs.items()})


# ---------------------------------------------------------------------------
# FaultPlan parsing


class TestFaultSpecParsing:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse("kill:3@alu#5; drop@router_send#2; link@news@2500")
        assert [e.kind for e in plan.events] == ["kill", "drop", "link"]
        kill, drop, link = plan.events
        assert (kill.pe, kill.op, kill.at_count) == (3, "alu", 5)
        assert (drop.op, drop.at_count) == ("router_send", 2)
        assert (link.op, link.at_us) == ("news", 2500.0)

    def test_parse_dotted_module_op(self):
        (ev,) = FaultPlan.parse("drop@router.send#1").events
        assert ev.op == "router.send"
        assert ev.at_count == 1

    @pytest.mark.parametrize(
        "bad",
        ["explode@alu#1", "kill@", "drop", "kill:x@alu#1", "drop@alu#0#0"],
    )
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_event_validates_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meltdown")

    def test_events_fire_once(self):
        plan = FaultPlan.parse("drop@alu#1")
        plan.reset()
        assert plan.events[0].fired is False


# ---------------------------------------------------------------------------
# Recovery: results must match the fault-free run


@pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
class TestRecovery:
    def test_kill_mid_solve_recovers(self, plans):
        clean = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, plans=plans)
        faulty = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            plans=plans, faults=KILL_MID_SOLVE,
        )
        assert np.array_equal(faulty["dist"], clean["dist"])
        assert faulty.dead_pes == [2]
        assert faulty.recovery["faults"] == 1
        assert faulty.recovery["retries"] == 1
        assert faulty.recovery["remaps"] == 1
        assert faulty.recovery["checkpoints"] >= 1
        assert [entry[1] for entry in faulty.fault_log] == ["kill"]

    def test_kill_mid_seqpar_recovers(self, plans):
        clean = run_apsp(W.APSP_N3_UC, SEQPAR_DEFS, {"d": DIST}, plans=plans)
        faulty = run_apsp(
            W.APSP_N3_UC, SEQPAR_DEFS, {"d": DIST},
            plans=plans, faults=KILL_MID_SEQPAR,
        )
        assert np.array_equal(faulty["d"], clean["d"])
        assert faulty.dead_pes == [2]
        assert faulty.recovery["retries"] == 1

    def test_transient_drop_retried(self, plans):
        clean = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, plans=plans)
        faulty = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            plans=plans, faults=TRANSIENT_DROP,
        )
        assert np.array_equal(faulty["dist"], clean["dist"])
        # a dropped message is transient: no processor dies, no remap
        assert faulty.dead_pes == []
        assert faulty.recovery["remaps"] == 0
        assert faulty.recovery["retries"] == 1

    def test_recovery_is_charged(self, plans):
        clean = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, plans=plans)
        faulty = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            plans=plans, faults=KILL_MID_SOLVE,
        )
        assert "recovery" not in clean.counts
        assert faulty.counts["recovery"] == faulty.recovery["recovery_cycles"] > 0
        # the retried sweeps and the remap permutes cost simulated time too
        assert faulty.elapsed_us > clean.elapsed_us

    def test_multiple_faults_one_run(self, plans):
        clean = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, plans=plans)
        faulty = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            plans=plans, faults=f"{KILL_MID_SOLVE};{TRANSIENT_DROP}",
        )
        assert np.array_equal(faulty["dist"], clean["dist"])
        assert faulty.recovery["faults"] == 2
        # exponential backoff: attempt 2 charges base * factor cycles
        policy = RecoveryPolicy()
        assert faulty.recovery["recovery_cycles"] == (
            policy.backoff_cycles(1) + policy.backoff_cycles(2)
        )

    def test_k_drops_cost_k_retries_and_strictly_more_time(self, plans):
        runs = []
        for k in (0, 1, 2, 4):
            spec = ";".join(f"drop@scan_step#{8 * (i + 1)}" for i in range(k))
            r = run_apsp(
                W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
                plans=plans, faults=spec or None,
            )
            assert r.recovery.get("retries", 0) == k
            assert (r.recovery.get("recovery_cycles", 0) > 0) == (k > 0)
            runs.append(r)
        assert all(np.array_equal(r["dist"], runs[0]["dist"]) for r in runs)
        elapsed = [r.elapsed_us for r in runs]
        assert all(a < b for a, b in zip(elapsed, elapsed[1:]))


# ---------------------------------------------------------------------------
# Engine parity and fingerprint stability


def test_engine_parity_under_faults():
    fps, results = [], []
    for plans in (True, False):
        r = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            plans=plans, faults=f"{KILL_MID_SOLVE};{TRANSIENT_DROP}",
        )
        fps.append(r.fingerprint)
        results.append(r)
    assert fps[0] == fps[1], "cost ledgers diverge between engines under faults"
    assert results[0].fault_log == results[1].fault_log
    assert results[0].recovery == results[1].recovery
    assert np.array_equal(results[0]["dist"], results[1]["dist"])


def test_no_faults_fingerprint_is_baseline():
    base = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST})
    armed = run_apsp(
        W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, checkpoints=True
    )
    # checkpoints are host-side bookkeeping: zero simulated cost, and the
    # zero-count 'recovery' kind never shows up in the fingerprint
    assert armed.fingerprint == base.fingerprint
    assert np.array_equal(armed["dist"], base["dist"])
    assert armed.recovery["checkpoints"] >= 1
    assert armed.recovery["faults"] == 0


def test_checkpoint_cost_is_one_copy_of_the_live_fields(monkeypatch):
    """What ``checkpoints=True`` costs, as properties rather than a
    wall-clock ratio: one checkpoint per protected construct, each
    holding a single copy of the machine's live fields, and nothing on
    the simulated Clock."""
    from repro.interp import recovery

    held = []
    take = recovery.take_checkpoint

    def spy(ip, ctx):
        cp = take(ip, ctx)
        live = sum(f.data.nbytes for f in ip.machine.fields)
        held.append((sum(data.nbytes for _f, data in cp.fields), live))
        return cp

    monkeypatch.setattr(recovery, "take_checkpoint", spy)
    base = run_apsp(W.APSP_N3_UC, SEQPAR_DEFS, {"d": DIST})
    armed = run_apsp(W.APSP_N3_UC, SEQPAR_DEFS, {"d": DIST}, checkpoints=True)
    # seq over par: one checkpoint per squaring step
    assert armed.recovery["checkpoints"] == len(held) == SEQPAR_DEFS["LOGN"] > 1
    assert armed.fingerprint == base.fingerprint
    assert np.array_equal(armed["d"], base["d"])
    assert all(0 < got <= live == DIST.nbytes for got, live in held)


def test_never_firing_plan_is_invisible():
    base = run_apsp(W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST})
    armed = run_apsp(
        W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, faults="kill:1@alu#100000"
    )
    assert armed.fingerprint == base.fingerprint
    assert armed.fault_log == []
    assert armed.dead_pes == []


# ---------------------------------------------------------------------------
# Recovery exhaustion


def test_recovery_exhaustion_raises_located_error():
    prog = UCProgram(
        W.APSP_SOLVE_UC,
        defines=APSP_DEFS,
        faults="drop@alu#3;drop@alu#5",
        recovery=RecoveryPolicy(max_attempts=2),
    )
    with pytest.raises(UCRuntimeError, match="recovery exhausted after 2 attempts"):
        prog.run({"dist": DIST.copy()})


def test_fault_without_recovery_manager_escapes(small_machine):
    """Machine-level faults with no interpreter recovery kill the run."""
    from repro.machine import ProcessorFault, paris

    small_machine.install_faults(FaultPlan.parse("kill:0@alu#1"))
    f = small_machine.field(small_machine.vpset((4,)))
    with pytest.raises(ProcessorFault):
        paris.move(f, 7)


# ---------------------------------------------------------------------------
# Satellite: configurable solve sweep limit


class TestSolveSweepLimit:
    def test_param_caps_sweeps(self):
        prog = UCProgram(
            W.APSP_SOLVE_UC, defines=APSP_DEFS, solve_sweep_limit=1
        )
        with pytest.raises(UCRuntimeError) as ei:
            prog.run({"dist": DIST.copy()})
        msg = str(ei.value)
        assert "sweep limit (1" in msg
        assert "REPRO_SOLVE_SWEEP_LIMIT" in msg
        # the diagnostic names what was still changing
        assert "dist" in msg

    def test_env_var_caps_sweeps(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_SWEEP_LIMIT", "1")
        prog = UCProgram(W.APSP_SOLVE_UC, defines=APSP_DEFS)
        with pytest.raises(UCRuntimeError, match="sweep limit"):
            prog.run({"dist": DIST.copy()})

    def test_param_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_SWEEP_LIMIT", "1")
        prog = UCProgram(
            W.APSP_SOLVE_UC, defines=APSP_DEFS, solve_sweep_limit=100
        )
        r = prog.run({"dist": DIST.copy()})  # converges well under 100
        assert r["dist"].shape == (N, N)

    def test_rejects_nonpositive_limit(self):
        prog = UCProgram(
            W.APSP_SOLVE_UC, defines=APSP_DEFS, solve_sweep_limit=0
        )
        with pytest.raises(ValueError, match="positive"):
            prog.run({"dist": DIST.copy()})


# ---------------------------------------------------------------------------
# Satellite (PR 8): capped + jittered retry backoff


class TestBackoffPolicy:
    def test_cap_clamps_runaway_backoff(self):
        policy = RecoveryPolicy(max_attempts=64, backoff_cap=500)
        cycles = [policy.backoff_cycles(k) for k in range(1, 20)]
        assert max(cycles) == 500  # 50 * 2**18 would be ~13M uncapped
        assert cycles == sorted(cycles)  # still monotone up to the cap

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="backoff_cap"):
            RecoveryPolicy(backoff_cap=0)
        with pytest.raises(ValueError, match="jitter"):
            RecoveryPolicy(jitter=1.5)

    def test_jitter_is_seeded_and_bounded(self):
        a = RecoveryPolicy(jitter=0.5, jitter_seed=1)
        b = RecoveryPolicy(jitter=0.5, jitter_seed=1)
        c = RecoveryPolicy(jitter=0.5, jitter_seed=2)
        xs = [a.backoff_cycles(k) for k in range(1, 8)]
        assert xs == [b.backoff_cycles(k) for k in range(1, 8)]  # reproducible
        assert xs != [c.backoff_cycles(k) for k in range(1, 8)]  # decorrelated
        plain = RecoveryPolicy()
        for k, x in enumerate(xs, start=1):
            base = plain.backoff_cycles(k)
            assert base <= x <= min(int(base * 1.5), a.backoff_cap)

    def test_defaults_leave_fingerprints_unchanged(self, plans=None):
        """The new cap sits above the largest default-schedule backoff, so
        a faulted run under an explicit default policy matches one that
        never heard of the cap."""
        implicit = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST}, faults=KILL_MID_SOLVE
        )
        explicit = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            faults=KILL_MID_SOLVE, recovery=RecoveryPolicy(),
        )
        assert implicit.fingerprint == explicit.fingerprint

    def test_jittered_policy_is_reproducible_end_to_end(self):
        """Same jittered policy, same seed -> bit-identical fingerprints;
        different jitter seeds -> different recovery charges."""
        pol = RecoveryPolicy(jitter=0.3, jitter_seed=11)
        runs = [
            run_apsp(
                W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
                faults=KILL_MID_SOLVE, recovery=pol,
            )
            for _ in range(2)
        ]
        assert runs[0].fingerprint == runs[1].fingerprint
        other = run_apsp(
            W.APSP_SOLVE_UC, APSP_DEFS, {"dist": DIST},
            faults=KILL_MID_SOLVE,
            recovery=RecoveryPolicy(jitter=0.3, jitter_seed=12),
        )
        assert other.counts["recovery"] != runs[0].counts["recovery"]

    def test_fork_yields_fresh_unfired_plan(self):
        plan = FaultPlan.parse("kill:2@alu#5; drop@scan_step#20")
        child = plan.fork()
        assert child is not plan
        assert [(e.kind, e.op, e.at_count) for e in child.events] == [
            (e.kind, e.op, e.at_count) for e in plan.events
        ]
        assert not any(e.fired for e in child.events)

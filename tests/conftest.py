"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.machine import Machine, MachineConfig, small_config

#: ``pytest --hypothesis-profile nightly`` (CI's scheduled job): the
#: lowering differential (tests/properties/test_lowering_diff.py) takes
#: its example count from the loaded profile instead of its tier-1 budget
settings.register_profile("nightly", max_examples=5000, deadline=None)


@pytest.fixture
def machine() -> Machine:
    """A default 16K-PE simulated CM-2."""
    return Machine(seed=1234)


@pytest.fixture
def small_machine() -> Machine:
    """A 1K-PE machine: VP ratios exceed 1 at modest sizes."""
    return Machine(small_config(1024), seed=1234)


@pytest.fixture
def default_engines(monkeypatch):
    """The CI ablation steps run whole test files under
    ``REPRO_NO_PLANS=1`` / ``REPRO_NO_FRONTIER=1`` / ``REPRO_SHARDS=4``;
    tests that pick their engines by kwarg (or assert on a default
    engine's counters) pin the environment to the defaults with this
    fixture."""
    from repro.interp.config import EngineConfig

    for var in EngineConfig.ENV:
        monkeypatch.delenv(var, raising=False)


def run_uc(source: str, inputs=None, seed: int = 20250704, **kwargs):
    """Parse + run a UC program, returning its RunResult."""
    from repro.interp.program import UCProgram

    return UCProgram(source, **kwargs).run(inputs or {}, seed=seed)


def run_lanes(source: str, inputs=None, seed: int = 20250704, **kwargs):
    """:func:`run_uc` with every compressed frontier sweep on the sparse
    lane path, whatever its occupancy (full sweeps still run fused)."""
    from repro.interp import frontier

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier, "_DENSE_COST_RATIO", 1)
        result = run_uc(source, inputs, seed, **kwargs)
    assert not result.frontier.get("dense_sweeps"), "a compressed sweep went dense"
    return result

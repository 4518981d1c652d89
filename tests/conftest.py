"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Machine, MachineConfig, small_config


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
    ``REPRO_NO_FUSION=1`` / ``REPRO_NO_PLANS=1`` / ...; tests that pick
    their engines by kwarg (or assert on a default engine's counters)
    pin the environment to the defaults with this fixture."""
    from repro.interp.config import EngineConfig

    for var in EngineConfig.ENV:
        monkeypatch.delenv(var, raising=False)


def run_uc(source: str, inputs=None, seed: int = 20250704, **kwargs):
    """Parse + run a UC program, returning its RunResult."""
    from repro.interp.program import UCProgram

    return UCProgram(source, **kwargs).run(inputs or {}, seed=seed)

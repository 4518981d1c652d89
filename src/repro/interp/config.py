"""The one resolved engine configuration.

Every execution switch — a :class:`~repro.interp.program.UCProgram`
keyword, a ``REPRO_*`` environment variable, a CLI flag — is interpreted
here and nowhere else.  ``UCProgram`` stores its keywords as one
*request* :class:`EngineConfig`; :meth:`EngineConfig.resolved` folds the
environment in (the only code in the package that reads it) and the
resulting immutable, hashable object is what the interpreter, both
execution engines, the compile store, ``run_batch``, ``--stats`` and
portable snapshots read.  The "Configuration" table in
``docs/PERFORMANCE.md`` documents every field.

This is a leaf module: standard library only.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Optional

#: hard cap on iterating-construct sweeps, to turn accidental livelock
#: (e.g. a *par whose predicate never falsifies) into a clear error;
#: real programs iterate O(problem diameter) times, orders below this
MAX_SWEEPS = 100_000


class ConfigError(ValueError):
    """An engine switch — keyword or ``REPRO_*`` variable — has a value
    that cannot be interpreted."""


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def _positive(var: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise ConfigError(f"{var}={text!r}: expected a positive integer")
    return value


# how a set variable combines with the keyword: (keyword, variable name,
# variable text) -> effective value


def _hatch(requested, var, text):  # forces the field off
    return requested and not _flag(text)


def _arm(requested, var, text):  # ORs in
    return requested or _flag(text)


def _override(requested, var, text):  # beats the keyword both ways
    return _positive(var, text)


def _default(requested, var, text):  # keyword > variable > built-in default
    return _positive(var, text) if requested is None else requested


class EngineConfig(NamedTuple):
    """Engine switches of one run; see the module docstring.

    Built from ``UCProgram`` keywords it is a *request*
    (``solve_sweep_limit``/``shards`` may be None); :meth:`resolved`
    returns the effective configuration, which is what every consumer
    takes.
    """

    solve_strategy: str = "auto"
    processor_opt: bool = True
    cse: bool = True
    plans: bool = True
    comm_tiers: bool = True
    frontier: bool = True
    fusion: bool = True
    log_tiers: bool = False
    sanitize: bool = False
    solve_sweep_limit: Optional[int] = None
    shards: Optional[int] = None
    placement: str = "map"
    checkpoints: bool = False
    batch: bool = True

    #: variable -> (field, parser applying the variable's precedence rule)
    ENV = {
        "REPRO_NO_PLANS": ("plans", _hatch),
        "REPRO_NO_COMM_TIERS": ("comm_tiers", _hatch),
        "REPRO_NO_FRONTIER": ("frontier", _hatch),
        "REPRO_NO_FUSION": ("fusion", _hatch),
        "REPRO_NO_BATCH": ("batch", _hatch),
        "REPRO_SANITIZE": ("sanitize", _arm),
        "REPRO_SHARDS": ("shards", _override),
        "REPRO_SOLVE_SWEEP_LIMIT": ("solve_sweep_limit", _default),
    }

    #: the engines a configuration can statically stand down
    ENGINES = ("fusion", "frontier", "batch")

    def resolved(self, environ: Optional[Mapping[str, str]] = None) -> "EngineConfig":
        """Keywords + environment -> the effective configuration.

        Raises :class:`ConfigError` for a malformed variable (naming it
        and its value) or an invalid keyword.
        """
        environ = os.environ if environ is None else environ
        values = self._asdict()
        for var, (field, parse) in self.ENV.items():
            text = environ.get(var, "").strip()
            if text:
                values[field] = parse(values[field], var, text)
        if values["solve_strategy"] not in ("auto", "scheduled", "guarded"):
            raise ConfigError(f"unknown solve strategy {values['solve_strategy']!r}")
        for field, default in self._field_defaults.items():
            if isinstance(default, bool):
                values[field] = bool(values[field])
        # the sanitizer cross-checks the dispatched tiers: it needs the log
        values["log_tiers"] = values["log_tiers"] or values["sanitize"]
        limit = values["solve_sweep_limit"]
        limit = MAX_SWEEPS if limit is None else int(limit)
        if limit <= 0:
            raise ConfigError(f"solve sweep limit must be positive, got {limit}")
        values["solve_sweep_limit"] = limit
        shards = values["shards"]
        values["shards"] = shards if shards and shards > 1 else 1
        return EngineConfig(**values)

    # -- keys ---------------------------------------------------------------

    @property
    def compile_key(self) -> tuple:
        """The compile-store signature: compiled plans and kernels bake
        in decisions made under these ten fields and no others (sharding,
        checkpoints and batching share kernels with plain runs)."""
        return self[:10]

    @property
    def clock_key(self) -> tuple:
        """The fields that move the Clock fingerprint.  Every other
        switch changes wall-clock only: two runs with equal clock keys
        finish with equal fingerprints, so this is what a portable
        snapshot is stamped with."""
        return (
            self.solve_strategy,
            self.processor_opt,
            self.cse,
            self.comm_tiers,
            self.frontier_sweeps,
        )

    # -- static stand-down rules --------------------------------------------

    def why_off(self, engine: str) -> str:
        """Why ``engine`` (one of :attr:`ENGINES`) cannot run under this
        configuration, or ``""`` when it can.  The dynamic conditions
        (armed fault hook, masked context, lane demotion, a kernel that
        fails validation) are decided where they arise."""
        tier_log = ""
        if self.log_tiers:
            # the log records every dispatched reference; fused kernels,
            # compressed sweeps and lane replays charge without walking them
            tier_log = "tier log armed by sanitize" if self.sanitize else "tier log armed"
        if engine == "fusion":
            reasons = (
                not self.fusion and "fusion off",
                not self.plans and "plans off",
                tier_log,
            )
        elif engine == "frontier":
            reasons = (not self.frontier and "frontier off", tier_log)
        elif engine == "batch":
            reasons = (
                not self.batch and "batch off",
                tier_log,
                # recovery replays constructs per machine
                self.checkpoints and "checkpoints armed",
                # lane machines carry no per-shard clocks or pair ledger
                self.shards > 1 and f"{self.shards} shards",
            )
        else:
            raise KeyError(engine)
        return next((reason for reason in reasons if reason), "")

    @property
    def fused(self) -> bool:
        return not self.why_off("fusion")

    @property
    def frontier_sweeps(self) -> bool:
        return not self.why_off("frontier")

    @property
    def batched(self) -> bool:
        return not self.why_off("batch")

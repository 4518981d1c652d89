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
    sanitize: bool = False
    solve_sweep_limit: Optional[int] = None
    shards: Optional[int] = None
    placement: str = "map"
    #: not a keyword: a run's fault plan arms it
    #: (``UCProgram.resolved_config``)
    checkpoints: bool = False

    #: variable -> (field, parser applying the variable's precedence rule)
    ENV = {
        "REPRO_NO_PLANS": ("plans", _hatch),
        "REPRO_NO_FRONTIER": ("frontier", _hatch),
        "REPRO_SANITIZE": ("sanitize", _arm),
        "REPRO_SHARDS": ("shards", _override),
        "REPRO_SOLVE_SWEEP_LIMIT": ("solve_sweep_limit", _default),
    }

    #: the engines a configuration can statically stand down
    ENGINES = ("fusion", "frontier", "batch")

    #: the fields compiled kernels and analyses bake decisions in under
    COMPILE_FIELDS = (
        "solve_strategy",
        "processor_opt",
        "cse",
        "plans",
        "comm_tiers",
        "frontier",
        "sanitize",
        "solve_sweep_limit",
    )

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
        """The compile-store signature: the :attr:`COMPILE_FIELDS`, by
        name (sharding, placement and checkpoints share kernels with
        plain runs)."""
        return tuple(getattr(self, field) for field in self.COMPILE_FIELDS)

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
        (armed fault hook, masked context, the batch screen, a kernel
        that fails validation) are decided where they arise."""
        # the sanitizer's tier log records every dispatched reference;
        # fused kernels, compressed sweeps and lane replays charge
        # without walking them
        sanitizer = self.sanitize and "sanitizer armed"
        if engine == "fusion":
            reasons = (not self.plans and "plans off", sanitizer)
        elif engine == "frontier":
            reasons = (not self.frontier and "frontier off", sanitizer)
        elif engine == "batch":
            reasons = (
                sanitizer,
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
        """Plans on and no tier log: the fusion pass may run."""
        return not self.why_off("fusion")

    @property
    def frontier_sweeps(self) -> bool:
        return not self.why_off("frontier")

    @property
    def batched(self) -> bool:
        return not self.why_off("batch")

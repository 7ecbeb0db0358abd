"""JSON run configuration with benchmark defaults.

An empty configuration file reproduces the benchmark exactly.  The file
holds the 18 values that define an experiment: the ten ``problem``
constants, ``verify``'s ``uhat`` and step lists, and ``optimize``'s
``uhat``, ``max_iter``, ``snapshot_cadence`` and ``reduction_target``.  The
mesh level and the output directory are command-line options, and the
line-search ladder, the slope-fit windows and the hyper-dual tolerance are
constants of the modules that use them.  Parsing and emitting are inverse
to each other (dict round-trip identity), which keeps configuration files
auditable.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .optimize import OptimizerConfig
from .problems import PROBLEM_DEFAULTS, default_params
from .verify import DEFAULT_STEPS

__all__ = ["RunConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_VERIFY_DEFAULTS = {
    "uhat": "zero",
    "fd_steps": list(DEFAULT_STEPS["fd"]),
    "cs_steps": list(DEFAULT_STEPS["cs"]),
    "hd_steps": list(DEFAULT_STEPS["hd"]),
}

_OPTIMIZE_DEFAULTS = {
    "uhat": "target",
    **asdict(OptimizerConfig()),
    "reduction_target": 1e-4,
}


def _positive_number(value) -> bool:
    """A finite positive int or float; JSON's true and false are not."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and 0.0 < value < math.inf)


@dataclass
class RunConfig:
    problem: dict = field(default_factory=lambda: dict(PROBLEM_DEFAULTS))
    verify: dict = field(
        default_factory=lambda: copy.deepcopy(_VERIFY_DEFAULTS))
    optimize: dict = field(default_factory=lambda: dict(_OPTIMIZE_DEFAULTS))

    def validate(self) -> "RunConfig":
        """Raise :class:`ConfigError` on a value out of range or of the
        wrong type."""
        try:
            self._check()
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def _check(self) -> None:
        # the problem and optimizer checks live in their classes
        default_params(**self.problem)
        self.optimizer_config()
        for section in (self.verify, self.optimize):
            if section["uhat"] not in ("target", "zero"):
                raise ConfigError("uhat must be 'target' or 'zero'")
        if not _positive_number(self.optimize["reduction_target"]):
            raise ConfigError("reduction_target must be a positive number")
        for key in ("fd_steps", "cs_steps", "hd_steps"):
            steps = self.verify[key]
            if (not isinstance(steps, list) or not steps
                    or not all(map(_positive_number, steps))):
                raise ConfigError(f"{key} must be a non-empty list of "
                                  "positive numbers")

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**{f.name: self.optimize[f.name]
                                  for f in fields(OptimizerConfig)})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - {"problem", "verify", "optimize"}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        cfg = cls()
        for section, defaults in (("problem", PROBLEM_DEFAULTS),
                                  ("verify", _VERIFY_DEFAULTS),
                                  ("optimize", _OPTIMIZE_DEFAULTS)):
            given = data.get(section, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{section} must be a JSON object")
            bad = set(given) - set(defaults)
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
            getattr(cfg, section).update(given)
        return cfg.validate()

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def load_config(path=None) -> RunConfig:
    """The configuration in the JSON file ``path``; no file, or an empty
    one, gives the defaults."""
    text = "" if path is None else Path(path).read_text()
    return RunConfig.from_dict(json.loads(text) if text.strip() else {})

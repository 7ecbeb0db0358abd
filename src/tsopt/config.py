"""JSON run configuration with benchmark defaults.

An empty configuration file reproduces the benchmark exactly: Table-style
material constants, `u = y` Dirichlet data, the two-circle target design,
and the standard optimizer/verification settings.  Parsing and emitting are
inverse to each other (dict round-trip identity), which keeps configuration
files auditable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .optimize import OptimizerConfig
from .problems import PROBLEM_DEFAULTS, default_params
from .verify import DEFAULT_STEPS, SLOPE_WINDOWS

__all__ = ["RunConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_VERIFY_DEFAULTS = {
    "uhat": "zero",
    "mesh_level": 8,
    "fd_steps": list(DEFAULT_STEPS["fd"]),
    "cs_steps": list(DEFAULT_STEPS["cs"]),
    "hd_steps": list(DEFAULT_STEPS["hd"]),
    "hd_tolerance": 1e-10,
    # step ranges used for the convergence-slope fits; "pre_floor" picks the
    # two steps just above the observed error minimum
    "slope_windows": {f"{method}_{curve}": rule if isinstance(rule, str)
                      else list(rule)
                      for (method, curve), rule in SLOPE_WINDOWS.items()},
}

_OPTIMIZE_DEFAULTS = {
    "uhat": "target",
    "mesh_level": 16,
    **asdict(OptimizerConfig()),
    "reduction_target": 1e-4,
}


@dataclass
class RunConfig:
    problem: dict = field(default_factory=lambda: dict(PROBLEM_DEFAULTS))
    verify: dict = field(default_factory=lambda: dict(_VERIFY_DEFAULTS))
    optimize: dict = field(default_factory=lambda: dict(_OPTIMIZE_DEFAULTS))
    output_dir: str = "out"

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
            if section["mesh_level"] < 1:
                raise ConfigError("mesh_level must be at least 1")
            if section["uhat"] not in ("target", "zero"):
                raise ConfigError("uhat must be 'target' or 'zero'")
        for section, key in ((self.verify, "hd_tolerance"),
                             (self.optimize, "reduction_target")):
            value = section[key]
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not value > 0.0):
                raise ConfigError(f"{key} must be a positive number")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        for key in ("fd_steps", "cs_steps", "hd_steps"):
            if any(s <= 0.0 for s in self.verify[key]):
                raise ConfigError(f"{key} must be positive")
        for key, rule in self.verify["slope_windows"].items():
            if "_e_" not in key:
                raise ConfigError(f"malformed slope window key {key!r}")
            if isinstance(rule, str):
                if rule != "pre_floor":
                    raise ConfigError(f"unknown slope window mode {rule!r}")
            elif len(rule) != 2 or rule[0] > rule[1]:
                raise ConfigError(f"slope window {key} must be [lo, hi]")

    def slope_windows(self) -> dict:
        """Slope-window table keyed (method, curve) for the verifier."""
        out = {}
        for key, rule in self.verify["slope_windows"].items():
            method, curve = key.split("_", 1)
            out[(method, curve)] = rule if isinstance(rule, str) else tuple(rule)
        return out

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**{f.name: self.optimize[f.name]
                                  for f in fields(OptimizerConfig)})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - {"problem", "verify", "optimize", "output_dir"}
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
            target = getattr(cfg, section)
            for key, value in given.items():
                if not isinstance(target.get(key), dict):
                    target[key] = value
                elif isinstance(value, dict):
                    # a new dict: the default one is shared with every config
                    target[key] = {**target[key], **value}
                else:
                    raise ConfigError(f"{section}.{key} must be a JSON object")
        cfg.output_dir = data.get("output_dir", cfg.output_dir)
        return cfg.validate()

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig().validate()
    text = Path(path).read_text()
    data = json.loads(text) if text.strip() else {}
    return RunConfig.from_dict(data)

"""JSON run configuration with benchmark defaults.

An empty configuration file reproduces the benchmark exactly: Table-style
material constants, `u = y` Dirichlet data, the two-circle target design,
and the standard optimizer/verification settings.  Parsing and emitting are
inverse to each other (dict round-trip identity), which keeps configuration
files auditable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .optimize import OptimizerConfig
from .verify import DEFAULT_STEPS

__all__ = ["RunConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_PROBLEM_DEFAULTS = {
    "lambda1": 1.0, "lambda2": 0.6,
    "alpha1": 1.0, "alpha2": 0.2,
    "atilde1": 1.0, "atilde2": 0.9,
    "f1": 1.0, "f2": 0.5,
    "c1": 0.0, "c2": 1.0,
}

_VERIFY_DEFAULTS = {
    "uhat": "zero",
    "mesh_level": 8,
    "fd_steps": list(DEFAULT_STEPS["fd"]),
    "cs_steps": list(DEFAULT_STEPS["cs"]),
    "hd_steps": list(DEFAULT_STEPS["hd"]),
    "hd_tolerance": 1e-10,
    # step ranges used for the convergence-slope fits; "pre_floor" picks the
    # two steps just above the observed error minimum
    "slope_windows": {
        "fd_e_s": [9e-7, 4e-4],
        "fd_e_t": [9e-6, 1.1e-4],
        "cs_e_s": [0.0, 4e-4],
        "cs_e_t": "pre_floor",
    },
}

_OPTIMIZE_DEFAULTS = {
    "uhat": "target",
    "mesh_level": 16,
    "max_iter": 800,
    "kappa_init": 1.0,
    "kappa_min": 1e-9,
    "kappa_shrink": 0.5,
    "patience": 2,
    "smoothing": True,
    "theta_tol": 1e-8,
    "snapshot_cadence": 100,
    "reduction_target": 1e-4,
}


@dataclass
class RunConfig:
    problem: dict = field(default_factory=lambda: dict(_PROBLEM_DEFAULTS))
    verify: dict = field(default_factory=lambda: dict(_VERIFY_DEFAULTS))
    optimize: dict = field(default_factory=lambda: dict(_OPTIMIZE_DEFAULTS))
    output_dir: str = "out"

    def validate(self) -> "RunConfig":
        prob = self.problem
        if prob["lambda1"] <= 0.0 or prob["lambda2"] <= 0.0:
            raise ConfigError("diffusion coefficients must be positive")
        for name in ("alpha1", "alpha2", "atilde1", "atilde2", "c1", "c2"):
            if prob[name] < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        for section in (self.verify, self.optimize):
            if section["mesh_level"] < 1:
                raise ConfigError("mesh_level must be at least 1")
            if section["uhat"] not in ("target", "zero"):
                raise ConfigError("uhat must be 'target' or 'zero'")
        opt = self.optimize
        if not (0.0 < opt["kappa_min"] < opt["kappa_init"] <= 1.0):
            raise ConfigError("need 0 < kappa_min < kappa_init <= 1")
        if opt["max_iter"] < 0:
            raise ConfigError("max_iter must be non-negative")
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
        return self

    def slope_windows(self) -> dict:
        """Slope-window table keyed (method, curve) for the verifier."""
        out = {}
        for key, rule in self.verify["slope_windows"].items():
            method, curve = key.split("_", 1)
            out[(method, curve)] = rule if isinstance(rule, str) else tuple(rule)
        return out

    def optimizer_config(self) -> OptimizerConfig:
        opt = self.optimize
        return OptimizerConfig(
            max_iter=opt["max_iter"], kappa_init=opt["kappa_init"],
            kappa_min=opt["kappa_min"], kappa_shrink=opt["kappa_shrink"],
            patience=opt["patience"], smoothing=opt["smoothing"],
            theta_tol=opt["theta_tol"],
            snapshot_cadence=opt["snapshot_cadence"])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {"problem", "verify", "optimize", "output_dir"}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        cfg = cls()
        for section, defaults in (("problem", _PROBLEM_DEFAULTS),
                                  ("verify", _VERIFY_DEFAULTS),
                                  ("optimize", _OPTIMIZE_DEFAULTS)):
            given = data.get(section, {})
            bad = set(given) - set(defaults)
            if bad:
                raise ConfigError(f"unknown keys in {section}: {sorted(bad)}")
            target = getattr(cfg, section)
            for key, value in given.items():
                if isinstance(target.get(key), dict) and isinstance(value, dict):
                    target[key].update(value)
                else:
                    target[key] = value
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

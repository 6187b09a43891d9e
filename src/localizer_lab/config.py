"""Run configuration: flat JSON files with dotted keys, flag overrides on top.

A config file is a single flat JSON object, e.g.

    {"model": "qwz:L=12,m=1.0", "localizer.auto": true, "seed": 7}

Command-line flags override file keys.  Unknown keys are rejected, and a
localizer scale must be given as exactly one of {kappa and rho, auto}.
Tolerances and quadrature steps are module constants, not keys.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .localizing import LocalizingFunction, default_localizer


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, resolved from file plus flags."""

    model: str | None = None
    kappa: float | None = None
    rho: float | None = None
    auto: bool = False
    margin: float = 1.1
    smoothing_width: float = 0.25
    seed: int = 0
    out: str | None = None

    def localizer_choice(self) -> tuple[str, float | None, float | None]:
        """('auto', None, None) or ('manual', kappa, rho); anything else fails."""
        manual = self.kappa is not None or self.rho is not None
        if self.auto and manual:
            raise ConfigError("give either localizer.auto or kappa/rho, not both")
        if self.auto:
            return ("auto", None, None)
        if self.kappa is None or self.rho is None:
            raise ConfigError(
                "localizer scale missing: set localizer.auto or both "
                "localizer.kappa and localizer.rho"
            )
        return ("manual", self.kappa, self.rho)

    def phi(self) -> LocalizingFunction:
        return default_localizer(self.smoothing_width)


# dotted config key -> RunConfig field
KEYS = {
    "model": "model",
    "localizer.kappa": "kappa",
    "localizer.rho": "rho",
    "localizer.auto": "auto",
    "localizer.margin": "margin",
    "phi.smoothing_width": "smoothing_width",
    "seed": "seed",
    "out": "out",
}

_FLOAT_FIELDS = {"kappa", "rho", "margin", "smoothing_width"}


def load_config_file(path) -> dict:
    """Read a flat JSON config object; returns the raw key -> value mapping."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    with fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in raw.items():
        if isinstance(value, (dict, list)):
            raise ConfigError(
                f"config key {key!r} must be a scalar (flat object, dotted keys)"
            )
    return raw


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Merge file keys and flag overrides into a validated RunConfig.

    file_values uses the dotted key names; overrides uses RunConfig field
    names directly (the CLI layer owns that mapping) and None means
    "flag not given".
    """
    values: dict = {}
    for key, value in (file_values or {}).items():
        if key not in KEYS:
            known = ", ".join(sorted(KEYS))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
        values[KEYS[key]] = value
    for name, value in (overrides or {}).items():
        if value is not None:
            values[name] = value

    field_names = {f.name for f in fields(RunConfig)}
    for name in values:
        if name not in field_names:
            raise ConfigError(f"unknown config field {name!r}")

    coerced = {}
    for name, value in values.items():
        if name in _FLOAT_FIELDS:
            try:
                value = float(value)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"config field {name!r} must be a finite "
                                  f"number, got {values[name]!r}")
        elif name == "auto":
            if not isinstance(value, bool):
                raise ConfigError(f"localizer.auto must be true or false, "
                                  f"got {value!r}")
        elif name == "seed":
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"seed must be a non-negative integer, "
                                  f"got {value!r}")
        elif name in ("model", "out"):
            if not isinstance(value, str):
                raise ConfigError(f"config field {name!r} must be a string, "
                                  f"got {value!r}")
        coerced[name] = value

    config = RunConfig(**coerced)
    if config.kappa is not None and config.kappa <= 0:
        raise ConfigError("localizer.kappa must be strictly positive")
    if config.rho is not None and config.rho <= 0:
        raise ConfigError("localizer.rho must be strictly positive")
    if config.margin <= 1.0:
        raise ConfigError("localizer.margin must exceed 1")
    if not 0.0 < config.smoothing_width <= 0.25:
        raise ConfigError("phi.smoothing_width must lie in (0, 1/4]")
    return config

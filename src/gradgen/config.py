"""Run configuration: hyperparameter defaults and the flat key=value file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config", "format_config"]

MODES = ("grad", "grad_d", "grad_r")
# per declared field type: the Python types a value may have (never a bool,
# and a float only if finite), and what the error says it must be
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a finite number"), "str": ((str,), "a string")}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    d: int = 32
    heads: int = 8
    d_s_decoder: int = 16
    d_s_flow: int = 10
    M: int = 2
    R: int = 9
    C: int = 20
    K: int = 1
    delta: float = 0.1
    tau: float = 5e-5
    decoder_epochs: int = 500
    flow_epochs: int = 800
    batch: int = 20
    sigma_sample: float = 0.7
    ordering: str = "bfs"
    flow_noise: float = 0.05
    decoder_noise: float = 0.05
    flow_lr: float = 1e-3
    flow_gamma: float = 0.997
    mode: str = "grad"
    seed: int = 0

    def validate(self) -> "RunConfig":
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"config field 'seed' must be a non-negative integer, got {self.seed!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            types, kind = _KINDS[f.type]
            if (isinstance(value, bool) or not isinstance(value, types)
                    or isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"config field '{f.name}' must be {kind}, got {value!r}")
        numeric_positive = (
            "d", "heads", "d_s_decoder", "d_s_flow", "M", "R", "C", "K",
            "decoder_epochs", "flow_epochs", "batch", "sigma_sample",
            "flow_gamma",
        )
        for name in numeric_positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"config field '{name}' must be positive")
        for name in ("delta", "tau", "flow_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config field '{name}' cannot be negative")
        if self.d % 2 != 0:
            raise ConfigError("d must be even (the flow splits feature channels in half)")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.flow_noise < 0 or self.decoder_noise < 0:
            raise ConfigError("noise levels cannot be negative")
        from .graphdata.ordering import ORDERINGS

        if self.ordering not in ORDERINGS:
            raise ConfigError(f"ordering must be one of {ORDERINGS}, got {self.ordering!r}")
        return self


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` lines over the defaults; unknown keys are rejected."""
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        kind = types[key]
        try:
            if kind in ("int", int):
                parsed = int(value)
            elif kind in ("float", float):
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse {value!r} for key {key!r}") from None
        setattr(cfg, key, parsed)
    return cfg.validate()


def load_config(path) -> RunConfig:
    """``parse_config`` on a file; its errors start with the file's path."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_config(text)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def format_config(cfg: RunConfig) -> str:
    return "\n".join(f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)) + "\n"

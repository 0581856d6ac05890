"""Hyperparameters, dataset presets and the flat key=value config format."""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .global_context import AblationVariant
from .ingest import _text_lines


class ConfigError(ValueError):
    pass


@dataclass
class HyperParams:
    a: float = 0.65
    b: float = 0.35
    alpha: float = 4.5
    beta: float = 2.0
    gamma: float = 1.0
    k: int = 4
    l_rec: int = 20
    l_time: int = 64
    d: int = 64
    n_heads: int = 4
    n_layers: int = 3
    batch: int = 128
    neg_samples: int = 10
    max_steps: int = 5000
    lr: float = 0.001
    dropout: float = 0.1
    time_unit_seconds: int = 86400
    variant: AblationVariant = AblationVariant.FULL
    seed: int = 42
    eval_every: int = 500
    dtype: str = "float32"
    neg_distribution: str = "uniform"  # one value, kept only for perfbench/
    allow_self_pairs: bool = True
    residual: bool = False
    threads: int = 1  # one value, kept only for perfbench/

    def validate(self) -> "HyperParams":
        for key in ("a", "b", "alpha", "beta", "gamma", "lr"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if abs(self.a + self.b - 1.0) > 1e-9:
            raise ConfigError(f"a+b must equal 1 (a={self.a}, b={self.b})")
        if not (self.alpha >= self.beta >= self.gamma > 0):
            warnings.warn(
                f"hop weights should satisfy alpha >= beta >= gamma > 0 "
                f"(got {self.alpha}, {self.beta}, {self.gamma})",
                stacklevel=2)
        if self.d < 1 or self.n_heads < 1 or self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} must be a positive multiple of "
                              f"n_heads={self.n_heads}")
        for key in ("k", "l_time", "l_rec", "n_layers"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")
        for key, only in (("neg_distribution", "uniform"), ("threads", 1)):
            if getattr(self, key) != only:
                raise ConfigError(f"{key} must be {only} (the option was removed), "
                                  f"got {getattr(self, key)}")
        if self.neg_samples < 1 or self.batch < 1 or self.max_steps < 0:
            raise ConfigError("neg_samples/batch must be >= 1 and max_steps >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 1 or self.time_unit_seconds < 1:
            raise ConfigError("eval_every and time_unit_seconds must be >= 1 "
                              f"(got {self.eval_every}, {self.time_unit_seconds})")
        return self


PRESETS: dict[str, dict] = {
    "amazon-books": dict(a=0.65, b=0.35, alpha=4.5, beta=2.0, gamma=1.0,
                         k=4, l_time=64, l_rec=20, batch=128),
    "amazon-hybrid": dict(a=0.5, b=0.5, alpha=5.0, beta=2.5, gamma=1.0,
                          k=4, l_time=64, l_rec=20, batch=128),
    "taobao-buy": dict(a=0.6, b=0.4, alpha=5.0, beta=3.0, gamma=1.0,
                       k=8, l_time=7, l_rec=50, batch=256),
}

_FIELD_TYPES = {f.name: f.type for f in fields(HyperParams)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key}")
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "AblationVariant":
            return AblationVariant(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment.

    Every error names the file, and a bad line its line number too.
    """
    values = {}
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def load_config(path: str | Path | None = None, overrides: list[str] | None = None,
                preset: str | None = None) -> HyperParams:
    """defaults <- preset <- config file <- GIMI_SEED <- key=value overrides."""
    hp = HyperParams()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        hp = replace(hp, **PRESETS[preset])
    if path is not None:
        hp = replace(hp, **parse_config_file(path))
    env_seed = os.environ.get("GIMI_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise ConfigError(f"GIMI_SEED must be a non-negative integer, got {env_seed!r}")
        hp = replace(hp, seed=seed)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        hp = replace(hp, **{key: _parse_value(key, raw)})
    return hp.validate()

"""Run configuration: defaults, validation, file/flag loading, config hash."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Invalid configuration value or key."""


def default_data_dir() -> str:
    return os.environ.get("SELPROVER_DATA", "data")


@dataclass
class RunConfig:
    """Every tunable in one serializable place.

    ``embedding_dim`` is the real dimension handed to the prover; the complex
    pretrainer uses half of it per component. ``beam`` of 0 means uncapped
    stream search. ``batches_per_iteration`` of 0 means a full pass over the
    training goals per iteration. ``min_score`` of 0 is accepted but prunes
    nothing, so the stream prover walks the whole depth-``max_depth`` tree:
    one goal over a random 8-fact, 3-rule KB traverses 12,023 items at depth
    2, against 407 at the default 0.1.
    """

    # data / run identity
    dataset: str = ""
    data_dir: str = field(default_factory=default_data_dir)
    output_root: str = "runs"
    seed: int = 7
    split_ratios: tuple[float, float, float] = (0.3, 0.2, 0.5)

    # embeddings + pretraining
    embedding_dim: int = 100
    pretrain_epochs: int = 200
    pretrain_lr: float = 0.05
    pretrain_batch: int = 256
    pretrain_negatives: int = 10
    pretrain_weight_decay: float = 1e-3

    # prover
    max_depth: int = 2
    min_score: float = 0.1
    templates_implies: int = 20
    templates_inverse: int = 20
    templates_chain: int = 20
    beam: int = 0
    prover_lr: float = 0.001
    prover_negatives: int = 4
    grad_clip: float = 5.0
    score_clamp: float = 1e-7

    # relation generator + storage
    gen_width: int = 8
    gen_lr: float = 0.001
    gen_epochs: int = 10
    gen_samples: int = 4
    ep_coefficients: tuple[int, ...] = (4, 2, 2)

    # EM loop
    iterations: int = 100
    batch_goals: int = 32
    batches_per_iteration: int = 0
    patience: int = 10
    proportion: float = 0.3
    valid_subsample: int = 500
    eval_kb: str = "train"

    # modes
    baseline_full_kb: bool = False

    @property
    def storage_layers(self) -> int:
        # or-recursion levels: the goal counts as level 1
        return self.max_depth + 1

    def validate(self) -> "RunConfig":
        if self.embedding_dim <= 0 or self.embedding_dim % 2 != 0:
            raise ConfigError(f"embedding_dim must be a positive even number, "
                              f"got {self.embedding_dim}")
        if len(self.split_ratios) != 3 or abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split_ratios must sum to 1.0, got {self.split_ratios}")
        if any(r < 0 for r in self.split_ratios):
            raise ConfigError(f"split_ratios must be >= 0, got {self.split_ratios}")
        if not 0.0 < self.proportion <= 1.0:
            raise ConfigError(f"proportion must be in (0, 1], got {self.proportion}")
        if not 0.0 <= self.min_score < 1.0:
            raise ConfigError(f"min_score must be in [0, 1), got {self.min_score}")
        # batched ranking, which validation and eval run through, has
        # closed forms up to depth 2 only
        if self.max_depth not in (1, 2):
            raise ConfigError(f"max_depth must be 1 or 2, got {self.max_depth}")
        if len(self.ep_coefficients) != self.storage_layers:
            raise ConfigError(
                f"ep_coefficients needs one entry per storage layer "
                f"({self.storage_layers}), got {self.ep_coefficients}")
        if any(e <= 0 for e in self.ep_coefficients):
            raise ConfigError(f"ep_coefficients must be positive, "
                              f"got {self.ep_coefficients}")
        for name in ("pretrain_epochs", "pretrain_batch", "pretrain_negatives",
                     "batch_goals", "gen_width", "gen_epochs", "gen_samples"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("seed", "iterations", "patience", "beam",
                     "prover_negatives", "batches_per_iteration",
                     "valid_subsample", "pretrain_weight_decay",
                     "templates_implies", "templates_inverse",
                     "templates_chain"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("pretrain_lr", "prover_lr", "gen_lr", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.score_clamp < 0.5:
            raise ConfigError(f"score_clamp must be in (0, 0.5), got {self.score_clamp}")
        if self.eval_kb not in ("train", "train+valid"):
            raise ConfigError(f"eval_kb must be 'train' or 'train+valid', "
                              f"got {self.eval_kb!r}")
        return self

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["split_ratios"] = list(d["split_ratios"])
        d["ep_coefficients"] = list(d["ep_coefficients"])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """Stable 10-hex-char digest identifying this run configuration."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:10]


_FIELD_TYPES = {f.name: f for f in fields(RunConfig)}
_TUPLE_FIELDS = {"split_ratios": float, "ep_coefficients": int}


def _number(name: str, value, kind: type):
    """One int or float config value; ConfigError names the key otherwise.

    Strings parse as ``kind``. An int field also takes a float with no
    fractional part; no numeric field takes a bool or NaN.
    """
    what = "an integer" if kind is int else "a number"
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise ConfigError(f"{name} must be {what}, got {value!r}") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind is float and value == value:
            return float(value)
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def _coerce(name: str, value):
    if name in _TUPLE_FIELDS:
        if isinstance(value, str):
            # "0.5,0.0,0.5", or the JSON-style list "[0.5, 0.0, 0.5]"
            value = value.strip()
            if value.startswith("[") and value.endswith("]"):
                value = value[1:-1]
            value = value.replace(",", " ").split()
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_number(f"{name} entry", v, _TUPLE_FIELDS[name])
                     for v in value)
    f = _FIELD_TYPES[name]
    if f.type in ("int", int):
        return _number(name, value, int)
    if f.type in ("float", float):
        return _number(name, value, float)
    if f.type in ("bool", bool):
        # a bool, the integers 0/1 or one of the strings below; nothing else
        if isinstance(value, bool):
            return value
        if type(value) is int and value in (0, 1):
            return value == 1
        if isinstance(value, str):
            low = value.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
        raise ConfigError(f"{name} must be a boolean, got {value!r}")
    return str(value)


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional JSON file plus overrides.

    Override values win over file values; unknown keys are rejected with the
    full list of valid keys in the message.
    """
    merged: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(file_values)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(merged) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}; "
                          f"valid keys: {', '.join(sorted(_FIELD_TYPES))}")
    kwargs = {k: _coerce(k, v) for k, v in merged.items()}
    return RunConfig(**kwargs).validate()

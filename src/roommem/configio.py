"""Flat key=value experiment configs with preset includes.

One namespace covers environment, training, and experiment keys so a whole
run is described by a single diff-able file.  ``include = name`` pulls in
another file first (relative to the including file, else a packaged
preset; inside a packaged preset, always a packaged preset); later lines
override included ones.  Unknown keys are errors.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .env import ConfigError, EnvConfig
from .trainer import TrainConfig

__all__ = ["AGENTS", "RL_AGENTS", "ExperimentConfig", "load_experiment",
           "load_preset"]

AGENTS = ("episodic-only", "semantic-only", "random", "rl-scratch",
          "rl-pretrained")
RL_AGENTS = ("rl-scratch", "rl-pretrained")

_ENV_FIELDS = {f.name for f in dataclasses.fields(EnvConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig
    train: TrainConfig
    agents: tuple[str, ...] = AGENTS
    capacities: tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs"

    def validate(self) -> None:
        self.env.validate()
        self.train.validate()
        if not self.agents:
            raise ConfigError("agents must be non-empty")
        for a in self.agents:
            if a not in AGENTS:
                raise ConfigError(f"unknown agent {a!r}; choices: {', '.join(AGENTS)}")
        if len(set(self.agents)) != len(self.agents):
            raise ConfigError("agents must be distinct")
        if not self.capacities:
            raise ConfigError("capacities must be non-empty")
        if any(c < 1 for c in self.capacities):
            raise ConfigError("capacities must be positive")
        if len(set(self.capacities)) != len(self.capacities):
            raise ConfigError("capacities must be distinct")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")


def _scalar(key: str, raw: str, typ, where: str):
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} needs a {typ.__name__}, got {raw!r}") from None


def _int_list(key: str, raw: str, where: str) -> tuple[int, ...]:
    return tuple(_scalar(key, p.strip(), int, where)
                 for p in raw.split(",") if p.strip())


def _env_value(name: str, raw: str, where: str):
    if name in ("routine_segments", "routine_durations"):
        pair = _int_list(name, raw, where)
        if len(pair) != 2:
            raise ConfigError(f"{where}: key {name!r} needs two comma-separated integers")
        return pair
    if name == "kb_path":
        return raw or None
    if name == "p_commonsense":
        return _scalar(name, raw, float, where)
    return _scalar(name, raw, int, where)


def _train_value(name: str, raw: str, where: str):
    if name in ("eps_start", "eps_end", "gamma", "lr"):
        return _scalar(name, raw, float, where)
    return _scalar(name, raw, int, where)


_PRESETS = resources.files("roommem") / "presets"


def _ingest_text(text: str, label: str, base_dir, seen: frozenset, out: dict) -> None:
    if label in seen:
        raise ConfigError(f"circular include of {label}")
    seen = seen | {label}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{label}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        where = f"{label}:{lineno}"
        if key == "include":
            _ingest_file(raw, base_dir, seen, out)
        elif key in _ENV_FIELDS:
            out[key] = ("env", _env_value(key, raw, where))
        elif key in _TRAIN_FIELDS:
            out[key] = ("train", _train_value(key, raw, where))
        elif key == "agents":
            out[key] = ("exp", tuple(p.strip() for p in raw.split(",") if p.strip()))
        elif key in ("capacities", "seeds"):
            out[key] = ("exp", _int_list(key, raw, where))
        elif key == "out_dir":
            out[key] = ("exp", raw)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _ingest_file(path_or_name: str, base_dir, seen: frozenset, out: dict) -> None:
    """``base_dir`` is the including file's directory, None for the working
    directory, or ``_PRESETS`` when a packaged preset is including."""
    if base_dir is not _PRESETS:
        candidate = (base_dir / path_or_name) if base_dir is not None else Path(path_or_name)
        if candidate.is_file():
            _ingest_text(candidate.read_text(encoding="utf-8"), str(candidate),
                         candidate.parent, seen, out)
            return
    name = Path(path_or_name).name
    ref = _PRESETS / name
    if not ref.is_file():
        raise ConfigError(f"config file not found: {path_or_name}")
    _ingest_text(ref.read_text(encoding="utf-8"), f"preset:{name}", _PRESETS, seen, out)


def _assemble(out: dict) -> ExperimentConfig:
    env_kwargs = {k: v for k, (zone, v) in out.items() if zone == "env"}
    train_kwargs = {k: v for k, (zone, v) in out.items() if zone == "train"}
    exp_kwargs = {k: v for k, (zone, v) in out.items() if zone == "exp"}
    cfg = ExperimentConfig(env=EnvConfig(**env_kwargs),
                           train=TrainConfig(**train_kwargs), **exp_kwargs)
    cfg.validate()
    return cfg


def load_experiment(path: str) -> ExperimentConfig:
    """Read a config file (resolving includes) into a validated config."""
    out: dict = {}
    _ingest_file(str(path), None, frozenset(), out)
    return _assemble(out)


def load_preset(name: str) -> ExperimentConfig:
    """A packaged preset, never a file of that name in the working
    directory."""
    out: dict = {}
    _ingest_file(name, _PRESETS, frozenset(), out)
    return _assemble(out)

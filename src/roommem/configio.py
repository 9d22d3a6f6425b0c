"""The compared agents, and flat key=value experiment configs with includes.

One namespace covers environment, training, and experiment keys so a whole
run is described by a single diff-able file.  The keys are the fields of
EnvConfig, TrainConfig and ExperimentConfig, each typed like its default.
``include = name`` pulls in another file first (relative to the including
file, else a packaged preset; inside a packaged preset, always a packaged
preset); later lines override included ones.  Unknown keys are errors.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .env import ConfigError, EnvConfig
from .trainer import TrainConfig

__all__ = ["AGENTS", "RL_AGENTS", "ExperimentConfig", "agent_capacities",
           "agent_variant", "load_experiment", "load_preset"]


class _Agent(NamedTuple):
    variant: str                # how its episodes start: "scratch" or "pretrained"
    systems: tuple[int, int]    # long-term systems it stores into: (episodic, semantic)
    trained: bool               # a DQN trained before it is scored


# The compared agents, in the order results are reported.  An agent's total
# capacity is split evenly over the long-term systems it stores into.
_AGENT_TABLE = {
    "episodic-only": _Agent("scratch", (1, 0), False),
    "semantic-only": _Agent("scratch", (0, 1), False),
    "random": _Agent("scratch", (1, 1), False),
    "rl-scratch": _Agent("scratch", (1, 1), True),
    "rl-pretrained": _Agent("pretrained", (1, 1), True),
}
AGENTS = tuple(_AGENT_TABLE)
RL_AGENTS = tuple(a for a, spec in _AGENT_TABLE.items() if spec.trained)


def _agent(name: str) -> _Agent:
    try:
        return _AGENT_TABLE[name]
    except KeyError:
        raise ConfigError(f"unknown agent {name!r}; choices: {', '.join(AGENTS)}") from None


def agent_variant(agent: str) -> str:
    return _agent(agent).variant


def agent_capacities(agent: str, total: int) -> tuple[int, int]:
    """(episodic, semantic) capacities for an agent's total budget."""
    systems = _agent(agent).systems
    if total < 1:
        raise ConfigError("total capacity must be positive")
    share, rest = divmod(total, sum(systems))
    if rest:
        raise ConfigError(f"agent {agent!r} needs an even total capacity, got {total}")
    return share * systems[0], share * systems[1]


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
        if not self.capacities:
            raise ConfigError("capacities must be non-empty")
        for agent in self.agents:  # unknown agents, non-positive or unsplittable capacities
            for capacity in self.capacities:
                agent_capacities(agent, capacity)
        if len(set(self.agents)) != len(self.agents):
            raise ConfigError("agents must be distinct")
        if len(set(self.capacities)) != len(self.capacities):
            raise ConfigError("capacities must be distinct")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")


# every config key: field name -> (zone, default)
_KEYS = {f.name: (zone, f.default)
         for zone, cls in (("env", EnvConfig), ("train", TrainConfig), ("exp", ExperimentConfig))
         for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _parse(key: str, raw: str, default, where: str):
    """Typed like ``default``: a tuple is a comma list, None an optional string."""
    if default is None:
        return raw or None
    if isinstance(default, tuple):
        return tuple(_parse(key, p.strip(), default[0], where)
                     for p in raw.split(",") if p.strip())
    typ = type(default)
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} needs a {typ.__name__}, got {raw!r}") from None


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
        elif key in _KEYS:
            out[key] = _parse(key, raw, _KEYS[key][1], where)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _ingest_file(path_or_name: str, base_dir, seen: frozenset, out: dict) -> None:
    """``base_dir`` is the including file's directory, None for the working
    directory, or ``_PRESETS`` when a packaged preset is including."""
    if base_dir is not _PRESETS:
        candidate = (base_dir / path_or_name) if base_dir is not None else Path(path_or_name)
        if candidate.is_file():
            try:
                text = candidate.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{candidate}: not UTF-8 text ({exc.reason} at byte "
                                  f"{exc.start})") from None
            _ingest_text(text, str(candidate), candidate.parent, seen, out)
            return
    name = Path(path_or_name).name
    ref = _PRESETS / name
    if not ref.is_file():
        raise ConfigError(f"config file not found: {path_or_name}")
    _ingest_text(ref.read_text(encoding="utf-8"), f"preset:{name}", _PRESETS, seen, out)


def _assemble(out: dict) -> ExperimentConfig:
    env_kwargs = {k: v for k, v in out.items() if _KEYS[k][0] == "env"}
    train_kwargs = {k: v for k, v in out.items() if _KEYS[k][0] == "train"}
    exp_kwargs = {k: v for k, v in out.items() if _KEYS[k][0] == "exp"}
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

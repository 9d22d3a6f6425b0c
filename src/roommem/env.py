"""Partially observable room environment.

Each step the agent receives one observation quadruple (where one human's
object is right now) and one question about a previously observed human; the
answer given for the question is graded on the next step against that
human's location at its most recent observation.  Humans are observed in
fixed round-robin order, questions are sampled uniformly over everything
observed so far.
"""
from __future__ import annotations

from dataclasses import dataclass

from .des import build_room, human_names, tick
from .kb import KnowledgeBase, generate_synthetic_kb, load_kb
from .memory import RELATION, Quadruple, format_head
from .seeding import ROLE_DES, ROLE_QUESTIONS, derive_rng, derive_seed

__all__ = [
    "ConfigError",
    "EnvError",
    "EnvConfig",
    "Question",
    "RoomEnv",
    "world_kb",
]

class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class EnvError(RuntimeError):
    """Environment used out of protocol (step before reset, step after done)."""


@dataclass(frozen=True)
class EnvConfig:
    n_humans: int = 64
    n_objects: int = 16
    n_object_locations: int = 28
    p_commonsense: float = 0.5
    episode_length: int = 128
    seed: int = 0
    # world-knowledge source: a file, or a synthetic knowledge base drawn from
    # kb_seed.  kb_seed is separate from seed so that train/validation/test
    # environments with different seeds share one world.  With kb_path set,
    # the file defines the object/location vocabulary and n_objects /
    # n_object_locations are not consulted.
    kb_path: str | None = None
    kb_seed: int = 13
    location_capacity: int = 8
    routine_segments: tuple[int, int] = (2, 5)
    routine_durations: tuple[int, int] = (1, 4)

    def validate(self) -> None:
        if self.n_humans < 1:
            raise ConfigError("n_humans must be at least 1")
        if self.n_objects < 1:
            raise ConfigError("n_objects must be at least 1")
        if self.n_object_locations < 2:
            raise ConfigError("n_object_locations must be at least 2")
        if not 0.0 <= self.p_commonsense <= 1.0:
            raise ConfigError("p_commonsense must be in [0, 1]")
        if self.episode_length < 1:
            raise ConfigError("episode_length must be at least 1")
        if self.seed < 0 or self.kb_seed < 0:
            raise ConfigError("seeds must be non-negative")
        if self.location_capacity < 1:
            raise ConfigError("location_capacity must be at least 1")
        pairs = (self.routine_segments, self.routine_durations)
        if any(len(p) != 2 or not all(isinstance(v, int) for v in p) for p in pairs):
            raise ConfigError("routine_segments and routine_durations need two "
                              f"comma-separated integers, got {pairs!r}")
        (s_lo, s_hi), (d_lo, d_hi) = pairs
        if not (1 <= s_lo <= s_hi and 1 <= d_lo <= d_hi):
            raise ConfigError("invalid routine ranges")
        if self.kb_path is None:  # a synthetic KB has exactly n_object_locations
            _check_seats(self, self.n_object_locations)


def _check_seats(config: EnvConfig, n_locations: int) -> None:
    """The room places every human at a location with room left, so the
    world must hold all of them."""
    if config.n_humans > n_locations * config.location_capacity:
        raise ConfigError(f"{config.n_humans} humans do not fit in {n_locations} locations "
                          f"of capacity {config.location_capacity}")


def world_kb(config: EnvConfig) -> KnowledgeBase:
    """The knowledge base at ``kb_path``, else the synthetic one of ``kb_seed``."""
    if config.kb_path is None:
        return generate_synthetic_kb(config.kb_seed, config.n_objects,
                                     config.n_object_locations)
    kb = load_kb(config.kb_path)
    if len(kb.locations) < 2:
        raise ConfigError(f"knowledge base {config.kb_path!r} has fewer than 2 locations")
    _check_seats(config, len(kb.locations))
    clashes = set(human_names(config.n_humans)) & set(kb.objects + kb.locations)
    if clashes:
        raise ConfigError(f"knowledge base {config.kb_path!r} names objects or locations "
                          f"like humans: {sorted(clashes)}")
    return kb


@dataclass(frozen=True)
class Question:
    head: str        # "Bob's laptop"
    relation: str


class RoomEnv:
    """Gym-style wrapper around the room simulation.

    Usage: env = RoomEnv(config); obs, q = env.reset();
    obs, q, reward, done = env.step(answer).  After `episode_length` graded
    answers, step returns (None, None, reward, True).
    """

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> tuple[Quadruple, Question]:
        """(Re)build everything from the config and deliver step 0."""
        cfg = self.config
        self.kb = world_kb(cfg)
        self._room = build_room(self.kb, cfg, seed=derive_seed(cfg.seed, ROLE_DES))
        self._qrng = derive_rng(cfg.seed, ROLE_QUESTIONS)
        self._obs_count = 0
        # answers are graded on where the asked-about human was last observed
        self._ledger: list[str | None] = [None] * len(self._room.humans)
        self._done = False
        self._started = True
        tick(self._room)
        obs = self._observe_next()
        question = self._sample_question()
        return obs, question

    def step(self, answer: str | None) -> tuple[Quadruple | None, Question | None, int, bool]:
        """Grade `answer` for the pending question, then advance the room."""
        if not self._started:
            raise EnvError("call reset() before step()")
        if self._done:
            raise EnvError("episode is done")
        reward = int(answer == self._ledger[self._asked])
        if self._obs_count >= self.config.episode_length:
            self._done = True
            return None, None, reward, True
        tick(self._room)
        obs = self._observe_next()
        question = self._sample_question()
        return obs, question, reward, False

    # -- internals -----------------------------------------------------------

    def _observe_next(self) -> Quadruple:
        """Where the next human in round-robin order has its object now; the
        quadruple's value is the step's timestamp."""
        i = self._obs_count % len(self._room.humans)
        h = self._room.humans[i]
        obs = Quadruple(format_head(h.name, h.obj), RELATION, h.location, self._obs_count)
        self._obs_count += 1
        self._ledger[i] = h.location
        return obs

    def _sample_question(self) -> Question:
        # round-robin observation: the humans observed so far are a prefix
        humans = self._room.humans
        self._asked = int(self._qrng.integers(min(self._obs_count, len(humans))))
        h = humans[self._asked]
        return Question(format_head(h.name, h.obj), RELATION)

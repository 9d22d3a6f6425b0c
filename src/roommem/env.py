"""Partially observable room environment.

Each step the agent receives one observation quadruple (where one human's
object is right now) and one question about a previously observed human; the
answer given for the question is graded on the next step against that
human's location at its most recent observation.  Humans are observed in
fixed round-robin order, questions are sampled uniformly over everything
observed so far.  Nothing the agent does changes the room or the questions,
so an episode depends only on its world and config: it is simulated once
into a script, and :class:`RoomEnv` replays it.
"""
from __future__ import annotations

from array import array
from collections import OrderedDict
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


# The most episode steps the script cache keeps, over all its scripts: about
# 3 MB at desk.env's 100 bytes a step.  The distinct rooms of a desk sweep
# over five seeds (warm start, training, validation and test) fit in it.
SCRIPT_BUDGET = 1 << 15


@dataclass(frozen=True)
class _Script:
    """One episode of one room.  The agent's answers change nothing in the
    room, so every agent sees this same stream.  Step t observes human
    ``t % n_humans``; the arrays hold indices into ``locations`` and humans."""

    heads: tuple[str, ...]           # by human; only the humans ever observed
    questions: tuple[Question, ...]  # by human: the question about its object
    locations: tuple[str, ...]       # the world's locations
    observed: array                  # per step: where the observed human is
    asked: array                     # per step: whom the question asks about
    graded: array                    # per step: where that human was last observed

    def deliver(self, t: int) -> tuple[Quadruple, Question]:
        """Step t's observation, timestamped t, and question."""
        # heads covers the first min(n_humans, episode_length) humans, so
        # t % len(heads) == t % n_humans for every step t
        return (Quadruple(self.heads[t % len(self.heads)], RELATION,
                          self.locations[self.observed[t]], t),
                self.questions[self.asked[t]])


def _script(kb: KnowledgeBase, config: EnvConfig) -> _Script:
    """Simulate one episode: build the room, then each step tick it, observe
    the next human in round-robin order and draw a question uniformly over
    the humans observed so far."""
    room = build_room(kb, config, seed=derive_seed(config.seed, ROLE_DES))
    qrng = derive_rng(config.seed, ROLE_QUESTIONS)
    humans = room.humans
    where = {loc: i for i, loc in enumerate(kb.locations)}
    ledger = [0] * len(humans)  # where each human was last observed
    observed, asked, graded = array("i"), array("i"), array("i")
    for t in range(config.episode_length):
        tick(room)
        i = t % len(humans)
        ledger[i] = where[humans[i].location]
        # round-robin observation: the humans observed so far are a prefix
        a = int(qrng.integers(min(t + 1, len(humans))))
        observed.append(ledger[i])
        asked.append(a)
        graded.append(ledger[a])
    heads = tuple(format_head(h.name, h.obj) for h in humans[:config.episode_length])
    return _Script(heads, tuple(Question(head, RELATION) for head in heads), kb.locations,
                   observed, asked, graded)


class _ScriptCache:
    """Scripts by (world, config), least recently used dropped first, holding
    at most ``budget`` steps in all.  The key holds the knowledge base's
    content, so an edited ``kb_path`` file gets a script of its own."""

    def __init__(self, budget: int):
        self.budget = budget
        self.steps = 0
        self._scripts: OrderedDict[tuple[KnowledgeBase, EnvConfig], _Script] = OrderedDict()

    def get(self, kb: KnowledgeBase, config: EnvConfig) -> _Script:
        key = (kb, config)
        script = self._scripts.get(key)
        if script is not None:
            self._scripts.move_to_end(key)
            return script
        script = self._scripts[key] = _script(kb, config)
        self.steps += len(script.asked)
        while self.steps > self.budget:
            _, dropped = self._scripts.popitem(last=False)
            self.steps -= len(dropped.asked)
        return script


_SCRIPTS = _ScriptCache(SCRIPT_BUDGET)


class RoomEnv:
    """Gym-style cursor over the episode script of one room.

    Usage: env = RoomEnv(config); obs, q = env.reset();
    obs, q, reward, done = env.step(answer).  After `episode_length` graded
    answers, step returns (None, None, reward, True).  Each (world, config)
    episode is simulated once per process and replayed from then on.
    """

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self._script: _Script | None = None

    def reset(self) -> tuple[Quadruple, Question]:
        """Load the world and its episode script, and deliver step 0."""
        self.kb = world_kb(self.config)
        self._script = _SCRIPTS.get(self.kb, self.config)
        self._t = 0
        return self._script.deliver(0)

    def step(self, answer: str | None) -> tuple[Quadruple | None, Question | None, int, bool]:
        """Grade `answer` for the pending question, then deliver the next step."""
        script = self._script
        if script is None:
            raise EnvError("call reset() before step()")
        t = self._t
        if t == len(script.asked):
            raise EnvError("episode is done")
        reward = int(answer == script.locations[script.graded[t]])
        self._t = t = t + 1
        if t == len(script.asked):
            return None, None, reward, True
        return (*script.deliver(t), reward, False)

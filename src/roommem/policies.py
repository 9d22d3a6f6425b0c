"""Memory-management policies and the one agent/environment episode loop.

A policy sees the symbolic (short-term, episodic, semantic) snapshot after
the step's observation has landed in short-term, and picks one of the three
management actions.  :func:`play` then applies the action, answers the
pending question via retrieval, and feeds the answer to the environment.
Order within a step is: observe, act, answer.  :func:`play` runs a list of
seeds in lockstep, one :meth:`Policy.act_batch` call per time step across
its episodes, so a Q-network policy decides a step's states in one batched
forward.  Evaluation (:func:`episode_totals`), traces (:func:`run_episode`)
and replay collection (``trainer._collect_episode``) all consume the steps
that :func:`play` yields.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import ConfigError, EnvConfig, Question, RoomEnv
from .memory import (
    EPISODIC,
    SEMANTIC,
    SHORT_TERM,
    TO_EPISODIC,
    TO_SEMANTIC,
    N_ACTIONS,
    MemorySystem,
    Quadruple,
    answer_of,
    apply_action,
    memory_lines,
    observe,
    prefill_semantic,
    retrieve,
    snapshot_systems,
)
from .qnet import QNetwork, greedy_action
from .seeding import derive_seed

__all__ = [
    "Policy",
    "EpisodicOnly",
    "SemanticOnly",
    "RandomPolicy",
    "GreedyQ",
    "Step",
    "StepRecord",
    "EpisodeTrace",
    "play",
    "run_episode",
    "episode_totals",
    "evaluate",
]

VARIANTS = ("scratch", "pretrained")


class Policy:
    """Decision rule over memory snapshots.  Subclasses override act(), and
    act_batch() when deciding many snapshots at once is cheaper."""

    def act(self, state) -> tuple[int, np.ndarray | None]:
        """Return (action, q_values or None) for one snapshot."""
        raise NotImplementedError

    def act_batch(self, states) -> list[tuple[int, np.ndarray | None]]:
        """act() on each snapshot, in order."""
        return [self.act(state) for state in states]


class EpisodicOnly(Policy):
    def act(self, state):
        return TO_EPISODIC, None


class SemanticOnly(Policy):
    def act(self, state):
        return TO_SEMANTIC, None


class RandomPolicy(Policy):
    """Uniform over the three actions, driven by a caller-owned generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def act(self, state):
        return int(self.rng.integers(N_ACTIONS)), None


class GreedyQ(Policy):
    """Argmax of the Q-values of ``net.snapshot()``, taken when the policy
    is made: training ``net`` later does not change the policy, and
    ``self.net``'s parameter arrays refuse writes.

    Each decision moves the short-term entry into at most one long-term
    system, so from one step of an episode to the next at least one
    long-term branch sees the same codes.  The policy keeps every branch
    vector it has computed, so each distinct code sequence runs through its
    branch once per policy (see :meth:`QNetwork.forward_batch`'s memo)."""

    def __init__(self, net: QNetwork):
        self.net = net.snapshot()
        self._memo: dict = {}

    def act(self, state, q=None):
        """``q``, when given, is the state's Q-values from a batched forward."""
        if q is None:
            q = self.net.forward_states([state], memo=self._memo)[0]
        return greedy_action(q), q

    def act_batch(self, states):
        """One forward over every state; each decision still goes through act()."""
        q = self.net.forward_states(states, memo=self._memo)
        return [self.act(state, row) for state, row in zip(states, q)]


class Step(NamedTuple):
    """One environment step of :func:`play`.  ``state`` is the snapshot the
    policy acted on; ``systems`` are the live (short-term, episodic,
    semantic) stores after the action, current until play resumes."""

    observation: Quadruple
    question: Question
    state: tuple
    action: int
    q_values: np.ndarray | None
    retrieved: Quadruple | None
    answer: str | None
    reward: int
    done: bool
    systems: tuple[MemorySystem, MemorySystem, MemorySystem]


@dataclass(frozen=True)
class StepRecord:
    step: int
    observation: Quadruple
    question: Question
    action: int
    q_values: tuple[float, ...] | None
    retrieved: Quadruple | None
    answer: str | None
    reward: int
    memories: dict[str, tuple[str, ...]] | None  # post-action, snapshot steps only

    def to_json(self) -> str:
        payload = {
            "step": self.step,
            "observation": [self.observation.head, self.observation.relation,
                            self.observation.tail, self.observation.value],
            "question": [self.question.head, self.question.relation],
            "action": self.action,
            "q_values": None if self.q_values is None else [float(v) for v in self.q_values],
            "retrieved": None if self.retrieved is None else list(self.retrieved),
            "answer": self.answer,
            "reward": self.reward,
            "memories": None if self.memories is None else {k: list(v) for k, v in self.memories.items()},
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class EpisodeTrace:
    records: tuple[StepRecord, ...]

    def to_jsonl(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)


def _snapshot_lines(m_o, m_e, m_s) -> dict[str, tuple[str, ...]]:
    return {
        SHORT_TERM: tuple(memory_lines(SHORT_TERM, m_o.entries)),
        EPISODIC: tuple(memory_lines(EPISODIC, m_e.entries)),
        SEMANTIC: tuple(memory_lines(SEMANTIC, m_s.entries)),
    }


def play(policy: Policy, env_config: EnvConfig, capacities: tuple[int, int],
         variant: str = "scratch", seeds=(None,)):
    """Play one episode per seed in lockstep, yielding per environment step
    a tuple with one :class:`Step` per episode, in seed order.

    ``capacities`` is (episodic, semantic); short-term is always 1.  A seed
    overrides env_config.seed unless it is None.  Each step makes one
    :meth:`Policy.act_batch` call over every episode's snapshot.  Every
    episode lasts ``episode_length`` steps, so all of them end together.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    envs, pending, systems = [], [], []
    for seed in seeds:
        env = RoomEnv(env_config if seed is None else dataclasses.replace(env_config, seed=seed))
        envs.append(env)
        pending.append(env.reset())
        systems.append((MemorySystem(SHORT_TERM, 1),
                        MemorySystem(EPISODIC, capacities[0]),
                        MemorySystem(SEMANTIC, capacities[1])))
        if variant == "pretrained":
            prefill_semantic(systems[-1][2], env.kb)
    done = not envs  # no seeds, no steps
    while not done:
        states = []
        for (obs, _), (m_o, m_e, m_s) in zip(pending, systems):
            observe(m_o, obs)
            states.append(snapshot_systems(m_o, m_e, m_s))
        decisions = policy.act_batch(states)
        steps = []
        for i, env in enumerate(envs):
            obs, question = pending[i]
            m_o, m_e, m_s = systems[i]
            action, q = decisions[i]
            apply_action(m_o, m_e, m_s, action)
            retrieved = retrieve(question, m_e, m_s)
            answer = answer_of(retrieved)
            next_obs, next_question, reward, done = env.step(answer)
            steps.append(Step(obs, question, states[i], action, q, retrieved, answer, reward,
                              done, systems[i]))
            pending[i] = next_obs, next_question
        yield tuple(steps)


def run_episode(policy: Policy, env_config: EnvConfig, capacities: tuple[int, int],
                variant: str = "scratch", seed: int | None = None,
                trace: bool = False, snapshot_steps=(2, 86)):
    """Play one full episode; returns (total reward, EpisodeTrace or None).
    Arguments as for :func:`play`.  A trace records every step, and the
    post-action memories at ``snapshot_steps``."""
    total = 0
    records: list[StepRecord] = []
    snapshot_at = frozenset(snapshot_steps)
    for i, (s,) in enumerate(play(policy, env_config, capacities, variant, (seed,))):
        total += s.reward
        if trace:
            records.append(StepRecord(
                step=i,
                observation=s.observation,
                question=s.question,
                action=s.action,
                q_values=None if s.q_values is None else tuple(float(v) for v in s.q_values),
                retrieved=s.retrieved,
                answer=s.answer,
                reward=s.reward,
                memories=_snapshot_lines(*s.systems) if i in snapshot_at else None,
            ))
    return total, (EpisodeTrace(tuple(records)) if trace else None)


def episode_totals(policy: Policy, env_config: EnvConfig, n_iterations: int, seed: int,
                   capacities: tuple[int, int], variant: str = "scratch") -> tuple[int, ...]:
    """Total reward of each of n_iterations episodes, episode i on seed
    ``derive_seed(seed, i)``.  A policy that overrides act_batch() plays them
    all in lockstep; any other plays them one after another, which keeps the
    draw order of a generator shared across episodes."""
    seeds = [derive_seed(seed, i) for i in range(n_iterations)]
    if type(policy).act_batch is Policy.act_batch:
        return tuple(run_episode(policy, env_config, capacities, variant, s)[0] for s in seeds)
    totals = [0] * n_iterations
    for steps in play(policy, env_config, capacities, variant, seeds):
        totals = [t + s.reward for t, s in zip(totals, steps)]
    return tuple(totals)


def evaluate(policy: Policy, env_config: EnvConfig, n_iterations: int, seed: int,
             capacities: tuple[int, int], variant: str = "scratch") -> tuple[float, float]:
    """Mean and population std of :func:`episode_totals`."""
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    arr = np.asarray(episode_totals(policy, env_config, n_iterations, seed, capacities,
                                    variant), dtype=np.float64)
    return float(arr.mean()), float(arr.std())

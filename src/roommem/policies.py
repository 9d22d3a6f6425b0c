"""Memory-management policies and the agent/environment episode loop.

A policy sees the symbolic (short-term, episodic, semantic) snapshot after
the step's observation has landed in short-term, and picks one of the three
management actions.  The episode loop then applies the action, answers the
pending question via retrieval, and feeds the answer to the environment.
Order within a step is: observe, act, answer.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, Observation, Question, RoomEnv
from .memory import (
    EPISODIC,
    SEMANTIC,
    SHORT_TERM,
    TO_EPISODIC,
    TO_SEMANTIC,
    FORGET,
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
    strip_owner,
)
from .qnet import QNetwork, greedy_action
from .seeding import derive_seed

__all__ = [
    "Policy",
    "EpisodicOnly",
    "SemanticOnly",
    "RandomPolicy",
    "GreedyQ",
    "PerfectAnswer",
    "StepRecord",
    "EpisodeTrace",
    "run_episode",
    "episode_totals",
    "evaluate",
]

VARIANTS = ("scratch", "pretrained")


class Policy:
    """Decision rule over memory snapshots.  Subclasses override act()."""

    #: when true, the episode loop answers from the environment's own record
    #: instead of memory retrieval (upper-bound oracle)
    answers_directly = False

    def act(self, state) -> tuple[int, np.ndarray | None]:
        """Return (action, q_values or None) for one snapshot."""
        raise NotImplementedError


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
    """Argmax of a Q-network's values; exposes them for tracing."""

    def __init__(self, net: QNetwork):
        self.net = net

    def act(self, state):
        q = self.net.forward(state)
        return greedy_action(q), q


class PerfectAnswer(Policy):
    """Answers straight from the environment's grading record; the memory
    action is irrelevant, so it forgets.  Scores the per-episode maximum by
    construction and pins down the reward plumbing."""

    answers_directly = True

    def act(self, state):
        return FORGET, None


@dataclass(frozen=True)
class StepRecord:
    step: int
    observation: Observation
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
                            self.observation.tail, self.observation.timestamp],
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


def run_episode(policy: Policy, env_config: EnvConfig, capacities: tuple[int, int],
                variant: str = "scratch", seed: int | None = None,
                trace: bool = False, snapshot_steps=(2, 86)):
    """Play one full episode; returns (total reward, EpisodeTrace or None).

    ``capacities`` is (episodic, semantic); short-term is always 1.  ``seed``
    overrides env_config.seed when given.  A zero-length episode has no
    steps and no environment to build.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if env_config.episode_length == 0:
        return 0, (EpisodeTrace(()) if trace else None)
    cfg = env_config if seed is None else dataclasses.replace(env_config, seed=seed)
    env = RoomEnv(cfg)
    obs, question = env.reset()
    m_o = MemorySystem(SHORT_TERM, 1)
    m_e = MemorySystem(EPISODIC, capacities[0])
    m_s = MemorySystem(SEMANTIC, capacities[1])
    if variant == "pretrained":
        prefill_semantic(m_s, env.kb)
    total = 0
    records: list[StepRecord] = []
    snapshot_at = frozenset(snapshot_steps)
    step_idx = 0
    while True:
        observe(m_o, obs)
        state = snapshot_systems(m_o, m_e, m_s)
        action, q = policy.act(state)
        apply_action(m_o, m_e, m_s, action)
        if policy.answers_directly:
            owner, _ = strip_owner(question.head)
            retrieved = None
            answer = env.last_observed_location(owner)
        else:
            retrieved = retrieve(question, m_e, m_s)
            answer = answer_of(retrieved)
        next_obs, next_q, reward, done = env.step(answer)
        total += reward
        if trace:
            records.append(StepRecord(
                step=step_idx,
                observation=obs,
                question=question,
                action=action,
                q_values=None if q is None else tuple(float(v) for v in q),
                retrieved=retrieved,
                answer=answer,
                reward=reward,
                memories=_snapshot_lines(m_o, m_e, m_s) if step_idx in snapshot_at else None,
            ))
        step_idx += 1
        if done:
            break
        obs, question = next_obs, next_q
    return total, (EpisodeTrace(tuple(records)) if trace else None)


def episode_totals(policy: Policy, env_config: EnvConfig, n_iterations: int, seed: int,
                   capacities: tuple[int, int], variant: str = "scratch") -> tuple[int, ...]:
    """Total reward of each of n_iterations episodes, episode i on seed
    ``derive_seed(seed, i)``."""
    return tuple(run_episode(policy, env_config, capacities, variant=variant,
                             seed=derive_seed(seed, i))[0]
                 for i in range(n_iterations))


def evaluate(policy: Policy, env_config: EnvConfig, n_iterations: int, seed: int,
             capacities: tuple[int, int], variant: str = "scratch") -> tuple[float, float]:
    """Mean and population std of :func:`episode_totals`."""
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    arr = np.asarray(episode_totals(policy, env_config, n_iterations, seed, capacities,
                                    variant), dtype=np.float64)
    return float(arr.mean()), float(arr.std())

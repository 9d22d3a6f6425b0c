"""Deep Q-learning over the memory-management action space.

One optimizer step per environment step; an epoch is one full episode.
Experience comes from ``policies.play``, the episode loop evaluation uses
too.  Replay is a FIFO ring that persists across epochs, warm-started with
random-policy transitions before any optimization.  The target network is
a frozen copy of the online network, re-synced every ``sync_every``
optimizer steps.  After each epoch the online network is scored greedily on
a fixed set of validation episodes and the best-scoring epoch's parameters
are returned (ties go to the earlier epoch).
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .des import human_names
from .env import ConfigError, EnvConfig, world_kb
from .kb import KnowledgeBase
from .memory import (
    N_ACTIONS,
    apply_action,  # noqa: F401  perfbench/workloads.py wraps trainer.apply_action
    observe,  # noqa: F401  perfbench/workloads.py wraps trainer.observe
    prefill_semantic,  # noqa: F401  perfbench/workloads.py wraps trainer.prefill_semantic
    retrieve,  # noqa: F401  perfbench/workloads.py wraps trainer.retrieve
    snapshot_systems,
)
from .nn import Adam, GradientError, huber_loss
from .policies import GreedyQ, Policy, evaluate, play
from .qnet import QNetwork, Vocabulary, encode_state, greedy_action
from .seeding import (
    ROLE_EXPLORE,
    ROLE_PARAMS,
    ROLE_REPLAY,
    ROLE_TRAIN,
    ROLE_VALIDATION,
    ROLE_WARM_START,
    derive_rng,
    derive_seed,
)

__all__ = [
    "TrainConfig",
    "Transition",
    "ReplayBuffer",
    "EpochLog",
    "TrainResult",
    "epsilon_at",
    "td_loss",
    "train",
    "build_vocabulary",
]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.  Defaults are the full-scale settings of
    ``presets/paper.env``; desk() is the small ``presets/desk.env``, meant
    to finish in seconds per run."""

    epochs: int = 16
    batch_size: int = 1024
    replay_size: int = 1024 * 128
    warm_start: int = 1024 * 128
    eps_start: float = 1.0
    eps_end: float = 0.0
    eps_last_step: int = 128 * 16
    gamma: float = 0.65
    lr: float = 1e-3
    sync_every: int = 10
    eval_iterations: int = 10
    d_emb: int = 32
    hidden: int = 64
    n_layers: int = 2
    precision: int = 64

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        from .configio import load_preset  # configio imports this module
        return dataclasses.replace(load_preset("desk.env").train, **overrides)

    def validate(self) -> None:
        for name in ("epochs", "batch_size", "replay_size", "warm_start",
                     "eps_last_step", "sync_every", "eval_iterations",
                     "d_emb", "hidden", "n_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a positive finite number, got {self.lr!r}")
        for name in ("eps_start", "eps_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.eps_end > self.eps_start:
            raise ConfigError("eps_end must not exceed eps_start")
        if self.warm_start > self.replay_size:
            raise ConfigError("warm_start cannot exceed replay_size")
        if self.batch_size > self.warm_start:
            raise ConfigError("batch_size cannot exceed warm_start")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")

    @property
    def dtype(self):
        return np.float32 if self.precision == 32 else np.float64


def epsilon_at(step: int, config: TrainConfig) -> float:
    """Linear decay from eps_start to eps_end, flat after eps_last_step."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if step >= config.eps_last_step:
        return config.eps_end
    frac = step / config.eps_last_step
    return config.eps_start + (config.eps_end - config.eps_start) * frac


@dataclass(frozen=True)
class Transition:
    state: tuple
    action: int
    reward: int
    next_state: tuple
    done: bool
    # cached token encodings; derived from the snapshots, excluded from equality
    enc_state: tuple = field(default=None, compare=False, repr=False)
    enc_next: tuple = field(default=None, compare=False, repr=False)


class ReplayBuffer:
    """Fixed-capacity ring with strict FIFO eviction and uniform sampling."""

    def __init__(self, capacity: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._rng = rng
        self._items: list[Transition] = []
        self._pos = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(t)
        else:
            self._items[self._pos] = t
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, batch_size: int) -> list[Transition]:
        n = len(self._items)
        if n == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = self._rng.choice(n, size=batch_size, replace=n < batch_size)
        return [self._items[i] for i in idx]


def _encodings(net: QNetwork, batch: list[Transition], nxt: bool) -> list[tuple]:
    out = []
    for t in batch:
        enc = t.enc_next if nxt else t.enc_state
        if enc is None:
            enc = encode_state(net.vocab, t.next_state if nxt else t.state)
        out.append(enc)
    return out


def td_loss(batch: list[Transition], online: QNetwork, target: QNetwork,
            gamma: float) -> float:
    """Mean Huber TD error over the batch; accumulates gradients into the
    online network only.  Terminal transitions bootstrap nothing.  The
    target forward runs first: a target made by ``online.clone()`` shares
    the online buffers, so a later one would overwrite the online cache."""
    if not batch:
        raise ValueError("empty batch")
    B = len(batch)
    q_next, _ = target.forward_batch(_encodings(target, batch, nxt=True), need_cache=False)
    q, cache = online.forward_batch(_encodings(online, batch, nxt=False), need_cache=True)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    live = np.array([0.0 if t.done else 1.0 for t in batch])
    targets = rewards + gamma * q_next.max(axis=1) * live
    actions = np.array([t.action for t in batch])
    pred = q[np.arange(B), actions]
    losses, grads = huber_loss(pred, targets)
    loss = float(losses.mean())
    if not np.isfinite(loss):
        raise GradientError("non-finite TD loss")
    dq = np.zeros_like(q)
    dq[np.arange(B), actions] = grads / B
    online.backward_batch(cache, dq)
    return loss


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss_mean: float
    val_reward_mean: float
    val_reward_std: float
    epsilon_end: float  # schedule position when the epoch finished
    wall_seconds: float


@dataclass(frozen=True)
class TrainResult:
    net: QNetwork          # parameters of the best validation epoch
    best_epoch: int
    best_val_mean: float
    best_val_std: float
    epochs: tuple[EpochLog, ...]
    total_opt_steps: int


def build_vocabulary(env_config: EnvConfig) -> tuple[Vocabulary, KnowledgeBase]:
    """The token space is a function of the world, not of any one episode."""
    kb = world_kb(env_config)
    return Vocabulary.build(human_names(env_config.n_humans), kb), kb


class _Selector(Policy):
    """``select(state, enc)`` as a Policy; keeps the latest state's encoding."""

    def __init__(self, vocab: Vocabulary, select):
        self.vocab = vocab
        self.select = select
        self.enc = None

    def act(self, state):
        self.enc = encode_state(self.vocab, state)
        return self.select(state, self.enc), None


def _collect_episode(env_config: EnvConfig, env_seed: int, variant: str,
                     capacities: tuple[int, int], vocab: Vocabulary, select,
                     replay: ReplayBuffer, stop_size: int | None = None,
                     after_step=None) -> None:
    """One episode of experience collection.  ``select(state, enc)`` picks
    the action; completed transitions go to ``replay``.  A transition's next
    state is the following step's post-observation snapshot; the final
    transition uses the post-action snapshot with done set.  When
    ``stop_size`` is given, returns as soon as the buffer reaches it."""
    selector = _Selector(vocab, select)
    pending = None  # (step, enc) awaiting its next_state
    for (step,) in play(selector, env_config, capacities, variant, (env_seed,)):
        enc = selector.enc
        if pending is not None:
            prev, prev_enc = pending
            replay.push(Transition(prev.state, prev.action, prev.reward, step.state, False,
                                   prev_enc, enc))
            if stop_size is not None and len(replay) >= stop_size:
                return
        if step.done:
            term = snapshot_systems(*step.systems)
            replay.push(Transition(step.state, step.action, step.reward, term, True,
                                   enc, encode_state(vocab, term)))
        else:
            pending = (step, enc)
        if after_step is not None:
            after_step()


def train(env_config: EnvConfig, variant: str, capacities: tuple[int, int],
          train_config: TrainConfig, seed: int) -> TrainResult:
    """Full training run: warm start, epsilon-greedy collection with one
    optimizer step per environment step, per-epoch greedy validation."""
    env_config.validate()
    train_config.validate()
    tc = train_config
    vocab, _ = build_vocabulary(env_config)

    online = QNetwork.create(vocab, derive_seed(seed, ROLE_PARAMS), d_emb=tc.d_emb,
                             hidden=tc.hidden, n_layers=tc.n_layers, dtype=tc.dtype)
    target = online.clone()
    optimizer = Adam(online.parameters(), lr=tc.lr)
    replay = ReplayBuffer(tc.replay_size, derive_rng(seed, ROLE_REPLAY))

    warm_rng = derive_rng(seed, ROLE_WARM_START)

    def warm_select(state, enc):
        return int(warm_rng.integers(N_ACTIONS))

    episode = 0
    while len(replay) < tc.warm_start:
        _collect_episode(env_config, derive_seed(seed, ROLE_WARM_START, episode),
                         variant, capacities, vocab, warm_select, replay,
                         stop_size=tc.warm_start)
        episode += 1

    explore_rng = derive_rng(seed, ROLE_EXPLORE)
    opt_steps = 0  # one per environment step, so it is also the epsilon schedule's position
    logs: list[EpochLog] = []
    best: tuple[float, int, QNetwork, float] | None = None

    def select(state, enc):
        eps = epsilon_at(opt_steps, tc)
        if explore_rng.random() < eps:
            return int(explore_rng.integers(N_ACTIONS))
        q, _ = online.forward_batch([enc])
        return greedy_action(q[0])

    for epoch in range(tc.epochs):
        t0 = time.perf_counter()
        losses: list[float] = []

        def optimize():
            nonlocal opt_steps
            losses.append(td_loss(replay.sample(tc.batch_size), online, target,
                                  tc.gamma))
            optimizer.step()
            opt_steps += 1
            if opt_steps % tc.sync_every == 0:
                target.copy_values_from(online)

        _collect_episode(env_config, derive_seed(seed, ROLE_TRAIN, epoch),
                         variant, capacities, vocab, select, replay,
                         after_step=optimize)
        policy = GreedyQ(online)
        val_mean, val_std = evaluate(policy, env_config, tc.eval_iterations,
                                     derive_seed(seed, ROLE_VALIDATION),
                                     capacities, variant=variant)
        logs.append(EpochLog(
            epoch=epoch,
            train_loss_mean=float(np.mean(losses)) if losses else 0.0,
            val_reward_mean=val_mean,
            val_reward_std=val_std,
            epsilon_end=epsilon_at(opt_steps, tc),
            wall_seconds=time.perf_counter() - t0,
        ))
        if best is None or val_mean > best[0]:
            best = (val_mean, epoch, policy.net, val_std)

    best_val, best_epoch, best_net, best_std = best
    return TrainResult(net=best_net.clone(), best_epoch=best_epoch,
                       best_val_mean=best_val, best_val_std=best_std,
                       epochs=tuple(logs), total_opt_steps=opt_steps)

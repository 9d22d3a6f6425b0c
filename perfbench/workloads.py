"""The three benchmark workloads and their output checks.

Each workload is a closed loop: one caller runs a fixed unit of work back
to back through roommem's Python API, and every unit is checked.

* ``eval-grid``: the three hand-coded baselines over the capacity grid, then
  greedy evaluation of a fixed-seed untrained fp32 Q-network on the
  ``pretrained`` variant.  No backward pass; every forward is B=1.
* ``desk-train``: ``trainer.train`` on rl-scratch at capacity 32 under
  ``desk.env`` (B=128, fp32, replay 2048), one epoch per unit.
* ``paper-train``: the ``paper.env`` shape.  A random-policy warm start
  pushes 16384 transitions into a 131072-slot replay, then B=1024 fp64
  optimizer steps run.

End-to-end timings come from the benchmark's own clock and from a handful
of probe spans (:func:`probe_specs`) at calls the program makes internally,
such as ``GreedyQ.act`` during validation.  Traced units add
:func:`layer_specs`, a wrapper around every public name a workload reaches,
at the place its caller looks it up.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import time
import traceback
from pathlib import Path

import numpy as np

from roommem import configio, harness, memory, nn, policies, qnet, trainer
from roommem import env as envmod
from roommem.seeding import ROLE_REPLAY, ROLE_WARM_START, derive_rng, derive_seed

from tracer import Tracer, median, percentile

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

BASELINES = ("episodic-only", "semantic-only", "random")
GRID_CAPACITIES = (2, 4, 8, 16, 32, 64)
CAPACITY = 32
NET_SEED = 0               # the untrained greedy network of eval-grid
REFERENCE_SEEDS = 32       # eval-grid input seed is --seed modulo this
SETUP_REPEATS = 20         # set-ups timed before the first unit and after each

DESK_EPISODE_LENGTH = 64   # one unit = warm start + 64 optimizer steps + validation
PAPER_FILL = 16384         # transitions pushed by the paper-size warm start
PAPER_STEPS = 4            # B=1024 optimizer steps after the fill

LAYERS = ("configio", "kb", "des", "env", "memory", "qnet", "nn", "trainer",
          "policies", "harness")


# -- probes and layer wrappers -----------------------------------------------

class Recorder:
    """Values the wrappers capture, keyed by the tracer's run id."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.losses: dict[int, list[float]] = {}
        self.actions: dict[int, list[int]] = {}
        self.branch_len: dict[int, list[int]] = {}
        self.pad: dict[int, list[list[int]]] = {}
        self.cache_bytes: dict[int, int] = {}

    def _get(self, table, default):
        return table.setdefault(self.tracer.run_id, default())

    def on_act(self, args, kwargs, result):
        state = args[1]
        counts = self._get(self.actions, lambda: [0, 0, 0])
        counts[result[0]] += 1
        lengths = self._get(self.branch_len, lambda: [0, 0, 0])
        for bi in range(3):
            lengths[bi] += len(state[bi])

    def on_loss(self, args, kwargs, result):
        self._get(self.losses, list).append(result)

    def on_forward(self, args, kwargs, result):
        enc_states = args[1]
        if not _need_cache(args, kwargs):
            return
        pad = self._get(self.pad, lambda: [[0, 0] for _ in qnet.BRANCHES])
        for bi in range(3):
            lengths = [enc[bi].shape[0] for enc in enc_states]
            pad[bi][0] += sum(lengths)
            pad[bi][1] += max(lengths) * len(lengths)
        size = array_bytes(result[1])
        run = self.tracer.run_id
        self.cache_bytes[run] = max(self.cache_bytes.get(run, 0), size)


def _need_cache(args, kwargs) -> bool:
    return bool(kwargs.get("need_cache", args[2] if len(args) > 2 else False))


def _forward_label(args, kwargs) -> str:
    if len(args[1]) == 1:
        return "qnet.forward_batch.b1"
    return "qnet.forward_batch." + ("online" if _need_cache(args, kwargs) else "target")


def _bucket(batch: int) -> str:
    for b in (1, 128, 1024):
        if batch <= b:
            return f"b{b}"
    return "b_large"


def _lstm_forward_label(args, kwargs) -> str:
    return "nn.lstm_batch_forward." + _bucket(args[0].shape[1])


def _lstm_backward_label(args, kwargs) -> str:
    return "nn.lstm_batch_backward." + _bucket(args[3].shape[0])


def array_bytes(obj) -> int:
    """Bytes of the distinct arrays reachable from a nested cache object
    (tuples, lists, dicts, and objects with ``__slots__`` or ``__dict__``);
    views count once, through the array that owns the memory."""
    seen: set[int] = set()
    total = 0
    todo = [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            if id(o) not in seen:
                seen.add(id(o))
                total += o.nbytes
        elif isinstance(o, (tuple, list)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif hasattr(o, "__slots__"):
            todo.extend(getattr(o, s, None) for s in o.__slots__)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.extend(vars(o).values())
    return total


def probe_specs(rec: Recorder):
    """Spans that end-to-end metrics need; installed in every run."""
    return [
        (policies.GreedyQ, "act", "policies.act.GreedyQ", rec.on_act),
        (trainer.ReplayBuffer, "sample", "trainer.ReplayBuffer.sample", None),
        (trainer, "td_loss", "trainer.td_loss", rec.on_loss),
        (nn.Adam, "step", "nn.Adam.step", None),
        (trainer, "evaluate", "policies.evaluate", None),
    ]


def layer_specs(rec: Recorder):
    """Every other public name a workload reaches, wrapped where its caller
    looks it up; installed for traced units only."""
    specs = [
        (envmod, "tick", "des.tick", None),
        (envmod, "build_room", "des.build_room", None),
        (envmod, "generate_synthetic_kb", "kb.generate_synthetic_kb", None),
        (envmod.RoomEnv, "reset", "env.reset", None),
        (envmod.RoomEnv, "step", "env.step", None),
        (trainer, "encode_state", "qnet.encode_state", None),
        (qnet, "encode_state", "qnet.encode_state", None),
        (qnet.QNetwork, "forward_batch", _forward_label, rec.on_forward),
        (qnet.QNetwork, "backward_batch", "qnet.backward_batch", None),
        (qnet, "lstm_batch_forward", _lstm_forward_label, None),
        (qnet, "lstm_batch_backward", _lstm_backward_label, None),
        (nn, "sigmoid", "nn.sigmoid", None),
        (trainer.ReplayBuffer, "push", "trainer.ReplayBuffer.push", None),
        (trainer, "train", "trainer.train", None),
        (policies, "evaluate", "policies.evaluate", None),
        (policies, "run_episode", "policies.run_episode", None),
        (harness, "run_episode", "policies.run_episode", None),
        (harness, "run_cell", "harness.run_cell", None),
        (configio, "load_experiment", "configio.load_experiment", None),
    ]
    for cls in (policies.EpisodicOnly, policies.SemanticOnly, policies.RandomPolicy):
        specs.append((cls, "act", f"policies.act.{cls.__name__}", None))
    for fn in ("observe", "apply_action", "retrieve", "snapshot_systems",
               "prefill_semantic"):
        for owner in (memory, policies, trainer):
            specs.append((owner, fn, f"memory.{fn}", None))
    return specs


def install(tracer: Tracer, specs) -> int:
    mark = tracer.mark()
    for owner, attr, span, after in specs:
        tracer.patch(owner, attr, span, after)
    return mark


# -- shared pieces -----------------------------------------------------------

def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Setup:
    config: configio.ExperimentConfig
    vocab: qnet.Vocabulary
    net: qnet.QNetwork


def set_up(preset: str) -> Setup:
    """What a run does before its loop: parse the experiment config, build
    the world and its vocabulary, and create the Q-network."""
    cfg = configio.load_experiment(preset)
    tc = cfg.train
    vocab, _ = trainer.build_vocabulary(cfg.env)
    net = qnet.QNetwork.create(vocab, NET_SEED, d_emb=tc.d_emb, hidden=tc.hidden,
                               n_layers=tc.n_layers, dtype=tc.dtype)
    return Setup(cfg, vocab, net)


@dataclasses.dataclass
class Unit:
    wall_ns: int
    attempted: int
    failed: int
    data: dict | None   # None when the unit raised


def failed_unit(t0: int, planned: int) -> Unit:
    traceback.print_exc()
    return Unit(time.perf_counter_ns() - t0, planned, planned, None)


def fill_replay(env_config, vocab, capacities, replay, n: int, seed: int) -> None:
    """Random-policy warm start as ``trainer.train`` runs it, with the
    trainer's seed roles: collect episodes until the replay holds ``n``."""
    rng = derive_rng(seed, ROLE_WARM_START)

    def warm_select(state, enc):
        return int(rng.integers(memory.N_ACTIONS))

    episode = 0
    while len(replay) < n:
        trainer._collect_episode(env_config, derive_seed(seed, ROLE_WARM_START, episode),
                                 "scratch", capacities, vocab, warm_select, replay,
                                 stop_size=n)
        episode += 1


def opt_step_ns(tracer: Tracer, runs) -> list[int]:
    """Optimizer step latency: from the start of each replay sample to the
    end of the Adam step that follows it."""
    samples = tracer.spans_of("trainer.ReplayBuffer.sample", runs)
    steps = tracer.spans_of("nn.Adam.step", runs)
    if len(samples) != len(steps):
        raise RuntimeError(f"{len(samples)} replay samples but {len(steps)} Adam steps")
    return [int(e - s) for s, e in zip(samples[:, 0], steps[:, 1])]


def compare_sequences(first, other) -> int:
    """Positions where two value sequences differ, counting missing values."""
    n = max(len(first), len(other))
    return sum(1 for i in range(n)
               if i >= len(first) or i >= len(other) or first[i] != other[i])


def non_finite(values) -> int:
    return sum(1 for v in values if not math.isfinite(v))


# -- eval-grid ---------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def eval_grid_outputs(setup: Setup, input_seed: int, rec: Recorder) -> tuple[dict, dict]:
    """One pass of eval-grid.  Returns (observed outputs, phase times ns);
    cells that raise are recorded as their error text."""
    cfg = setup.config
    outputs: dict = {"baseline": {}, "greedy": None}
    t0 = time.perf_counter_ns()
    for agent in BASELINES:
        row = outputs["baseline"].setdefault(agent, {})
        for cap in GRID_CAPACITIES:
            try:
                cell = harness.run_cell(cfg.env, cfg.train, agent, cap, input_seed)
                row[str(cap)] = list(cell.totals)
            except Exception as exc:  # a failed cell counts, the pass goes on
                row[str(cap)] = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    caps = harness.agent_capacities("rl-pretrained", CAPACITY)
    try:
        mean, std = policies.evaluate(policies.GreedyQ(setup.net), cfg.env,
                                      cfg.train.eval_iterations, input_seed, caps,
                                      variant="pretrained")
        outputs["greedy"] = {"mean": mean, "std": std,
                             "actions": rec.actions.get(rec.tracer.run_id, [0, 0, 0]),
                             "branch_lengths": rec.branch_len.get(rec.tracer.run_id, [0, 0, 0])}
    except Exception as exc:
        outputs["greedy"] = f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter_ns()
    return outputs, {"baseline": t1 - t0, "greedy": t2 - t1}


def eval_grid_failures(observed: dict, reference: dict, n_greedy: int) -> tuple[int, int]:
    """(attempted, failed) ops of one pass: each cell, and each greedy
    episode; a greedy mismatch in totals, actions or branch lengths fails
    all of that evaluation's episodes."""
    attempted = failed = 0
    for agent in BASELINES:
        for cap in GRID_CAPACITIES:
            attempted += 1
            got = observed["baseline"].get(agent, {}).get(str(cap))
            if got != reference["baseline"][agent][str(cap)]:
                failed += 1
    attempted += n_greedy
    if observed["greedy"] != reference["greedy"]:
        failed += n_greedy
    return attempted, failed


class EvalGrid:
    name = "eval-grid"
    preset = "desk.env"
    min_units = 1

    def __init__(self, seed: int, rec: Recorder):
        self.input_seed = seed % REFERENCE_SEEDS
        self.rec = rec
        self.reference = load_reference()[str(self.input_seed)]

    def unit(self, setup: Setup) -> Unit:
        t0 = time.perf_counter_ns()
        observed, phases = eval_grid_outputs(setup, self.input_seed, self.rec)
        wall = time.perf_counter_ns() - t0
        attempted, failed = eval_grid_failures(observed, self.reference,
                                               setup.config.train.eval_iterations)
        return Unit(wall, attempted, failed, phases)

    def metrics(self, setup: Setup, units: list[Unit], tracer: Tracer, runs) -> dict:
        n_iter = setup.config.train.eval_iterations
        n_base = len(BASELINES) * len(GRID_CAPACITIES) * n_iter
        decisions = tracer.durations("policies.act.GreedyQ", runs) / 1e6
        return {
            "episodes_per_s.baseline": (median(n_base * 1e9 / u.data["baseline"] for u in units), "1/s"),
            "episodes_per_s.greedy": (median(n_iter * 1e9 / u.data["greedy"] for u in units), "1/s"),
            "decision_ms.p50": (percentile(decisions, 50), "ms"),
            "decision_ms.p99": (percentile(decisions, 99), "ms"),
            "decision_samples": (len(decisions), "count"),
        }


# -- desk-train --------------------------------------------------------------

class DeskTrain:
    name = "desk-train"
    preset = "desk.env"
    min_units = 2   # the second unit checks that training is reproducible

    def __init__(self, seed: int, rec: Recorder):
        self.seed = seed
        self.rec = rec
        self.first: tuple | None = None

    def unit(self, setup: Setup) -> Unit:
        cfg = setup.config
        env = dataclasses.replace(cfg.env, episode_length=DESK_EPISODE_LENGTH)
        tc = dataclasses.replace(cfg.train, epochs=1)
        caps = harness.agent_capacities("rl-scratch", CAPACITY)
        planned = tc.epochs * env.episode_length + tc.epochs * tc.eval_iterations
        t0 = time.perf_counter_ns()
        try:
            result = trainer.train(env, "scratch", caps, tc, self.seed)
        except Exception:
            return failed_unit(t0, planned)
        wall = time.perf_counter_ns() - t0
        losses = self.rec.losses.get(self.rec.tracer.run_id, [])
        validation = [(e.val_reward_mean, e.val_reward_std) for e in result.epochs]
        expected_steps = tc.epochs * env.episode_length
        failed = non_finite(losses) + abs(expected_steps - len(losses))
        if self.first is None:
            self.first = (losses, validation)
        else:
            failed += compare_sequences(self.first[0], losses)
            if validation != self.first[1]:
                failed += tc.eval_iterations * tc.epochs
        return Unit(wall, planned, min(failed, planned),
                    {"episodes": tc.eval_iterations * tc.epochs})

    def metrics(self, setup: Setup, units: list[Unit], tracer: Tracer, runs) -> dict:
        steps = np.array(opt_step_ns(tracer, runs)) / 1e6
        validations = tracer.durations("policies.evaluate", runs)
        episodes = sum(u.data["episodes"] for u in units)
        decisions = tracer.durations("policies.act.GreedyQ", runs) / 1e6
        return {
            "opt_steps_per_s": (len(steps) * 1e3 / steps.sum(), "1/s"),
            "opt_step_ms.p50": (percentile(steps, 50), "ms"),
            "opt_step_ms.p90": (percentile(steps, 90), "ms"),
            "opt_step_samples": (len(steps), "count"),
            "episodes_per_s.greedy": (episodes * 1e9 / validations.sum(), "1/s"),
            "decision_ms.p50": (percentile(decisions, 50), "ms"),
            "decision_ms.p99": (percentile(decisions, 99), "ms"),
            "decision_samples": (len(decisions), "count"),
        }


# -- paper-train -------------------------------------------------------------

class PaperTrain:
    name = "paper-train"
    preset = "paper.env"
    min_units = 2   # the second unit checks that training is reproducible

    def __init__(self, seed: int, rec: Recorder):
        self.seed = seed
        self.first: list[float] | None = None

    def unit(self, setup: Setup) -> Unit:
        """Fill a fresh replay, then run ``PAPER_STEPS`` optimizer steps from
        the set-up's initial parameters.  Every unit uses the same seed, so
        every unit must give the first unit's losses."""
        cfg = setup.config
        tc = cfg.train
        caps = harness.agent_capacities("rl-scratch", CAPACITY)
        t0 = time.perf_counter_ns()
        try:
            replay = trainer.ReplayBuffer(tc.replay_size, derive_rng(self.seed, ROLE_REPLAY))
            rss0 = current_rss_bytes()
            fill_replay(cfg.env, setup.vocab, caps, replay, PAPER_FILL, self.seed)
            t_fill = time.perf_counter_ns()
            rss1 = current_rss_bytes()
            online = setup.net.clone()
            target = online.clone()
            optimizer = nn.Adam(online.parameters(), lr=tc.lr)
            losses = []
            for k in range(PAPER_STEPS):
                losses.append(trainer.td_loss(replay.sample(tc.batch_size), online, target,
                                              tc.gamma))
                optimizer.step()
                if (k + 1) % tc.sync_every == 0:
                    target.copy_values_from(online)
            wall = time.perf_counter_ns() - t0
        except Exception:
            return failed_unit(t0, PAPER_STEPS)
        failed = non_finite(losses)
        data = {"fill_ns": t_fill - t0}
        if self.first is None:
            self.first = losses
            # later fills reuse freed memory, so only the first shows growth
            data["bytes_per_transition"] = (rss1 - rss0) / PAPER_FILL
        else:
            failed += compare_sequences(self.first, losses)
        return Unit(wall, PAPER_STEPS, min(failed, PAPER_STEPS), data)

    def metrics(self, setup: Setup, units: list[Unit], tracer: Tracer, runs) -> dict:
        steps = np.array(opt_step_ns(tracer, runs)).reshape(len(units), PAPER_STEPS) / 1e6
        timed = steps[:, 1:].ravel()  # the first step of a unit warms up
        growth = [u.data["bytes_per_transition"] for u in units if "bytes_per_transition" in u.data]
        return {
            "collect_steps_per_s": (median(PAPER_FILL * 1e9 / u.data["fill_ns"] for u in units), "1/s"),
            "opt_steps_per_s": (len(timed) * 1e3 / timed.sum(), "1/s"),
            "opt_step_ms.p50": (percentile(timed, 50), "ms"),
            "opt_step_ms.first": (median(steps[:, 0]), "ms"),
            "opt_step_samples": (len(timed), "count"),
            "trainer.replay.bytes_per_transition": (median(growth) if growth else None, "bytes"),
        }


SETUP_RUN = -3   # run id of the set-up repeats

WORKLOADS = {w.name: w for w in (EvalGrid, DeskTrain, PaperTrain)}

"""Command-line surface: train, eval, sweep, trace, gen-kb.

Every command is driven by a config file plus a few overrides and is
deterministic given its inputs.  Exit codes: 0 success, 1 run failure,
2 bad config, unusable input file or unusable output path.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .configio import RL_AGENTS, ExperimentConfig, agent_capacities, agent_variant, load_experiment
from .env import ConfigError
from .harness import atomic_write_text, run_cell, sweep
from .kb import KbError, generate_synthetic_kb, write_kb
from .policies import GreedyQ, evaluate, run_episode
from .qnet import CheckpointError, QNetwork
from .seeding import ROLE_TEST, derive_seed
from .trainer import build_vocabulary, train

__all__ = ["main", "entry"]


def _one_cell(args, rl_only: str | None = None):
    """Config, agent, capacity and seed of a one-cell command; ``--seed`` is
    validated like a config seed.  The command named ``rl_only`` needs an
    rl agent."""
    config = load_experiment(args.config)
    for what, values in (("agent", config.agents), ("capacity", config.capacities)):
        if len(values) != 1:
            raise ConfigError(f"this command needs exactly one {what}, got {len(values)}")
    (agent,), (capacity,) = config.agents, config.capacities
    if rl_only and agent not in RL_AGENTS:
        raise ConfigError(f"{rl_only} needs an rl agent, got {agent!r}")
    seed = args.seed if args.seed is not None else config.seeds[0]
    dataclasses.replace(config, seeds=(seed,)).validate()
    return config, agent, capacity, seed


def _load_checkpoint(path: str, config: ExperimentConfig) -> QNetwork:
    net = QNetwork.load(path)
    vocab, _ = build_vocabulary(config.env)
    if net.vocab != vocab:
        raise CheckpointError("checkpoint vocabulary does not match this environment")
    return net


def _train_log_csv(result) -> str:
    lines = ["epoch,train_loss_mean,val_reward_mean,val_reward_std,epsilon_end,wall_seconds"]
    for e in result.epochs:
        lines.append(f"{e.epoch},{e.train_loss_mean:.6f},{e.val_reward_mean:.4f},"
                     f"{e.val_reward_std:.4f},{e.epsilon_end:.6f},{e.wall_seconds:.3f}")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    config, agent, capacity, seed = _one_cell(args, rl_only="train")
    out = Path(args.out if args.out else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = train(config.env, agent_variant(agent), agent_capacities(agent, capacity),
                   config.train, seed)
    ckpt = out / "checkpoint.ckpt"
    result.net.save(ckpt)
    atomic_write_text(out / "train_log.csv", _train_log_csv(result))
    print(f"best_epoch={result.best_epoch} val_mean={result.best_val_mean:.4f} "
          f"val_std={result.best_val_std:.4f} checkpoint={ckpt}")
    return 0


def cmd_eval(args) -> int:
    config, agent, capacity, seed = _one_cell(args)
    if agent in RL_AGENTS:
        if not args.checkpoint:
            raise ConfigError(f"agent {agent!r} needs --checkpoint")
        net = _load_checkpoint(args.checkpoint, config)
        mean, std = evaluate(GreedyQ(net), config.env, config.train.eval_iterations,
                             derive_seed(seed, ROLE_TEST), agent_capacities(agent, capacity),
                             variant=agent_variant(agent))
    else:
        cell = run_cell(config.env, config.train, agent, capacity, seed)
        mean, std = cell.mean, cell.std
    print(f"agent={agent} capacity={capacity} seed={seed} "
          f"mean_reward={mean:.4f} std_reward={std:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = load_experiment(args.config)
    out_dir = args.out if args.out else None
    results, any_failed = sweep(config, out_dir=out_dir, workers=args.workers)
    where = Path(out_dir if out_dir else config.out_dir)
    print(f"wrote {where / 'results.csv'} and {where / 'summary.csv'} "
          f"({len(results)} cells, {sum(r.failed for r in results)} failed)")
    return 1 if any_failed else 0


def cmd_trace(args) -> int:
    config, agent, capacity, seed = _one_cell(args, rl_only="trace")
    net = _load_checkpoint(args.checkpoint, config)
    out = Path(args.out if args.out else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    total, trace = run_episode(GreedyQ(net), config.env, agent_capacities(agent, capacity),
                               variant=agent_variant(agent), seed=seed, trace=True,
                               snapshot_steps=args.snapshot_steps)
    path = out / "trace.jsonl"
    atomic_write_text(path, trace.to_jsonl())
    print(f"total_reward={total} records={len(trace.records)} trace={path}")
    return 0


def _step_list(text: str) -> tuple[int, ...]:
    """``--snapshot-steps``: comma-separated step numbers, checked before any work."""
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def cmd_gen_kb(args) -> int:
    kb = generate_synthetic_kb(args.seed, args.n_objects, args.n_locations)
    write_kb(kb, args.out)
    print(f"wrote {args.out}: {len(kb.objects)} objects, {len(kb.locations)} "
          f"locations, {len(kb.edges)} edges")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roommem",
        description="Room-simulation memory agents: training, evaluation, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one RL agent, save checkpoint + log")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score one agent on held-out episodes")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run the agent x capacity x seed grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser("trace", help="record one greedy episode with Q-values")
    p_trace.add_argument("--config", required=True)
    p_trace.add_argument("--checkpoint", required=True)
    p_trace.add_argument("--seed", type=int, default=None)
    p_trace.add_argument("--out", default=None)
    p_trace.add_argument("--snapshot-steps", type=_step_list, default="2,86")
    p_trace.set_defaults(func=cmd_trace)

    p_kb = sub.add_parser("gen-kb", help="write a synthetic knowledge-base TSV")
    p_kb.add_argument("--seed", type=int, required=True)
    p_kb.add_argument("--n-objects", type=int, required=True)
    p_kb.add_argument("--n-locations", type=int, required=True)
    p_kb.add_argument("--out", required=True)
    p_kb.set_defaults(func=cmd_gen_kb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KbError, CheckpointError, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

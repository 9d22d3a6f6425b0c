"""Sweep orchestration: run agent x capacity x seed cells, aggregate CSVs.

Each agent's capacity split and episode variant come from configio's agent
table.  Cells are independent and may run in a process pool; aggregation
sorts rows so output bytes never depend on completion order.  A failed cell is marked in the results and the sweep
carries on.

Every cell of a sweep runs with one BLAS thread, serial or pooled.  Trained
parameters are bit-reproducible only at a fixed BLAS thread count, so one
count on both paths keeps sweeps byte-identical across worker counts, and
pooled workers do not each start a pool of BLAS threads on the same CPUs.
"""
from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configio import AGENTS, RL_AGENTS, ExperimentConfig, agent_capacities, agent_variant
from .env import EnvConfig
from .policies import (
    EpisodicOnly,
    GreedyQ,
    RandomPolicy,
    SemanticOnly,
    episode_totals,
    run_episode,  # noqa: F401  perfbench/workloads.py wraps harness.run_episode
)
from .seeding import ROLE_POLICY, ROLE_TEST, derive_rng, derive_seed
from .trainer import TrainConfig, train

__all__ = ["agent_capacities", "run_cell", "CellResult", "pool_size", "sweep",
           "write_results_csv", "write_summary_csv", "atomic_write_text"]

# the policy of each untrained agent, given its cell's seed
_BASELINES = {
    "episodic-only": lambda seed: EpisodicOnly(),
    "semantic-only": lambda seed: SemanticOnly(),
    "random": lambda seed: RandomPolicy(derive_rng(seed, ROLE_POLICY)),
}


@dataclass(frozen=True)
class CellResult:
    agent: str
    capacity: int
    seed: int
    totals: tuple[int, ...]  # per-evaluation-episode rewards; empty on failure
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def mean(self) -> float:
        return float(np.mean(self.totals))

    @property
    def std(self) -> float:
        return float(np.std(self.totals))


def run_cell(env_config: EnvConfig, train_config: TrainConfig, agent: str,
             capacity: int, seed: int) -> CellResult:
    """Evaluate one agent at one capacity with one seed.  RL agents are
    trained first; everything is scored on the same held-out seed stream."""
    caps = agent_capacities(agent, capacity)
    variant = agent_variant(agent)
    if agent in RL_AGENTS:
        policy = GreedyQ(train(env_config, variant, caps, train_config, seed).net)
    else:
        policy = _BASELINES[agent](seed)
    totals = episode_totals(policy, env_config, train_config.eval_iterations,
                            derive_seed(seed, ROLE_TEST), caps, variant)
    return CellResult(agent, capacity, seed, totals)


def _cell_task(args) -> CellResult:
    env_config, train_config, agent, capacity, seed = args
    try:
        return run_cell(env_config, train_config, agent, capacity, seed)
    except Exception as exc:  # mark and continue; the sweep reports at the end
        return CellResult(agent, capacity, seed, (), error=f"{type(exc).__name__}: {exc}")


def _set_blas_threads(n: int) -> int | None:
    """Give numpy's bundled OpenBLAS n threads and return the count it had;
    change nothing and return None when numpy links another BLAS."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))   # numpy loaded it already: the same library
        try:
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        before = get()
        set_(n)
        return before
    return None


def pool_size(requested: int, n_tasks: int, n_cpus: int) -> int:
    """Worker processes worth starting: more than one per task or per
    usable CPU only adds start-up cost and contention."""
    return max(1, min(requested, n_tasks, n_cpus))


def sweep(config: ExperimentConfig, out_dir: str | None = None,
          workers: int = 1) -> tuple[list[CellResult], bool]:
    """Run the full grid and write results.csv + summary.csv.  Returns the
    sorted cell results and whether any cell failed."""
    config.validate()
    tasks = [(config.env, config.train, agent, capacity, seed)
             for agent in config.agents
             for capacity in config.capacities
             for seed in config.seeds]
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails before any cell runs
    workers = pool_size(workers, len(tasks), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads,
                                 initargs=(1,)) as pool:
            results = list(pool.map(_cell_task, tasks))
    else:
        before = _set_blas_threads(1)
        try:
            results = [_cell_task(t) for t in tasks]
        finally:
            if before is not None:
                _set_blas_threads(before)
    order = {a: i for i, a in enumerate(AGENTS)}
    results.sort(key=lambda r: (order[r.agent], r.capacity, r.seed))
    write_results_csv(results, out / "results.csv")
    write_summary_csv(results, config, out / "summary.csv")
    return results, any(r.failed for r in results)


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_results_csv(results: list[CellResult], path: Path) -> None:
    lines = ["agent,capacity,seed,mean_reward,std_reward"]
    for r in results:
        if r.failed:
            lines.append(f"{r.agent},{r.capacity},{r.seed},failed,failed")
        else:
            lines.append(f"{r.agent},{r.capacity},{r.seed},{r.mean:.4f},{r.std:.4f}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_summary_csv(results: list[CellResult], config: ExperimentConfig,
                      path: Path) -> None:
    """Agent x capacity grid; each cell pools every evaluation episode across
    seeds into one mean +- std."""
    caps = sorted(config.capacities)
    by_key: dict[tuple[str, int], list[int]] = {}
    failed: set[tuple[str, int]] = set()
    for r in results:
        key = (r.agent, r.capacity)
        if r.failed:
            failed.add(key)
        else:
            by_key.setdefault(key, []).extend(r.totals)
    lines = ["agent," + ",".join(str(c) for c in caps)]
    for agent in config.agents:
        cells = []
        for c in caps:
            key = (agent, c)
            if key in failed:
                cells.append("failed")
            elif key in by_key:
                arr = np.asarray(by_key[key], dtype=np.float64)
                cells.append(f"{arr.mean():.1f} ± {arr.std():.1f}")
            else:
                cells.append("")
        lines.append(agent + "," + ",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")

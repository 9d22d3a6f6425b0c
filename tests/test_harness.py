import os

import pytest

from roommem import harness
from roommem.configio import ExperimentConfig
from roommem.env import ConfigError
from roommem.harness import (
    CellResult,
    agent_capacities,
    pool_size,
    run_cell,
    sweep,
    write_results_csv,
)
from roommem.trainer import TrainConfig


def micro_train(**overrides):
    base = dict(epochs=1, batch_size=8, replay_size=64, warm_start=32,
                eps_last_step=8, eval_iterations=2, d_emb=4, hidden=6,
                n_layers=2, precision=32)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.parametrize("agent,total,expected", [
    ("episodic-only", 8, (8, 0)),
    ("episodic-only", 3, (3, 0)),
    ("semantic-only", 8, (0, 8)),
    ("random", 8, (4, 4)),
    ("rl-scratch", 32, (16, 16)),
    ("rl-pretrained", 2, (1, 1)),
])
def test_agent_capacities(agent, total, expected):
    assert agent_capacities(agent, total) == expected


@pytest.mark.parametrize("agent", ["random", "rl-scratch", "rl-pretrained"])
def test_split_agents_reject_odd_totals(agent):
    with pytest.raises(ConfigError, match="even total"):
        agent_capacities(agent, 7)


def test_agent_capacities_rejects_bad_input():
    with pytest.raises(ConfigError):
        agent_capacities("episodic-only", 0)
    with pytest.raises(ConfigError):
        agent_capacities("psychic", 8)


def test_cell_result_stats():
    r = CellResult("random", 4, 0, (2, 4, 6))
    assert r.mean == 4.0
    assert r.std == pytest.approx((8 / 3) ** 0.5)
    assert not r.failed
    bad = CellResult("random", 4, 0, (), error="ValueError: boom")
    assert bad.failed


def test_run_cell_baseline_deterministic(tiny_env):
    tc = micro_train()
    a = run_cell(tiny_env, tc, "semantic-only", 8, seed=1)
    b = run_cell(tiny_env, tc, "semantic-only", 8, seed=1)
    assert a == b
    assert len(a.totals) == tc.eval_iterations
    assert a.agent == "semantic-only" and a.capacity == 8 and a.seed == 1


def test_run_cell_random_agent_deterministic(tiny_env):
    tc = micro_train()
    a = run_cell(tiny_env, tc, "random", 8, seed=2)
    b = run_cell(tiny_env, tc, "random", 8, seed=2)
    assert a == b


def test_run_cell_trains_rl_agent(tiny_env):
    r = run_cell(tiny_env, micro_train(), "rl-scratch", 4, seed=0)
    assert not r.failed
    assert len(r.totals) == 2
    assert all(0 <= t <= tiny_env.episode_length for t in r.totals)


def _tiny_experiment(tiny_env, tmp_path, **overrides):
    kw = dict(env=tiny_env, train=micro_train(),
              agents=("episodic-only", "semantic-only", "random"),
              capacities=(2, 4), seeds=(0, 1), out_dir=str(tmp_path / "out"))
    kw.update(overrides)
    return ExperimentConfig(**kw)


def test_sweep_writes_sorted_csvs(tiny_env, tmp_path):
    cfg = _tiny_experiment(tiny_env, tmp_path)
    results, any_failed = sweep(cfg)
    assert not any_failed
    assert len(results) == 3 * 2 * 2
    keys = [(r.agent, r.capacity, r.seed) for r in results]
    assert keys == sorted(keys, key=lambda k: (cfg.agents.index(k[0]), k[1], k[2]))

    out = tmp_path / "out"
    results_txt = (out / "results.csv").read_text()
    lines = results_txt.splitlines()
    assert lines[0] == "agent,capacity,seed,mean_reward,std_reward"
    assert len(lines) == 1 + len(results)
    first = lines[1].split(",")
    assert first[:3] == ["episodic-only", "2", "0"]
    float(first[3]), float(first[4])  # numeric cells

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "agent,2,4"
    assert [row.split(",")[0] for row in summary[1:]] == list(cfg.agents)
    assert "±" in summary[1]
    # no leftover temp files from atomic writes
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "summary.csv"]


def test_sweep_rerun_is_byte_identical(tiny_env, tmp_path):
    cfg = _tiny_experiment(tiny_env, tmp_path)
    sweep(cfg)
    first = (tmp_path / "out" / "results.csv").read_bytes()
    first_sum = (tmp_path / "out" / "summary.csv").read_bytes()
    sweep(cfg)
    assert (tmp_path / "out" / "results.csv").read_bytes() == first
    assert (tmp_path / "out" / "summary.csv").read_bytes() == first_sum


def test_sweep_marks_failed_cells_and_continues(tiny_env, tmp_path, monkeypatch):
    # a failure no config check can see: the random policy cannot be built,
    # so exactly the random cells fail
    def broken_policy(rng):
        raise ConfigError("no random policy today")

    monkeypatch.setattr("roommem.harness.RandomPolicy", broken_policy)
    cfg = _tiny_experiment(tiny_env, tmp_path,
                           agents=("episodic-only", "random"), capacities=(4,))
    results, any_failed = sweep(cfg)
    assert any_failed
    by_agent = {r.agent: r for r in results}
    assert not by_agent["episodic-only"].failed
    assert by_agent["random"].failed
    assert "ConfigError" in by_agent["random"].error
    txt = (tmp_path / "out" / "results.csv").read_text()
    assert "random,4,0,failed,failed" in txt
    summary = (tmp_path / "out" / "summary.csv").read_text()
    assert "random,failed" in summary


def test_sweep_worker_pool_matches_serial(tiny_env, tmp_path):
    cfg = _tiny_experiment(tiny_env, tmp_path, agents=("episodic-only",),
                           capacities=(4,), seeds=(0, 1))
    serial, _ = sweep(cfg, out_dir=str(tmp_path / "a"))
    pooled, _ = sweep(cfg, out_dir=str(tmp_path / "b"), workers=2)
    assert serial == pooled
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_rl_sweep_runs_each_cell_on_one_blas_thread(tiny_env, tmp_path, monkeypatch):
    """Trained parameters depend on the BLAS thread count, so an RL sweep
    gives the same CSVs serial and pooled only if both paths use one
    count; the caller's count is back when ``sweep`` returns.  Each cell,
    in this process or a pool worker, writes the count it runs at to a
    file named after its process."""
    cfg = _tiny_experiment(tiny_env, tmp_path, agents=("rl-scratch",),
                           capacities=(4,), seeds=(0, 1))
    caller = harness._set_blas_threads(2)
    if caller is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    counts_dir = tmp_path / "counts"
    real_run_cell = harness.run_cell

    def spy(*args):
        count = harness._set_blas_threads(1)   # reads the count, sets what it should be
        harness._set_blas_threads(count)
        with open(counts_dir / str(os.getpid()), "a") as fh:
            fh.write(f"{count}\n")
        return real_run_cell(*args)

    def counts_by_process():
        found = {int(f.name): f.read_text().split() for f in counts_dir.iterdir()}
        for f in counts_dir.iterdir():
            f.unlink()
        return found

    monkeypatch.setattr(harness, "run_cell", spy)
    counts_dir.mkdir()
    try:
        serial, _ = sweep(cfg, out_dir=str(tmp_path / "a"))
        serial_counts = counts_by_process()
        assert harness._set_blas_threads(2) == 2
        pooled, _ = sweep(cfg, out_dir=str(tmp_path / "b"), workers=2)
        pooled_counts = counts_by_process()
    finally:
        harness._set_blas_threads(caller)
    assert serial_counts == {os.getpid(): ["1", "1"]}
    if pool_size(2, 2, len(os.sched_getaffinity(0))) > 1:
        assert os.getpid() not in pooled_counts
        assert sorted(sum(pooled_counts.values(), [])) == ["1", "1"]
    assert not any(r.failed for r in serial)
    assert serial == pooled
    for name in ("results.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("requested,n_tasks,n_cpus,expected", [
    (8, 3, 2, 2),     # capped by CPUs
    (8, 1, 4, 1),     # one task: no pool
    (2, 10, 4, 2),    # the request is below both caps
    (64, 5, 96, 5),   # capped by tasks
    (1, 10, 4, 1),
    (0, 10, 4, 1),
    (4, 0, 4, 1),
])
def test_pool_size_caps_workers(requested, n_tasks, n_cpus, expected):
    assert pool_size(requested, n_tasks, n_cpus) == expected


def test_write_results_csv_formats_four_decimals(tmp_path):
    path = tmp_path / "r.csv"
    write_results_csv([CellResult("random", 2, 0, (1, 2))], path)
    assert path.read_text() == (
        "agent,capacity,seed,mean_reward,std_reward\n"
        "random,2,0,1.5000,0.5000\n")

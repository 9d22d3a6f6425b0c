import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roommem
from roommem.cli import main
from roommem.kb import generate_synthetic_kb, load_kb

TINY_WORLD = """\
n_humans = 6
n_objects = 5
n_object_locations = 6
episode_length = 16
seed = 3
kb_seed = 7
epochs = 1
batch_size = 8
replay_size = 64
warm_start = 32
eps_last_step = 8
eval_iterations = 2
d_emb = 4
hidden = 6
n_layers = 2
precision = 32
seeds = 0
"""


def write_cfg(tmp_path, extra, name="exp.env"):
    p = tmp_path / name
    p.write_text(TINY_WORLD + extra)
    return str(p)


def test_gen_kb_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "kb.tsv"
    rc = main(["gen-kb", "--seed", "3", "--n-objects", "4",
               "--n-locations", "5", "--out", str(out)])
    assert rc == 0
    assert "4 objects" in capsys.readouterr().out
    assert load_kb(str(out)).edges == generate_synthetic_kb(3, 4, 5).edges


def test_gen_kb_rejects_bad_counts(tmp_path, capsys):
    rc = main(["gen-kb", "--seed", "1", "--n-objects", "0",
               "--n-locations", "5", "--out", str(tmp_path / "kb.tsv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gen_kb_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "kb.tsv"
    rc = main(["gen-kb", "--seed", "-1", "--n-objects", "4",
               "--n-locations", "5", "--out", str(out)])
    assert rc == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_eval_baseline_agent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = episodic-only\ncapacities = 16\n")
    rc = main(["eval", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    # capacity covers the whole episode, so recall is perfect
    assert "mean_reward=16.0000" in out
    assert "agent=episodic-only capacity=16 seed=0" in out


def test_eval_needs_single_agent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = episodic-only, random\ncapacities = 16\n")
    assert main(["eval", "--config", cfg]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["eval", "--config", "nope.env"]) == 2
    assert "not found" in capsys.readouterr().err


def test_train_eval_trace_flow(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\n")
    out_dir = tmp_path / "run"
    rc = main(["train", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    ckpt = out_dir / "checkpoint.ckpt"
    assert ckpt.is_file()
    log_lines = (out_dir / "train_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("epoch,train_loss_mean,val_reward_mean")
    assert len(log_lines) == 2  # header + one epoch
    assert "best_epoch=0" in capsys.readouterr().out

    rc = main(["eval", "--config", cfg, "--checkpoint", str(ckpt)])
    assert rc == 0
    assert "agent=rl-scratch" in capsys.readouterr().out

    rc = main(["trace", "--config", cfg, "--checkpoint", str(ckpt),
               "--out", str(out_dir), "--snapshot-steps", "0,5"])
    assert rc == 0
    assert "records=16" in capsys.readouterr().out
    lines = (out_dir / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 16
    records = [json.loads(l) for l in lines]
    assert [r["step"] for r in records] == list(range(16))
    with_mem = [r["step"] for r in records if r["memories"] is not None]
    assert with_mem == [0, 5]
    assert all(len(r["q_values"]) == 3 for r in records)


def test_train_rejects_baseline_agent(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = random\ncapacities = 4\n")
    assert main(["train", "--config", cfg]) == 2
    assert "rl agent" in capsys.readouterr().err


def test_eval_rl_requires_checkpoint(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\n")
    assert main(["eval", "--config", cfg]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_rejects_checkpoint_from_other_world(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\n")
    out_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    other = write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\nn_humans = 7\n",
                      name="other.env")
    rc = main(["eval", "--config", other, "--checkpoint",
               str(out_dir / "checkpoint.ckpt")])
    assert rc == 2
    assert "vocabulary" in capsys.readouterr().err


def test_sweep_and_rerun_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "agents = episodic-only, semantic-only\ncapacities = 2,4\n"
                    "seeds = 0,1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "0 failed" in capsys.readouterr().out
    first = (out / "results.csv").read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == first


def test_sweep_reports_failed_cells_with_exit_one(tmp_path, capsys):
    # the config is valid; the knowledge-base file is missing when cells run
    cfg = write_cfg(tmp_path, "agents = random\ncapacities = 4\n"
                    f"kb_path = {tmp_path / 'missing.tsv'}\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "1 failed" in capsys.readouterr().out
    assert "failed" in (out / "results.csv").read_text()
    # a knowledge-base path that names a directory fails its cells the same way
    cfg = write_cfg(tmp_path, f"agents = random\ncapacities = 4\nkb_path = {tmp_path}\n")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "1 failed" in capsys.readouterr().out


def test_sweep_rejects_odd_split_capacity_before_any_cell(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = episodic-only, random\ncapacities = 3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "even total" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under_a_file", [False, True])
def test_sweep_refuses_an_unusable_output_path_before_any_cell(tmp_path, capsys, monkeypatch,
                                                                under_a_file):
    import roommem.harness as harness

    cells = []
    run_cell = harness.run_cell
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args) or run_cell(*args))
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_cfg(tmp_path, "agents = episodic-only, random\ncapacities = 4\n")
    out = taken / "sweep" if under_a_file else taken
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cells == []
    assert taken.read_text() == ""
    # the counter sees cells when the path is usable
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    assert len(cells) == 2


@pytest.mark.parametrize("under_a_file", [False, True])
def test_trace_refuses_an_unusable_output_path_before_the_episode(tmp_path, capsys, monkeypatch,
                                                                   under_a_file):
    from roommem import cli
    from roommem.configio import load_experiment
    from roommem.qnet import QNetwork
    from roommem.trainer import build_vocabulary

    cfg = write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\n")
    config = load_experiment(cfg)
    ckpt = tmp_path / "net.ckpt"
    QNetwork.create(build_vocabulary(config.env)[0], 0, d_emb=4, hidden=6,
                    dtype=config.train.dtype).save(ckpt)
    episodes = []
    run_episode = cli.run_episode
    monkeypatch.setattr(cli, "run_episode",
                        lambda *a, **k: episodes.append(a) or run_episode(*a, **k))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "trace" if under_a_file else taken
    argv = ["trace", "--config", cfg, "--checkpoint", str(ckpt), "--out"]
    assert main(argv + [str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert episodes == []
    assert main(argv + [str(tmp_path / "trace")]) == 0
    assert len(episodes) == 1


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = episodic-only\ncapacities = 4\n")
    assert main(["eval", "--config", cfg, "--seed", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err
    bad = write_cfg(tmp_path, "seeds = -1\n", name="bad.env")
    assert main(["sweep", "--config", bad, "--out", str(tmp_path / "sweep")]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_sweep_rejects_a_world_too_small_for_its_humans(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "agents = episodic-only\ncapacities = 4\n"
                    "n_humans = 50\nlocation_capacity = 2\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "do not fit" in capsys.readouterr().err
    assert not out.exists()
    # 6 locations of capacity 2 seat exactly 12 humans
    edge = write_cfg(tmp_path, "agents = episodic-only\ncapacities = 4\n"
                     "n_humans = 12\nlocation_capacity = 2\n", name="edge.env")
    assert main(["sweep", "--config", edge, "--out", str(out)]) == 0


def test_trace_rejects_malformed_snapshot_steps_before_any_work(tmp_path, capsys):
    # neither file exists: a parser error is the only way to exit before reading them
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--config", str(tmp_path / "none.env"), "--checkpoint",
              str(tmp_path / "none.ckpt"), "--snapshot-steps", "a,2"])
    assert exc.value.code == 2
    assert "--snapshot-steps" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["desk\tdesk\t1.0\nbowl\tshelf\t2.0\n",
                                  "Alice\tshelf\t1.0\nbowl\tdesk\t2.0\n"])
def test_train_rejects_a_kb_file_with_clashing_names(tmp_path, capsys, rows):
    # an object named like a location, or a thing named like a human
    kb = tmp_path / "kb.tsv"
    kb.write_text(rows)
    cfg = write_cfg(tmp_path, f"agents = rl-scratch\ncapacities = 4\nkb_path = {kb}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_a_config_error(tmp_path, capsys, lr):
    cfg = write_cfg(tmp_path, f"agents = rl-scratch\ncapacities = 4\nlr = {lr}\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "lr must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["kb_path is a directory", "kb file not utf-8",
                                  "config not utf-8", "checkpoint is a directory"])
def test_unreadable_input_file_exits_two(tmp_path, capsys, case):
    kb = tmp_path / "kb.tsv"
    kb.write_bytes(b"bowl\tdesk\t2.0\nmug\tshelf\t1.0\n")
    argv = ["eval", "--config"]
    if case == "kb_path is a directory":
        argv.append(write_cfg(tmp_path, f"agents = random\ncapacities = 4\nkb_path = {tmp_path}\n"))
    elif case == "kb file not utf-8":
        kb.write_bytes(b"bowl\tdesk\t2.0\nb\xf6wl\tshelf\t1.0\n")
        argv.append(write_cfg(tmp_path, f"agents = random\ncapacities = 4\nkb_path = {kb}\n"))
    elif case == "config not utf-8":
        cfg = Path(write_cfg(tmp_path, "agents = random\ncapacities = 4\n"))
        cfg.write_bytes(cfg.read_bytes() + b"# caf\xe9\n")
        argv.append(str(cfg))
    else:
        argv += [write_cfg(tmp_path, "agents = rl-scratch\ncapacities = 4\n"),
                 "--checkpoint", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


def test_module_entry_point_runs_the_cli():
    src = str(Path(roommem.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "roommem.cli", "eval"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "--config" in proc.stderr

import dataclasses

import pytest

from roommem.configio import (
    AGENTS,
    ExperimentConfig,
    load_experiment,
    load_preset,
)
from roommem.env import ConfigError, EnvConfig
from roommem.trainer import TrainConfig


def parse_text(tmp_path, text: str) -> ExperimentConfig:
    path = tmp_path / "exp.env"
    path.write_text(text)
    return load_experiment(str(path))


def test_minimal_text_fills_defaults(tmp_path):
    cfg = parse_text(tmp_path, "n_humans = 6\nepochs = 2\n")
    assert cfg.env.n_humans == 6
    assert cfg.train.epochs == 2
    assert cfg.env.episode_length == EnvConfig().episode_length
    assert cfg.train.batch_size == TrainConfig().batch_size
    assert cfg.agents == AGENTS
    assert cfg.out_dir == "runs"


def test_comments_blanks_and_overrides(tmp_path):
    text = """
# a comment
n_humans = 8

n_humans = 12   # not a comment, part of the value? no: full-line only
"""
    # the trailing text makes the value non-numeric, so this line must fail
    with pytest.raises(ConfigError):
        parse_text(tmp_path, text)
    cfg = parse_text(tmp_path, "n_humans = 8\nn_humans = 12\n")
    assert cfg.env.n_humans == 12


def test_typed_values(tmp_path):
    cfg = parse_text(
        tmp_path,
        "p_commonsense = 0.25\nlr = 0.002\nroutine_segments = 3,7\n"
        "capacities = 2, 4\nseeds = 1,2,3\nagents = random, episodic-only\n"
        "kb_path =\n")
    assert cfg.env.p_commonsense == 0.25
    assert cfg.train.lr == 0.002
    assert cfg.env.routine_segments == (3, 7)
    assert cfg.capacities == (2, 4)
    assert cfg.seeds == (1, 2, 3)
    assert cfg.agents == ("random", "episodic-only")
    assert cfg.env.kb_path is None


@pytest.mark.parametrize("line,fragment", [
    ("frobnicate = 3", "unknown key"),
    ("epochs = many", "needs a int"),
    ("p_commonsense = high", "needs a float"),
    ("routine_segments = 1,2,3", "two comma-separated"),
    ("just words", "expected key = value"),
    ("agents = random, sleepy", "unknown agent"),
    ("capacities = 4, 0", "positive"),
    ("capacities = 4, 4", "distinct"),
    ("seeds = ", "non-empty"),
])
def test_bad_lines_raise(tmp_path, line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_text(tmp_path, line + "\n")


def test_error_names_file_and_line(tmp_path):
    p = tmp_path / "exp.env"
    p.write_text("n_humans = 4\n\nwhatever = 1\n")
    with pytest.raises(ConfigError, match=r"exp\.env:3"):
        load_experiment(str(p))


def test_include_resolves_relative_and_overrides(tmp_path):
    (tmp_path / "base.env").write_text("n_humans = 10\nepochs = 3\n")
    child = tmp_path / "child.env"
    child.write_text("n_humans = 99\ninclude = base.env\nepochs = 5\n")
    cfg = load_experiment(str(child))
    # the include lands where it appears: it clobbers earlier lines and is
    # clobbered by later ones
    assert cfg.env.n_humans == 10
    assert cfg.train.epochs == 5


def test_include_falls_back_to_packaged_preset(tmp_path):
    p = tmp_path / "mine.env"
    p.write_text("include = paper.env\nn_humans = 7\n")
    cfg = load_experiment(str(p))
    assert cfg.env.n_humans == 7
    assert cfg.train.epochs == 16


def test_packaged_presets_load_by_name():
    paper = load_experiment("paper.env")
    assert paper.env.n_humans == 64
    assert paper.env.n_objects == 16
    assert paper.env.n_object_locations == 28
    assert paper.train.batch_size == 1024
    desk = load_experiment("desk.env")
    # same world, smaller optimization budget
    assert desk.env == paper.env
    assert desk.train.epochs < paper.train.epochs


def test_packaged_paper_preset_is_the_dataclass_defaults():
    paper = load_preset("paper.env")
    assert paper.env == EnvConfig()
    assert paper.train == TrainConfig()


def test_packaged_include_ignores_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper.env").write_text("n_humans = 5\n")
    assert load_experiment("desk.env").env.n_humans == 64
    assert load_preset("desk.env").env.n_humans == 64


def test_desk_train_config_is_the_packaged_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk.env").write_text("include = paper.env\nepochs = 99\n")
    assert TrainConfig.desk() == load_preset("desk.env").train
    assert TrainConfig.desk().epochs == 4
    assert TrainConfig.desk(epochs=7) == dataclasses.replace(TrainConfig.desk(), epochs=7)


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_experiment("no-such-config.env")


def test_circular_include_raises(tmp_path):
    a = tmp_path / "a.env"
    b = tmp_path / "b.env"
    a.write_text("include = b.env\n")
    b.write_text("include = a.env\n")
    with pytest.raises(ConfigError, match="circular"):
        load_experiment(str(a))


def test_self_include_raises(tmp_path):
    a = tmp_path / "a.env"
    a.write_text("include = a.env\n")
    with pytest.raises(ConfigError, match="circular"):
        load_experiment(str(a))


def test_validate_checks_agent_names():
    cfg = ExperimentConfig(env=EnvConfig(), train=TrainConfig(),
                           agents=("random", "random"))
    with pytest.raises(ConfigError, match="distinct"):
        cfg.validate()

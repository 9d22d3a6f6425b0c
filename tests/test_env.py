import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from roommem import env as envmod
from roommem.des import human_names
from roommem.env import ConfigError, EnvConfig, EnvError, RoomEnv, world_kb
from roommem.kb import generate_synthetic_kb, write_kb
from roommem.memory import format_head, strip_owner
from roommem.policies import EpisodicOnly, play, run_episode

from .oracles import LazyRoomEnv, observed_locations


def run_full_episode(env, answer_fn):
    """Drive one episode; answer_fn(stream, question) -> answer string or
    None, where stream is the (observation, question) pairs so far."""
    obs, q = env.reset()
    total = 0
    stream = [(obs, q)]
    done = False
    while not done:
        obs, q, r, done = env.step(answer_fn(stream, stream[-1][1]))
        total += r
        if not done:
            stream.append((obs, q))
    return total, stream


def no_answer(stream, question):
    return None


def test_reset_delivers_step_zero(tiny_env):
    env = RoomEnv(tiny_env)
    obs, q = env.reset()
    assert obs.value == 0
    assert obs.relation == "AtLocation"
    owner, _ = strip_owner(obs.head)
    assert owner == human_names(tiny_env.n_humans)[0]
    # only one human observed so far, the question can only be about them
    assert q.head == obs.head


def test_observations_are_round_robin(tiny_env):
    cfg = dataclasses.replace(tiny_env, episode_length=2 * tiny_env.n_humans)
    env = RoomEnv(cfg)
    obs, _ = env.reset()
    owners = [strip_owner(obs.head)[0]]
    done = False
    while not done:
        obs, _, _, done = env.step(None)
        if obs is not None:
            owners.append(strip_owner(obs.head)[0])
    expected = list(human_names(cfg.n_humans)) * 2
    assert owners == expected[: len(owners)]
    assert len(owners) == cfg.episode_length


def test_observation_timestamps_count_up(tiny_env):
    env = RoomEnv(tiny_env)
    obs, _ = env.reset()
    stamps = [obs.value]
    done = False
    while not done:
        obs, _, _, done = env.step(None)
        if obs is not None:
            stamps.append(obs.value)
    assert stamps == list(range(tiny_env.episode_length))


def test_questions_only_about_observed_humans(tiny_env):
    """Each question names a human observed earlier in the stream, with the
    object that human's observations carry."""
    env = RoomEnv(tiny_env)
    _, stream = run_full_episode(env, lambda s, q: None)
    seen: dict[str, str] = {}
    for obs, q in stream:
        owner, obj = strip_owner(obs.head)
        assert seen.setdefault(owner, obj) == obj
        assert q.head in {format_head(o, x) for o, x in seen.items()}
    assert list(seen) == list(human_names(tiny_env.n_humans))


def test_ledger_oracle_scores_full_marks(tiny_env):
    """Answers are graded on the latest observation of the asked-about
    human, so answering from it is exactly right every step."""
    env = RoomEnv(tiny_env)
    total, _ = run_full_episode(env, lambda s, q: observed_locations(s, q.head)[-1])
    assert total == tiny_env.episode_length


def test_wrong_and_missing_answers_score_zero(tiny_env):
    env = RoomEnv(tiny_env)
    total, _ = run_full_episode(env, lambda s, q: "no-such-place")
    assert total == 0
    env = RoomEnv(tiny_env)
    total, _ = run_full_episode(env, lambda s, q: None)
    assert total == 0


def test_reward_is_binary(tiny_env):
    env = RoomEnv(tiny_env)
    env.reset()
    done = False
    while not done:
        _, _, r, done = env.step(None)
        assert r in (0, 1)


def test_done_protocol(tiny_env):
    cfg = dataclasses.replace(tiny_env, episode_length=3)
    env = RoomEnv(cfg)
    env.reset()
    steps = 0
    done = False
    while not done:
        obs, q, r, done = env.step(None)
        steps += 1
    assert steps == 3
    assert obs is None and q is None
    with pytest.raises(EnvError):
        env.step(None)


def test_step_before_reset_raises(tiny_env):
    env = RoomEnv(tiny_env)
    with pytest.raises(EnvError):
        env.step(None)


def test_last_observed_location_tracks_reobservation(tiny_env):
    """Over four rounds of observations, grading follows each human's latest
    observation: the latest one scores full marks, the first one does not."""
    cfg = dataclasses.replace(tiny_env, episode_length=4 * tiny_env.n_humans)
    total, _ = run_full_episode(RoomEnv(cfg), lambda s, q: observed_locations(s, q.head)[-1])
    assert total == cfg.episode_length
    total, _ = run_full_episode(RoomEnv(cfg), lambda s, q: observed_locations(s, q.head)[0])
    assert total < cfg.episode_length


def test_same_seed_same_episode(tiny_env):
    streams = []
    for _ in range(2):
        env = RoomEnv(tiny_env)
        _, stream = run_full_episode(env, lambda s, q: None)
        streams.append(stream)
    assert streams[0] == streams[1]


def test_different_seed_different_episode(tiny_env):
    env1 = RoomEnv(tiny_env)
    env2 = RoomEnv(dataclasses.replace(tiny_env, seed=tiny_env.seed + 1))
    _, s1 = run_full_episode(env1, lambda s, q: None)
    _, s2 = run_full_episode(env2, lambda s, q: None)
    assert s1 != s2


def test_kb_path_is_used(tmp_path, tiny_env):
    from roommem.kb import load_kb

    kb = generate_synthetic_kb(99, tiny_env.n_objects, tiny_env.n_object_locations)
    path = str(tmp_path / "kb.tsv")
    write_kb(kb, path)
    env = RoomEnv(dataclasses.replace(tiny_env, kb_path=path))
    env.reset()
    assert env.kb == load_kb(path)
    assert env.kb.edges == kb.edges


def test_kb_path_overrides_config_counts(tmp_path, tiny_env):
    """With a file-backed knowledge base the file defines the vocabulary;
    the config's object/location counts are not consulted."""
    kb = generate_synthetic_kb(99, tiny_env.n_objects + 2, tiny_env.n_object_locations + 3)
    path = str(tmp_path / "kb.tsv")
    write_kb(kb, path)
    env = RoomEnv(dataclasses.replace(tiny_env, kb_path=path))
    env.reset()
    assert len(env.kb.objects) == tiny_env.n_objects + 2


def test_kb_path_with_one_location_raises(tmp_path, tiny_env):
    path = tmp_path / "kb.tsv"
    path.write_text("bowl\tkitchen\t2.0\n")
    env = RoomEnv(dataclasses.replace(tiny_env, kb_path=str(path)))
    with pytest.raises(ConfigError):
        env.reset()


def test_world_must_seat_every_human(tmp_path, tiny_env):
    # 6 locations of capacity 2 seat 12 humans: the boundary loads, one more is refused
    full = dataclasses.replace(tiny_env, n_humans=12, location_capacity=2)
    full.validate()
    RoomEnv(full).reset()
    with pytest.raises(ConfigError, match="do not fit"):
        dataclasses.replace(full, n_humans=13).validate()
    # a file's location count is known once it loads, so the KB load checks it
    path = str(tmp_path / "kb.tsv")
    write_kb(generate_synthetic_kb(99, 5, 3), path)
    crowded = dataclasses.replace(full, kb_path=path)
    crowded.validate()
    with pytest.raises(ConfigError, match="do not fit"):
        world_kb(crowded)
    world_kb(dataclasses.replace(crowded, n_humans=6))


def test_kb_file_must_not_name_things_like_humans(tmp_path, tiny_env):
    path = tmp_path / "kb.tsv"
    path.write_text("bowl\tdesk\t2.0\nAlice\tshelf\t1.0\n")
    with pytest.raises(ConfigError, match="like humans"):
        world_kb(dataclasses.replace(tiny_env, kb_path=str(path)))
    # a suffixed name clashes only once the world has that many humans
    assert "Alice2" in human_names(80)
    path.write_text("bowl\tdesk\t2.0\nmug\tAlice2\t1.0\n")
    world_kb(dataclasses.replace(tiny_env, kb_path=str(path)))
    with pytest.raises(ConfigError, match="Alice2"):
        world_kb(dataclasses.replace(tiny_env, kb_path=str(path), n_humans=80,
                                     location_capacity=40))


def test_kb_seed_decoupled_from_env_seed(tiny_env):
    env1 = RoomEnv(tiny_env)
    env2 = RoomEnv(dataclasses.replace(tiny_env, seed=tiny_env.seed + 5))
    env1.reset()
    env2.reset()
    assert env1.kb == env2.kb


@pytest.mark.parametrize("field,value", [
    ("n_humans", 0),
    ("n_objects", 0),
    ("n_object_locations", 1),
    ("p_commonsense", 1.5),
    ("episode_length", 0),
    ("seed", -1),
    ("location_capacity", 0),
    ("routine_segments", (0, 2)),
    ("routine_durations", (2, 1)),
    ("routine_segments", (1, 2, 3)),
    ("routine_durations", (2,)),
    ("routine_segments", (1, "2")),
    ("routine_durations", (0, 2)),
])
def test_config_validation(tiny_env, field, value):
    cfg = dataclasses.replace(tiny_env, **{field: value})
    with pytest.raises(ConfigError):
        RoomEnv(cfg)


@settings(max_examples=40)
@given(n_humans=st.integers(1, 10), n_objects=st.integers(1, 5),
       n_locations=st.integers(2, 6), capacity=st.integers(1, 4),
       episode_length=st.integers(1, 40), p_commonsense=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32), kb_file=st.booleans(), answer_seed=st.integers(0, 2**16))
def test_script_replays_the_room_simulated_as_it_is_read(
        tmp_path_factory, n_humans, n_objects, n_locations, capacity, episode_length,
        p_commonsense, seed, kb_file, answer_seed):
    """The room ignores the agent, so replaying a script gives the stream of
    the room ticked step by step: the same observations, questions and
    rewards, for right, wrong and missing answers alike."""
    cfg = EnvConfig(n_humans=n_humans, n_objects=n_objects, n_object_locations=n_locations,
                    location_capacity=capacity, episode_length=episode_length,
                    p_commonsense=p_commonsense, seed=seed, kb_seed=seed % 50)
    if kb_file:
        path = tmp_path_factory.mktemp("kb") / "kb.tsv"
        write_kb(generate_synthetic_kb(seed % 50 + 1, n_objects, n_locations), str(path))
        cfg = dataclasses.replace(cfg, kb_path=str(path))
    try:
        cfg.validate()
        world_kb(cfg)
    except ConfigError:
        assume(False)
    lazy, scripted = LazyRoomEnv(cfg), RoomEnv(cfg)
    assert scripted.reset() == lazy.reset()
    rng = np.random.default_rng(answer_seed)
    done = False
    while not done:
        # the graded answer, no answer or a random location, in turn at random
        locations = lazy.kb.locations
        answer = (lazy.graded, None, locations[int(rng.integers(len(locations)))])[
            int(rng.integers(3))]
        got = scripted.step(answer)
        assert got == lazy.step(answer)
        done = got[3]


def test_duplicate_seeds_share_a_script_with_their_own_cursors(tiny_env, monkeypatch):
    """Two lockstep episodes of one seed simulate the room once and each
    score what a sequential episode scores."""
    monkeypatch.setattr(envmod, "_SCRIPTS", envmod._ScriptCache(envmod.SCRIPT_BUDGET))
    builds = []
    script = envmod._script
    monkeypatch.setattr(envmod, "_script", lambda *a: builds.append(a) or script(*a))
    totals = [0, 0]
    for steps in play(EpisodicOnly(), tiny_env, (4, 0), seeds=(5, 5)):
        totals = [t + s.reward for t, s in zip(totals, steps)]
    assert len(builds) == 1
    single = run_episode(EpisodicOnly(), tiny_env, (4, 0), seed=5)[0]
    assert totals == [single, single]
    assert single < tiny_env.episode_length  # capacity 4 forgets, so a shared cursor would show
    assert len(builds) == 1


def test_script_cache_keeps_within_its_budget(tiny_env, monkeypatch):
    """More distinct episodes than the budget holds: the least recently used
    scripts go, and an episode replayed after its script went is unchanged."""
    cache = envmod._ScriptCache(budget=2 * tiny_env.episode_length + 5)
    monkeypatch.setattr(envmod, "_SCRIPTS", cache)
    first = None
    for seed in range(6):
        stream = run_full_episode(RoomEnv(dataclasses.replace(tiny_env, seed=seed)), no_answer)
        first = first or stream
        assert cache.steps <= cache.budget
    assert cache.steps == 2 * tiny_env.episode_length
    assert [cfg.seed for _, cfg in cache._scripts] == [4, 5]
    RoomEnv(dataclasses.replace(tiny_env, seed=4)).reset()  # a hit makes 4 the most recent
    assert run_full_episode(RoomEnv(dataclasses.replace(tiny_env, seed=0)), no_answer) == first
    assert [cfg.seed for _, cfg in cache._scripts] == [4, 0]


def test_rewritten_kb_file_gives_the_new_world_at_the_next_reset(tmp_path, tiny_env):
    path = tmp_path / "kb.tsv"
    cfg = dataclasses.replace(tiny_env, kb_path=str(path))
    env = RoomEnv(cfg)
    streams = []
    for kb_seed in (98, 99):
        kb = generate_synthetic_kb(kb_seed, tiny_env.n_objects, tiny_env.n_object_locations)
        write_kb(kb, str(path))
        streams.append(run_full_episode(env, no_answer))
        assert env.kb.edges == kb.edges
        assert streams[-1] == run_full_episode(LazyRoomEnv(cfg), no_answer)
    assert streams[0] != streams[1]

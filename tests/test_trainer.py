import dataclasses

import numpy as np
import pytest

from roommem.des import human_names
from roommem.env import ConfigError, RoomEnv
from roommem.kb import write_kb
from roommem.memory import (
    EPISODIC,
    RELATION,
    SEMANTIC,
    SHORT_TERM,
    TO_EPISODIC,
    Quadruple,
    memory_lines,
)
from roommem.nn import huber_loss
from roommem.policies import EpisodicOnly, run_episode
from roommem.qnet import QNetwork, Vocabulary, encode_state
from roommem.seeding import derive_rng
from roommem.trainer import (
    EpochLog,
    ReplayBuffer,
    TrainConfig,
    Transition,
    build_vocabulary,
    epsilon_at,
    td_loss,
    train,
)


def micro_train_config(**overrides):
    base = dict(epochs=2, batch_size=8, replay_size=64, warm_start=32,
                eps_last_step=16, eval_iterations=2, d_emb=4, hidden=6,
                n_layers=2, precision=64)
    base.update(overrides)
    return TrainConfig(**base)


def test_paper_defaults():
    tc = TrainConfig()
    assert tc.epochs == 16
    assert tc.batch_size == 1024
    assert tc.replay_size == 131072
    assert tc.warm_start == 131072
    assert tc.gamma == 0.65
    assert tc.lr == 1e-3
    assert tc.sync_every == 10
    assert tc.eval_iterations == 10
    assert (tc.eps_start, tc.eps_end, tc.eps_last_step) == (1.0, 0.0, 2048)
    assert tc.d_emb == 32 and tc.hidden == 64 and tc.n_layers == 2
    assert tc.dtype == np.float64


def test_desk_preset_is_fast_but_same_shape():
    tc = TrainConfig.desk()
    assert tc.gamma == 0.65 and tc.sync_every == 10
    assert tc.epochs < TrainConfig().epochs
    assert tc.replay_size == tc.warm_start
    assert tc.dtype == np.float32
    tc.validate()


def test_desk_overrides():
    tc = TrainConfig.desk(epochs=9, lr=0.002)
    assert tc.epochs == 9 and tc.lr == 0.002


@pytest.mark.parametrize("bad", [
    dict(epochs=0),
    dict(gamma=1.5),
    dict(lr=0.0),
    dict(eps_start=0.2, eps_end=0.5),
    dict(warm_start=128, replay_size=64),
    dict(batch_size=512, warm_start=128, replay_size=128),
    dict(precision=16),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
])
def test_train_config_validation(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad).validate()


def test_epsilon_schedule_anchors():
    tc = TrainConfig(eps_start=1.0, eps_end=0.0, eps_last_step=2048)
    assert epsilon_at(0, tc) == 1.0
    assert epsilon_at(1024, tc) == 0.5
    assert epsilon_at(2048, tc) == 0.0
    assert epsilon_at(99999, tc) == 0.0
    with pytest.raises(ValueError):
        epsilon_at(-1, tc)


def test_epsilon_schedule_is_linear():
    tc = TrainConfig(eps_start=0.8, eps_end=0.2, eps_last_step=100)
    xs = np.arange(0, 101)
    ys = np.array([epsilon_at(int(s), tc) for s in xs])
    assert np.allclose(ys, 0.8 - 0.6 * xs / 100)


def fake_transition(i, done=False):
    st = ((), (), (Quadruple("bowl", RELATION, "desk", i + 1),))
    return Transition(st, i % 3, i % 2, st, done)


def test_replay_fifo_eviction():
    buf = ReplayBuffer(4, derive_rng(0, 99))
    for i in range(6):
        buf.push(fake_transition(i))
    assert len(buf) == 4
    kept = {t.state[2][0].value for t in buf.sample(64)}
    # 1-based strengths: transitions 0 and 1 were evicted
    assert kept <= {3, 4, 5, 6}
    assert {5, 6} <= kept


def test_replay_sample_without_replacement_when_full_enough():
    buf = ReplayBuffer(8, derive_rng(0, 98))
    for i in range(8):
        buf.push(fake_transition(i))
    got = buf.sample(8)
    assert len({t.state[2][0].value for t in got}) == 8


def test_replay_sample_with_replacement_when_small():
    buf = ReplayBuffer(8, derive_rng(0, 97))
    buf.push(fake_transition(0))
    got = buf.sample(4)
    assert len(got) == 4


def test_replay_empty_sample_raises():
    buf = ReplayBuffer(4, derive_rng(0, 96))
    with pytest.raises(ValueError):
        buf.sample(1)


def test_transition_equality_ignores_encodings():
    a = fake_transition(1)
    b = Transition(a.state, a.action, a.reward, a.next_state, a.done,
                   enc_state=("x",), enc_next=("y",))
    assert a == b


def tiny_vocab_net():
    vocab = Vocabulary(("Ann", "Bob"), ("bowl",), ("desk", "lap"))
    online = QNetwork.create(vocab, seed=5, d_emb=3, hidden=4, n_layers=1,
                             dtype=np.float64)
    target = QNetwork.create(vocab, seed=6, d_emb=3, hidden=4, n_layers=1,
                             dtype=np.float64)
    return vocab, online, target


def test_td_loss_matches_hand_computation():
    """One optimizer-free evaluation of the TD objective, cross-checked
    against explicit numpy on the same forwards."""
    vocab, online, target = tiny_vocab_net()
    s0 = ((Quadruple("Ann's bowl", RELATION, "desk", 0),), (), ())
    s1 = ((), (Quadruple("Ann's bowl", RELATION, "desk", 0),), ())
    s2 = ((), (), (Quadruple("bowl", RELATION, "lap", 2),))
    batch = [
        Transition(s0, 1, 1, s1, False),
        Transition(s1, 2, 0, s2, False),
        Transition(s2, 0, 1, s0, True),
    ]
    gamma = 0.65
    loss = td_loss(batch, online, target, gamma)

    q = np.stack([online.forward(t.state) for t in batch])
    qn = np.stack([target.forward(t.next_state) for t in batch])
    targets = np.array([t.reward for t in batch], dtype=float)
    targets[:2] += gamma * qn[:2].max(axis=1)  # the done row bootstraps nothing
    pred = q[np.arange(3), [1, 2, 0]]
    want_losses, _ = huber_loss(pred, targets)
    assert loss == pytest.approx(float(want_losses.mean()), abs=1e-12)


def test_td_loss_gradient_only_touches_online():
    vocab, online, target = tiny_vocab_net()
    s0 = ((Quadruple("Ann's bowl", RELATION, "desk", 0),), (), ())
    batch = [Transition(s0, 0, 1, s0, False)]
    for p in online.parameters() + target.parameters():
        p.grad[...] = 0.0
    td_loss(batch, online, target, 0.65)
    assert any(np.any(p.grad != 0.0) for p in online.parameters())
    assert all(np.all(p.grad == 0.0) for p in target.parameters())


def test_td_loss_rejects_empty_batch():
    _, online, target = tiny_vocab_net()
    with pytest.raises(ValueError):
        td_loss([], online, target, 0.65)


def test_td_loss_uses_cached_encodings():
    vocab, online, target = tiny_vocab_net()
    s0 = ((Quadruple("Ann's bowl", RELATION, "desk", 0),), (), ())
    s1 = ((), (), ())
    enc0, enc1 = encode_state(vocab, s0), encode_state(vocab, s1)
    with_cache = [Transition(s0, 0, 1, s1, False, enc0, enc1)]
    without = [Transition(s0, 0, 1, s1, False)]
    l1 = td_loss(with_cache, online, target, 0.65)
    for p in online.parameters():
        p.grad[...] = 0.0
    l2 = td_loss(without, online, target, 0.65)
    assert l1 == l2


def test_build_vocabulary_is_stable_across_seeds(tiny_env):
    v1, kb1 = build_vocabulary(tiny_env)
    v2, kb2 = build_vocabulary(dataclasses.replace(tiny_env, seed=tiny_env.seed + 9))
    assert v1 == v2
    assert kb1 == kb2


def test_build_vocabulary_matches_a_built_room(tiny_env, small_kb, tmp_path):
    write_kb(small_kb, tmp_path / "kb.tsv")
    for cfg in (tiny_env, dataclasses.replace(tiny_env, kb_path=str(tmp_path / "kb.tsv"))):
        env = RoomEnv(cfg)
        env.reset()
        vocab, kb = build_vocabulary(cfg)
        assert kb == env.kb
        assert vocab == Vocabulary.build(human_names(cfg.n_humans), env.kb)


def test_train_warm_start_fills_exactly_and_runs(tiny_env):
    """End-to-end micro run: replay reaches warm_start exactly, one optimizer
    step happens per environment step, logs are complete."""
    tc = micro_train_config()
    result = train(tiny_env, "scratch", (2, 2), tc, seed=0)
    assert result.total_opt_steps == tc.epochs * tiny_env.episode_length
    assert len(result.epochs) == tc.epochs
    assert [e.epoch for e in result.epochs] == [0, 1]
    assert result.best_epoch in (0, 1)
    best_from_log = max(result.epochs, key=lambda e: e.val_reward_mean)
    assert result.best_val_mean == best_from_log.val_reward_mean
    for log in result.epochs:
        assert log.wall_seconds >= 0.0
        assert 0.0 <= log.epsilon_end <= 1.0
        assert np.isfinite(log.train_loss_mean)
    # epsilon position is monotone over epochs
    eps = [e.epsilon_end for e in result.epochs]
    assert eps == sorted(eps, reverse=True)


def test_collect_stops_exactly_at_target_size(tiny_env):
    from roommem.trainer import _collect_episode

    vocab, _ = build_vocabulary(tiny_env)
    rng = derive_rng(0, 42)
    buf = ReplayBuffer(64, derive_rng(0, 43))
    # 10 does not divide the episode length, so the stop happens mid-episode
    _collect_episode(tiny_env, 123, "scratch", (2, 2), vocab,
                     lambda s, e: int(rng.integers(3)), buf, stop_size=10)
    assert len(buf) == 10


class ListReplay(list):
    """Keeps every pushed transition, in order."""

    push = list.append


def test_collect_chains_transitions(tiny_env):
    from roommem.trainer import _collect_episode

    vocab, _ = build_vocabulary(tiny_env)
    caps, seed, L = (2, 2), 123, tiny_env.episode_length
    got = ListReplay()
    _collect_episode(tiny_env, seed, "scratch", caps, vocab, lambda s, e: TO_EPISODIC, got)
    assert len(got) == L
    assert all(t.action == TO_EPISODIC for t in got)
    for t, t_next in zip(got, got[1:]):
        assert t.next_state == t_next.state
    assert [t.done for t in got] == [False] * (L - 1) + [True]
    for t in got:
        for enc, snap in ((t.enc_state, t.state), (t.enc_next, t.next_state)):
            assert all(np.array_equal(a, b) for a, b in zip(enc, encode_state(vocab, snap)))
    # the same episode played by the evaluation path: equal rewards, and the
    # terminal next_state is the last step's post-action memory
    total, trace = run_episode(EpisodicOnly(), tiny_env, caps, seed=seed, trace=True,
                               snapshot_steps=(L - 1,))
    assert sum(t.reward for t in got) == total
    assert [t.reward for t in got] == [r.reward for r in trace.records]
    term = got[-1].next_state
    assert trace.records[-1].memories == {
        kind: tuple(memory_lines(kind, entries))
        for kind, entries in zip((SHORT_TERM, EPISODIC, SEMANTIC), term)}


def test_train_rejects_unknown_variant(tiny_env):
    with pytest.raises(ConfigError):
        train(tiny_env, "finetuned", (2, 2), micro_train_config(), seed=0)


def test_train_is_deterministic_apart_from_wall_time(tiny_env):
    tc = micro_train_config()
    r1 = train(tiny_env, "scratch", (2, 2), tc, seed=3)
    r2 = train(tiny_env, "scratch", (2, 2), tc, seed=3)
    strip = lambda e: (e.epoch, e.train_loss_mean, e.val_reward_mean,
                       e.val_reward_std, e.epsilon_end)
    assert [strip(e) for e in r1.epochs] == [strip(e) for e in r2.epochs]
    assert r1.best_epoch == r2.best_epoch
    for p, q in zip(r1.net.parameters(), r2.net.parameters()):
        assert np.array_equal(p.values, q.values)


def test_train_seed_changes_outcome(tiny_env):
    tc = micro_train_config()
    r1 = train(tiny_env, "scratch", (2, 2), tc, seed=3)
    r2 = train(tiny_env, "scratch", (2, 2), tc, seed=4)
    assert any(
        not np.array_equal(p.values, q.values)
        for p, q in zip(r1.net.parameters(), r2.net.parameters())
    )


def test_train_pretrained_variant_runs(tiny_env):
    tc = micro_train_config(epochs=1)
    result = train(tiny_env, "pretrained", (2, 3), tc, seed=1)
    assert len(result.epochs) == 1

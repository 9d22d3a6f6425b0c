import dataclasses
import json

import numpy as np
import pytest

from roommem.env import ConfigError, EnvConfig
from roommem.memory import EPISODIC, SEMANTIC, SHORT_TERM, TO_EPISODIC, TO_SEMANTIC
from roommem.policies import (
    EpisodicOnly,
    GreedyQ,
    RandomPolicy,
    SemanticOnly,
    episode_totals,
    evaluate,
    play,
    run_episode,
)
from roommem.qnet import QNetwork
from roommem.seeding import derive_rng, derive_seed
from roommem.trainer import build_vocabulary


def test_fixed_policies_pick_their_action(tiny_env):
    assert EpisodicOnly().act(None)[0] == TO_EPISODIC
    assert SemanticOnly().act(None)[0] == TO_SEMANTIC
    acts = {RandomPolicy(derive_rng(0, 9)).act(None)[0] for _ in range(50)}
    assert acts <= {0, 1, 2}


def test_run_episode_reward_bounds(tiny_env):
    total, trace = run_episode(SemanticOnly(), tiny_env, (8, 8))
    assert trace is None
    assert 0 <= total <= tiny_env.episode_length


def test_zero_length_episode():
    # the environment rejects the config, so there is no episode to play
    cfg = EnvConfig(episode_length=0)
    with pytest.raises(ConfigError):
        run_episode(EpisodicOnly(), cfg, (4, 4))
    with pytest.raises(ConfigError):
        run_episode(EpisodicOnly(), cfg, (4, 4), trace=True)


def test_unknown_variant_rejected(tiny_env):
    with pytest.raises(ValueError):
        run_episode(EpisodicOnly(), tiny_env, (4, 4), variant="finetuned")


def test_seed_argument_overrides_config(tiny_env):
    by_arg, _ = run_episode(RandomPolicy(derive_rng(1, 2)), tiny_env, (4, 4), seed=99)
    by_cfg, _ = run_episode(RandomPolicy(derive_rng(1, 2)),
                            dataclasses.replace(tiny_env, seed=99), (4, 4))
    assert by_arg == by_cfg


def test_perfect_answer_scores_every_step(tiny_env):
    # episodic capacity covers every step, so every answer is the latest sighting
    total, trace = run_episode(EpisodicOnly(), tiny_env, (tiny_env.episode_length, 0),
                               trace=True)
    assert total == tiny_env.episode_length
    assert all(r.reward == 1 for r in trace.records)


def test_episodic_only_with_ample_capacity_is_perfect(tiny_env):
    # capacity covers every step, so the latest sighting is always present
    total, _ = run_episode(EpisodicOnly(), tiny_env, (tiny_env.episode_length, 0))
    assert total == tiny_env.episode_length


def test_trace_structure(tiny_env):
    total, trace = run_episode(SemanticOnly(), tiny_env, (4, 4), trace=True,
                               snapshot_steps=(0, 3))
    assert len(trace.records) == tiny_env.episode_length
    assert [r.step for r in trace.records] == list(range(tiny_env.episode_length))
    assert sum(r.reward for r in trace.records) == total
    with_mem = {r.step for r in trace.records if r.memories is not None}
    assert with_mem == {0, 3}
    keys = trace.records[0].memories.keys()
    assert set(keys) == {SHORT_TERM, EPISODIC, SEMANTIC}
    # fixed policies carry no q-values
    assert all(r.q_values is None for r in trace.records)


def test_trace_jsonl_round_trip(tiny_env):
    _, trace = run_episode(SemanticOnly(), tiny_env, (4, 4), trace=True)
    text = trace.to_jsonl()
    lines = text.splitlines()
    assert len(lines) == tiny_env.episode_length
    assert text.endswith("\n")
    for line in lines:
        payload = json.loads(line)
        assert payload["action"] in (0, 1, 2)
        assert payload["reward"] in (0, 1)
    # keys are sorted, so identical records serialize identically
    assert lines[0] == trace.records[0].to_json()


def test_greedy_q_traces_three_q_values(tiny_env):
    vocab, _ = build_vocabulary(tiny_env)
    net = QNetwork.create(vocab, seed=5, d_emb=4, hidden=6)
    total, trace = run_episode(GreedyQ(net), tiny_env, (4, 4), trace=True)
    assert 0 <= total <= tiny_env.episode_length
    for r in trace.records:
        assert len(r.q_values) == 3
        assert r.action == int(np.argmax(r.q_values))


def test_evaluate_mean_and_population_std(tiny_env):
    mean, std = evaluate(EpisodicOnly(), tiny_env, 4, seed=11,
                         capacities=(tiny_env.episode_length, 0))
    assert mean == tiny_env.episode_length
    assert std == 0.0
    # a single iteration always has zero spread
    _, std1 = evaluate(SemanticOnly(), tiny_env, 1, seed=11, capacities=(4, 4))
    assert std1 == 0.0


def test_evaluate_is_deterministic(tiny_env):
    a = evaluate(SemanticOnly(), tiny_env, 3, seed=7, capacities=(4, 4))
    b = evaluate(SemanticOnly(), tiny_env, 3, seed=7, capacities=(4, 4))
    assert a == b


def test_evaluate_varies_across_iterations(tiny_env):
    # per-iteration derived seeds give different episodes; over 6 draws the
    # random policy essentially never scores identically on all of them
    _, std = evaluate(RandomPolicy(derive_rng(3, 1)), tiny_env, 6,
                      seed=13, capacities=(2, 2))
    assert std > 0.0


def test_evaluate_rejects_zero_iterations(tiny_env):
    with pytest.raises(ValueError):
        evaluate(SemanticOnly(), tiny_env, 0, seed=1, capacities=(4, 4))


def test_random_policy_reproducible(tiny_env):
    r1, _ = run_episode(RandomPolicy(derive_rng(8, 4)), tiny_env, (4, 4))
    r2, _ = run_episode(RandomPolicy(derive_rng(8, 4)), tiny_env, (4, 4))
    assert r1 == r2


def test_agents_see_one_stream(tiny_env):
    """The room ignores what the agent does: two policies that act and
    answer differently on one seed meet the same observations and questions."""
    streams = []
    for policy in (EpisodicOnly(), RandomPolicy(derive_rng(1, 9))):
        _, trace = run_episode(policy, tiny_env, (2, 2), seed=4, trace=True)
        streams.append([(r.observation, r.question) for r in trace.records])
        actions = {r.action for r in trace.records}
    assert streams[0] == streams[1]
    assert actions != {TO_EPISODIC}  # the random policy did act differently


def test_pretrained_variant_prefills_semantic(tiny_env):
    # episodic capacity 0 drops every store action, so anything in the
    # semantic snapshot (and any answer at all) must come from the prefill
    _, pre = run_episode(EpisodicOnly(), tiny_env, (0, 64),
                         variant="pretrained", trace=True, snapshot_steps=(0,))
    _, scratch = run_episode(EpisodicOnly(), tiny_env, (0, 64),
                             trace=True, snapshot_steps=(0,))
    assert scratch.records[0].memories[SEMANTIC] == ()
    assert len(pre.records[0].memories[SEMANTIC]) > 0
    assert any(r.answer is not None for r in pre.records)
    assert all(r.answer is None for r in scratch.records)


# -- lockstep evaluation ------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["scratch", "pretrained"])
def test_lockstep_greedy_matches_one_episode_at_a_time(tiny_env, dtype, variant):
    vocab, _ = build_vocabulary(tiny_env)
    policy = GreedyQ(QNetwork.create(vocab, seed=5, d_emb=4, hidden=6, dtype=dtype))
    seeds = [derive_seed(21, i) for i in range(5)]
    totals = episode_totals(policy, tiny_env, 5, 21, (4, 4), variant)
    assert totals == tuple(run_episode(policy, tiny_env, (4, 4), variant, s)[0] for s in seeds)
    assert episode_totals(policy, tiny_env, 0, 21, (4, 4), variant) == ()

    def outcome(step):
        return step.action, step.reward, step.answer

    lockstep = list(play(policy, tiny_env, (4, 4), variant, seeds))
    assert len(lockstep) == tiny_env.episode_length
    for i, s in enumerate(seeds):
        alone = [step for (step,) in play(policy, tiny_env, (4, 4), variant, (s,))]
        assert [outcome(steps[i]) for steps in lockstep] == [outcome(a) for a in alone]
        # a batched matmul may sum in another order than a B=1 one
        np.testing.assert_allclose([steps[i].q_values for steps in lockstep],
                                   [a.q_values for a in alone],
                                   rtol=0, atol=16 * np.finfo(dtype).eps)


def test_random_policy_keeps_its_sequential_draw_order(tiny_env):
    # one generator across the episodes, drawn episode after episode; these
    # totals were recorded before lockstep evaluation existed
    totals = episode_totals(RandomPolicy(derive_rng(5, 6)), tiny_env, 6, 13, (2, 2))
    assert totals == (10, 8, 14, 13, 10, 8)
    # drawing step by step across the episodes would give other totals
    interleaved = [0] * 6
    for steps in play(RandomPolicy(derive_rng(5, 6)), tiny_env, (2, 2),
                      seeds=[derive_seed(13, i) for i in range(6)]):
        interleaved = [t + s.reward for t, s in zip(interleaved, steps)]
    assert tuple(interleaved) != totals


def test_greedy_evaluation_runs_one_forward_per_time_step(tiny_env, monkeypatch):
    # N episodes of L steps: L batched forwards, and N * L decisions, each
    # through GreedyQ.act with the state as its first argument
    vocab, _ = build_vocabulary(tiny_env)
    policy = GreedyQ(QNetwork.create(vocab, seed=5, d_emb=4, hidden=6))
    calls = {"forward_batch": [], "act": []}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            result = inner(self, *args, **kwargs)
            calls[name].append((args, result))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    counted(QNetwork, "forward_batch")
    counted(GreedyQ, "act")
    n = 7
    evaluate(policy, tiny_env, n, seed=4, capacities=(4, 4))
    L = tiny_env.episode_length
    assert len(calls["forward_batch"]) == L
    assert all(len(args[0]) == n for args, _ in calls["forward_batch"])
    assert len(calls["act"]) == n * L
    assert all(len(args[0]) == 3 and result[0] in (0, 1, 2) for args, result in calls["act"])

import dataclasses
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roommem.kb import generate_synthetic_kb
from roommem.memory import (
    EPISODIC,
    N_ACTIONS,
    RELATION,
    SEMANTIC,
    SHORT_TERM,
    MalformedHeadError,
    Quadruple,
    format_head,
)
from roommem.nn import Adam, GradientError, LstmLayer, ParamTensor, Workspace, init_uniform
import roommem.qnet as qnet
from roommem.qnet import (
    BRANCHES,
    CheckpointError,
    QNetwork,
    VocabError,
    Vocabulary,
    encode_state,
    encode_system,
    greedy_action,
)
from roommem.qnet import _embed, _entry_tokens, _pack_codes
from roommem.trainer import Transition, td_loss

from .oracles import fd_gradient, max_relative_error

HUMANS = ("Ann", "Bob", "Cam")
OBJECTS = ("bowl", "mug")
LOCATIONS = ("desk", "lap", "bed")


@pytest.fixture
def vocab():
    return Vocabulary(HUMANS, OBJECTS, LOCATIONS)


@pytest.fixture
def net(vocab):
    return QNetwork.create(vocab, seed=11, d_emb=4, hidden=6, n_layers=2,
                           dtype=np.float64)


def state_of(short=(), episodic=(), semantic=()):
    return (tuple(short), tuple(episodic), tuple(semantic))


def epi(human, obj, loc, t):
    return Quadruple(f"{human}'s {obj}", RELATION, loc, t)


def sem(obj, loc, s):
    return Quadruple(obj, RELATION, loc, s)


def test_vocabulary_token_layout(vocab):
    assert vocab.n_tokens == 1 + 3 + 2 + 3
    # token 0 is reserved; names are numbered in group order
    assert vocab.token("Ann") == 1
    assert vocab.token("bowl") == 4
    assert vocab.token("desk") == 6
    with pytest.raises(VocabError):
        vocab.token("AtLocation")
    with pytest.raises(VocabError):
        vocab.token("nobody")


def test_vocabulary_rejects_name_collisions():
    with pytest.raises(VocabError):
        Vocabulary(("Ann",), ("Ann",), ("desk",))


def test_vocabulary_build_matches_world():
    kb = generate_synthetic_kb(3, 4, 6)
    v = Vocabulary.build(("Ann", "Bob"), kb)
    assert v.n_tokens == 1 + 2 + 4 + 6


def test_encode_sorts_ascending_by_value(vocab):
    entries = [epi("Ann", "bowl", "desk", 9), epi("Bob", "mug", "lap", 2),
               epi("Cam", "bowl", "bed", 5)]
    rows = encode_system(vocab, EPISODIC, entries)
    assert rows.shape == (3, 3)
    assert rows.dtype == np.int32
    assert [tuple(r) for r in rows] == [
        (vocab.token("Bob"), vocab.token("mug"), vocab.token("lap")),
        (vocab.token("Cam"), vocab.token("bowl"), vocab.token("bed")),
        (vocab.token("Ann"), vocab.token("bowl"), vocab.token("desk")),
    ]


def test_encode_sort_is_stable_on_equal_values(vocab):
    entries = [epi("Ann", "bowl", "desk", 5), epi("Bob", "mug", "lap", 5)]
    rows = encode_system(vocab, EPISODIC, entries)
    assert rows[0][0] == vocab.token("Ann")
    assert rows[1][0] == vocab.token("Bob")


def test_encode_semantic_has_no_owner_token(vocab):
    rows = encode_system(vocab, SEMANTIC, [sem("mug", "bed", 3)])
    assert [tuple(r) for r in rows] == [
        (vocab.token("mug"), -1, vocab.token("bed"))]


def test_encode_empty_system(vocab):
    rows = encode_system(vocab, EPISODIC, [])
    assert rows.shape == (0, 3)


# names over a tiny alphabet, many of them with the "'s " owner separator
# inside, so that two (human, object) pairs can spell one head
_names = st.one_of(st.sampled_from(("a", "b", "c", "a's", "a's b", "b's c", "'s c", "c's ")),
                   st.text("ab' s", min_size=1, max_size=4))


@st.composite
def _vocab_and_entries(draw):
    names = draw(st.lists(_names, min_size=3, max_size=9, unique=True))
    cut1 = draw(st.integers(1, len(names) - 2))
    cut2 = draw(st.integers(cut1 + 1, len(names) - 1))
    humans, objects, locations = names[:cut1], names[cut1:cut2], names[cut2:]
    name = st.one_of(st.sampled_from(names), _names)
    owned = st.builds(format_head, st.sampled_from(humans), st.sampled_from(objects))
    head = st.one_of(owned, owned, st.sampled_from(objects), st.builds(format_head, name, name),
                     name)
    tail = st.one_of(st.sampled_from(locations), st.sampled_from(locations), name)
    entry = st.builds(Quadruple, head, st.just(RELATION), tail, st.integers(0, 3))
    kind = draw(st.sampled_from((SHORT_TERM, EPISODIC, SEMANTIC)))
    vocab = Vocabulary(tuple(humans), tuple(objects), tuple(locations))
    return vocab, kind, draw(st.lists(entry, max_size=6))


@settings(max_examples=400)
@given(_vocab_and_entries())
def test_encode_system_matches_the_per_entry_path(case):
    # the token tables give the rows, the dtype and the order that
    # _entry_tokens gives, and the same error where it raises
    vocab, kind, entries = case
    order = sorted(range(len(entries)), key=lambda i: entries[i].value)
    try:
        want = np.array([_entry_tokens(vocab, kind, entries[i]) for i in order],
                        dtype=np.int32).reshape(len(entries), 3)
    except (VocabError, MalformedHeadError) as exc:
        with pytest.raises(type(exc)) as got:
            encode_system(vocab, kind, entries)
        assert str(got.value) == str(exc)
        return
    rows = encode_system(vocab, kind, entries)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, want)


def embed_rows(vocab, net, kind, entries):
    """One system's entries through the batched gather, as the (n, 2*d)
    packed head | tail rows of a batch of one sample."""
    emb = net.embedding.values
    table = np.vstack([emb, np.zeros((1, emb.shape[1]))])
    codes, pack = _pack_codes([encode_system(vocab, kind, entries)], emb.shape[0], Workspace())
    spare = np.full(pack.rows * 3 * emb.shape[1], np.nan)   # a dead buffer holds garbage
    return _embed(table, codes, np.empty((pack.rows, 2 * emb.shape[1])), spare)


def test_kge_rows_zero_relation_slot(vocab, net):
    """The rows are the (head, relation, tail) triples without their zero
    relation slot, and layer 0's w_x, which has head and tail columns only,
    projects them as a weight with zero relation columns projects the full
    triples."""
    d, h = 4, 6
    entries = [epi("Ann", "bowl", "desk", 1), epi("Bob", "mug", "lap", 3)]
    X = embed_rows(vocab, net, EPISODIC, entries)
    assert X.shape == (2, 2 * d)
    triples = np.hstack([X[:, :d], np.zeros((2, d)), X[:, d:]])
    emb = net.embedding.values
    want_head = emb[vocab.token("Ann")] + emb[vocab.token("bowl")]
    assert np.allclose(triples[0, :d], want_head)
    assert np.all(triples[:, d:2 * d] == 0.0)
    assert np.allclose(triples[0, 2 * d:], emb[vocab.token("desk")])
    w_x = net.branches[EPISODIC].lstm[0].w_x.values
    assert w_x.shape == (4 * h, 2 * d)
    full = np.hstack([w_x[:, :d], np.zeros((4 * h, d)), w_x[:, d:]])
    assert np.allclose(X @ w_x.T, triples @ full.T, rtol=0, atol=1e-15)


def test_kge_semantic_head_is_bare_object(vocab, net):
    d = 4
    X = embed_rows(vocab, net, SEMANTIC, [sem("mug", "bed", 2)])
    emb = net.embedding.values
    assert np.allclose(X[0, :d], emb[vocab.token("mug")])
    assert np.allclose(X[0, d:], emb[vocab.token("bed")])


def test_encode_state_covers_three_systems(vocab):
    st = state_of(
        short=[epi("Ann", "bowl", "desk", 7)],
        episodic=[epi("Bob", "mug", "lap", 1)],
        semantic=[sem("bowl", "bed", 4)],
    )
    enc = encode_state(vocab, st)
    assert len(enc) == 3
    assert [e.shape[0] for e in enc] == [1, 1, 1]
    assert enc[2][0][1] == -1


def test_forward_shape_and_determinism(vocab, net):
    st = state_of(short=[epi("Ann", "bowl", "desk", 0)])
    q1 = net.forward(st)
    q2 = net.forward(st)
    assert q1.shape == (3,)
    assert np.array_equal(q1, q2)


def test_forward_empty_state(vocab, net):
    q = net.forward(state_of())
    assert q.shape == (3,)
    assert np.all(np.isfinite(q))


def test_forward_depends_on_every_branch(vocab, net):
    base = state_of()
    with_short = state_of(short=[epi("Ann", "bowl", "desk", 0)])
    with_epi = state_of(episodic=[epi("Ann", "bowl", "desk", 0)])
    with_sem = state_of(semantic=[sem("bowl", "desk", 1)])
    q0 = net.forward(base)
    for st in (with_short, with_epi, with_sem):
        assert not np.allclose(net.forward(st), q0)


def test_forward_batch_matches_single(vocab, net):
    states = [
        state_of(),
        state_of(short=[epi("Ann", "bowl", "desk", 0)]),
        state_of(episodic=[epi("Bob", "mug", "lap", 1), epi("Ann", "bowl", "bed", 4)],
                 semantic=[sem("mug", "desk", 2)]),
    ]
    enc = [encode_state(vocab, s) for s in states]
    Q, _ = net.forward_batch(enc)
    assert Q.shape == (3, 3)
    for i, s in enumerate(states):
        assert np.allclose(Q[i], net.forward(s), atol=1e-12)


def test_forward_batch_with_a_branch_empty_in_every_sample(vocab, net):
    """No sample has a semantic entry: that branch runs no LSTM step, feeds
    its constant features to the head and gets no recurrent gradient."""
    states = [
        state_of(short=[epi("Ann", "bowl", "desk", 0)]),
        state_of(episodic=[epi("Bob", "mug", "lap", 1), epi("Ann", "bowl", "bed", 4)]),
        state_of(),
    ]
    enc = [encode_state(vocab, s) for s in states]
    single = [net.forward(s) for s in states]   # before the cached forward: a forward ends a cache
    Q, cache = net.forward_batch(enc, need_cache=True)
    for i in range(len(states)):
        assert np.allclose(Q[i], single[i], atol=1e-12)
    for p in net.parameters():
        p.grad[...] = 0.0
    net.backward_batch(cache, np.ones_like(Q))
    for layer in net.branches[SEMANTIC].lstm:
        assert all(np.all(p.grad == 0.0) for p in layer.parameters())
    assert np.any(net.branches[SEMANTIC].b.grad != 0.0)
    assert np.any(net.branches[EPISODIC].lstm[0].w_x.grad != 0.0)


def test_forward_batch_memo_runs_each_distinct_sequence_once(vocab, net, lstm_batch_sizes):
    a, b = epi("Ann", "bowl", "desk", 0), epi("Bob", "mug", "lap", 1)
    states = [state_of(short=[a], episodic=[b]), state_of(short=[b], episodic=[b]),
              state_of(short=[a], episodic=[a, b]), state_of(short=[a], episodic=[b])]
    enc = [encode_state(vocab, s) for s in states]
    plain, _ = net.forward_batch(enc)
    sizes = lstm_batch_sizes
    sizes.clear()
    memo = {}
    q, cache = net.forward_batch(enc, memo=memo)
    assert cache is None
    np.testing.assert_allclose(q, plain, rtol=0, atol=16 * np.finfo(np.float64).eps)
    # short-term: a, b; episodic: (b), (a, b); semantic: () once
    assert sorted(sizes) == [1, 2, 2]
    assert [len(memo[kind]) for kind in (SHORT_TERM, EPISODIC, SEMANTIC)] == [2, 2, 1]
    again, _ = net.forward_batch(enc[::-1], memo=memo)
    assert len(sizes) == 3   # every sequence was known
    np.testing.assert_array_equal(again, q[::-1])


def test_forward_batch_memo_at_batch_one_is_bit_identical(vocab, net):
    states = [state_of(short=[epi("Ann", "bowl", "desk", 3)],
                       episodic=[epi("Bob", "mug", "lap", 1)]),
              state_of(short=[epi("Cam", "mug", "bed", 4)],
                       episodic=[epi("Bob", "mug", "lap", 1)],
                       semantic=[sem("bowl", "desk", 2)])]
    memo = {}
    for s in states + states:
        assert np.array_equal(net.forward_states([s], memo=memo)[0], net.forward(s))


def test_a_cache_lives_until_the_next_forward_on_its_family(vocab, net):
    """A network and its clones share their buffers, so any later forward
    on either, cached or not, makes a cache stale, and so does the one
    backward that consumes it; a clone's cache is not the network's.  A
    forked child's forwards write to the child's copy of the buffers."""
    small = [state_of(short=[epi("Ann", "bowl", "desk", 0)],
                      episodic=[epi("Bob", "mug", "lap", 1)]),
             state_of(semantic=[sem("mug", "lap", 1)])]
    large = [state_of(short=[epi("Cam", "mug", "bed", 2)],
                      episodic=[epi("Ann", "bowl", "bed", t) for t in range(5)],
                      semantic=[sem("bowl", "desk", s) for s in range(4)])] * 4
    enc_small = [encode_state(vocab, s) for s in small]
    enc_large = [encode_state(vocab, s) for s in large]
    dq = np.random.default_rng(3).normal(size=(2, 3))
    other = net.clone()

    def grads(between):
        for p in net.parameters():
            p.grad[...] = 0.0
        _, cache = net.forward_batch(enc_small, need_cache=True)
        between()
        net.backward_batch(cache, dq)
        return [p.grad.copy() for p in net.parameters()]

    alone = grads(lambda: None)
    for later in (lambda: net.forward_batch(enc_large), lambda: net.forward(large[0]),
                  lambda: other.forward_batch(enc_large),
                  lambda: other.forward_batch(enc_small, need_cache=True),
                  lambda: net.forward_batch(enc_large, need_cache=True)):
        _, cache = net.forward_batch(enc_small, need_cache=True)
        later()
        with pytest.raises(ValueError):
            net.backward_batch(cache, dq)

    _, cache = net.forward_batch(enc_small, need_cache=True)
    net.backward_batch(cache, dq)
    with pytest.raises(ValueError):
        net.backward_batch(cache, dq)
    _, theirs = other.forward_batch(enc_small, need_cache=True)
    with pytest.raises(ValueError):
        net.backward_batch(theirs, dq)

    def forked_child_runs_forwards():
        pid = os.fork()
        if pid == 0:   # the child overwrites its copy of every buffer, then leaves
            net.forward_batch(enc_large, need_cache=True)
            net.forward_batch(enc_large)
            os._exit(0)
        os.waitpid(pid, 0)

    for p, a, b in zip(net.parameters(), alone, grads(forked_child_runs_forwards)):
        assert np.array_equal(a, b), p.name


def test_forward_batch_rejects_a_memo_with_a_cache(vocab, net):
    """Memoized branch vectors have no cache to backprop through."""
    enc = [encode_state(vocab, state_of(short=[epi("Ann", "bowl", "desk", 0)]))]
    with pytest.raises(ValueError):
        net.forward_batch(enc, need_cache=True, memo={})


def _desk_like_batch(vocab, rng, batch=128, longest=16):
    """Transitions with ready encodings: one short-term entry and up to
    ``longest`` episodic and semantic entries per state."""
    n_humans, n_objects = len(vocab.humans), len(vocab.objects)

    def codes(n, semantic):
        owner = rng.integers(1, 1 + n_humans, size=n)
        obj = rng.integers(1 + n_humans, 1 + n_humans + n_objects, size=n)
        loc = rng.integers(1 + n_humans + n_objects, vocab.n_tokens, size=n)
        rows = np.stack([obj, np.full(n, -1), loc] if semantic else [owner, obj, loc], axis=1)
        return rows.astype(np.int32)

    def enc():
        return (codes(1, False), codes(int(rng.integers(0, longest + 1)), False),
                codes(int(rng.integers(0, longest + 1)), True))

    return [Transition((), int(rng.integers(3)), int(rng.integers(2)), (), bool(i % 7 == 0),
                       enc(), enc())
            for i in range(batch)]


def test_warm_td_step_allocates_a_fraction_of_the_first():
    """Every batch-sized array of a TD step lives in a network's reusable
    buffers, so once the first step has made them a step of the same
    shape allocates little: at a desk-like shape (B=128, fp32, sequences
    up to 16) a warm td_loss + Adam.step peaks at under a quarter of the
    first step's transient allocation."""
    rng = np.random.default_rng(5)
    kb = generate_synthetic_kb(7, 16, 28)
    vocab = Vocabulary.build([f"h{i}" for i in range(64)], kb)
    online = QNetwork.create(vocab, seed=1, d_emb=32, hidden=64, n_layers=2,
                             dtype=np.float32)
    target = online.clone()
    optimizer = Adam(online.parameters())
    batch = _desk_like_batch(vocab, rng)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            td_loss(batch, online, target, 0.65)
            optimizer.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks[1:]) <= 0.25 * peaks[0], peaks


def _desk_like_net(dtype=np.float32, seed=1):
    kb = generate_synthetic_kb(7, 16, 28)
    vocab = Vocabulary.build([f"h{i}" for i in range(64)], kb)
    return QNetwork.create(vocab, seed=seed, d_emb=32, hidden=64, n_layers=2, dtype=dtype)


def _family_bytes(net):
    buffers = net._buffers
    return sum(a.nbytes for work in (*buffers.work.values(), buffers.scratch)
               for a in work._flat.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_td_loss_with_a_cloned_target_is_bit_identical(dtype):
    """A target that shares the online network's buffers gives the loss
    and gradients of a target with buffers of its own, step after step."""
    runs = []
    for shared in (True, False):
        online = _desk_like_net(dtype)
        if shared:
            target = online.clone()
        else:
            target = _desk_like_net(dtype, seed=2)
            target.copy_values_from(online)
        optimizer = Adam(online.parameters())
        rng = np.random.default_rng(8)
        out = []
        for batch in (32, 48):
            out.append(td_loss(_desk_like_batch(online.vocab, rng, batch), online, target, 0.65))
            out.extend(p.grad.copy() for p in online.parameters())
            optimizer.step()
        runs.append(out)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_a_td_step_holds_the_online_rows_and_per_step_gate_gradients():
    """After a warm td_loss, a network family whose target is a clone holds
    the buffers of a lone network's cached forward and backward on the
    same states: the target forward runs in the online rows.  And no
    buffer outside the branches is as large as the top layer's gate rows:
    the backward writes each step's gate gradients over the gates it has
    read, and recomputes the lower layer's gates over the top layer's."""
    online = _desk_like_net()
    target = online.clone()
    batch = [dataclasses.replace(t, enc_next=t.enc_state)
             for t in _desk_like_batch(online.vocab, np.random.default_rng(5))]
    for _ in range(2):
        td_loss(batch, online, target, 0.65)

    lone = _desk_like_net()
    _, cache = lone.forward_batch([t.enc_state for t in batch], need_cache=True)
    lone.backward_batch(cache, np.ones((len(batch), 3), np.float32))
    assert _family_bytes(online) == _family_bytes(lone)

    buffers = online._buffers
    gates = max(buffers.work[kind]._flat[("gates", 1)].nbytes for kind in BRANCHES)
    assert max(a.nbytes for a in buffers.scratch._flat.values()) < gates


def test_a_td_step_keeps_only_its_lstm_cache():
    """After a td_loss at a small fp64 shape (B=64, up to 8 entries per
    long-term system), every branch workspace array of more than B*4h
    elements is the top layer's gate rows, the lower layer's (N, h)
    hidden rows or the branch's packed codes, and the scratch holds the
    one rows array that every branch embeds into and at most two arrays
    of (N, h) rows: no padded embeddings, no packed copy of them, no gate
    rows of the lower layer, no cell rows kept beside the gates, and no
    backward array of one row per step."""
    online = _desk_like_net(np.float64)
    target = online.clone()
    B = 64
    batch = _desk_like_batch(online.vocab, np.random.default_rng(6), B, longest=8)
    td_loss(batch, online, target, 0.65)
    buffers = online._buffers
    h = online.hidden
    N = max(sum(enc[bi].shape[0] for enc in encs)
            for encs in ([t.enc_state for t in batch], [t.enc_next for t in batch])
            for bi in range(len(BRANCHES)))
    kept = set()
    for kind in BRANCHES:
        work = buffers.work[kind]._flat
        big = {key for key, a in work.items() if a.size > B * 4 * h}
        assert big - {"codes"} <= {("gates", 1), ("hid", 0)}, (kind, big)
        assert work[("hid", 0)].size <= N * h
        kept |= big - {"codes"}
    assert kept == {("gates", 1), ("hid", 0)}
    big = {key: a.size for key, a in buffers.scratch._flat.items() if a.size > B * 4 * h}
    assert "rows" in big
    rows = {key: size for key, size in big.items() if key != "rows"}
    assert len(rows) <= 2 and all(size <= N * h for size in rows.values()), rows


def test_warm_cached_pass_makes_no_row_sized_temporary():
    """A warm cached forward + backward at B=256, fp64, allocates less than
    one (packed rows x d_emb) array beyond the family's buffers: no hidden
    copy of a ``take`` into a strided ``out`` and no temporary of one row
    per packed row and embedding column."""
    net = _desk_like_net(np.float64)
    batch = _desk_like_batch(net.vocab, np.random.default_rng(9), 256)
    enc = [t.enc_state for t in batch]
    dq = np.random.default_rng(3).normal(size=(len(enc), N_ACTIONS))
    N = max(sum(e[bi].shape[0] for e in enc) for bi in range(len(BRANCHES)))
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _, cache = net.forward_batch(enc, need_cache=True)
            net.backward_batch(cache, dq)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks[1:]) < N * net.d_emb * 8, (peaks, N)


def test_layer0_has_no_inert_relation_columns():
    """Layer 0's w_x has head and tail columns only, none for the zero
    relation slot: after one desk-like backward every one of its columns
    has a nonzero gradient."""
    net = _desk_like_net(np.float64)
    batch = _desk_like_batch(net.vocab, np.random.default_rng(4), 64)
    q, cache = net.forward_batch([t.enc_state for t in batch], need_cache=True)
    net.backward_batch(cache, np.random.default_rng(5).normal(size=q.shape))
    for kind in BRANCHES:
        grad = net.branches[kind].lstm[0].w_x.grad
        assert grad.shape == (4 * net.hidden, 2 * net.d_emb), kind
        assert np.all(np.any(grad != 0.0, axis=0)), kind


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_gradient_sums_in_padded_order(vocab, monkeypatch, dtype):
    """backward_batch's embedding gradient is, bit for bit, one float64
    bincount per branch over a padded batch's (t, b, slot) codes and its
    input gradient at those positions, the relation slot taking the head's
    gradient: the sum order of the padded layout, which training results
    depend on.  Empty samples and semantic rows (owner slot -1) included."""
    _check_embedding_gradient(vocab, monkeypatch, dtype, d_emb=4, hidden=6)


def test_embedding_gradient_of_rows_wider_than_the_gate_rows(vocab, monkeypatch):
    """With 3 * d_emb > 4 * hidden (and 2 * d_emb too), the top layer's
    gate rows cannot hold the embedding's gather in the forward, nor the
    input gradient's columns once spent, which then get arrays of their
    own."""
    net, packs = _check_embedding_gradient(vocab, monkeypatch, np.float64, d_emb=9, hidden=2)
    for kind, pack in zip(BRANCHES, packs):   # no gather grew the gate rows
        assert net._buffers.work[kind]._flat[("gates", 1)].size == pack.rows * 4 * 2


def _check_embedding_gradient(vocab, monkeypatch, dtype, d_emb, hidden):
    net = QNetwork.create(vocab, seed=11, d_emb=d_emb, hidden=hidden, n_layers=2, dtype=dtype)
    rng = np.random.default_rng(21)

    def pick(names):
        return names[int(rng.integers(len(names)))]

    def entries(make, n):
        return [make(t) for t in range(n)]

    states = [state_of(
        short=entries(lambda t: epi(pick(HUMANS), pick(OBJECTS), pick(LOCATIONS), t),
                      int(rng.integers(0, 3))),
        episodic=entries(lambda t: epi(pick(HUMANS), pick(OBJECTS), pick(LOCATIONS), t),
                         int(rng.integers(0, 6))),
        semantic=entries(lambda t: sem(pick(OBJECTS), pick(LOCATIONS), t),
                         int(rng.integers(0, 6))))
        for _ in range(24)]
    enc = [encode_state(vocab, s) for s in states]
    seen = []
    inner = qnet.lstm_batch_backward

    def recorded(caches, layers, pack, dh_last, work=None):
        dX = inner(caches, layers, pack, dh_last, work=work)
        seen.append((pack, dX.copy()))
        return dX
    monkeypatch.setattr(qnet, "lstm_batch_backward", recorded)
    Q, cache = net.forward_batch(enc, need_cache=True)
    net.backward_batch(cache, rng.normal(size=Q.shape))

    V, d = net.embedding.values.shape
    want = np.zeros((V, d), dtype)
    assert len(seen) == len(BRANCHES)
    for bi, (pack, dX) in enumerate(seen):
        T, B = pack.steps, pack.batch
        lengths = [e[bi].shape[0] for e in enc]
        assert 0 in lengths
        codes = np.full((T, B, 3), V)
        dX_pad = np.zeros((T * B, 2 * d))
        dX_pad[pack.pos] = dX
        dX_pad = dX_pad.reshape(T, B, 2, d)[:, :, [0, 0, 1]]   # head, head, tail
        for b, e in enumerate(enc):
            codes[:e[bi].shape[0], b] = np.where(e[bi] < 0, V, e[bi])
        index = codes[..., None] * d + np.arange(d)
        grad = np.bincount(index.ravel(), weights=dX_pad.ravel(), minlength=(V + 1) * d)
        want += grad.reshape(V + 1, d)[:V]
    assert any(np.any(e[2][:, 1] == -1) for e in enc)
    assert np.array_equal(net.embedding.grad, want)
    return net, [pack for pack, _ in seen]


def test_full_network_gradient_fd(vocab, net):
    """Backprop through embeddings, both LSTM layers, branch projections and
    the shared head agrees with central finite differences."""
    states = [
        state_of(short=[epi("Ann", "bowl", "desk", 0)],
                 episodic=[epi("Bob", "mug", "lap", 1), epi("Cam", "bowl", "bed", 3)],
                 semantic=[sem("bowl", "desk", 2)]),
        state_of(),
        state_of(semantic=[sem("mug", "lap", 1), sem("bowl", "bed", 5)]),
    ]
    enc = [encode_state(vocab, s) for s in states]
    rng = np.random.default_rng(0)
    dq = rng.normal(size=(3, 3))

    Q, cache = net.forward_batch(enc, need_cache=True)
    for p in net.parameters():
        p.grad[...] = 0.0
    net.backward_batch(cache, dq)

    for p in net.parameters():
        def loss_with(values, p=p):
            saved = p.values.copy()
            p.values[...] = values
            out, _ = net.forward_batch(enc)
            p.values[...] = saved
            return float((out * dq).sum())

        fd = fd_gradient(loss_with, p.values.copy())
        err = max_relative_error(p.grad, fd)
        assert err < 1e-4, (p.name, err)


def test_parameter_count_at_paper_dimensions():
    """109-token vocabulary, 32-dim embeddings, three 2-layer LSTM branches
    of width 64: the full network carries 226,659 trainable floats."""
    kb = generate_synthetic_kb(13, 16, 28)
    humans = tuple(f"H{i}" for i in range(64))
    vocab = Vocabulary(humans, kb.objects, kb.locations)
    assert vocab.n_tokens == 109
    net = QNetwork.create(vocab, seed=0, d_emb=32, hidden=64, n_layers=2,
                          dtype=np.float64)
    n = net.n_parameters()
    assert n == 226_659
    # embedding + 3 * (two LSTM layers + projection) + two head layers
    lstm1 = 4 * 64 * (64 + 64) + 4 * 64   # layer 0 reads head | tail, 2 * 32 wide
    lstm2 = 4 * 64 * (64 + 64) + 4 * 64
    branch = lstm1 + lstm2 + 64 * 64 + 64
    assert n == 109 * 32 + 3 * branch + (192 * 64 + 64) + (64 * 3 + 3)


def test_clone_and_copy_values(vocab, net):
    st = state_of(short=[epi("Ann", "bowl", "desk", 0)])
    net.head_b2.grad += 1.0
    other = net.clone()
    assert np.array_equal(other.forward(st), net.forward(st))
    for p, q in zip(other.parameters(), net.parameters()):
        assert p.name == q.name and np.array_equal(p.values, q.values)
        assert not np.shares_memory(p.values, q.values)
        assert not np.shares_memory(p.grad, q.grad) and not p.grad.any()
    assert other._scratch is net._scratch
    # clones do not share storage
    other.embedding.values += 1.0
    assert not np.allclose(other.forward(st), net.forward(st))
    other.copy_values_from(net)
    assert np.allclose(other.forward(st), net.forward(st))


def test_copy_values_from_rejects_a_dtype_mismatch(vocab):
    """Cast to float32, 1e300 would become inf."""
    wide = QNetwork.create(vocab, seed=11, d_emb=4, hidden=6, dtype=np.float64)
    narrow = QNetwork.create(vocab, seed=12, d_emb=4, hidden=6, dtype=np.float32)
    wide.head_b2.values[0] = 1e300
    before = [p.values.copy() for p in narrow.parameters()]
    with pytest.raises(ValueError, match="embedding"):
        narrow.copy_values_from(wide)
    for p, vals in zip(narrow.parameters(), before):
        assert np.array_equal(p.values, vals), p.name


def _drawn_in_order(vocab, seed, d_emb, hidden, n_layers, dtype):
    """The parameters as create draws them: embedding; per branch each
    LSTM layer, then its projection; then the head.  Layer 0 is drawn on
    (head, relation, tail) triples, and its w_x then drops the relation's
    columns."""
    rng = np.random.default_rng(seed)
    out = [init_uniform(rng, (vocab.n_tokens, d_emb), d_emb, dtype, "embedding")]
    for kind in (SHORT_TERM, EPISODIC, SEMANTIC):
        d_in = 3 * d_emb
        for li in range(n_layers):
            layer = LstmLayer.create(rng, d_in, hidden, dtype, f"{kind}.lstm{li}")
            if li == 0:
                relation = np.s_[d_emb:2 * d_emb]
                layer.w_x = ParamTensor.of(np.delete(layer.w_x.values, relation, axis=1),
                                           layer.w_x.name)
            out += layer.parameters()
            d_in = hidden
        out.append(init_uniform(rng, (hidden, hidden), hidden, dtype, f"{kind}.proj.w"))
        out.append(init_uniform(rng, (hidden,), hidden, dtype, f"{kind}.proj.b"))
    out.append(init_uniform(rng, (hidden, 3 * hidden), 3 * hidden, dtype, "head1.w"))
    out.append(init_uniform(rng, (hidden,), 3 * hidden, dtype, "head1.b"))
    out.append(init_uniform(rng, (N_ACTIONS, hidden), hidden, dtype, "head2.w"))
    out.append(init_uniform(rng, (N_ACTIONS,), hidden, dtype, "head2.b"))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_create_draws_the_parameter_list_in_order(vocab, dtype, n_layers):
    net = QNetwork.create(vocab, seed=4, d_emb=5, hidden=7, n_layers=n_layers, dtype=dtype)
    params = net.parameters()
    want = _drawn_in_order(vocab, 4, 5, 7, n_layers, dtype)
    assert [p.name for p in params] == [p.name for p in want]
    for p, q in zip(params, want):
        assert p.values.dtype == dtype and np.array_equal(p.values, q.values), p.name
    # the named attributes are views of the list's entries
    views = [net.embedding]
    for kind in (SHORT_TERM, EPISODIC, SEMANTIC):
        branch = net.branches[kind]
        assert len(branch.lstm) == n_layers
        views += [p for layer in branch.lstm for p in layer.parameters()] + [branch.w, branch.b]
    views += [net.head_w1, net.head_b1, net.head_w2, net.head_b2]
    assert all(v is p for v, p in zip(views, params, strict=True))
    assert (net.d_emb, net.hidden) == (5, 7)


def test_save_load_round_trip(tmp_path, vocab, net):
    st = state_of(
        short=[epi("Ann", "bowl", "desk", 0)],
        semantic=[sem("mug", "lap", 2)],
    )
    path = tmp_path / "net.ckpt"
    net.save(path)
    loaded = QNetwork.load(path)
    assert loaded.vocab == net.vocab
    assert np.array_equal(loaded.forward(st), net.forward(st))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_builds_the_saved_network_without_drawing_one(tmp_path, vocab, monkeypatch, dtype):
    """load reads each parameter from the archive into the network's list;
    it draws no random network to overwrite.  The round trip is bit for
    bit, names, dtypes and the forward included."""
    net = QNetwork.create(vocab, seed=11, d_emb=4, hidden=6, n_layers=2, dtype=dtype)
    path = tmp_path / "net.ckpt"
    net.save(path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load drew a random network")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(qnet, "init_uniform", no_draw)
    loaded = QNetwork.load(path)
    for p, q in zip(loaded.parameters(), net.parameters(), strict=True):
        assert p.name == q.name and p.values.dtype == q.values.dtype, p.name
        assert p.values.tobytes() == q.values.tobytes() and p.values.flags.c_contiguous, p.name
        assert not p.grad.any() and p.values.flags.writeable
    st = state_of(short=[epi("Ann", "bowl", "desk", 0)], episodic=[epi("Bob", "mug", "lap", 1)],
                  semantic=[sem("mug", "lap", 2)])
    assert loaded.forward(st).tobytes() == net.forward(st).tobytes()


def test_save_replaces_existing_checkpoint_atomically(tmp_path, vocab, net):
    st = state_of(episodic=[epi("Bob", "mug", "lap", 1)])
    path = tmp_path / "net.ckpt"
    QNetwork.create(vocab, seed=99, d_emb=4, hidden=6, n_layers=2).save(path)
    net.save(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]
    assert np.array_equal(QNetwork.load(path).forward(st), net.forward(st))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"nonsense")
    with pytest.raises(CheckpointError):
        QNetwork.load(path)


def test_load_rejects_truncated_payload(tmp_path, net):
    path = tmp_path / "net.ckpt"
    net.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        QNetwork.load(path)


def _rewrite_archive(path, edit):
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _set_header(arrays, **changes):
    header = json.loads(str(arrays["header"]))
    header.update(changes)
    arrays["header"] = np.array(json.dumps(header))


@pytest.mark.parametrize("edit", [
    lambda a: _set_header(a, version=1),
    lambda a: _set_header(a, version=2),
    lambda a: _set_header(a, dtype="|O"),
    lambda a: _set_header(a, hidden=0),
    lambda a: _set_header(a, vocab=[["Ann"], [1], []]),
    lambda a: a.update(header=np.array("{not json")),
    lambda a: a.pop("head1.w"),
    lambda a: a.update({"head1.w": a["head1.w"][:, :-1]}),
    lambda a: a.update({"head1.w": np.array([object()] * 3)}),
    lambda a: a.update({"head1.w": a["head1.w"].astype(np.float32)}),
    lambda a: a["head1.w"].__setitem__((0, 0), np.inf),
    lambda a: a["head1.b"].__setitem__(1, np.nan),
    lambda a: a.update({"rogue.w": np.zeros(3)}),
], ids=["version", "parent_version", "dtype", "shape", "vocab", "json", "missing",
        "tensor_shape", "object", "tensor_dtype", "inf", "nan", "extra"])
def test_load_rejects_malformed_header_or_tensor(tmp_path, net, edit):
    path = tmp_path / "net.ckpt"
    net.save(path)
    _rewrite_archive(path, edit)
    with pytest.raises(CheckpointError):
        QNetwork.load(path)


def test_load_rejects_a_float64_tensor_in_a_float32_checkpoint(tmp_path, vocab):
    """Cast to float32, 1e300 would load as inf."""
    path = tmp_path / "net.ckpt"
    QNetwork.create(vocab, seed=11, d_emb=4, hidden=6, n_layers=2, dtype=np.float32).save(path)
    _rewrite_archive(path, lambda a: a.update({"head1.w": np.full(a["head1.w"].shape, 1e300)}))
    with pytest.raises(CheckpointError):
        QNetwork.load(path)


class _TouchOnUnpickle:
    """Unpickling this creates ``marker``: proof that code ran on load."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return open, (self.marker, "w")


def test_load_never_unpickles_a_version_1_checkpoint(tmp_path):
    marker = tmp_path / "ran"
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"ROOMMEMCKPT1\n" + pickle.dumps(_TouchOnUnpickle(marker)))
    with pytest.raises(CheckpointError):
        QNetwork.load(path)
    assert not marker.exists()


def test_greedy_action_takes_first_maximum():
    assert greedy_action(np.array([1.0, 3.0, 2.0])) == 1
    assert greedy_action(np.array([5.0, 5.0, 1.0])) == 0
    with pytest.raises(GradientError):
        greedy_action(np.array([np.nan, 0.0, 0.0]))


def test_unknown_names_fail_encoding(vocab):
    with pytest.raises(VocabError):
        encode_system(vocab, EPISODIC, [epi("Zed", "bowl", "desk", 0)])
    with pytest.raises(VocabError):
        encode_system(vocab, SEMANTIC, [sem("bowl", "attic", 1)])

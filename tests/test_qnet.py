import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from roommem.kb import generate_synthetic_kb
from roommem.memory import (
    EPISODIC,
    RELATION,
    SEMANTIC,
    SHORT_TERM,
    Quadruple,
)
from roommem.nn import Adam, GradientError, ParamTensor, Workspace
from roommem.qnet import (
    CheckpointError,
    QNetwork,
    VocabError,
    Vocabulary,
    encode_state,
    encode_system,
    greedy_action,
)
from roommem.qnet import _embed, _pad_codes
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


def embed_rows(vocab, net, kind, entries):
    """One system's entries through the batched gather, as a (n, 3*d) batch
    of one sample."""
    emb = net.embedding.values
    table = np.vstack([emb, np.zeros((1, emb.shape[1]))])
    work = Workspace()
    codes, _ = _pad_codes([encode_system(vocab, kind, entries)], emb.shape[0], work)
    return _embed(table, codes, work)[:, 0, :]


def test_kge_rows_zero_relation_slot(vocab, net):
    d = 4
    entries = [epi("Ann", "bowl", "desk", 1), epi("Bob", "mug", "lap", 3)]
    X = embed_rows(vocab, net, EPISODIC, entries)
    assert X.shape == (2, 3 * d)
    assert np.all(X[:, d:2 * d] == 0.0)
    emb = net.embedding.values
    want_head = emb[vocab.token("Ann")] + emb[vocab.token("bowl")]
    assert np.allclose(X[0, :d], want_head)
    assert np.allclose(X[0, 2 * d:], emb[vocab.token("desk")])


def test_kge_semantic_head_is_bare_object(vocab, net):
    d = 4
    X = embed_rows(vocab, net, SEMANTIC, [sem("mug", "bed", 2)])
    emb = net.embedding.values
    assert np.allclose(X[0, :d], emb[vocab.token("mug")])
    assert np.allclose(X[0, 2 * d:], emb[vocab.token("bed")])


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
    Q, cache = net.forward_batch(enc, need_cache=True)
    for i, s in enumerate(states):
        assert np.allclose(Q[i], net.forward(s), atol=1e-12)
    for p in net.parameters():
        p.grad[...] = 0.0
    net.backward_batch(cache, np.ones_like(Q))
    for layer in net.branches[SEMANTIC].lstm:
        assert all(np.all(p.grad == 0.0) for p in layer.parameters())
    assert np.any(net.branches[SEMANTIC].b.grad != 0.0)
    assert np.any(net.branches[EPISODIC].lstm[0].w_x.grad != 0.0)


def test_a_cache_lives_until_the_next_cached_forward(vocab, net):
    """Forward buffers are the network's own and reused: uncached forwards
    here or elsewhere leave a cache's gradients as they were, and a later
    cached forward on the same network makes the cache stale.  A forked
    child's forwards write to the child's copy of the buffers."""
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
    interleaved = grads(lambda: (net.forward_batch(enc_large), net.forward(large[0]),
                                 other.forward_batch(enc_large, need_cache=True)))
    for p, a, b in zip(net.parameters(), alone, interleaved):
        assert np.array_equal(a, b), p.name

    _, first = net.forward_batch(enc_small, need_cache=True)
    net.forward_batch(enc_large, need_cache=True)
    with pytest.raises(ValueError):
        net.backward_batch(first, dq)

    def forked_child_runs_forwards():
        pid = os.fork()
        if pid == 0:   # the child overwrites its copy of every buffer, then leaves
            net.forward_batch(enc_large, need_cache=True)
            net.forward_batch(enc_large)
            os._exit(0)
        os.waitpid(pid, 0)

    for p, a, b in zip(net.parameters(), alone, grads(forked_child_runs_forwards)):
        assert np.array_equal(a, b), p.name


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
    of width 64: the full network carries 251,235 trainable floats."""
    kb = generate_synthetic_kb(13, 16, 28)
    humans = tuple(f"H{i}" for i in range(64))
    vocab = Vocabulary(humans, kb.objects, kb.locations)
    assert vocab.n_tokens == 109
    net = QNetwork.create(vocab, seed=0, d_emb=32, hidden=64, n_layers=2,
                          dtype=np.float64)
    n = net.n_parameters()
    assert n == 251_235
    # embedding + 3 * (two LSTM layers + projection) + two head layers
    lstm1 = 4 * 64 * (96 + 64) + 4 * 64
    lstm2 = 4 * 64 * (64 + 64) + 4 * 64
    branch = lstm1 + lstm2 + 64 * 64 + 64
    assert n == 109 * 32 + 3 * branch + (192 * 64 + 64) + (64 * 3 + 3)


def test_clone_and_copy_values(vocab, net):
    st = state_of(short=[epi("Ann", "bowl", "desk", 0)])
    other = net.clone()
    assert np.allclose(other.forward(st), net.forward(st))
    # clones do not share storage
    other.embedding.values += 1.0
    assert not np.allclose(other.forward(st), net.forward(st))
    other.copy_values_from(net)
    assert np.allclose(other.forward(st), net.forward(st))


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
], ids=["version", "dtype", "shape", "vocab", "json", "missing", "tensor_shape", "object",
        "tensor_dtype", "inf", "nan"])
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

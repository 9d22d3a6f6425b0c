"""Token vocabulary, triple encoding, and the three-branch Q-network.

Each memory entry becomes a triple of token embeddings laid out as
(head, relation, tail).  There is a single relation, so its slot is
structurally zero and token 0 is reserved for it; the same zero fills the
head slot of an empty branch.  Entries are sorted ascending by value
(timestamp or strength) before encoding, stable so equal values keep
insertion order.

One branch per memory system: encode, two LSTM layers, linear + ReLU.
The three branch vectors concatenate into a shared head that emits one
Q-value per management action.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .kb import KnowledgeBase
from .memory import EPISODIC, SEMANTIC, SHORT_TERM, N_ACTIONS, strip_owner
from .nn import (
    GradientError,
    LstmLayer,
    ParamTensor,
    Packing,
    init_uniform,
    linear_backward,
    linear_forward,
    lstm_batch_backward,
    lstm_batch_forward,
    relu_backward,
    relu_forward,
)

__all__ = [
    "VocabError",
    "CheckpointError",
    "Vocabulary",
    "QNetwork",
    "encode_system",
    "encode_state",
    "greedy_action",
]

_CKPT_VERSION = 2
_CKPT_HEADER = "header"   # archive member holding the JSON header
_CKPT_DTYPES = ("<f4", "<f8")

BRANCHES = (SHORT_TERM, EPISODIC, SEMANTIC)


class VocabError(KeyError):
    """Name outside the token vocabulary."""


class CheckpointError(ValueError):
    """Unreadable or mismatched checkpoint blob."""


@dataclass(frozen=True)
class Vocabulary:
    """Fixed token table: 0 is the relation/pad token, then humans, objects,
    locations in their canonical orders."""

    humans: tuple[str, ...]
    objects: tuple[str, ...]
    locations: tuple[str, ...]

    def __post_init__(self):
        tokens: dict[str, int] = {}
        nxt = 1
        for group in (self.humans, self.objects, self.locations):
            for name in group:
                if name in tokens:
                    raise VocabError(f"duplicate vocabulary name {name!r}")
                tokens[name] = nxt
                nxt += 1
        object.__setattr__(self, "_tokens", tokens)

    @classmethod
    def build(cls, human_names, kb: KnowledgeBase) -> "Vocabulary":
        return cls(tuple(human_names), kb.objects, kb.locations)

    @property
    def n_tokens(self) -> int:
        return 1 + len(self.humans) + len(self.objects) + len(self.locations)

    def token(self, name: str) -> int:
        try:
            return self._tokens[name]
        except KeyError:
            raise VocabError(f"unknown name {name!r}") from None


def _entry_tokens(vocab: Vocabulary, kind: str, entry) -> tuple[int, int, int]:
    loc_tok = vocab.token(entry.tail)
    if kind == SEMANTIC:
        return vocab.token(entry.head), -1, loc_tok
    owner, obj = strip_owner(entry.head)
    return vocab.token(owner), vocab.token(obj), loc_tok


def encode_system(vocab: Vocabulary, kind: str, entries) -> np.ndarray:
    """Token codes for one memory system, sorted ascending by entry value.

    Rows are (tok_a, tok_b, tok_tail) int32; tok_b is -1 for semantic
    entries, whose head is a bare object."""
    order = sorted(range(len(entries)), key=lambda i: entries[i].value)
    rows = np.empty((len(entries), 3), dtype=np.int32)
    for r, i in enumerate(order):
        rows[r] = _entry_tokens(vocab, kind, entries[i])
    return rows


def encode_state(vocab: Vocabulary, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token codes for a (short_term, episodic, semantic) snapshot."""
    short, episodic, semantic = state
    return (
        encode_system(vocab, SHORT_TERM, short),
        encode_system(vocab, EPISODIC, episodic),
        encode_system(vocab, SEMANTIC, semantic),
    )


def _pad_codes(codes: list[np.ndarray], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-sample (n, 3) token codes into one (T, B, 3) tensor.

    Steps past a sample's length, and the -1 owner slot of semantic rows,
    point at ``pad``, the embedding table's extra zero row.  Returns
    (codes, lengths)."""
    B = len(codes)
    lengths = [c.shape[0] for c in codes]
    T = max(lengths, default=0)
    out = np.full((T, B, 3), pad, dtype=np.int64)
    if T:
        rows = np.concatenate(codes)
        start = np.repeat(list(accumulate(lengths, initial=0))[:-1], lengths)
        sample = np.repeat(np.arange(B), lengths)
        out[np.arange(rows.shape[0]) - start, sample] = np.where(rows < 0, pad, rows)
    return out, lengths


def _embed(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(T, B, 3) codes -> (T, B, 3*d) rows laid out head | relation | tail.
    The head embeds as the sum of its two tokens; the relation third is
    zero."""
    X = table[codes]
    X[..., 0, :] += X[..., 1, :]
    X[..., 1, :] = 0.0
    return X.reshape(codes.shape[:2] + (3 * table.shape[1],))


def _embedding_grad(codes: np.ndarray, dX: np.ndarray, n_rows: int) -> np.ndarray:
    """Gradient of :func:`_embed` on its (n_rows, d) table, summed in one
    pass: both head tokens take the head's gradient, the tail token the
    tail's."""
    dX = dX.reshape(codes.shape + (-1,))
    d = dX.shape[-1]
    dX[..., 1, :] = dX[..., 0, :]
    flat = (codes[..., None] * d + np.arange(d)).ravel()
    grad = np.bincount(flat, weights=dX.ravel(), minlength=n_rows * d)
    return grad.reshape(n_rows, d)


@dataclass
class _Branch:
    lstm: list[LstmLayer]
    w: ParamTensor
    b: ParamTensor

    def parameters(self) -> list[ParamTensor]:
        out: list[ParamTensor] = []
        for layer in self.lstm:
            out.extend(layer.parameters())
        out.extend([self.w, self.b])
        return out


class QNetwork:
    """Three encode-LSTM-linear branches feeding a shared two-layer head."""

    def __init__(self, vocab: Vocabulary, embedding: ParamTensor,
                 branches: dict[str, _Branch], head_w1: ParamTensor,
                 head_b1: ParamTensor, head_w2: ParamTensor, head_b2: ParamTensor,
                 d_emb: int, hidden: int):
        self.vocab = vocab
        self.embedding = embedding
        self.branches = branches
        self.head_w1 = head_w1
        self.head_b1 = head_b1
        self.head_w2 = head_w2
        self.head_b2 = head_b2
        self.d_emb = d_emb
        self.hidden = hidden

    @classmethod
    def create(cls, vocab: Vocabulary, seed: int, d_emb: int = 32,
               hidden: int = 64, n_layers: int = 2, dtype=np.float64) -> "QNetwork":
        rng = np.random.default_rng(seed)
        embedding = init_uniform(rng, (vocab.n_tokens, d_emb), d_emb, dtype, "embedding")
        branches: dict[str, _Branch] = {}
        for kind in BRANCHES:
            layers = []
            d_in = 3 * d_emb
            for li in range(n_layers):
                layers.append(LstmLayer.create(rng, d_in, hidden, dtype, f"{kind}.lstm{li}"))
                d_in = hidden
            w = init_uniform(rng, (hidden, hidden), hidden, dtype, f"{kind}.proj.w")
            b = init_uniform(rng, (hidden,), hidden, dtype, f"{kind}.proj.b")
            branches[kind] = _Branch(layers, w, b)
        cat = hidden * len(BRANCHES)
        head_w1 = init_uniform(rng, (hidden, cat), cat, dtype, "head1.w")
        head_b1 = init_uniform(rng, (hidden,), cat, dtype, "head1.b")
        head_w2 = init_uniform(rng, (N_ACTIONS, hidden), hidden, dtype, "head2.w")
        head_b2 = init_uniform(rng, (N_ACTIONS,), hidden, dtype, "head2.b")
        return cls(vocab, embedding, branches, head_w1, head_b1, head_w2, head_b2,
                   d_emb, hidden)

    # -- parameter plumbing --------------------------------------------------

    def parameters(self) -> list[ParamTensor]:
        out = [self.embedding]
        for kind in BRANCHES:
            out.extend(self.branches[kind].parameters())
        out.extend([self.head_w1, self.head_b1, self.head_w2, self.head_b2])
        return out

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def clone(self) -> "QNetwork":
        other = QNetwork.create(self.vocab, seed=0, d_emb=self.d_emb,
                                hidden=self.hidden,
                                n_layers=len(self.branches[SHORT_TERM].lstm),
                                dtype=self.embedding.values.dtype)
        other.copy_values_from(self)
        return other

    def copy_values_from(self, other: "QNetwork") -> None:
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("parameter structure mismatch")
        for p, q in zip(mine, theirs):
            if p.values.shape != q.values.shape:
                raise ValueError(f"shape mismatch for {p.name}: {p.values.shape} vs {q.values.shape}")
            p.values[...] = q.values

    # -- forward -------------------------------------------------------------

    def forward(self, state) -> np.ndarray:
        """Q-values for one (short, episodic, semantic) snapshot."""
        return self.forward_states([state])[0]

    def forward_states(self, states) -> np.ndarray:
        """Q-values (B, A) for a list of snapshots, in one batched forward."""
        q, _ = self.forward_batch([encode_state(self.vocab, s) for s in states])
        return q

    def forward_encoded(self, enc) -> np.ndarray:
        q, _ = self.forward_batch([enc], need_cache=False)
        return q[0]

    def forward_batch(self, enc_states, need_cache: bool = False):
        """Q-values for a batch of encoded states: list of (codes_short,
        codes_episodic, codes_semantic) int32 arrays.  Returns (q (B, A),
        cache or None)."""
        V = self.embedding.values.shape[0]
        table = np.zeros((V + 1, self.d_emb), dtype=self.embedding.values.dtype)
        table[:V] = self.embedding.values
        branch_caches = {}
        feats = []
        for bi, kind in enumerate(BRANCHES):
            codes, lengths = _pad_codes([enc[bi] for enc in enc_states], V)
            pack = Packing(lengths)
            branch = self.branches[kind]
            h_last, lstm_caches = lstm_batch_forward(_embed(table, codes), pack, branch.lstm,
                                                     need_cache=need_cache)
            z, lin_x = linear_forward(h_last, branch.w, branch.b)
            a, relu_m = relu_forward(z)
            feats.append(a)
            if need_cache:
                branch_caches[kind] = (codes, pack, lstm_caches, lin_x, relu_m)
        cat = np.concatenate(feats, axis=1)
        z1, x1 = linear_forward(cat, self.head_w1, self.head_b1)
        a1, m1 = relu_forward(z1)
        q, x2 = linear_forward(a1, self.head_w2, self.head_b2)
        cache = (branch_caches, x1, m1, x2) if need_cache else None
        return q, cache

    def backward_batch(self, cache, dq: np.ndarray) -> None:
        """Accumulate parameter gradients given dLoss/dQ for a cached batch."""
        branch_caches, x1, m1, x2 = cache
        da1 = linear_backward(x2, self.head_w2, self.head_b2, dq)
        dz1 = relu_backward(m1, da1)
        dcat = linear_backward(x1, self.head_w1, self.head_b1, dz1)
        h = self.hidden
        V = self.embedding.values.shape[0]
        for bi, kind in enumerate(BRANCHES):
            codes, pack, lstm_caches, lin_x, relu_m = branch_caches[kind]
            da = dcat[:, bi * h:(bi + 1) * h]
            dz = relu_backward(relu_m, da)
            branch = self.branches[kind]
            dh_last = linear_backward(lin_x, branch.w, branch.b, dz)
            if not lstm_caches:  # all-empty branch contributed constant zeros
                continue
            dX = lstm_batch_backward(lstm_caches, branch.lstm, pack, dh_last)
            self.embedding.grad += _embedding_grad(codes, dX, V + 1)[:V]

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write an ``.npz`` archive: every parameter under its name, plus a
        JSON header with the version, vocabulary and shape settings."""
        header = {
            "version": _CKPT_VERSION,
            "vocab": [self.vocab.humans, self.vocab.objects, self.vocab.locations],
            "d_emb": self.d_emb,
            "hidden": self.hidden,
            "n_layers": len(self.branches[SHORT_TERM].lstm),
            "dtype": self.embedding.values.dtype.str,
        }
        arrays = {p.name: p.values for p in self.parameters()}
        arrays[_CKPT_HEADER] = np.array(json.dumps(header))
        # write-then-rename, so a crash never leaves a half-written checkpoint
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "QNetwork":
        """Read a :meth:`save` archive; never unpickles.  Any malformed
        archive, header or tensor raises :class:`CheckpointError`."""
        with open(path, "rb") as fh:
            try:
                return cls._from_archive(fh)
            except CheckpointError as exc:
                raise CheckpointError(f"{path}: {exc}") from None
            except Exception as exc:  # whatever a malformed archive makes numpy or zipfile raise
                raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc

    @classmethod
    def _from_archive(cls, fh) -> "QNetwork":
        archive = np.load(fh, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile) or _CKPT_HEADER not in archive.files:
            raise CheckpointError("not a checkpoint archive")
        header = json.loads(str(archive[_CKPT_HEADER]))
        if not isinstance(header, dict) or header.get("version") != _CKPT_VERSION:
            raise CheckpointError("unsupported checkpoint version")
        groups = header["vocab"]
        if not (isinstance(groups, list) and len(groups) == 3
                and all(isinstance(g, list) and all(isinstance(n, str) for n in g)
                        for g in groups)):
            raise CheckpointError("bad vocabulary")
        vocab = Vocabulary(*(tuple(g) for g in groups))
        dims = [header[k] for k in ("d_emb", "hidden", "n_layers")]
        if not all(type(d) is int and d >= 1 for d in dims):
            raise CheckpointError(f"bad network shape {dims}")
        if header["dtype"] not in _CKPT_DTYPES:
            raise CheckpointError(f"unsupported dtype {header['dtype']!r}")
        dtype = np.dtype(header["dtype"])
        net = cls.create(vocab, seed=0, d_emb=dims[0], hidden=dims[1], n_layers=dims[2],
                         dtype=dtype)
        for p in net.parameters():
            if p.name not in archive.files:
                raise CheckpointError(f"missing tensor {p.name}")
            vals = archive[p.name]
            if vals.shape != p.values.shape:
                raise CheckpointError(
                    f"tensor {p.name} has shape {vals.shape}, expected {p.values.shape}")
            p.values[...] = vals.astype(dtype, casting="same_kind")
        return net


def greedy_action(q: np.ndarray) -> int:
    """Argmax with first-index tie-break; refuses non-finite inputs."""
    if not np.all(np.isfinite(q)):
        raise GradientError(f"non-finite q-values: {q}")
    return int(np.argmax(q))

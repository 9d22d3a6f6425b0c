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

Buffers: a :class:`QNetwork` and its copies (the trainer's target network,
``GreedyQ``'s snapshot, ``train``'s best net) form one family that
owns the batch-sized arrays of their passes and reuses them from batch to
batch: a workspace per branch, holding its packed token codes and its
LSTM gate rows, and one for the head, which every forward runs in; and a
scratch holding the one array of embedded rows that every branch's
forward fills in turn, two arrays of the LSTM rows that no cache keeps
(hidden, cell and gradient rows, which every branch's forward and
backward share), and the backward's per-step arrays.  A cache from
``forward_batch(..., need_cache=True)`` serves one
:meth:`QNetwork.backward_batch` on its network, which embeds each
branch's rows again from its codes just before that branch's LSTM
backward and writes gradients over the cache, until the next forward on
the family overwrites it; any other cache is refused.  Only the returned Q-values are new arrays.  Calls on
one family must not run at the same time, which nothing in roommem does.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .kb import KnowledgeBase
from .memory import (
    EPISODIC,
    SEMANTIC,
    SHORT_TERM,
    N_ACTIONS,
    MalformedHeadError,
    format_head,
    strip_owner,
)
from .nn import (
    GradientError,
    LstmLayer,
    ParamTensor,
    Packing,
    Workspace,
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
_HEAD = "head"   # key of the shared head's buffers, beside the branches'
_STALE = (None, None)


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

    @cached_property
    def _lookup(self) -> tuple[dict, dict, dict]:
        """(owned heads, bare heads, tails): each "<human>'s <object>" head,
        each object and each location mapped to the tokens that
        :func:`_entry_tokens` gives it.  Built on the first encode."""
        owned = {}
        for head in (format_head(h, o) for h in self.humans for o in self.objects):
            try:
                owned[head] = _head_tokens(self, EPISODIC, head)
            except (VocabError, MalformedHeadError):
                pass   # splits into no two names of the vocabulary; _entry_tokens raises
        bare = {o: _head_tokens(self, SEMANTIC, o) for o in self.objects}
        return owned, bare, {loc: self._tokens[loc] for loc in self.locations}


def _head_tokens(vocab: Vocabulary, kind: str, head: str) -> tuple[int, int]:
    if kind == SEMANTIC:
        return vocab.token(head), -1
    owner, obj = strip_owner(head)
    return vocab.token(owner), vocab.token(obj)


def _entry_tokens(vocab: Vocabulary, kind: str, entry) -> tuple[int, int, int]:
    loc_tok = vocab.token(entry.tail)
    return _head_tokens(vocab, kind, entry.head) + (loc_tok,)


def encode_system(vocab: Vocabulary, kind: str, entries) -> np.ndarray:
    """Token codes for one memory system, sorted ascending by entry value.

    Rows are (tok_a, tok_b, tok_tail) int32; tok_b is -1 for semantic
    entries, whose head is a bare object."""
    if not entries:
        return np.empty((0, 3), dtype=np.int32)
    entries = sorted(entries, key=attrgetter("value"))
    owned, bare, tails = vocab._lookup
    heads = bare if kind == SEMANTIC else owned
    try:
        rows = [heads[e.head] + (tails[e.tail],) for e in entries]
    except KeyError:   # a name outside the tables: the per-entry path finds it or raises
        rows = [_entry_tokens(vocab, kind, e) for e in entries]
    return np.array(rows, dtype=np.int32)


def encode_state(vocab: Vocabulary, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token codes for a (short_term, episodic, semantic) snapshot."""
    short, episodic, semantic = state
    return (
        encode_system(vocab, SHORT_TERM, short),
        encode_system(vocab, EPISODIC, episodic),
        encode_system(vocab, SEMANTIC, semantic),
    )


def _pack_codes(seqs: list[np.ndarray], pad: int,
                work: Workspace) -> tuple[np.ndarray, Packing]:
    """Per-sample (n, 3) token codes as packed (N, 3) rows, a view of
    ``work``'s ``"codes"`` key, and their :class:`Packing`.  The -1 owner
    slot of semantic rows points at ``pad``, the embedding table's extra
    zero row."""
    lengths = [s.shape[0] for s in seqs]
    pack = Packing(lengths)
    out = work.take("codes", (pack.rows, 3), np.int64)
    if pack.rows:
        step, sample = np.divmod(pack.pos, pack.batch)
        start = np.array(list(accumulate(lengths, initial=0))[:-1])
        np.take(np.concatenate(seqs, dtype=np.int64), start[sample] + step, axis=0, out=out)
        out[out < 0] = pad
    return out, pack


def _embed(table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(N, 3) codes -> (N, 3*d) rows laid out head | relation | tail, in
    ``out``.  The head embeds as the sum of its two tokens; the relation
    third is zero."""
    X = out.reshape(codes.shape + table.shape[1:])
    np.take(table, codes, axis=0, out=X, mode="clip")
    X[:, 0] += X[:, 1]
    X[:, 1] = 0.0
    return out


def _embedding_grad(codes: np.ndarray, pack: Packing, dX: np.ndarray,
                    n_rows: int, spare: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_embed` on its (n_rows, d) table, given the
    packed rows' gradient dX: both head tokens take the head's gradient,
    the tail token the tail's.  dX's rows are gathered once in padded
    (t, b) order into ``spare`` when it has room for them, and copied back
    over dX as one contiguous (N, 3) array per column; so one float64
    ``bincount`` per column sums each entry's rows in the order of a
    padded batch's (t, b, slot) codes, as one ``bincount`` over all
    columns would, without a (N, 3, d) index.  Overwrites dX."""
    dX = dX.reshape(codes.shape + (-1,))
    dX[:, 1] = dX[:, 0]
    rows = np.argsort(pack.pos)
    index = codes[rows].ravel()
    d = dX.shape[-1]
    spare = spare.reshape(-1)
    padded = (spare[:dX.size] if spare.size >= dX.size
              else np.empty(dX.size, dX.dtype)).reshape(dX.shape)
    np.take(dX, rows, axis=0, out=padded, mode="clip")
    cols = dX.reshape(d, *codes.shape)
    np.copyto(cols, padded.transpose(2, 0, 1))
    grad = np.empty((n_rows, d))
    for j in range(d):
        grad[:, j] = np.bincount(index, weights=cols[j].ravel(), minlength=n_rows)
    return grad


@dataclass
class _Buffers:
    """A network family's workspaces, and (network, cache) of its one intact
    cache.  Per branch: ``"codes"``, the LSTM's ``("gates", i)`` rows,
    ``"h_last"`` and ``"relu_mask"``; the head: ``"cat"``, ``"a1"``,
    ``"relu_mask"``; the scratch: ``"rows"``, the embedded input rows of
    the branch that ran last, the LSTM's ``"h_rows"`` (the forward's
    hidden rows, the backward's cell and hidden rows) and the backward's
    ``"d_rows"``, and arrays of B rows for the forward's ``"z"``,
    ``"c_roll"`` and ``"rec"`` and for the backward."""

    work: dict = field(default_factory=lambda: {k: Workspace() for k in BRANCHES + (_HEAD,)})
    scratch: Workspace = field(default_factory=Workspace)
    live: tuple = _STALE


def _param_specs(n_tokens: int, d_emb: int, hidden: int,
                 n_layers: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan-in) of each parameter, in :class:`QNetwork`'s
    order, which is also the order ``create`` draws them in."""
    specs = [("embedding", (n_tokens, d_emb), d_emb)]
    for kind in BRANCHES:
        d_in = 3 * d_emb
        for li in range(n_layers):
            name = f"{kind}.lstm{li}"
            specs += [(f"{name}.w_x", (4 * hidden, d_in), d_in),
                      (f"{name}.w_h", (4 * hidden, hidden), hidden),
                      (f"{name}.b", (4 * hidden,), hidden)]
            d_in = hidden
        specs += [(f"{kind}.proj.w", (hidden, hidden), hidden),
                  (f"{kind}.proj.b", (hidden,), hidden)]
    cat = hidden * len(BRANCHES)
    return specs + [("head1.w", (hidden, cat), cat), ("head1.b", (hidden,), cat),
                    ("head2.w", (N_ACTIONS, hidden), hidden), ("head2.b", (N_ACTIONS,), hidden)]


@dataclass
class _Branch:
    lstm: list[LstmLayer]
    w: ParamTensor
    b: ParamTensor


class QNetwork:
    """Three encode-LSTM-linear branches feeding a shared two-layer head.

    The network is its ordered parameter list (:meth:`parameters`): the
    embedding; per branch in ``BRANCHES`` order each LSTM layer's w_x, w_h
    and b, then the projection's w and b; then the head's w1, b1, w2, b2.
    ``embedding``, ``branches`` and ``head_*`` are views of its entries,
    and every copy of a network copies the list."""

    def __init__(self, vocab: Vocabulary, params: list[ParamTensor]):
        self.vocab = vocab
        self._params = tuple(params)
        self.embedding, *body, self.head_w1, self.head_b1, self.head_w2, self.head_b2 = params
        n = len(body) // len(BRANCHES)
        self.branches = {}
        for bi, kind in enumerate(BRANCHES):
            *lstm, w, b = body[bi * n:(bi + 1) * n]
            self.branches[kind] = _Branch([LstmLayer(*lstm[i:i + 3])
                                           for i in range(0, len(lstm), 3)], w, b)
        self.d_emb = self.embedding.values.shape[1]
        self.hidden = self.head_w2.values.shape[1]
        self._buffers = _Buffers()

    @classmethod
    def create(cls, vocab: Vocabulary, seed: int, d_emb: int = 32,
               hidden: int = 64, n_layers: int = 2, dtype=np.float64) -> "QNetwork":
        rng = np.random.default_rng(seed)
        return cls(vocab, [init_uniform(rng, shape, fan_in, dtype, name) for name, shape, fan_in
                           in _param_specs(vocab.n_tokens, d_emb, hidden, n_layers)])

    # -- parameter plumbing --------------------------------------------------

    def parameters(self) -> list[ParamTensor]:
        return list(self._params)

    def n_parameters(self) -> int:
        return sum(p.size for p in self._params)

    @property
    def _scratch(self) -> Workspace:
        return self._buffers.scratch

    def _copy(self, copy) -> "QNetwork":
        """A network of ``copy(p)`` for each parameter, in this one's buffer family."""
        other = QNetwork(self.vocab, [copy(p) for p in self._params])
        other._buffers = self._buffers
        return other

    def clone(self) -> "QNetwork":
        """Copies of this network's parameter arrays, writeable, with zero
        gradients."""
        return self._copy(lambda p: ParamTensor.of(p.values.copy(), p.name))

    def snapshot(self) -> "QNetwork":
        """Read-only copies of the parameter arrays, for forwards only: every
        gradient is a read-only view of one shared zero."""
        zero = np.zeros((), self.embedding.values.dtype)

        def frozen(p: ParamTensor) -> ParamTensor:
            values = p.values.copy()
            values.flags.writeable = False
            return ParamTensor(values, np.broadcast_to(zero, values.shape), p.name)
        return self._copy(frozen)

    def copy_values_from(self, other: "QNetwork") -> None:
        """Overwrite every parameter with ``other``'s; a tensor whose shape
        or dtype differs raises ValueError before any value changes."""
        pairs = list(zip(self._params, other._params, strict=True))
        for p, q in pairs:
            if p.values.shape != q.values.shape or p.values.dtype != q.values.dtype:
                raise ValueError(f"tensor {p.name} is {q.values.dtype.str} {q.values.shape}, "
                                 f"expected {p.values.dtype.str} {p.values.shape}")
        for p, q in pairs:
            p.values[...] = q.values

    # -- forward -------------------------------------------------------------

    def forward(self, state) -> np.ndarray:
        """Q-values for one (short, episodic, semantic) snapshot."""
        return self.forward_states([state])[0]

    def forward_states(self, states, memo: dict | None = None) -> np.ndarray:
        """Q-values (B, A) for a list of snapshots, in one batched forward;
        ``memo`` as for :meth:`forward_batch`."""
        q, _ = self.forward_batch([encode_state(self.vocab, s) for s in states], memo=memo)
        return q

    def forward_batch(self, enc_states, need_cache: bool = False,
                      memo: dict | None = None):
        """Q-values for a batch of encoded states: list of (codes_short,
        codes_episodic, codes_semantic) int32 arrays.  Returns (q (B, A),
        cache or None).  q is a new array; the cache views the family's
        buffers and is good for one :meth:`backward_batch` until the next
        forward on the family.

        ``memo``, for uncached forwards while the parameters stay fixed,
        maps each branch name to a dict from a code sequence's bytes to its
        branch vector.  A branch then runs only its sequences that are not
        in the memo yet, each once, and adds their vectors."""
        if need_cache and memo is not None:
            raise ValueError("a memo serves uncached forwards only")
        V = self.embedding.values.shape[0]
        dtype = self.embedding.values.dtype
        table = np.zeros((V + 1, self.d_emb), dtype=dtype)
        table[:V] = self.embedding.values
        buffers = self._buffers
        buffers.live = _STALE   # also lets buffers that must grow free their old arrays
        head = buffers.work[_HEAD]
        B, h = len(enc_states), self.hidden
        cat = head.take("cat", (B, len(BRANCHES) * h), dtype)
        branch_caches = {}
        for bi, kind in enumerate(BRANCHES):
            seqs = [enc[bi] for enc in enc_states]
            out = cat[:, bi * h:(bi + 1) * h]
            if memo is None:
                branch_caches[kind] = self._branch_forward(kind, seqs, table, out, need_cache)
                continue
            known = memo.setdefault(kind, {})
            keys = [s.tobytes() for s in seqs]
            fresh = {k: s for k, s in zip(keys, seqs) if k not in known}
            if fresh:
                vectors = np.empty((len(fresh), h), dtype)
                self._branch_forward(kind, list(fresh.values()), table, vectors, False)
                known.update(zip(fresh, vectors))
            np.stack([known[k] for k in keys], out=out)
        z1, x1 = linear_forward(cat, self.head_w1, self.head_b1,
                                out=self._scratch.take("z", (B, h), dtype))
        a1, m1 = relu_forward(z1, out=head.take("a1", (B, h), dtype),
                              mask=head.take("relu_mask", (B, h), bool))
        q, x2 = linear_forward(a1, self.head_w2, self.head_b2)
        cache = None
        if need_cache:
            cache = (table, branch_caches, x1, m1, x2)
            buffers.live = (self, cache)
        return q, cache

    def _branch_forward(self, kind: str, seqs: list[np.ndarray], table: np.ndarray,
                        out: np.ndarray, need_cache: bool):
        """Branch ``kind``'s post-ReLU vectors of ``seqs`` into ``out``;
        returns the branch's cache, None when ``need_cache`` is false."""
        scratch = self._scratch
        work = self._buffers.work[kind]
        n, h = len(seqs), self.hidden
        codes, pack = _pack_codes(seqs, table.shape[0] - 1, work)
        rows = _embed(table, codes, scratch.take("rows", (pack.rows, 3 * self.d_emb),
                                                 table.dtype))
        branch = self.branches[kind]
        h_last, lstm_caches = lstm_batch_forward(rows, pack, branch.lstm,
                                                 need_cache=need_cache, work=work,
                                                 shared=scratch)
        z, lin_x = linear_forward(h_last, branch.w, branch.b,
                                  out=scratch.take("z", (n, h), table.dtype))
        _, relu_m = relu_forward(z, out=out, mask=work.take("relu_mask", (n, h), bool))
        return (codes, pack, lstm_caches, lin_x, relu_m) if need_cache else None

    def backward_batch(self, cache, dq: np.ndarray) -> None:
        """Accumulate parameter gradients given dLoss/dQ for a cached batch,
        consuming the cache.  Any cache but the family's latest, or one that
        another network made, raises ValueError."""
        owner, live = self._buffers.live
        if owner is not self or live is not cache:
            raise ValueError("stale cache: a later forward or a backward reused its buffers")
        self._buffers.live = _STALE   # the LSTM backward writes its gradients over the cache
        table, branch_caches, x1, m1, x2 = cache
        scratch = self._scratch
        B, h = dq.shape[0], self.hidden
        dtype = self.embedding.values.dtype
        da1 = linear_backward(x2, self.head_w2, self.head_b2, dq,
                              out=scratch.take("da1", (B, h), dtype))
        dz1 = relu_backward(m1, da1, out=da1)
        dcat = linear_backward(x1, self.head_w1, self.head_b1, dz1,
                               out=scratch.take("dcat", x1.shape, dtype))
        V = self.embedding.values.shape[0]
        for bi, kind in enumerate(BRANCHES):
            codes, pack, lstm_caches, lin_x, relu_m = branch_caches[kind]
            da = dcat[:, bi * h:(bi + 1) * h]
            dz = relu_backward(relu_m, da, out=scratch.take("dz", (B, h), dtype))
            branch = self.branches[kind]
            dh_last = linear_backward(lin_x, branch.w, branch.b, dz,
                                      out=scratch.take("dh_last", (B, h), dtype))
            if not lstm_caches:  # all-empty branch contributed constant zeros
                continue
            # the shared rows now hold a later branch's; embed this one's again
            _embed(table, codes, lstm_caches[0].inp)
            dX = lstm_batch_backward(lstm_caches, branch.lstm, pack, dh_last,
                                     work=scratch)
            # layer 0's gate rows are dead once the LSTM backward returns
            self.embedding.grad += _embedding_grad(codes, pack, dX, V + 1,
                                                   lstm_caches[0].gates)[:V]

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
        specs = _param_specs(vocab.n_tokens, *dims)
        extra = set(archive.files) - {_CKPT_HEADER} - {name for name, _, _ in specs}
        if extra:
            raise CheckpointError(f"unexpected members {sorted(extra)}")
        params = []
        for name, shape, _ in specs:
            if name not in archive.files:
                raise CheckpointError(f"missing tensor {name}")
            vals = archive[name]
            if vals.shape != shape:
                raise CheckpointError(f"tensor {name} has shape {vals.shape}, expected {shape}")
            if vals.dtype != dtype:
                raise CheckpointError(
                    f"tensor {name} has dtype {vals.dtype.str}, the header says {dtype.str}")
            if not np.all(np.isfinite(vals)):
                raise CheckpointError(f"tensor {name} holds a non-finite value")
            params.append(ParamTensor.of(np.ascontiguousarray(vals), name))
        return cls(vocab, params)


def greedy_action(q: np.ndarray) -> int:
    """Argmax with first-index tie-break; refuses non-finite inputs."""
    if not np.all(np.isfinite(q)):
        raise GradientError(f"non-finite q-values: {q}")
    return int(np.argmax(q))

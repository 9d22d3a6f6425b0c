"""Differentiable building blocks with hand-written reverse-mode gradients.

No autodiff graph: the architecture is fixed (embedding table, stacked LSTM,
linear + ReLU, Huber loss, Adam), so each block exposes an explicit forward
that returns a cache and a backward that consumes it.  Everything runs on
float64 by default; float32 is available for speed and halves memory.

LSTM convention: gate order (input, forget, cell, output), single bias per
layer, hidden and cell state start at zero.  A batch of sequences is packed
time-major, longest first, so each step runs only the samples still inside
their sequence and a sample's last hidden state is read at its own last
step; an empty sequence yields the zero vector without touching any weight.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "GradientError",
    "ParamTensor",
    "LstmLayer",
    "Packing",
    "sigmoid",
    "embedding_lookup",
    "embedding_backward",
    "linear_forward",
    "linear_backward",
    "relu_forward",
    "relu_backward",
    "lstm_forward_cached",
    "lstm_backward_single",
    "lstm_batch_forward",
    "lstm_batch_backward",
    "huber_loss",
    "Adam",
]


class GradientError(FloatingPointError):
    """Non-finite gradient or loss."""


@dataclass
class ParamTensor:
    """A learnable array and its gradient accumulator."""

    values: np.ndarray
    grad: np.ndarray
    name: str = ""

    @classmethod
    def of(cls, values: np.ndarray, name: str = "") -> "ParamTensor":
        values = np.asarray(values)
        return cls(values, np.zeros_like(values), name)

    @property
    def size(self) -> int:
        return self.values.size


def init_uniform(rng: np.random.Generator, shape, fan_in: int, dtype, name: str) -> ParamTensor:
    """Uniform in +-1/sqrt(fan_in), the usual scale-preserving init."""
    bound = 1.0 / np.sqrt(fan_in)
    vals = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ParamTensor.of(vals, name)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in its tanh form, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


# -- embedding ---------------------------------------------------------------

def embedding_lookup(table: ParamTensor, index: int) -> np.ndarray:
    if not 0 <= index < table.values.shape[0]:
        raise IndexError(f"embedding index {index} out of range 0..{table.values.shape[0] - 1}")
    return table.values[index].copy()


def embedding_backward(table: ParamTensor, index: int, grad_output: np.ndarray) -> None:
    if not 0 <= index < table.values.shape[0]:
        raise IndexError(f"embedding index {index} out of range")
    table.grad[index] += grad_output


# -- linear / relu -----------------------------------------------------------

def linear_forward(x: np.ndarray, w: ParamTensor, b: ParamTensor):
    """y = x W^T + b.  Accepts a single vector or a (batch, in) matrix."""
    if x.ndim == 1:
        return w.values @ x + b.values, x
    return x @ w.values.T + b.values, x


def linear_backward(cache_x: np.ndarray, w: ParamTensor, b: ParamTensor, dy: np.ndarray) -> np.ndarray:
    x = cache_x
    if x.ndim == 1:
        w.grad += np.outer(dy, x)
        b.grad += dy
        return w.values.T @ dy
    w.grad += dy.T @ x
    b.grad += dy.sum(axis=0)
    return dy @ w.values


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0.0)
    return y, x > 0.0


def relu_backward(mask: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * mask


# -- huber -------------------------------------------------------------------

def huber_loss(pred, target):
    """Elementwise Huber with delta 1: quadratic inside the unit error band,
    linear outside.  Returns (loss, dloss/dpred); the gradient saturates at
    +-1, which is the whole point."""
    e = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    ae = np.abs(e)
    loss = np.where(ae <= 1.0, 0.5 * e * e, ae - 0.5)
    grad = np.clip(e, -1.0, 1.0)
    return loss, grad


# -- lstm --------------------------------------------------------------------

@dataclass
class LstmLayer:
    """One LSTM layer: w_x (4h, d_in), w_h (4h, h), b (4h,)."""

    w_x: ParamTensor
    w_h: ParamTensor
    b: ParamTensor

    @property
    def hidden(self) -> int:
        return self.w_h.values.shape[1]

    @property
    def d_in(self) -> int:
        return self.w_x.values.shape[1]

    @classmethod
    def create(cls, rng: np.random.Generator, d_in: int, hidden: int, dtype, name: str) -> "LstmLayer":
        return cls(
            init_uniform(rng, (4 * hidden, d_in), d_in, dtype, f"{name}.w_x"),
            init_uniform(rng, (4 * hidden, hidden), hidden, dtype, f"{name}.w_h"),
            init_uniform(rng, (4 * hidden,), hidden, dtype, f"{name}.b"),
        )

    def parameters(self) -> list[ParamTensor]:
        return [self.w_x, self.w_h, self.b]


class Packing:
    """Time-major packed layout of a batch of variable-length sequences.

    Samples are ordered by length, longest first (stable), so the samples
    still running at step t are a prefix of that order, ``bs[t]`` long.
    Packed row ``off[t] + k`` holds step t of the k-th sample in that order;
    ``t_idx``/``b_idx`` map each packed row back to the padded (T, B)
    position, and ``last`` gives each sample's last row.  ``steps`` is the
    padded length T, the longest sequence.  Built once per batch and shared
    by every layer, forward and backward.
    """

    __slots__ = ("batch", "steps", "bs", "off", "t_idx", "b_idx", "last")

    def __init__(self, lengths):
        lengths = [int(n) for n in lengths]
        if min(lengths, default=0) < 0:
            raise ValueError("sequence lengths must be non-negative")
        B = len(lengths)
        # per-sample bookkeeping in Python ints: at the B=1 to B=10 of
        # greedy decisions that is cheaper than numpy calls
        order = sorted(range(B), key=lengths.__getitem__, reverse=True)  # stable
        longest = lengths[order[0]] if B else 0
        ends = [0] * (longest + 1)
        for n in lengths:
            ends[n] += 1
        self.bs = list(accumulate(reversed(ends[1:])))[::-1]
        self.off = list(accumulate(self.bs, initial=0))
        rows = self.off[-1]
        step_start = np.repeat(np.array(self.off[:-1], dtype=np.int64), self.bs)
        self.t_idx = np.repeat(np.arange(longest), self.bs)
        self.b_idx = np.array(order, dtype=np.int64)[np.arange(rows) - step_start]
        # packed row of each sample's last step, -1 for an empty sample
        last = [-1] * B
        for k, j in enumerate(order[:self.bs[0] if self.bs else 0]):
            last[j] = self.off[lengths[j] - 1] + k
        self.last = np.array(last, dtype=np.int64)
        self.batch = B
        self.steps = longest

    @property
    def rows(self) -> int:
        return self.off[-1]


@functools.lru_cache(maxsize=None)
def _gate_layout(h: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """(order, scale) that turn the (i, f, g, o) gate rows of a layer into
    the kernel's (i, f, o, g): the three sigmoid gates become one block, and
    halving their rows lets one tanh give sigmoid(z) = tanh(z/2)/2 + 1/2."""
    order = np.r_[0:2 * h, 3 * h:4 * h, 2 * h:3 * h]
    scale = np.ones((4 * h, 1), dtype=dtype)
    scale[:3 * h] = 0.5
    order.setflags(write=False)
    scale.setflags(write=False)
    return order, scale


def _fused(values: np.ndarray, order: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """A weight or bias in the kernel's gate layout, as one new array."""
    out = values[order]
    out *= scale
    return out


class _LayerCache:
    __slots__ = ("inp", "gates", "c", "out")

    def __init__(self, inp, gates, c, out):
        self.inp = inp        # (N, d_in) packed input rows
        self.gates = gates    # (N, 4h) activations, gate order (i, f, o, g)
        self.c = c            # (N, h) cell state after each step
        self.out = out        # (N, h) hidden state after each step


def lstm_batch_forward(X: np.ndarray, pack: Packing, layers: list[LstmLayer],
                       need_cache: bool = False):
    """Run stacked LSTM layers over a padded batch.

    X: (T, B, d_in), T the longest of the sequence lengths in ``pack``.
    Steps past a sample's length are never computed and their X rows never
    read.  Returns (h_last (B, h), caches); an empty sample's h_last is
    zero.  With no step to run the cache is empty.

    All four gates share one ``tanh`` over the 4h block (see
    :func:`_gate_layout`); the cache keeps the gates in that layout.
    """
    T, B, _ = X.shape
    dtype = layers[0].w_x.values.dtype
    h_last = np.zeros((B, layers[-1].hidden), dtype=dtype)
    if pack.batch != B or pack.steps != T:
        raise ValueError(f"packing describes a ({pack.steps}, {pack.batch}) batch, X is ({T}, {B})")
    if not pack.bs:
        return h_last, []
    caches: list[_LayerCache] = []
    half = dtype.type(0.5)   # a typed scalar skips a conversion per call
    inp = X[pack.t_idx, pack.b_idx]
    for layer in layers:
        h = layer.hidden
        order, scale = _gate_layout(h, dtype)
        w_h_t = _fused(layer.w_h.values, order, scale).T
        gates = inp @ _fused(layer.w_x.values, order, scale).T
        gates += _fused(layer.b.values, order, scale[:, 0])
        c = np.empty((pack.rows, h), dtype=dtype)
        out = np.empty((pack.rows, h), dtype=dtype)
        for t, b in enumerate(pack.bs):
            r = slice(pack.off[t], pack.off[t] + b)
            z = gates[r]
            if t:
                p = slice(pack.off[t - 1], pack.off[t - 1] + b)
                z += out[p] @ w_h_t
            np.tanh(z, out=z)
            sig = z[:, :3 * h]
            sig *= half
            sig += half
            ct = c[r]
            np.multiply(z[:, :h], z[:, 3 * h:], out=ct)
            if t:
                ct += z[:, h:2 * h] * c[p]
            np.multiply(z[:, 2 * h:3 * h], np.tanh(ct), out=out[r])
        if need_cache:
            caches.append(_LayerCache(inp, gates, c, out))
        inp = out
    live = pack.last >= 0
    h_last[live] = inp[pack.last[live]]
    return h_last, caches


def lstm_batch_backward(caches: list[_LayerCache], layers: list[LstmLayer],
                        pack: Packing, dh_last: np.ndarray) -> np.ndarray:
    """Backprop through :func:`lstm_batch_forward`, given the same
    ``pack``; accumulates parameter gradients and returns the gradient on
    the padded input X, zero at steps past each sample's length."""
    dtype = layers[0].w_x.values.dtype
    dX = np.zeros((pack.steps, pack.batch, layers[0].d_in), dtype=dtype)
    if not pack.bs:
        return dX
    order_b = pack.b_idx[:pack.bs[0]]   # samples, longest first
    N = pack.rows
    # h_prev of a row past the first step is the same sample's row one step
    # earlier, bs[t-1] rows up
    later = slice(pack.bs[0], N)
    prev = np.arange(pack.bs[0], N) - np.repeat(np.array(pack.bs[:-1], dtype=np.int64),
                                                  pack.bs[1:])
    d_above = None  # gradient on the current layer's packed output rows
    for li in range(len(layers) - 1, -1, -1):
        layer = layers[li]
        cache = caches[li]
        gates, c = cache.gates, cache.c
        h = layer.hidden
        order, _ = _gate_layout(h, dtype)
        w_h = layer.w_h.values[order]
        # local derivatives of every gate and of tanh(c), in one pass each
        dgate = gates * (1.0 - gates)
        g = gates[:, 3 * h:]
        np.multiply(g, g, out=dgate[:, 3 * h:])
        np.subtract(1.0, dgate[:, 3 * h:], out=dgate[:, 3 * h:])
        tc = np.tanh(c)
        dtc = 1.0 - tc * tc
        DZ = np.empty((N, 4 * h), dtype=dtype)
        dh = np.zeros((pack.bs[0], h), dtype=dtype)
        if li == len(layers) - 1:
            dh[...] = dh_last[order_b]
        dc = np.zeros((pack.bs[0], h), dtype=dtype)
        for t in range(len(pack.bs) - 1, -1, -1):
            b = pack.bs[t]
            r = slice(pack.off[t], pack.off[t] + b)
            dht = dh[:b]
            if d_above is not None:
                dht += d_above[r]
            a = gates[r]
            dz = DZ[r]
            dct = dc[:b]
            np.multiply(dht, tc[r], out=dz[:, 2 * h:3 * h])
            dct += dht * a[:, 2 * h:3 * h] * dtc[r]
            np.multiply(dct, a[:, 3 * h:], out=dz[:, :h])
            if t:
                p = slice(pack.off[t - 1], pack.off[t - 1] + b)
                np.multiply(dct, c[p], out=dz[:, h:2 * h])
            else:
                dz[:, h:2 * h] = 0.0
            np.multiply(dct, a[:, :h], out=dz[:, 3 * h:])
            dz *= dgate[r]
            dct *= a[:, h:2 * h]
            if t:
                np.matmul(dz, w_h, out=dht)
        layer.w_x.grad[order] += DZ.T @ cache.inp
        layer.w_h.grad[order] += DZ[later].T @ cache.out[prev]
        layer.b.grad[order] += DZ.sum(axis=0)
        d_above = DZ @ layer.w_x.values[order]
    dX[pack.t_idx, pack.b_idx] = d_above
    return dX


def _as_seq_array(seq, d_in: int, dtype) -> np.ndarray:
    arr = np.asarray(seq, dtype=dtype)
    if arr.size == 0:
        return np.zeros((0, d_in), dtype=dtype)
    if arr.ndim != 2 or arr.shape[1] != d_in:
        raise ValueError(f"sequence must be (T, {d_in}), got {arr.shape}")
    return arr


def lstm_forward_cached(seq, layers: list[LstmLayer], need_cache: bool = True):
    """Last hidden state of a single unpadded sequence, and the cache for
    :func:`lstm_backward_single`; empty in, zeros out."""
    dtype = layers[0].w_x.values.dtype
    arr = _as_seq_array(seq, layers[0].d_in, dtype)
    if arr.shape[0] == 0:
        return np.zeros(layers[-1].hidden, dtype=dtype), None
    pack = Packing([arr.shape[0]])
    h, caches = lstm_batch_forward(arr[:, None, :], pack, layers, need_cache=need_cache)
    return h[0], (caches, pack)


def lstm_backward_single(cache, layers: list[LstmLayer], dh: np.ndarray) -> np.ndarray:
    """Backward companion of :func:`lstm_forward_cached` for one sequence."""
    if cache is None:  # empty sequence: constant zero output, no gradients
        return np.zeros((0, layers[0].d_in), dtype=layers[0].w_x.values.dtype)
    caches, pack = cache
    dX = lstm_batch_backward(caches, layers, pack, dh[None, :])
    return dX[:, 0, :]


# -- adam --------------------------------------------------------------------

class Adam:
    """Adam with bias correction.  step() consumes and zeroes the gradients;
    a non-finite gradient is an error rather than a silent poisoning."""

    def __init__(self, params: list[ParamTensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise GradientError(f"non-finite gradient in {p.name or 'parameter'}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.grad[...] = 0.0

"""Differentiable building blocks with hand-written reverse-mode gradients.

No autodiff graph: the architecture is fixed (embedding table, stacked LSTM,
linear + ReLU, Huber loss, Adam), so each block exposes an explicit forward
that returns a cache and a backward that consumes it.  Everything runs on
float64 by default; float32 is available for speed and halves memory.

LSTM convention: gate order (input, forget, cell, output), single bias per
layer, hidden and cell state start at zero.  A batch of sequences is packed
time-major, longest first (:class:`Packing`), so each step runs only the
samples still inside their sequence and a sample's last hidden state is
read at its own last step; an empty sequence yields the zero vector
without touching any weight.  The batched kernel takes its input already
packed, one row per live step.

Buffers: :func:`lstm_batch_forward` and :func:`lstm_batch_backward` take
their batch-sized arrays from a :class:`Workspace`, and the linear and ReLU
helpers write to ``out`` arrays.  Called without them, as the
single-sequence helpers and the tests do, each call makes fresh arrays.  A
caller that passes a workspace owns every array handed out of it.  A
forward's cache is checkpointed at layer boundaries (Chen et al. 2016):
the top layer's (N, 4h) gate rows, each lower layer's (N, h) hidden
rows, and the caller's input rows, which it does not copy; it lasts
until the next forward on the workspace, and the backward consumes it.
A lower layer's gates are working rows in the forward, held in the top
layer's gate array, which is dead until the top layer's projection.  The
backward recomputes them into the same array once the layer above is
done with it, from the layer's input and hidden rows, and rebuilds each
layer's cell rows (the top layer's hidden rows too) from its gates, all
with the forward's own operations in the forward's order, so every row
has the forward's bits: the memory-efficient backpropagation through
time of Gruslys et al. 2016.  The recompute calls the forward's GEMMs on
the forward's operands, the input projection in the same row blocks and
one recurrent GEMM per step, so it needs nothing of the BLAS but that a
call repeats its bits.  Each array is overwritten once its last read is
done, as in-place activated BatchNorm does (Rota Bulò et al. 2018): the
gate rows take the gate gradients, a layer's rebuilt cell rows its
hidden rows, and the input rows the returned input gradient.
:class:`Adam` keeps its own.

Row blocks: a GEMM over all N packed rows, the input projection and the
gradient on a layer's input, runs in near-equal blocks of at most
``_ROW_BLOCK`` rows.  OpenBLAS grows its per-thread packing buffers with
a GEMM's row count and keeps them for the life of the process, so one
whole-height GEMM at the paper shape would hold them at its size for
good.  Each output row is the same dot products whatever the block
height, so the blocks give the whole GEMM's bits (no block is a small
remainder, for which BLAS takes other paths); the weight gradients, whose
sums run over the N rows, stay whole.
"""
from __future__ import annotations

import ctypes
import functools
import math
import mmap
import weakref
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "GradientError",
    "ParamTensor",
    "LstmLayer",
    "Packing",
    "Workspace",
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


class Workspace:
    """Arrays kept from call to call, one per key, each as large as the
    largest size asked for under its key.  :meth:`take` returns a view of
    the key's array with the requested shape; it overwrites, and so ends,
    whatever an earlier view of that key held.  Arrays are never zeroed.

    Each array is its own private anonymous memory map, not a heap block,
    so its pages go back to the system as soon as its last view dies, and
    a forked child writes to its own copy.  Held in the heap, a network's
    buffers leave holes there that the small arrays of later work pin, and
    a process that trains one network after another grows with each: with
    heap arrays, perfbench's desk-train peak RSS on a 2-CPU Xeon was 6-10%
    above that with maps; paper-train's, whose units all clone one network
    and so reuse its buffers, did not differ in the median.  Each map is
    reported to tracemalloc as numpy reports its own arrays."""

    def __init__(self):
        self._flat: dict = {}

    def take(self, key, shape, dtype) -> np.ndarray:
        n = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < n or flat.dtype != dtype:
            flat = self._flat[key] = _mapped(n, np.dtype(dtype))
        return flat[:n].reshape(shape)


_NUMPY_TRACE_DOMAIN = 389047   # the tracemalloc domain numpy reports its array data in
_trace_track = ctypes.pythonapi.PyTraceMalloc_Track
_trace_track.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
_trace_untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
_trace_untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t)


def _mapped(n: int, dtype: np.dtype) -> np.ndarray:
    pages = mmap.mmap(-1, max(n * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE)
    flat = np.frombuffer(pages, dtype=dtype, count=n)
    _trace_track(_NUMPY_TRACE_DOMAIN, flat.ctypes.data, len(pages))
    weakref.finalize(pages, _trace_untrack, _NUMPY_TRACE_DOMAIN, flat.ctypes.data)
    return flat


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

def linear_forward(x: np.ndarray, w: ParamTensor, b: ParamTensor, out=None):
    """y = x W^T + b.  Accepts a single vector or a (batch, in) matrix,
    whose y goes to ``out`` when given."""
    if x.ndim == 1:
        return w.values @ x + b.values, x
    y = np.matmul(x, w.values.T, out=out)
    y += b.values
    return y, x


def linear_backward(cache_x: np.ndarray, w: ParamTensor, b: ParamTensor, dy: np.ndarray,
                    out=None) -> np.ndarray:
    x = cache_x
    if x.ndim == 1:
        w.grad += np.outer(dy, x)
        b.grad += dy
        return w.values.T @ dy
    w.grad += dy.T @ x
    b.grad += dy.sum(axis=0)
    return np.matmul(dy, w.values, out=out)


def relu_forward(x: np.ndarray, out=None, mask=None):
    return np.maximum(x, 0.0, out=out), np.greater(x, 0.0, out=mask)


def relu_backward(mask: np.ndarray, dy: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(dy, mask, out=out)


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
    ``pos`` maps each packed row back to its padded (T, B) position as the
    flat index ``t * B + b``, and ``last`` gives each sample's last row.
    ``steps`` is the padded length T, the longest sequence.  Built once per
    batch and shared by every layer, forward and backward.
    """

    __slots__ = ("batch", "steps", "bs", "off", "pos", "last")

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
        step_start = np.repeat(np.array(self.off[:-1], dtype=np.intp), self.bs)
        self.pos = np.array(order, dtype=np.intp)[np.arange(rows) - step_start]
        self.pos += np.repeat(np.arange(longest) * B, self.bs)
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


# Largest row block of a GEMM over the packed rows.  After 4 paper-shape TD
# steps (about 13,400 rows per long branch, fp64, 2 OpenBLAS 0.3.31 threads
# on a 2-CPU Xeon), whole-height GEMMs left two 13.6 MiB packing buffers
# resident; in 1,024-row blocks the process's other anonymous memory fell
# from 55.3 to 30.7 MiB (scripts/memory_breakdown.py), and a td_loss took
# 0.531 s either way (median of 12 alternating calls).
_ROW_BLOCK = 1024


def _row_blocked_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` into ``out``, in near-equal blocks of at most
    ``_ROW_BLOCK`` rows of ``a``."""
    n = a.shape[0]
    blocks = max(1, -(-n // _ROW_BLOCK))
    for k in range(blocks):
        r = slice(n * k // blocks, n * (k + 1) // blocks)
        np.matmul(a[r], b, out=out[r])
    return out


def _fused(values: np.ndarray, order: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """A weight or bias in the kernel's gate layout, as one new array."""
    out = values[order]
    out *= scale
    return out


def _add_gate_rows(grad: np.ndarray, rows: np.ndarray) -> None:
    """``grad += rows`` for ``rows`` in the kernel's (i, f, o, g) gate
    order and ``grad`` in the layer's (i, f, g, o): three block adds, with
    no gathered copy of ``grad``."""
    h = grad.shape[0] // 4
    grad[:2 * h] += rows[:2 * h]
    grad[2 * h:3 * h] += rows[3 * h:]
    grad[3 * h:] += rows[2 * h:3 * h]


class _LayerCache:
    """What a layer keeps for the backward: the top layer its gate rows, a
    lower layer its hidden rows, a quarter of that size, from which and
    its input rows the backward recomputes its gates; the rest is None."""

    __slots__ = ("inp", "gates", "hid")

    def __init__(self, inp, gates, hid):
        self.inp = inp        # (N, d_in) packed input rows of layer 0
        self.gates = gates    # (N, 4h) activations of the top layer, gate order (i, f, o, g)
        self.hid = hid        # (N, h) hidden rows of a lower layer


def _dead(spare: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous ``shape`` view of the dead buffer ``spare``, or a new
    array when ``spare`` is too small for one."""
    n = math.prod(shape)
    if spare.size < n:
        return np.empty(shape, spare.dtype)
    return spare.reshape(-1)[:n].reshape(shape)


def lstm_batch_forward(X: np.ndarray, pack: Packing, layers: list[LstmLayer],
                       need_cache: bool = False, work: Workspace | None = None,
                       shared: Workspace | None = None):
    """Run stacked LSTM layers over a packed batch.

    X: (pack.rows, d_in) input rows in ``pack``'s row order, of the
    layers' dtype; anything else raises ValueError before any work.
    Returns (h_last (B, h), caches); an empty sample's h_last is zero.
    With no step to run the cache is empty.

    All four gates share one ``tanh`` over the 4h block (see
    :func:`_gate_layout`).  The cache keeps the top layer's gates in that
    layout, each lower layer's hidden rows and X, which is layer 0's input
    and which the backward overwrites.  The backward recomputes a lower
    layer's gates from its input and hidden rows, and rebuilds every
    layer's cell rows from its gates.

    The arrays come from ``work`` (a fresh :class:`Workspace` when None),
    cached or not, so a cache stays valid until the next call on the same
    workspace; ``need_cache`` only decides whether the caches are returned.
    The top layer's gate rows are key ``("gates", top)``, and a lower
    layer i's hidden rows key ``("hid", i)``.  A lower layer's gate rows
    are the top layer's, which are dead until the top layer's input
    projection (a new array when they are too small).  h_last views key
    ``"h_last"``.  The rows no cache keeps come from the buffer ``shared``
    (``work`` when None), which the backward may take as its own: the top
    layer's hidden rows ``"h_rows"``, a rolling (2, B, h) cell state
    ``"c_roll"`` and the recurrent projection ``"rec"``.
    """
    dtype = layers[0].w_x.values.dtype
    if X.dtype != dtype:
        raise ValueError(f"input rows are {X.dtype}, the layers {dtype}")
    if X.ndim != 2 or X.shape[1] != layers[0].d_in:
        raise ValueError(f"input rows are {X.shape[-1]} wide, the first layer takes "
                         f"{layers[0].d_in}")
    if X.shape[0] != pack.rows:
        raise ValueError(f"packing describes {pack.rows} rows, X has {X.shape[0]}")
    if work is None:
        work = Workspace()
    if shared is None:
        shared = work
    h_last = work.take("h_last", (pack.batch, layers[-1].hidden), dtype)
    if not pack.bs:
        h_last.fill(0.0)
        return h_last, []
    caches: list[_LayerCache] = []
    half = dtype.type(0.5)   # a typed scalar skips a conversion per call
    N = pack.rows
    top = len(layers) - 1
    top_gates = work.take(("gates", top), (N, 4 * layers[top].hidden), dtype)
    inp = X
    for li, layer in enumerate(layers):
        h = layer.hidden
        order, scale = _gate_layout(h, dtype)
        w_h_t = _fused(layer.w_h.values, order, scale).T
        if li == top:
            gates, out = top_gates, shared.take("h_rows", (N, h), dtype)
        else:
            gates, out = _dead(top_gates, (N, 4 * h)), work.take(("hid", li), (N, h), dtype)
        _row_blocked_matmul(inp, _fused(layer.w_x.values, order, scale).T, gates)
        gates += _fused(layer.b.values, order, scale[:, 0])
        c = shared.take("c_roll", (2, pack.bs[0], h), dtype)
        if pack.steps > 1:
            rec = shared.take("rec", (pack.bs[1], 4 * h), dtype)
        for t, b in enumerate(pack.bs):
            r = slice(pack.off[t], pack.off[t] + b)
            z = gates[r]
            ot = out[r]   # also scratch for f * c_prev, before h is written
            if t:
                p = slice(pack.off[t - 1], pack.off[t - 1] + b)
                z += np.matmul(out[p], w_h_t, out=rec[:b])
            np.tanh(z, out=z)
            sig = z[:, :3 * h]
            sig *= half
            sig += half
            ct = c[t % 2, :b]
            np.multiply(z[:, :h], z[:, 3 * h:], out=ct)
            if t:
                ct += np.multiply(z[:, h:2 * h], c[1 - t % 2, :b], out=ot)
            np.tanh(ct, out=ot)
            ot *= z[:, 2 * h:3 * h]
        if need_cache:
            caches.append(_LayerCache(X if li == 0 else None, gates if li == top else None,
                                      None if li == top else out))
        inp = out
    np.take(inp, pack.last, axis=0, out=h_last, mode="clip")
    h_last[pack.last < 0] = 0.0   # an empty sample, whose clipped -1 read row 0
    return h_last, caches


def _recompute_gates(layer: LstmLayer, inp: np.ndarray, hid: np.ndarray, pack: Packing,
                     gates: np.ndarray, work: Workspace) -> np.ndarray:
    """A lower layer's (N, 4h) gate activations into ``gates``, from its
    input rows ``inp`` and its own hidden rows ``hid``, with the forward's
    operations in the forward's order: input projection, bias, one
    recurrent GEMM per step through ``work``'s ``"rec"``, tanh, sigmoid
    half-scale."""
    dtype = gates.dtype
    h = layer.hidden
    order, scale = _gate_layout(h, dtype)
    _row_blocked_matmul(inp, _fused(layer.w_x.values, order, scale).T, gates)
    gates += _fused(layer.b.values, order, scale[:, 0])
    bs, off = pack.bs, pack.off
    if len(bs) > 1:
        w_h_t = _fused(layer.w_h.values, order, scale).T
        rec = work.take("rec", (bs[1], 4 * h), dtype)
        for t in range(1, len(bs)):
            b, p = bs[t], off[t - 1]
            gates[off[t]:off[t] + b] += np.matmul(hid[p:p + b], w_h_t, out=rec[:b])
    np.tanh(gates, out=gates)
    sig = gates[:, :3 * h]
    half = dtype.type(0.5)
    sig *= half
    sig += half
    return gates


def _cell_rows(gates: np.ndarray, pack: Packing, c: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """A layer's (N, h) cell rows into ``c``, rebuilt from its (N, 4h) gate
    activations with the forward's own operations in the forward's order,
    so every row has the forward's bits; ``tmp`` holds B rows of f * c_prev."""
    h = c.shape[1]
    np.multiply(gates[:, :h], gates[:, 3 * h:], out=c)   # i * g of every step at once
    for t, b in enumerate(pack.bs[1:], start=1):
        r = slice(pack.off[t], pack.off[t] + b)
        p = pack.off[t - 1]
        c[r] += np.multiply(gates[r, h:2 * h], c[p:p + b], out=tmp[:b])
    return c


def lstm_batch_backward(caches: list[_LayerCache], layers: list[LstmLayer],
                        pack: Packing, dh_last: np.ndarray,
                        work: Workspace | None = None) -> np.ndarray:
    """Backprop through :func:`lstm_batch_forward`, given the same
    ``pack``; accumulates parameter gradients and returns the gradient on
    the packed input rows X, written over X itself.

    Consumes ``caches``: each step's pre-activation gradient goes over its
    gate rows once read.  Layer by layer from the top, the gate rows are
    the top layer's cached ones, then, once the top layer's gradients are
    taken, each lower layer's gates recomputed over them
    (:func:`_recompute_gates`).  The arrays come from ``work`` (a fresh
    :class:`Workspace` when None), which may be the forward's ``shared``:
    a layer's cell rows are rebuilt from its gates into ``"h_rows"``, and
    the time loop writes each step's hidden state over its cell state once
    that is dead; those rows are the layer's h_prev.  ``"d_rows"`` holds
    the gathered h_prev and then the gradient on the layer's input.  The
    per-step arrays take B rows.
    """
    dtype = layers[0].w_x.values.dtype
    if not pack.bs:
        return np.zeros((0, layers[0].d_in), dtype=dtype)
    if work is None:
        work = Workspace()
    B0 = pack.bs[0]
    order_b = pack.pos[:B0]   # samples, longest first
    N = pack.rows
    # h_prev of a row past the first step is the same sample's row one step
    # earlier, bs[t-1] rows up
    later = slice(B0, N)
    prev = np.arange(B0, N) - np.repeat(np.array(pack.bs[:-1], dtype=np.intp), pack.bs[1:])
    top = len(layers) - 1
    d_above = None  # gradient on the current layer's packed output rows
    for li in range(top, -1, -1):
        layer = layers[li]
        h = layer.hidden
        order, _ = _gate_layout(h, dtype)
        w_h = layer.w_h.values[order]
        inp = caches[li - 1].hid if li else caches[0].inp
        if li == top:
            gates = caches[top].gates
        else:   # the top layer's gate rows are spent: recompute this layer's over them
            gates = _recompute_gates(layer, inp, caches[li].hid, pack,
                                     _dead(caches[top].gates, (N, 4 * h)), work)
        # per step: the gate gradients before the local derivatives, the
        # local derivatives of every gate, and tanh(c) then 1 - tanh(c)^2
        dzs = work.take("dz_step", (B0, 4 * h), dtype)
        dgate = work.take("dgate", (B0, 4 * h), dtype)
        dtc = work.take("dtc", (B0, h), dtype)
        tmp = work.take("tmp", (B0, h), dtype)
        c = _cell_rows(gates, pack, work.take("h_rows", (N, h), dtype), tmp)
        dh = work.take("dh", (B0, h), dtype)
        if li == top:
            np.take(dh_last, order_b, axis=0, out=dh, mode="clip")
        else:
            dh.fill(0.0)
        dc = work.take("dc", (B0, h), dtype)
        dc.fill(0.0)
        for t in range(len(pack.bs) - 1, -1, -1):
            b = pack.bs[t]
            r = slice(pack.off[t], pack.off[t] + b)
            dht = dh[:b]
            if d_above is not None:
                dht += d_above[r]
            a = gates[r]
            dz = dzs[:b]
            dct = dc[:b]
            dtct = np.tanh(c[r], out=dtc[:b])
            np.multiply(dht, dtct, out=dz[:, 2 * h:3 * h])
            np.multiply(dtct, a[:, 2 * h:3 * h], out=c[r])   # c_t is dead: h_t over it
            np.multiply(dtct, dtct, out=dtct)
            np.subtract(1.0, dtct, out=dtct)
            tmpt = np.multiply(dht, a[:, 2 * h:3 * h], out=tmp[:b])
            tmpt *= dtct
            dct += tmpt
            np.multiply(dct, a[:, 3 * h:], out=dz[:, :h])
            if t:
                p = slice(pack.off[t - 1], pack.off[t - 1] + b)
                np.multiply(dct, c[p], out=dz[:, h:2 * h])
            else:
                dz[:, h:2 * h] = 0.0
            np.multiply(dct, a[:, :h], out=dz[:, 3 * h:])
            dg = np.subtract(1.0, a, out=dgate[:b])
            dg *= a
            g = a[:, 3 * h:]
            np.multiply(g, g, out=dg[:, 3 * h:])
            np.subtract(1.0, dg[:, 3 * h:], out=dg[:, 3 * h:])
            dct *= a[:, h:2 * h]
            dz = np.multiply(dz, dg, out=a)   # a's last read: its rows now hold dz
            if t:
                np.matmul(dz, w_h, out=dht)
        DZ = gates   # every row now holds its step's pre-activation gradient
        h_prev = np.take(c, prev, axis=0, out=work.take("d_rows", (N - B0, h), dtype),
                         mode="clip")
        _add_gate_rows(layer.w_h.grad, DZ[later].T @ h_prev)
        _add_gate_rows(layer.b.grad, DZ.sum(axis=0))
        _add_gate_rows(layer.w_x.grad, DZ.T @ inp)
        # layer 0's input rows, read for the last time here, take its gradient
        into = inp if li == 0 else work.take("d_rows", (N, layer.d_in), dtype)
        d_above = _row_blocked_matmul(DZ, layer.w_x.values[order], into)
    return d_above


def _as_seq_array(seq, d_in: int, dtype) -> np.ndarray:
    """A new (T, d_in) array of ``seq``, which the backward may overwrite."""
    arr = np.array(seq, dtype=dtype)
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
    pack = Packing([arr.shape[0]])   # one sequence: its steps are its packed rows
    h, caches = lstm_batch_forward(arr, pack, layers, need_cache=need_cache)
    return h[0], (caches, pack)


def lstm_backward_single(cache, layers: list[LstmLayer], dh: np.ndarray) -> np.ndarray:
    """Backward companion of :func:`lstm_forward_cached` for one sequence."""
    if cache is None:  # empty sequence: constant zero output, no gradients
        return np.zeros((0, layers[0].d_in), dtype=layers[0].w_x.values.dtype)
    caches, pack = cache
    return lstm_batch_backward(caches, layers, pack, dh[None, :])


# -- adam --------------------------------------------------------------------

class Adam:
    """Adam with bias correction.  step() consumes and zeroes the gradients;
    a non-finite gradient is an error rather than a silent poisoning, and
    it is found before any parameter, moment or the step count changes.
    The update's temporaries live in a workspace the optimizer owns."""

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
        self._work = Workspace()

    def step(self) -> None:
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise GradientError(f"non-finite gradient in {p.name or 'parameter'}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            num = self._work.take("num", g.shape, g.dtype)
            den = self._work.take("den", g.shape, g.dtype)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=num)
            v *= b2
            num = np.multiply(g, g, out=num)
            num *= 1.0 - b2
            v += num
            # values -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            num = np.divide(m, bc1, out=num)
            num *= self.lr
            den = np.sqrt(np.divide(v, bc2, out=den), out=den)
            den += self.eps
            num /= den
            p.values -= num
            g.fill(0.0)

import numpy as np
import pytest

from roommem.nn import (
    Adam,
    GradientError,
    LstmLayer,
    Packing,
    ParamTensor,
    Workspace,
    embedding_backward,
    embedding_lookup,
    huber_loss,
    init_uniform,
    linear_backward,
    linear_forward,
    lstm_backward_single,
    lstm_batch_backward,
    lstm_batch_forward,
    lstm_forward_cached,
    relu_backward,
    relu_forward,
    sigmoid,
)

from roommem import nn
from roommem.nn import _cell_rows, _gate_layout, _recompute_gates, _row_blocked_matmul

from .oracles import fd_gradient, masked_lstm_backward, masked_lstm_forward, max_relative_error

TOL = 1e-4


def test_param_tensor_basics():
    p = ParamTensor.of(np.ones((2, 3)), "w")
    assert p.size == 6
    assert p.grad.shape == (2, 3)
    assert np.all(p.grad == 0.0)
    assert not np.shares_memory(p.grad, p.values)


def test_init_uniform_bounds():
    rng = np.random.default_rng(0)
    p = init_uniform(rng, (50, 40), fan_in=100, dtype=np.float64, name="w")
    bound = 1.0 / np.sqrt(100)
    assert np.all(np.abs(p.values) <= bound)
    assert p.values.dtype == np.float64
    # not degenerate
    assert p.values.std() > 0.1 * bound


def test_sigmoid_matches_definition():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)))
    assert np.all(np.isfinite(sigmoid(np.array([-1e4, 1e4]))))


def test_embedding_lookup_and_backward():
    table = ParamTensor.of(np.arange(12, dtype=np.float64).reshape(4, 3), "emb")
    v = embedding_lookup(table, 2)
    assert np.array_equal(v, [6.0, 7.0, 8.0])
    v[:] = 0  # lookup returns a copy, the table is untouched
    assert table.values[2, 0] == 6.0
    embedding_backward(table, 2, np.ones(3))
    embedding_backward(table, 2, np.ones(3))
    assert np.array_equal(table.grad[2], [2.0, 2.0, 2.0])
    assert np.all(table.grad[[0, 1, 3]] == 0.0)


def test_embedding_index_out_of_range():
    table = ParamTensor.of(np.zeros((4, 3)), "emb")
    with pytest.raises(IndexError):
        embedding_lookup(table, 4)
    with pytest.raises(IndexError):
        embedding_backward(table, -1, np.ones(3))


def test_huber_frozen_values():
    loss, grad = huber_loss(np.array([0.0, 0.5, 2.0, -3.0]), np.zeros(4))
    assert np.allclose(loss, [0.0, 0.125, 1.5, 2.5])
    assert np.allclose(grad, [0.0, 0.5, 1.0, -1.0])


def test_huber_gradient_fd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = rng.normal(size=6) * 3
        target = rng.normal(size=6) * 3
        # keep clear of the non-smooth |e| = 1 boundary
        e = pred - target
        pred = np.where(np.abs(np.abs(e) - 1.0) < 0.05, pred + 0.2, pred)
        _, grad = huber_loss(pred, target)

        def f(p):
            loss, _ = huber_loss(p, target)
            return float(loss.sum())

        fd = fd_gradient(f, pred.copy())
        assert max_relative_error(grad, fd) < TOL


def test_linear_gradient_fd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n_in, n_out = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        w = ParamTensor.of(rng.normal(size=(n_out, n_in)), "w")
        b = ParamTensor.of(rng.normal(size=n_out), "b")
        x = rng.normal(size=n_in)
        dy = rng.normal(size=n_out)
        y, cache = linear_forward(x, w, b)
        assert np.allclose(y, w.values @ x + b.values)
        dx = linear_backward(cache, w, b, dy)

        def loss_of(values, tensor):
            saved = tensor.values.copy()
            tensor.values[...] = values
            out, _ = linear_forward(x, w, b)
            tensor.values[...] = saved
            return float(out @ dy)

        assert max_relative_error(w.grad, fd_gradient(lambda v: loss_of(v, w), w.values.copy())) < TOL
        assert max_relative_error(b.grad, fd_gradient(lambda v: loss_of(v, b), b.values.copy())) < TOL
        fd_x = fd_gradient(lambda v: float(linear_forward(v, w, b)[0] @ dy), x.copy())
        assert max_relative_error(dx, fd_x) < TOL


def test_linear_batch_matches_loop():
    rng = np.random.default_rng(3)
    w = ParamTensor.of(rng.normal(size=(4, 5)), "w")
    b = ParamTensor.of(rng.normal(size=4), "b")
    X = rng.normal(size=(6, 5))
    Y, _ = linear_forward(X, w, b)
    for i in range(6):
        yi, _ = linear_forward(X[i], w, b)
        assert np.allclose(Y[i], yi)
    # batched backward accumulates the same gradients as a loop of singles
    dY = rng.normal(size=(6, 4))
    dX = linear_backward(X, w, b, dY)
    wg, bg = w.grad.copy(), b.grad.copy()
    w.grad[...] = 0.0
    b.grad[...] = 0.0
    dX_loop = np.stack([linear_backward(X[i], w, b, dY[i]) for i in range(6)])
    assert np.allclose(wg, w.grad)
    assert np.allclose(bg, b.grad)
    assert np.allclose(dX, dX_loop)


def test_relu_forward_backward():
    x = np.array([-2.0, 0.0, 3.0])
    y, mask = relu_forward(x)
    assert np.array_equal(y, [0.0, 0.0, 3.0])
    assert np.array_equal(relu_backward(mask, np.ones(3)), [0.0, 0.0, 1.0])


def make_lstm_stack(rng, d_in, hidden, n_layers):
    layers = [LstmLayer.create(rng, d_in, hidden, np.float64, "l0")]
    for i in range(1, n_layers):
        layers.append(LstmLayer.create(rng, hidden, hidden, np.float64, f"l{i}"))
    return layers


def test_lstm_empty_sequence_is_zero_vector():
    rng = np.random.default_rng(4)
    layers = make_lstm_stack(rng, 3, 5, 2)
    h, cache = lstm_forward_cached([], layers)
    assert h.shape == (5,)
    assert np.all(h == 0.0) and cache is None
    dX = lstm_backward_single(cache, layers, np.ones(5))
    assert dX.shape == (0, 3)
    assert all(np.all(p.grad == 0.0) for layer in layers for p in layer.parameters())


def _packed(X, pack):
    """The live rows of a padded (T, B, d) batch, in ``pack``'s row order,
    as a new array."""
    return X.reshape(-1, X.shape[2])[pack.pos]


def _padded(rows, pack, like):
    """Packed rows back at their padded positions of an array shaped as
    ``like``, zero at every other position."""
    out = np.zeros_like(like)
    out.reshape(-1, out.shape[2])[pack.pos] = rows
    return out


def test_lstm_batch_agrees_with_single():
    """The padded batched forward must give the same last hidden state as
    running each sequence alone."""
    rng = np.random.default_rng(5)
    layers = make_lstm_stack(rng, 3, 4, 2)
    seqs = [rng.normal(size=(t, 3)) for t in (1, 4, 2, 7)]
    T = max(s.shape[0] for s in seqs)
    B = len(seqs)
    X = np.zeros((T, B, 3))
    for j, s in enumerate(seqs):
        X[: s.shape[0], j] = s
    pack = Packing([s.shape[0] for s in seqs])
    H, _ = lstm_batch_forward(_packed(X, pack), pack, layers)
    for j, s in enumerate(seqs):
        h, _ = lstm_forward_cached(s, layers, need_cache=False)
        assert np.allclose(H[j], h, atol=1e-12)


def test_lstm_gradient_fd():
    rng = np.random.default_rng(6)
    for trial in range(10):
        d_in, hidden = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        layers = make_lstm_stack(rng, d_in, hidden, 2)
        lengths = [int(rng.integers(1, 5)) for _ in range(3)]
        T, B = max(lengths), len(lengths)
        X = rng.normal(size=(T, B, d_in)) * 0.7
        mask = np.zeros((T, B, 1))
        for j, L in enumerate(lengths):
            mask[:L, j] = 1.0
        X = X * mask  # padding stays zero, as in real use
        pack = Packing(lengths)
        dh = rng.normal(size=(B, hidden))

        H, caches = lstm_batch_forward(_packed(X, pack), pack, layers, need_cache=True)
        dX = _padded(lstm_batch_backward(caches, layers, pack, dh), pack, X)
        params = [p for layer in layers for p in layer.parameters()]

        def loss_with(tensor, values):
            saved = tensor.values.copy()
            tensor.values[...] = values
            out, _ = lstm_batch_forward(_packed(X, pack), pack, layers)
            tensor.values[...] = saved
            return float((out * dh).sum())

        for p in params:
            fd = fd_gradient(lambda v, p=p: loss_with(p, v), p.values.copy())
            assert max_relative_error(p.grad, fd) < TOL, (trial, p.name)

        def loss_x(Xv):
            out, _ = lstm_batch_forward(_packed(Xv, pack), pack, layers)
            return float((out * dh).sum())

        fd_x = fd_gradient(loss_x, X.copy())
        # gradient on padded slots is irrelevant, compare only live ones
        assert max_relative_error(dX * mask, fd_x * mask) < TOL


def test_lstm_single_backward_matches_batch():
    rng = np.random.default_rng(7)
    layers = make_lstm_stack(rng, 3, 4, 2)
    seq = rng.normal(size=(5, 3))
    dh = rng.normal(size=4)
    h, cache = lstm_forward_cached(seq, layers)
    dX = lstm_backward_single(cache, layers, dh)
    grads_single = [p.grad.copy() for layer in layers for p in layer.parameters()]
    for layer in layers:
        for p in layer.parameters():
            p.grad[...] = 0.0
    X = seq[:, None, :]
    pack = Packing([5])
    H, caches = lstm_batch_forward(_packed(X, pack), pack, layers, need_cache=True)
    assert np.allclose(H[0], h)
    dX_b = _padded(lstm_batch_backward(caches, layers, pack, dh[None, :]), pack, X)
    grads_batch = [p.grad.copy() for layer in layers for p in layer.parameters()]
    for a, b in zip(grads_single, grads_batch):
        assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(dX, dX_b[:, 0, :], atol=1e-12)


# Tolerances of the packed kernel against the masked reference, fixed from
# the dtype: the kernel computes sigmoid as tanh(z/2)/2 + 1/2 and sums the
# weight gradients over packed rows, so results agree to round-off only.
KERNEL_TOL = {np.float64: dict(rtol=1e-9, atol=1e-12), np.float32: dict(rtol=2e-4, atol=2e-5)}


def _random_batch(rng, dtype, d_in, B, T):
    """Lengths in shuffled order with empty and full samples mixed in, a
    padded batch whose padding is garbage, and its (T, B, 1) mask."""
    lengths = rng.integers(0, T + 1, size=B)
    lengths[:3] = (0, T, 0)
    rng.shuffle(lengths)
    X = rng.normal(size=(T, B, d_in)).astype(dtype)
    mask = (np.arange(T)[:, None] < lengths[None, :]).astype(dtype)[:, :, None]
    return lengths, X, mask


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_packed_kernel_matches_masked_reference(dtype):
    _check_kernel_against_masked_reference(dtype, (5, 6, 6))


def test_packed_kernel_with_a_narrower_upper_layer_matches_masked_reference():
    """An upper layer narrower than its input has no cell rows wide enough
    to hold its input gradient, which then gets an array of its own."""
    _check_kernel_against_masked_reference(np.float64, (5, 6, 3))


def _check_kernel_against_masked_reference(dtype, widths):
    """A stack of layers ``widths[i] -> widths[i + 1]`` against the masked
    reference on a batch with empty, full and garbage-padded samples."""
    rng = np.random.default_rng(12)
    d_in, hidden, B, T = widths[0], widths[-1], 11, 7
    layers = [LstmLayer.create(rng, a, b, dtype, f"l{i}")
              for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    lengths, X, mask = _random_batch(rng, dtype, d_in, B, T)
    dh = rng.normal(size=(B, hidden)).astype(dtype)
    params = [p for layer in layers for p in layer.parameters()]

    h_ref, caches = masked_lstm_forward(X * mask, mask, layers)
    dX_ref = masked_lstm_backward(caches, layers, mask, dh)
    grads_ref = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0

    # the kernel gets the live rows of the unmasked batch
    pack = Packing(lengths)
    h, caches = lstm_batch_forward(_packed(X, pack), pack, layers, need_cache=True)
    dX = _padded(lstm_batch_backward(caches, layers, pack, dh), pack, X)
    tol = KERNEL_TOL[dtype]
    assert h.dtype == dtype and dX.dtype == dtype
    np.testing.assert_allclose(h, h_ref, **tol)
    assert np.all(h[lengths == 0] == 0.0)
    for p, g_ref in zip(params, grads_ref):
        np.testing.assert_allclose(p.grad, g_ref, err_msg=p.name, **tol)
    np.testing.assert_allclose(dX * mask, dX_ref * mask, **tol)
    assert np.all(dX[mask[..., 0] == 0.0] == 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("widths", [(5, 6), (5, 6, 6), (5, 6, 3)],
                         ids=["one_layer", "two_layers", "narrower_upper"])
def test_backward_rebuilds_the_forward_cell_and_hidden_rows(dtype, widths, monkeypatch):
    """The cache keeps the top layer's gate rows and each lower layer's
    hidden rows.  The backward recomputes a lower layer's gates from its
    input and hidden rows and rebuilds each layer's cell rows from its
    gates, and training stays bit-identical only if every such row has
    the forward's bits.  The forward's rows are read where it leaves them:
    the forward of the first t steps leaves step t-1's cell state in its
    rolling buffer, and a stack's forward leaves its top layer's hidden
    rows.  The hidden rows the backward has, rebuilt for the top layer and
    cached below it, are what its weight gradients multiply: h_prev for
    w_h, and the layer below's rows for an upper layer's w_x."""
    rng = np.random.default_rng(17)
    B, T = 9, 6
    layers = [LstmLayer.create(rng, a, b, dtype, f"l{i}")
              for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    lengths, X, _ = _random_batch(rng, dtype, widths[0], B, T)
    pack = Packing(lengths)
    # each layer's forward cell and hidden rows at their padded (T * B) positions
    cells, hidden = [], []
    for k, layer in enumerate(layers, start=1):
        h = layer.hidden
        shared = Workspace()
        lstm_batch_forward(_packed(X, pack), pack, layers[:k], shared=shared)
        rows = np.zeros((T * B, h), dtype)
        rows[pack.pos] = shared._flat["h_rows"][:pack.rows * h].reshape(-1, h)
        hidden.append(rows)
        rows = np.zeros((T * B, h), dtype)
        for t in range(1, T + 1):
            part = Packing(np.minimum(lengths, t))
            shared = Workspace()
            lstm_batch_forward(_packed(X, part), part, layers[:k], shared=shared)
            b, B0 = part.bs[t - 1], part.bs[0]
            roll = shared._flat["c_roll"][:2 * B0 * h].reshape(2, B0, h)
            rows[part.pos[part.off[t - 1]:part.off[t - 1] + b]] = roll[(t - 1) % 2, :b]
        cells.append(rows)

    work = Workspace()
    _, caches = lstm_batch_forward(_packed(X, pack), pack, layers, need_cache=True, work=work)
    top = len(layers) - 1
    for li, (cache, layer, want) in enumerate(zip(caches, layers, cells)):
        h = layer.hidden
        if li < top:
            assert np.array_equal(cache.hid, hidden[li][pack.pos]), layer.w_x.name
            inp = caches[li - 1].hid if li else cache.inp
            gates = _recompute_gates(layer, inp, cache.hid, pack,
                                     np.empty((pack.rows, 4 * h), dtype), Workspace())
        else:
            gates = cache.gates
        c = _cell_rows(gates, pack, np.empty((pack.rows, h), dtype), np.empty((B, h), dtype))
        assert np.array_equal(c, want[pack.pos]), layer.w_x.name

    # each layer's gate gradients, as the backward multiplies them into the
    # gradient on its input: the only GEMMs whose output is narrower than
    # their input
    dz = []
    inner = nn._row_blocked_matmul

    def recorded(a, b, out):
        if out.shape[1] < a.shape[1]:
            dz.insert(0, a.copy())
        return inner(a, b, out)
    monkeypatch.setattr(nn, "_row_blocked_matmul", recorded)
    dh = rng.normal(size=(B, widths[-1])).astype(dtype)
    lstm_batch_backward(caches, layers, pack, dh, work=work)
    assert len(dz) == len(layers)
    B0 = pack.bs[0]
    for li, layer in enumerate(layers):
        order = _gate_layout(layer.hidden, np.dtype(dtype))[0]
        h_prev = hidden[li][pack.pos[B0:] - B]   # the same sample one step earlier
        assert np.array_equal(layer.w_h.grad[order], dz[li][B0:].T @ h_prev), layer.w_h.name
        if li:
            below = hidden[li - 1][pack.pos]
            assert np.array_equal(layer.w_x.grad[order], dz[li].T @ below), layer.w_x.name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("widths", [(64, 64, 64, 64), (5, 6, 3)],
                         ids=["three_layers", "narrower_upper"])
def test_recomputed_gates_are_the_forward_gates(dtype, widths):
    """The backward recomputes each lower layer's gates, and its cell rows,
    time loop and gradients have the forward's bits only if these gates
    do.  Layer k's forward gates are the top layer's gate cache of the
    stack's first k + 1 layers.  Both packings have steps of every row
    count from 1 to 4 beside taller ones, and the tall one has more
    packed rows than one input-projection block."""
    rng = np.random.default_rng(19)
    layers = [LstmLayer.create(rng, a, b, dtype, f"l{i}")
              for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    tall = np.concatenate([np.arange(37, 41), rng.integers(0, 37, size=400)])
    small = np.array([6, 10, 6, 9, 6, 0, 8, 6, 7, 6, 6])
    for lengths in (tall, small):
        pack = Packing(lengths)
        assert {1, 2, 3, 4} <= set(pack.bs) and pack.bs[1] > 4
        X = rng.normal(size=(pack.rows, widths[0])).astype(dtype)
        _, caches = lstm_batch_forward(X, pack, layers, need_cache=True)
        for k, layer in enumerate(layers[:-1]):
            _, want = lstm_batch_forward(X, pack, layers[:k + 1], need_cache=True)
            inp = caches[k - 1].hid if k else X
            gates = np.full((pack.rows, 4 * layer.hidden), np.nan, dtype)
            assert _recompute_gates(layer, inp, caches[k].hid, pack, gates, Workspace()) is gates
            assert np.array_equal(gates, want[-1].gates), (len(lengths), k)


def test_packing_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Packing([2, -1])
    layers = make_lstm_stack(np.random.default_rng(0), 3, 4, 1)
    with pytest.raises(ValueError):
        lstm_batch_forward(np.zeros((4, 3)), Packing([1, 2]), layers)


def test_lstm_batch_forward_rejects_rows_of_another_dtype_or_width():
    """The backward writes the input gradient over the input rows, so rows
    that the layers' dtype or width does not fit are refused before any
    work, with both dtypes or both widths named."""
    rng = np.random.default_rng(15)
    layers = [LstmLayer.create(rng, 3, 4, np.float32, "l0")]
    pack = Packing([3, 2])
    for X, match in ((rng.normal(size=(5, 3)), "float64.*float32"),
                     (rng.normal(size=(5, 4)).astype(np.float32), "4 wide.*takes 3")):
        before = X.copy()
        work = Workspace()
        with pytest.raises(ValueError, match=match):
            lstm_batch_forward(X, pack, layers, need_cache=True, work=work)
        assert not work._flat
        assert np.array_equal(X, before)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_single_sequence_helpers_leave_the_sequence_alone(dtype):
    """The batched backward writes its input gradient over the input rows;
    the single-sequence helpers give it a copy of the caller's sequence."""
    rng = np.random.default_rng(16)
    layers = [LstmLayer.create(rng, 3, 4, dtype, "l0"), LstmLayer.create(rng, 4, 4, dtype, "l1")]
    seq = rng.normal(size=(5, 3)).astype(dtype)
    before = seq.copy()
    _, cache = lstm_forward_cached(seq, layers)
    dX = lstm_backward_single(cache, layers, np.ones(4, dtype))
    assert np.array_equal(seq, before)
    assert not np.shares_memory(dX, seq)


def test_layer_cache_is_smaller_than_the_masked_layout():
    """The masked kernel kept eight (T, B, h) arrays per layer (i, f, g, o,
    candidate cell, its tanh, h_prev, c_prev).  The packed cache holds,
    over live rows only, the top layer's gate rows, each lower layer's
    hidden rows, and the caller's input rows for layer 0, so even a batch
    with no padding at all needs fewer bytes: half the masked layout for
    the top layer, an eighth for a layer below it."""
    rng = np.random.default_rng(14)
    T, B, d_in, hidden = 6, 5, 3, 4
    layers = make_lstm_stack(rng, d_in, hidden, 3)
    X = rng.normal(size=(T, B, d_in))
    for lengths in (np.full(B, T), np.array([6, 1, 0, 3, 2])):
        pack = Packing(lengths)
        rows = _packed(X, pack)
        _, caches = lstm_batch_forward(rows, pack, layers, need_cache=True)
        masked = 8 * T * B * hidden * X.itemsize
        assert caches[0].inp is rows
        for li, cache in enumerate(caches):
            assert cache.__slots__ == ("inp", "gates", "hid")
            assert li == 0 or cache.inp is None
            if li == len(layers) - 1:
                assert cache.hid is None
                assert cache.gates.nbytes <= masked // 2
                assert cache.gates.shape == (lengths.sum(), 4 * hidden)
            else:
                assert cache.gates is None
                assert cache.hid.nbytes <= masked // 8
                assert cache.hid.shape == (lengths.sum(), hidden)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1023, 1025, 2049, 13200])
def test_row_blocked_matmul_is_one_matmul_bit_for_bit(dtype, rows):
    """A canary for the BLAS: the row blocks of the LSTM kernel's tall GEMMs
    give every output row the bits of one whole-height ``np.matmul``, at
    the kernel's operand widths (packed input rows 64 or 96 wide, gate
    rows 256 wide) and with the transposed weight views the forward uses."""
    rng = np.random.default_rng(rows)
    for k, m in ((64, 256), (96, 256), (256, 64), (256, 96)):
        a = rng.normal(size=(rows, k)).astype(dtype)
        w = rng.normal(size=(m, k)).astype(dtype)
        for b in (w.T, np.ascontiguousarray(w.T)):
            out = np.full((rows, m), np.nan, dtype)
            assert _row_blocked_matmul(a, b, out) is out
            assert np.array_equal(out, np.matmul(a, b)), (k, m, b.flags.c_contiguous)


def test_adam_single_step_frozen():
    """First Adam step moves each weight by lr * g / (|g| + eps) after bias
    correction, computed here from the published update rule."""
    vals = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    p = ParamTensor.of(vals.copy(), "w")
    p.grad[...] = g
    opt = Adam([p], lr=0.01)
    opt.step()
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expect = vals - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.values, expect, rtol=0, atol=1e-12)
    # step() consumed and cleared the gradient
    assert np.all(p.grad == 0.0)


def test_adam_two_steps_match_reference_loop():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(2)]
    p = ParamTensor.of(vals.copy(), "w")
    opt = Adam([p], lr=0.05)
    for g in grads:
        p.grad[...] = g
        opt.step()

    # independent reference implementation
    m = np.zeros_like(vals)
    v = np.zeros_like(vals)
    x = vals.copy()
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        x = x - 0.05 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(p.values, x, atol=1e-12)


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(9)
    p = ParamTensor.of(rng.normal(size=5) * 3, "x")
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.grad[...] = 2 * p.values
        opt.step()
    assert np.all(np.abs(p.values) < 1e-3)


def test_adam_rejects_non_finite_gradient():
    """A NaN in the last gradient is found before any value, moment,
    gradient or the step count changes."""
    rng = np.random.default_rng(10)
    params = [ParamTensor.of(rng.normal(size=(2, 3)), f"p{i}") for i in range(3)]
    opt = Adam(params, lr=0.1)
    for p in params:
        p.grad[...] = rng.normal(size=p.values.shape)
    opt.step()
    for p in params:
        p.grad[...] = rng.normal(size=p.values.shape)
    params[-1].grad[1, 2] = np.nan
    before = [[a.copy() for a in group]
              for group in ([p.values for p in params], [p.grad for p in params],
                            opt._m, opt._v)]
    with pytest.raises(GradientError):
        opt.step()
    assert opt.t == 1
    after = ([p.values for p in params], [p.grad for p in params], opt._m, opt._v)
    for old_group, new_group in zip(before, after):
        for a, b in zip(old_group, new_group):
            assert np.array_equal(a, b, equal_nan=True)

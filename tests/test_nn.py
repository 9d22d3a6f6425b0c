import numpy as np
import pytest

from roommem.nn import (
    Adam,
    GradientError,
    LstmLayer,
    Packing,
    ParamTensor,
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
    H, _ = lstm_batch_forward(X, Packing([s.shape[0] for s in seqs]), layers)
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

        H, caches = lstm_batch_forward(X, pack, layers, need_cache=True)
        dX = lstm_batch_backward(caches, layers, pack, dh)
        params = [p for layer in layers for p in layer.parameters()]

        def loss_with(tensor, values):
            saved = tensor.values.copy()
            tensor.values[...] = values
            out, _ = lstm_batch_forward(X, pack, layers)
            tensor.values[...] = saved
            return float((out * dh).sum())

        for p in params:
            fd = fd_gradient(lambda v, p=p: loss_with(p, v), p.values.copy())
            assert max_relative_error(p.grad, fd) < TOL, (trial, p.name)

        def loss_x(Xv):
            out, _ = lstm_batch_forward(Xv, pack, layers)
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
    H, caches = lstm_batch_forward(X, pack, layers, need_cache=True)
    assert np.allclose(H[0], h)
    dX_b = lstm_batch_backward(caches, layers, pack, dh[None, :])
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
    rng = np.random.default_rng(12)
    d_in, hidden, B, T = 5, 6, 11, 7
    layers = [LstmLayer.create(rng, d_in, hidden, dtype, "l0"),
              LstmLayer.create(rng, hidden, hidden, dtype, "l1")]
    lengths, X, mask = _random_batch(rng, dtype, d_in, B, T)
    dh = rng.normal(size=(B, hidden)).astype(dtype)
    params = [p for layer in layers for p in layer.parameters()]

    h_ref, caches = masked_lstm_forward(X * mask, mask, layers)
    dX_ref = masked_lstm_backward(caches, layers, mask, dh)
    grads_ref = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0

    # padding must never be read, so the kernel gets it unmasked
    pack = Packing(lengths)
    h, caches = lstm_batch_forward(X, pack, layers, need_cache=True)
    dX = lstm_batch_backward(caches, layers, pack, dh)
    tol = KERNEL_TOL[dtype]
    assert h.dtype == dtype and dX.dtype == dtype
    np.testing.assert_allclose(h, h_ref, **tol)
    assert np.all(h[lengths == 0] == 0.0)
    for p, g_ref in zip(params, grads_ref):
        np.testing.assert_allclose(p.grad, g_ref, err_msg=p.name, **tol)
    np.testing.assert_allclose(dX * mask, dX_ref * mask, **tol)
    assert np.all(dX[mask[..., 0] == 0.0] == 0.0)


def test_packing_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Packing([2, -1])
    layers = make_lstm_stack(np.random.default_rng(0), 3, 4, 1)
    with pytest.raises(ValueError):
        lstm_batch_forward(np.zeros((4, 2, 3)), Packing([1, 2]), layers)


def test_layer_cache_is_smaller_than_the_masked_layout():
    """The masked kernel kept eight (T, B, h) arrays per layer (i, f, g, o,
    candidate cell, its tanh, h_prev, c_prev).  The packed cache holds one
    gate array plus the cell and hidden state, over live rows only, so even
    a batch with no padding at all needs fewer bytes."""
    rng = np.random.default_rng(14)
    T, B, d_in, hidden = 6, 5, 3, 4
    layers = make_lstm_stack(rng, d_in, hidden, 2)
    X = rng.normal(size=(T, B, d_in))
    for lengths in (np.full(B, T), np.array([6, 1, 0, 3, 2])):
        _, caches = lstm_batch_forward(X, Packing(lengths), layers, need_cache=True)
        masked = 8 * T * B * hidden * X.itemsize
        for cache in caches:
            assert cache.gates.nbytes + cache.c.nbytes + cache.out.nbytes < masked
            assert cache.gates.shape == (lengths.sum(), 4 * hidden)


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
    p = ParamTensor.of(np.zeros(2), "w")
    p.grad[...] = [np.nan, 0.0]
    opt = Adam([p])
    with pytest.raises(GradientError):
        opt.step()

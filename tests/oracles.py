"""Reference implementations the real code is checked against.

Everything here is written the slow, obvious way on purpose: explicit
filters, explicit argmax loops, central finite differences.  The tests
assert the fast implementations agree with these.
"""
import numpy as np

from roommem.des import build_room, tick
from roommem.env import Question, world_kb
from roommem.memory import RELATION, MemorySystem, Quadruple, format_head, strip_owner
from roommem.seeding import ROLE_DES, ROLE_QUESTIONS, derive_rng, derive_seed


def oracle_retrieve(question_head, episodic_entries, semantic_entries):
    """Filter-then-argmax answer lookup.

    Episodic candidates match the full owner-qualified head; the winner has
    the maximum timestamp, and among equal timestamps the one inserted last.
    Only if no episodic candidate exists, semantic candidates match the bare
    object, winner by maximum strength with the same last-inserted tie rule.
    """
    cands = [e for e in episodic_entries if e.head == question_head]
    if cands:
        best_val = max(e.value for e in cands)
        return [e for e in cands if e.value == best_val][-1]
    _, obj = strip_owner(question_head)
    cands = [e for e in semantic_entries if e.head == obj]
    if not cands:
        return None
    best_val = max(e.value for e in cands)
    return [e for e in cands if e.value == best_val][-1]


def observed_locations(stream, question_head):
    """Tails of the observations in ``stream`` ((observation, question) pairs
    in step order) whose head is ``question_head``, oldest first."""
    return [obs.tail for obs, _ in stream if obs.head == question_head]


class LazyRoomEnv:
    """The room simulated as it is read, one tick per step, with the same
    interface as ``RoomEnv``: build the room at reset, then each step tick
    it, observe the next human in round-robin order and draw the question
    from the questions' own generator.  Answers are graded against the asked
    human's location at its latest observation."""

    def __init__(self, config):
        self.config = config

    def reset(self):
        cfg = self.config
        self.kb = world_kb(cfg)
        self.room = build_room(self.kb, cfg, seed=derive_seed(cfg.seed, ROLE_DES))
        self.qrng = derive_rng(cfg.seed, ROLE_QUESTIONS)
        self.last_seen = {}
        self.t = 0
        return self._advance()

    def _advance(self):
        tick(self.room)
        humans = self.room.humans
        h = humans[self.t % len(humans)]
        self.last_seen[h.name] = h.location
        obs = Quadruple(format_head(h.name, h.obj), RELATION, h.location, self.t)
        self.t += 1
        asked = humans[int(self.qrng.integers(min(self.t, len(humans))))]
        self.graded = self.last_seen[asked.name]
        return obs, Question(format_head(asked.name, asked.obj), RELATION)

    def step(self, answer):
        reward = int(answer == self.graded)
        if self.t == self.config.episode_length:
            return None, None, reward, True
        return (*self._advance(), reward, False)


def random_memory_state(rng, max_size=64):
    """Random episodic/semantic systems with deliberately heavy value and
    head collisions so tie paths get exercised."""
    humans = [f"H{i}" for i in range(4)]
    objects = [f"obj{i}" for i in range(3)]
    locations = [f"loc{i}" for i in range(5)]
    m_e = MemorySystem("episodic", max_size)
    m_s = MemorySystem("semantic", max_size)
    n_e = int(rng.integers(0, max_size + 1))
    n_s = int(rng.integers(0, max_size + 1))
    for _ in range(n_e):
        head = f"{humans[rng.integers(4)]}'s {objects[rng.integers(3)]}"
        m_e.entries.append(Quadruple(
            head, "AtLocation", locations[rng.integers(5)], int(rng.integers(0, 6))))
    for _ in range(n_s):
        m_s.entries.append(Quadruple(
            objects[rng.integers(3)], "AtLocation",
            locations[rng.integers(5)], int(rng.integers(1, 5))))
    q_head = f"{humans[rng.integers(4)]}'s {objects[rng.integers(3)]}"
    return q_head, m_e, m_s


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def max_relative_error(analytic, numeric):
    """max |a - n| / max(1, |n|) over all elements; the denominator floor
    keeps near-zero entries from blowing up the ratio."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(n))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _ref_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def masked_lstm_forward(X, mask, layers):
    """Stacked LSTM over a padded batch, one masked step at a time.

    X: (T, B, d_in); mask: (T, B, 1) with 1.0 while t is inside the sample's
    sequence.  Every sample runs every step; a finished sample's state is
    carried through by the mask.  Gate order (i, f, g, o).  Returns
    (h_last (B, h), per-layer caches for :func:`masked_lstm_backward`)."""
    T, B, _ = X.shape
    dtype = layers[0].w_x.values.dtype
    caches = []
    inp = X
    h_cur = np.zeros((B, layers[-1].hidden), dtype=dtype)
    for layer in layers:
        h = layer.hidden
        xz = (inp.reshape(T * B, -1) @ layer.w_x.values.T).reshape(T, B, 4 * h) + layer.b.values
        cache = {k: np.empty((T, B, h), dtype=dtype)
                 for k in ("i", "f", "g", "o", "tc", "h_prev", "c_prev")}
        out = np.empty((T, B, h), dtype=dtype)
        h_cur = np.zeros((B, h), dtype=dtype)
        c_cur = np.zeros((B, h), dtype=dtype)
        for t in range(T):
            z = xz[t] + h_cur @ layer.w_h.values.T
            i = _ref_sigmoid(z[:, :h])
            f = _ref_sigmoid(z[:, h:2 * h])
            g = np.tanh(z[:, 2 * h:3 * h])
            o = _ref_sigmoid(z[:, 3 * h:])
            cc = f * c_cur + i * g
            tc = np.tanh(cc)
            for k, v in (("i", i), ("f", f), ("g", g), ("o", o), ("tc", tc),
                         ("h_prev", h_cur), ("c_prev", c_cur)):
                cache[k][t] = v
            m = mask[t]
            h_cur = m * (o * tc) + (1.0 - m) * h_cur
            c_cur = m * cc + (1.0 - m) * c_cur
            out[t] = h_cur
        cache["inp"] = inp
        caches.append(cache)
        inp = out
    return h_cur, caches


def masked_lstm_backward(caches, layers, mask, dh_last):
    """Gradients of :func:`masked_lstm_forward`: accumulates into the layers'
    ``grad`` arrays and returns dL/dX (T, B, d_in)."""
    d_above = None
    for li in range(len(layers) - 1, -1, -1):
        layer, cache = layers[li], caches[li]
        T, B, h = cache["i"].shape
        DZ = np.empty((T, B, 4 * h), dtype=cache["i"].dtype)
        dh = dh_last.copy() if li == len(layers) - 1 else np.zeros((B, h), dtype=DZ.dtype)
        dc = np.zeros((B, h), dtype=DZ.dtype)
        for t in range(T - 1, -1, -1):
            if d_above is not None:
                dh = dh + d_above[t]
            m = mask[t]
            dhc, dh_keep = m * dh, (1.0 - m) * dh
            dcc, dc_keep = m * dc, (1.0 - m) * dc
            i, f, g, o = (cache[k][t] for k in ("i", "f", "g", "o"))
            tc, c_prev = cache["tc"][t], cache["c_prev"][t]
            do = dhc * tc
            dcc = dcc + dhc * o * (1.0 - tc * tc)
            DZ[t, :, :h] = dcc * g * i * (1.0 - i)
            DZ[t, :, h:2 * h] = dcc * c_prev * f * (1.0 - f)
            DZ[t, :, 2 * h:3 * h] = dcc * i * (1.0 - g * g)
            DZ[t, :, 3 * h:] = do * o * (1.0 - o)
            dc = dcc * f + dc_keep
            dh = DZ[t] @ layer.w_h.values + dh_keep
        DZf = DZ.reshape(T * B, 4 * h)
        layer.w_x.grad += DZf.T @ cache["inp"].reshape(T * B, -1)
        layer.w_h.grad += DZf.T @ cache["h_prev"].reshape(T * B, h)
        layer.b.grad += DZf.sum(axis=0)
        d_above = (DZf @ layer.w_x.values).reshape(T, B, -1)
    return d_above

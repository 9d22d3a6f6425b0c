"""In-memory span tracer and the statistics the benchmark reports.

The tracer replaces a public name with a timing wrapper at the place its
caller looks it up: a module attribute (``roommem.env.tick``) or a class
attribute (``roommem.qnet.QNetwork.forward_batch``).  roommem binds names
with ``from .x import y``, so a wrapper on the defining module alone would
miss calls made through the importing module, so each wrapper goes on the
owner that the caller actually reads.

Spans live in flat ``array`` columns (name id, start ns, end ns, parent
index, run id) so that a few hundred thousand of them stay small, and are
written out once, when the benchmark ends.  Self time of a span is its
duration minus the durations of its direct children; since calls nest
strictly on one thread, the self times of all spans in a run add up to the
duration of its top-level spans.
"""
from __future__ import annotations

import json
import math
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Records spans for every installed wrapper until :meth:`restore`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, span, after=None):
        """Timing wrapper for ``fn``.  ``span`` is the span name, or a
        callable ``(args, kwargs) -> name`` for names that depend on the
        call.  ``after(args, kwargs, result)`` runs outside the span."""
        fixed = None if callable(span) else self.name_id(span)
        label = span if fixed is None else None
        name_col, start, end, parent, run = (self.name, self.start, self.end,
                                             self.parent, self.run)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            nid = fixed if label is None else tracer.name_id(label(args, kwargs))
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, span, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, span, after))

    def mark(self) -> int:
        """Number of patches installed so far, for :meth:`restore`."""
        return len(self._patches)

    def restore(self, mark: int = 0) -> None:
        """Undo the patches made after ``mark``, newest first."""
        while len(self._patches) > mark:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def columns(self, runs=None):
        """(name, duration ns, self ns, parent) numpy columns, optionally only
        for spans whose run id is in ``runs``."""
        # copies, so that the columns can keep growing afterwards
        name = np.array(self.name, dtype=np.int32)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int32)
        run = np.array(self.run, dtype=np.int32)
        return span_table(name, start, end, parent, run, runs)

    def durations(self, span: str, runs=None) -> np.ndarray:
        """Durations in ns of every span with this name, in call order."""
        nid = self._ids.get(span)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        t = self.columns(runs)
        return t["dur"][t["name"] == nid]

    def spans_of(self, span: str, runs=None) -> np.ndarray:
        """(start, end) ns pairs of every span with this name."""
        nid = self._ids.get(span)
        if nid is None:
            return np.zeros((0, 2), dtype=np.int64)
        t = self.columns(runs)
        sel = t["name"] == nid
        return np.stack([t["start"][sel], t["end"][sel]], axis=1)

    def summary(self, runs=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy ns (inclusive) and self ns."""
        t = self.columns(runs)
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = t["name"] == nid
            if not sel.any():
                continue
            out[name] = {"calls": int(sel.sum()), "busy_ns": int(t["dur"][sel].sum()),
                         "self_ns": int(t["self"][sel].sum())}
        return out

    def covered_ns(self, runs=None) -> int:
        """Time covered by top-level spans, which equals the sum of all self
        times."""
        t = self.columns(runs)
        return int(t["dur"][t["top"]].sum())

    def dump(self, path) -> None:
        """Write every span: a JSON name table and the raw columns."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 run=np.array(self.run, dtype=np.int32))


def span_table(name, start, end, parent, run, runs=None) -> dict[str, np.ndarray]:
    """Duration and self time of each span from raw columns.

    ``parent`` holds the index of the enclosing span or ``NO_PARENT``.  A
    span's self time is its duration minus its direct children's durations.
    ``top`` marks spans with no parent.  With ``runs`` given, only spans
    whose run id is in it are returned (children share their parent's run).
    """
    dur = end - start
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_ns = dur - child.astype(np.int64)
    table = {"name": name, "start": start, "end": end, "dur": dur,
             "self": self_ns, "top": ~has_parent}
    if runs is not None:
        keep = np.isin(run, np.asarray(list(runs), dtype=np.int32))
        table = {k: v[keep] for k, v in table.items()}
    return table


# -- statistics -------------------------------------------------------------

MIN_BEYOND = 10


def percentile(values, q: float):
    """Nearest-rank q-th percentile, or None when fewer than ten samples lie
    beyond it (so p50 needs 20 samples, p90 100 and p99 1000)."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(ordered[rank - 1])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0

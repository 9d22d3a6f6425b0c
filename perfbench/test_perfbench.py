"""Tests for the benchmark's own helpers: span self time, the percentile
rule, failure counting against a reference, and the metrics a run reports.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import copy
import math
import types

import numpy as np
import pytest

from bench import select_reported
from tracer import NO_PARENT, Tracer, median, percentile, span_table
from workloads import (array_bytes, compare_sequences, eval_grid_failures,
                       load_reference, non_finite)


def test_self_time_subtracts_direct_children_only():
    #  a [0, 100] ── b [10, 40]
    #             └─ c [50, 90] ── d [60, 70]
    #  e [120, 130]
    start = np.array([0, 10, 50, 60, 120])
    end = np.array([100, 40, 90, 70, 130])
    parent = np.array([NO_PARENT, 0, 0, 2, NO_PARENT])
    t = span_table(np.arange(5), start, end, parent, np.zeros(5, np.int32))
    assert t["self"].tolist() == [30, 30, 30, 10, 10]
    assert t["self"].sum() == t["dur"][t["top"]].sum() == 110


def test_span_table_filters_runs():
    start = np.array([0, 1, 10])
    end = np.array([5, 2, 20])
    parent = np.array([NO_PARENT, 0, NO_PARENT])
    run = np.array([0, 0, 1], np.int32)
    t = span_table(np.arange(3), start, end, parent, run, runs=[1])
    assert t["dur"].tolist() == [10]
    assert t["self"].tolist() == [10]


def test_tracer_nests_spans_and_restores_patches():
    calls = []
    mod = types.SimpleNamespace()

    def inner(x):
        calls.append("inner")
        return x + 1

    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    tracer.patch(mod, "inner", "m.inner")
    tracer.patch(mod, "outer", "m.outer")
    tracer.run_id = 7
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.inner is inner
    assert mod.outer(1) == 4  # unwrapped again: no new spans
    summary = tracer.summary([7])
    assert summary["m.outer"]["calls"] == summary["m.inner"]["calls"] == 1
    assert tracer.parent.tolist() == [NO_PARENT, 0]
    outer, inner_s = summary["m.outer"], summary["m.inner"]
    assert outer["self_ns"] == outer["busy_ns"] - inner_s["busy_ns"]
    assert outer["self_ns"] + inner_s["self_ns"] == tracer.covered_ns([7])


def test_tracer_records_span_when_call_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.patch(mod, "boom", "m.boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    tracer.restore()
    assert tracer.summary()["m.boom"]["calls"] == 1
    assert tracer._stack == [NO_PARENT]


def test_tracer_wraps_methods_on_the_class():
    class Box:
        def get(self, k):
            return k * 3

    tracer = Tracer()
    seen = []
    tracer.patch(Box, "get", lambda args, kwargs: f"box.get.{args[1]}",
                 after=lambda args, kwargs, result: seen.append(result))
    assert Box().get(2) == 6
    tracer.restore()
    assert seen == [6]
    assert list(tracer.summary()) == ["box.get.2"]
    assert "get" in Box.__dict__ and not hasattr(Box.__dict__["get"], "__wrapped__")


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert percentile(list(range(needed - 1)), q) is None
    value = percentile(list(range(needed)), q)
    assert value is not None
    assert sum(1 for v in range(needed) if v > value) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))[::-1]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


def test_median():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 3, 2]) == 2.5


def test_eval_grid_failures_count_each_wrong_output():
    reference = load_reference()["0"]
    observed = copy.deepcopy(reference)
    assert eval_grid_failures(observed, reference, 10) == (28, 0)

    wrong = copy.deepcopy(reference)
    wrong["baseline"]["random"]["32"][0] += 1          # one cell off by one
    assert eval_grid_failures(observed, wrong, 10) == (28, 1)

    wrong = copy.deepcopy(reference)
    wrong["greedy"]["actions"] = [1, 1279, 0]          # action mix differs
    assert eval_grid_failures(observed, wrong, 10) == (28, 10)

    errored = copy.deepcopy(reference)
    errored["baseline"]["semantic-only"]["2"] = "ValueError: boom"
    errored["greedy"] = "GradientError: non-finite q-values"
    assert eval_grid_failures(errored, reference, 10) == (28, 11)


def test_sequence_and_finiteness_checks():
    assert compare_sequences([1.0, 2.0], [1.0, 2.0]) == 0
    assert compare_sequences([1.0, 2.0], [1.0, 2.5]) == 1
    assert compare_sequences([1.0, 2.0, 3.0], [1.0]) == 2
    assert non_finite([1.0, math.nan, math.inf, 0.0]) == 2


def test_array_bytes_counts_shared_memory_once():
    a = np.zeros((4, 8))
    slots = type("Slots", (), {"__slots__": ("x", "y")})()
    slots.x, slots.y = a, a[1:]
    assert array_bytes(([a, a.T], {"k": slots}, None)) == a.nbytes
    assert array_bytes((a, np.ones(3, np.int32))) == a.nbytes + 12


def test_missing_layer_metric_is_zero_and_missing_end_to_end_metric_fails():
    result = {"printed": {"wall_s": (1.5, "s")}}
    e2e = select_reported(result, trace=False)
    assert e2e["wall_s"] == (1.5, "s")
    assert e2e["setup_s"] == (None, "s")
    layer = select_reported(result, trace=True)
    assert layer["trainer.td_loss.self_ms"] == (0, "ms")
    assert all(value == 0 for value, _ in layer.values())

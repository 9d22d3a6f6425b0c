"""Runs one workload and turns its units and spans into metrics.

A run repeats the workload's unit until the next one would end after
``--seconds`` (and at least ``min_units`` times).  It times
``SETUP_REPEATS`` set-ups before the first unit and again after every
unit.  With tracing on, each round runs one traced and one untraced unit;
end-to-end metrics come from untraced units only, per-layer metrics from
traced units only, averaged per unit.

``setup_s`` is the fastest set-up of the run, ``wall_s`` the median unit.
On a shared host, other tenants slow this process by up to 1.8x for
seconds to minutes at a time.  A round of set-ups lasts about 0.1 s and
so runs wholly at one speed, which makes the median of a run's set-ups
jump between the two; the fastest set-up reads the program's own cost
whenever the host was quiet for one round.  A unit lasts seconds and
averages over both speeds, so its median is the steadier statistic.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from roommem.memory import ACTION_NAMES
from roommem.qnet import BRANCHES
from tracer import Tracer, median
from workloads import (LAYERS, SETUP_REPEATS, SETUP_RUN, WORKLOADS, Recorder, install,
                       layer_specs, peak_rss_mb, probe_specs, set_up)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# per-layer names summed over their call-dependent variants
VARIANT_GROUPS = ("qnet.forward_batch", "nn.lstm_batch_forward", "nn.lstm_batch_backward")


def time_setups(preset: str, setup_ns: list[int]):
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        setup = set_up(preset)
        setup_ns.append(time.perf_counter_ns() - t0)
    return setup


def run_units(workload, setup, setup_ns: list[int], tracer: Tracer, rec: Recorder,
              seconds: float, trace: bool):
    """(untraced, traced) lists of (run id, Unit)."""
    plain, traced = [], []
    modes = (False, True) if trace else (False,)
    start = time.perf_counter_ns()
    rounds = 0
    while True:
        # untraced first in even rounds and traced first in odd ones, so that
        # neither side always pays the warm-up; the run's first unit is
        # untraced, because only it can measure the replay's RSS growth
        for traced_mode in (modes if rounds % 2 == 0 else modes[::-1]):
            tracer.run_id = len(plain) + len(traced)
            mark = install(tracer, layer_specs(rec)) if traced_mode else None
            try:
                unit = workload.unit(setup)
            finally:
                if mark is not None:
                    tracer.restore(mark)
            (traced if traced_mode else plain).append((tracer.run_id, unit))
            tracer.run_id = SETUP_RUN
            time_setups(workload.preset, setup_ns)
        rounds += 1
        elapsed = time.perf_counter_ns() - start
        if (rounds * len(modes) >= workload.min_units
                and elapsed + elapsed / rounds > seconds * 1e9):
            return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_path) -> dict:
    tracer = Tracer()
    rec = Recorder(tracer)
    install(tracer, probe_specs(rec))
    try:
        workload = WORKLOADS[name](seed, rec)
        tracer.run_id = SETUP_RUN
        mark = install(tracer, layer_specs(rec)) if trace else None
        setup_ns: list[int] = []
        setup = time_setups(workload.preset, setup_ns)
        if mark is not None:
            tracer.restore(mark)
        plain, traced = run_units(workload, setup, setup_ns, tracer, rec, seconds, trace)
    finally:
        tracer.restore()
    units = plain + traced
    attempted = sum(u.attempted for _, u in units)
    failed = sum(u.failed for _, u in units)
    printed = end_to_end(workload, setup, setup_ns, plain, tracer)
    printed["ops_failed_frac"] = (failed / attempted if attempted else None, "frac")
    if trace:
        printed.update(per_layer(tracer, rec, plain, traced))
        tracer.dump(spans_path)
    return {"printed": printed, "attempted": attempted, "failed": failed,
            "setup_s_all": [ns / 1e9 for ns in setup_ns],
            "unit_wall_s": [u.wall_ns / 1e9 for _, u in plain],
            "traced_unit_wall_s": [u.wall_ns / 1e9 for _, u in traced],
            "input_seed": getattr(workload, "input_seed", seed)}


def end_to_end(workload, setup, setup_ns, plain, tracer: Tracer) -> dict:
    finished = [(r, u) for r, u in plain if u.data is not None]
    out = {"setup_s": (min(setup_ns) / 1e9, "s")}
    if not finished:
        out["wall_s"] = (None, "s")
        return out
    out["wall_s"] = (median(u.wall_ns for _, u in finished) / 1e9, "s")
    out["units"] = (len(finished), "count")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out.update(workload.metrics(setup, [u for _, u in finished], tracer,
                                [r for r, _ in finished]))
    return out


def per_layer(tracer: Tracer, rec: Recorder, plain, traced) -> dict:
    runs = [r for r, _ in traced]
    n = len(runs)
    window = sum(u.wall_ns for _, u in traced)
    covered = tracer.covered_ns(runs)
    summary = tracer.summary(runs)
    out = {
        "traced_wall_ms": (window / n / 1e6, "ms"),
        "untraced_ms": ((window - covered) / n / 1e6, "ms"),
        "trace_overhead_frac": (median(u.wall_ns for _, u in traced)
                                / median(u.wall_ns for _, u in plain) - 1.0, "frac"),
    }
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, s in summary.items():
        layer_self[name.split(".", 1)[0]] += s["self_ns"]
    for layer, ns in layer_self.items():
        out[f"{layer}.self_ms"] = (ns / n / 1e6, "ms")
    out["layers_plus_untraced_ms"] = ((sum(layer_self.values()) + window - covered) / n / 1e6, "ms")
    for group in VARIANT_GROUPS:
        members = [s for name, s in summary.items() if name.startswith(group + ".")]
        if members:
            summary[group] = {k: sum(s[k] for s in members) for k in ("calls", "busy_ns", "self_ns")}
    for name in sorted(summary):
        s = summary[name]
        out[f"{name}.calls"] = (s["calls"] / n, "count")
        out[f"{name}.busy_ms"] = (s["busy_ns"] / n / 1e6, "ms")
        out[f"{name}.self_ms"] = (s["self_ns"] / n / 1e6, "ms")
    setup = tracer.summary([SETUP_RUN]).get("configio.load_experiment")
    if setup:  # only the first set-ups run traced
        out["configio.load_experiment.busy_ms"] = (setup["busy_ns"] / SETUP_REPEATS / 1e6, "ms")
    out.update(train_phases(tracer, runs))
    pads = [rec.pad[r] for r in runs if r in rec.pad]
    for bi, branch in enumerate(BRANCHES):
        if pads:
            used = sum(p[bi][0] for p in pads)
            slots = sum(p[bi][1] for p in pads)
            out[f"qnet.pad_util.{branch}"] = (used / slots if slots else 1.0, "frac")
    cache = max((rec.cache_bytes.get(r, 0) for r in runs), default=0)
    if cache:
        out["qnet.cache_bytes.computed"] = (cache, "bytes")
    per_transition = [u.data["bytes_per_transition"] for _, u in plain
                      if u.data and "bytes_per_transition" in u.data]
    if per_transition:
        out["trainer.replay.bytes_per_transition"] = (median(per_transition), "bytes")
    for r in runs[:1]:
        if r in rec.actions:
            for name, count in zip(ACTION_NAMES, rec.actions[r]):
                out[f"greedy.action.{name}"] = (count, "count")
            for branch, total in zip(BRANCHES, rec.branch_len[r]):
                out[f"greedy.branch_len.{branch}"] = (total, "count")
    return out


def train_phases(tracer: Tracer, runs) -> dict:
    """Warm-start, collection, optimization and validation time per
    ``trainer.train`` call, from the spans around it.  Warm start runs from
    the call's start to its first replay sample; collection is what
    remains after the other three."""
    trains = tracer.spans_of("trainer.train", runs)
    if not len(trains):
        return {}
    samples = tracer.spans_of("trainer.ReplayBuffer.sample", runs)
    steps = tracer.spans_of("nn.Adam.step", runs)
    evals = tracer.spans_of("policies.evaluate", runs)
    total = {"warm_start": 0, "collect": 0, "optimize": 0, "validate": 0}
    for start, end in trains:
        inside = (samples[:, 0] >= start) & (samples[:, 0] <= end)
        first = samples[inside, 0].min() if inside.any() else end
        optimize = int((steps[inside, 1] - samples[inside, 0]).sum())
        validate = int(sum(e - s for s, e in evals if start <= s <= end))
        total["warm_start"] += int(first - start)
        total["optimize"] += optimize
        total["validate"] += validate
        total["collect"] += int(end - first) - optimize - validate
    return {f"trainer.phase.{k}_s": (v / len(trains) / 1e9, "s") for k, v in total.items()}


def reported_names(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json lists for this mode."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def select_reported(result: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode.  A per-layer metric
    of work the workload never ran is 0 (no calls, no time); a missing
    end-to-end metric is None and fails the run."""
    default = 0 if trace else None
    return {name: (result["printed"].get(name, (default, unit))[0], unit)
            for name, unit in reported_names(trace)}

"""Record eval-grid's reference outputs for every input seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: per input seed, the baseline totals of
every (agent, capacity) cell and the greedy evaluation's mean, std, action
counts and summed branch lengths.  Re-record only on purpose, from a
commit whose outputs are known good; the benchmark fails any pass that
disagrees with this file.
"""
from __future__ import annotations

import json
import sys

from run import cap_blas_threads, import_program

if __name__ == "__main__":
    cap_blas_threads()
    import_program()
    from tracer import Tracer
    from workloads import (REFERENCE_PATH, REFERENCE_SEEDS, Recorder, eval_grid_outputs,
                           install, probe_specs, set_up)

    tracer = Tracer()
    rec = Recorder(tracer)
    install(tracer, probe_specs(rec))
    setup = set_up("desk.env")
    reference = {}
    for seed in range(REFERENCE_SEEDS):
        tracer.run_id = seed
        outputs, _ = eval_grid_outputs(setup, seed, rec)
        reference[str(seed)] = outputs
        print(f"seed {seed}: greedy {outputs['greedy']}", file=sys.stderr, flush=True)
    tracer.restore()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""roommem benchmark: eval-grid, desk-train and paper-train.

    python3 perfbench/run.py --workload eval-grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Run from anywhere inside a roommem checkout; the package is imported from
the checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and reports per-layer
metrics.  Every metric is printed as ``<workload> <name> <value> <unit>``,
followed by one ``# meta`` line and, last, one JSON result line.  Spans
and the full results go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("eval-grid", "desk-train", "paper-train")


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= NPROC:
            os.environ[var] = str(NPROC)


def import_program():
    """Import roommem from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "roommem" / "__init__.py").is_file():
        sys.exit(f"benchmark: no roommem sources under {src}")
    sys.path.insert(0, str(src))
    import roommem

    if Path(roommem.__file__).resolve().parent != (src / "roommem").resolve():
        sys.exit(f"benchmark: imported roommem from {roommem.__file__}, not {src}")
    return roommem


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def metadata(args, roommem) -> dict:
    import platform

    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC, "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "roommem": roommem.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cap_blas_threads()
    roommem = import_program()
    from bench import run_workload, select_reported

    meta = metadata(args, roommem)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in names:
        started = time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              OUT_DIR / f"spans-{name}-seed{args.seed}.npz")
        result["run_s"] = time.perf_counter() - started
        results[name] = result
        for key, (value, unit) in result["printed"].items():
            shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
            print(f"{name:<12} {key:<44} {shown} {unit}", flush=True)
    meta["input_seed"] = {n: r["input_seed"] for n, r in results.items()}
    print("# meta " + json.dumps(meta, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "results": results}, fh, indent=1, sort_keys=True,
                  default=str)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, r in results.items():
        prefix = "" if len(results) == 1 else name + "/"
        for key, (value, unit) in select_reported(r, bool(args.trace)).items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    complete = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())

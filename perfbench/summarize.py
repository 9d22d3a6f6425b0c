"""Summarize benchmark result files into one BENCH_<label>.json.

    python3 perfbench/summarize.py --label mylabel --out BENCH_mylabel.json \
        perfbench/out/result-*-trace0.json perfbench/out/result-*-trace1.json

Per workload and mode, every printed metric gets its median, quartiles
(``statistics.quantiles(values, n=4)``), spread ((q3 - q1) / median) and
sample count across the given runs.  The run metadata of the first file
is kept, with the list of seeds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def summarize(paths: list[str], label: str) -> dict:
    runs: dict[str, dict[str, list[float]]] = {}
    seeds: dict[str, list[int]] = {}
    meta = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        meta = meta or data["meta"]
        mode = "traced" if data["meta"]["trace"] else "untraced"
        for workload, result in data["results"].items():
            key = f"{workload}/{mode}"
            seeds.setdefault(key, []).append(data["meta"]["seed"])
            for name, (value, unit) in result["printed"].items():
                if isinstance(value, (int, float)):
                    runs.setdefault(key, {}).setdefault(f"{name} [{unit}]", []).append(value)
    table = {}
    for key, metrics in sorted(runs.items()):
        rows = {}
        for name, values in sorted(metrics.items()):
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                          "spread": (q3 - q1) / med if med else 0.0}
        table[key] = {"seeds": seeds[key], "metrics": rows}
    meta = {k: v for k, v in (meta or {}).items() if k not in ("seed", "workload", "input_seed")}
    return {"label": label, "meta": meta, "results": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", help="output file; stdout when omitted")
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(args.results, args.label), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

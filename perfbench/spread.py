"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload grid_route --seeds 1 2 3 4 5 --seconds 30 --trace 0

The spread is the distance between the first and third quartile of a
metric's values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure a benchmark run is judged by against each metric's bound
in BENCHMARK.json.  ``--json FILE`` also writes every value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}", file=sys.stderr)

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        s = spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = " !" if bound is not None and s > bound / 3 else ""
        print(f"{name:40s} {statistics.median(vals):14.6g} {s:8.4f} {bound if bound is not None else '-':>6}{flag}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds, "units": units, "values": values}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

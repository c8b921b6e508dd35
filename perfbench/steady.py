"""Steadiness check: repeat every workload and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --seconds 15 [--workloads build,http-point]

Repetition ``i`` runs the workloads in the listed order when ``i`` is
even and in reverse when it is odd, each with seed ``--first-seed + i``
in a fresh process.  For each workload and end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median`` beside the metric's bound from
BENCHMARK.json, and the failed share of every run.  Raw results go to
``perfbench/out/steady-<first seed>.json``.
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


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    results = {name: [] for name in workloads}
    for repetition in range(args.runs):
        order = workloads if repetition % 2 == 0 else workloads[::-1]
        seed = args.first_seed + repetition
        for name in order:
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                print(f"{name} seed {seed}: exit {completed.returncode}")
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            results[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.first_seed}.json"), "w") as handle:
        json.dump(results, handle)

    print(f"\n{'workload':<16}{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for name, runs in results.items():
        for metric in bench["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            bound = metric["bound"]
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{name:<16}{metric['name']:<18}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
        shares = sorted({run["failed"] / run["attempted"] for run in runs})
        correct = all(run["correct"] for run in runs)
        print(f"{name:<16}{'failed share':<18}{', '.join(f'{s:.4f}' for s in shares):>42}"
              f"   correct={correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

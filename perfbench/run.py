"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session-replay --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and the run also prints a per-span table and writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops_s": "ops/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "build_s": "s",
}

#: Per-layer metrics of the traced run.  A workload that does not cross
#: a layer reports 0 for it; README.md maps each to the end-to-end
#: metric and workload it should move.
PER_LAYER = {
    "graph.load_dataset_s": "s",
    "graph.content_digest_s": "s",
    "builder.build_s": "s",
    "builder.kernel_searches": "count",
    "builder.kernel_bfs_runs": "count",
    "builder.insert_attempts": "count",
    "builder.inserted": "count",
    "builder.insert_yield": "ratio",
    "builder.pruned_pr1": "count",
    "builder.pruned_pr2": "count",
    "builder.pr3_stops": "count",
    "index.query_us": "us",
    "index.query_mr_us": "us",
    "index.query_batch_us": "us",
    "index.load_s": "s",
    "index.file_bytes": "bytes",
    "index.entries": "count",
    "index.estimated_size_bytes": "bytes",
    "engine.prepare_query_us": "us",
    "engine.query_prepared_us": "us",
    "engine.query_batch_us": "us",
    "engine.evals_per_query": "ratio",
    "service.lru_hit_us": "us",
    "service.store_hit_us": "us",
    "service.miss_us": "us",
    "service.lru_hit_ratio": "ratio",
    "service.run_us": "us",
    "cache.flush_s": "s",
    "cache.flushes": "count",
    "cache.file_bytes": "bytes",
    "cache.bytes_written": "bytes",
    "session.query_outcome_us": "us",
    "session.run_us": "us",
    "session.engine_build_s": "s",
    "batch_p50_us": "us",
    "server.request_us": "us",
    "server.self_us": "us",
    "server.connections": "count",
    "dynamic.insert_us": "us",
    "dynamic.rebuilds": "count",
    "dynamic.rebuild_s": "s",
    "dynamic.query_true_us": "us",
    "dynamic.query_false_us": "us",
    "dynamic.pending_peak": "count",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import repro  # the program under test, from the checkout
        from workloads import WORKLOADS, Run
        from tracing import print_table
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = Run(ROOT, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = WORKLOADS[args.workload](run)
    finally:
        run.close()
    if run.tracer is not None:
        table = run.tracer.summary()
        print_table(table, sys.stdout)
        path = os.path.join(ROOT, "perfbench", "out", f"trace-{args.workload}-{args.seed}.json")
        run.tracer.write(path, {"workload": args.workload, "seed": args.seed, "summary": table})
        print(f"spans: {len(run.tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        chosen = {name: (run.layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    for message in run.errors:
        print(f"WRONG: {message}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference figures quoted in README.md: measured once, never gated.

Usage, from the root of a checkout::

    python3 perfbench/reference.py [--seed 1]

Prints, on the ``session-replay`` pool of the given seed over the EP
stand-in:

- per-query cost at each layer a query can cross in-process (the
  ROADMAP's layer gaps);
- flat ``rlc-index`` against ``sharded:rlc-index?method=edge-cut&parts=2``
  (build seconds and per-query cost over a prefix of the pool);
- the ETC (extended transitive closure) build on EP beside the RLC
  index build, the paper's Table IV comparison;
- the line count of ``src/``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter, perf_counter_ns

#: Pool prefix for the flat-vs-sharded comparison: the sharded engine
#: takes about 0.8 s per query on EP.
SHARDED_QUERIES = 60

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def per_call_us(call, items, repeat: int = 3) -> float:
    """Median over ``repeat`` passes of the mean microseconds per item."""
    passes = []
    for _ in range(repeat):
        started = perf_counter_ns()
        for item in items:
            call(item)
        passes.append((perf_counter_ns() - started) / 1e3 / len(items))
    return statistics.median(passes)


def main() -> int:
    from inputs import pool_inputs
    from repro.api import Session
    from repro.engine.registry import create_engine
    from repro.engine.service import QueryService
    from repro.graph.datasets import load_dataset
    from repro.queries import RlcQuery

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    graph = load_dataset("EP")
    pool, _ = pool_inputs(graph.num_vertices, list(graph.edges()), args.seed, 200)
    sample = [query for query, _ in pool[:2000]]
    requests = [RlcQuery(s, t, labels) for s, t, labels in sample]

    started = perf_counter()
    engine = create_engine("rlc-index", graph, k=2)
    rlc_build = perf_counter() - started
    index = engine.backend
    prepared = {labels: engine.prepare_query(labels) for _, _, labels in sample}
    uncached = QueryService(engine, cache_size=0)
    session = Session(graph)
    session.engine()
    session.run(requests, verify=False)  # every sample query is now an LRU hit
    print("layer gaps, us per query (EP, %d pool queries)" % len(sample))
    rows = [
        ("index.query_mr (kernel)", lambda q: index.query_mr(q[0], q[1], prepared[q[2]].labels)),
        ("engine.query_prepared", lambda q: engine.query_prepared(prepared[q[2]], q[0], q[1])),
        ("engine.query (legacy)", lambda q: engine.query(RlcQuery(*q))),
        ("service.query_outcome, no cache", lambda q: uncached.query_outcome(*q)),
        ("session.query_outcome, LRU hit", lambda q: session.query_outcome(*q)),
    ]
    for name, call in rows:
        print(f"  {name:<34}{per_call_us(call, sample):>10.2f}")
    batches = [requests[i:i + 256] for i in range(0, len(requests), 256)]
    batch_us = per_call_us(engine.query_batch, batches) * len(batches) / len(requests)
    print(f"  {'engine.query_batch (256)':<34}{batch_us:>10.2f}")

    started = perf_counter()
    sharded = create_engine("sharded:rlc-index?method=edge-cut&parts=2", graph, k=2)
    sharded_build = perf_counter() - started
    head = requests[:SHARDED_QUERIES]
    flat_us = per_call_us(lambda q: engine.query_batch([q]), head, repeat=1)
    sharded_us = per_call_us(lambda q: sharded.query_batch([q]), head, repeat=1)
    agree = engine.query_batch(head) == sharded.query_batch(head)
    print(f"flat vs sharded (edge-cut, 2 parts), {len(head)} queries, answers agree: {agree}")
    print(f"  build s        flat {rlc_build:10.2f}   sharded {sharded_build:10.2f}")
    print(f"  us per query   flat {flat_us:10.2f}   sharded {sharded_us:10.2f}")

    started = perf_counter()
    etc = create_engine("etc", graph, k=2)
    etc_build = perf_counter() - started
    print("ETC against the RLC index on EP (k=2)")
    print(f"  build s        rlc {rlc_build:10.2f}   etc {etc_build:10.2f}")
    print(f"  size bytes     rlc {index.estimated_size_bytes():10d}   "
          f"etc {etc.backend.estimated_size_bytes():10d}")

    lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    print(f"src/ lines of Python: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

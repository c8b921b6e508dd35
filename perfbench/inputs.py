"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and the graph's edge
list; the program under test only ever receives the generated queries
and edges.  Truth values come from the independent :mod:`oracle`.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import List, Sequence, Tuple

from oracle import Oracle

Query = Tuple[int, int, Tuple[int, ...]]


def label_sampler(edges: Sequence[Tuple[int, int, int]], rng: random.Random):
    """Draw labels with the graph's own (Zipf-skewed) label frequencies."""
    labels = [label for _, label, _ in edges]
    return lambda: labels[rng.randrange(len(labels))]


def query_groups(
    oracle: Oracle,
    edges: Sequence[Tuple[int, int, int]],
    rng: random.Random,
    *,
    groups: int,
    true_per_group: int,
    false_per_group: int,
) -> List[Tuple[Query, bool]]:
    """Distinct ``(query, truth)`` pairs from ``groups`` searches.

    Each group is one ``(source, constraint)`` pair: a primitive
    constraint of length 1 or 2 (so within k=2) and a source that
    reaches at least ``true_per_group`` targets and misses at least
    ``false_per_group``.  Targets are drawn on both sides of the
    oracle's answer, so the true share is fixed by the arguments.
    """
    draw_label = label_sampler(edges, rng)
    chosen = set()
    pool: List[Tuple[Query, bool]] = []
    attempts = 0
    while len(chosen) < groups:
        attempts += 1
        if attempts > 200 * groups:
            raise RuntimeError("could not draw enough query groups")
        source = rng.randrange(oracle.num_vertices)
        first = draw_label()
        if rng.random() < 0.5:
            labels: Tuple[int, ...] = (first,)
        else:
            second = draw_label()
            if second == first:
                continue
            labels = (first, second)
        if (source, labels) in chosen:
            continue
        reach = oracle.targets(source, labels)
        if len(reach) < true_per_group or oracle.num_vertices - len(reach) < false_per_group:
            continue
        chosen.add((source, labels))
        hits = rng.sample(sorted(reach), true_per_group)
        misses = []
        while len(misses) < false_per_group:
            target = rng.randrange(oracle.num_vertices)
            if target not in reach and target not in misses:
                misses.append(target)
        pool.extend(((source, t, labels), True) for t in hits)
        pool.extend(((source, t, labels), False) for t in misses)
    rng.shuffle(pool)
    return pool


class ZipfDraws:
    """Requests drawn Zipf-skewed (exponent ``s``) over a shuffled pool."""

    def __init__(self, size: int, rng: random.Random, exponent: float = 1.0):
        self._rng = rng
        self._size = size
        self._cumulative = list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))

    def take(self, count: int) -> List[int]:
        total = self._cumulative[-1]
        rng = self._rng
        cumulative = self._cumulative
        return [bisect_left(cumulative, rng.random() * total) for _ in range(count)]


def new_edges(
    oracle: Oracle,
    edges: Sequence[Tuple[int, int, int]],
    rng: random.Random,
    count: int,
) -> List[Tuple[int, int, int]]:
    """``count`` distinct edges absent from the graph, labels skewed as its own."""
    draw_label = label_sampler(edges, rng)
    fresh: List[Tuple[int, int, int]] = []
    seen = set()
    n = oracle.num_vertices
    while len(fresh) < count:
        edge = (rng.randrange(n), draw_label(), rng.randrange(n))
        if edge in seen or oracle.has_edge(*edge):
            continue
        seen.add(edge)
        fresh.append(edge)
    return fresh


# ----------------------------------------------------------------------
# Per-workload inputs.  Each runs in a child process (see
# ``workloads.in_child``), so the oracle's memory and time stay out of
# the measured process; each draws from its own ``random.Random(seed)``.
# ----------------------------------------------------------------------


def build_inputs(graphs, seed: int):
    """``{name: probes}``: 32 groups x (16 true + 16 false) per graph."""
    rng = random.Random(seed)
    probes = {}
    for name, (num_vertices, edges) in graphs.items():
        oracle = Oracle(num_vertices, edges)
        probes[name] = query_groups(
            oracle, edges, rng, groups=32, true_per_group=16, false_per_group=16
        )
    return probes


def pool_inputs(num_vertices: int, edges, seed: int, groups: int):
    """A half-true pool of ``groups`` x 50 queries, and a seed for its draws."""
    rng = random.Random(seed)
    oracle = Oracle(num_vertices, edges)
    pool = query_groups(oracle, edges, rng, groups=groups, true_per_group=25, false_per_group=25)
    return pool, rng.randrange(2**32)


def update_inputs(num_vertices: int, edges, seed: int, inserts: int, queries_per_insert: int):
    """Pool, new edges, the stream and its expected answers.

    The stream is ``queries_per_insert`` pool queries before each
    insert; ``expected`` holds the oracle's answer on the graph grown
    by every earlier insert (None at inserts).
    """
    rng = random.Random(seed)
    oracle = Oracle(num_vertices, edges)
    # Four in five queries true on the base graph: the median then sits
    # well inside the fast mode (static-index hits), not near the edge
    # of the slow union-BFS mode, and 600 groups keep its mix steady.
    pool = query_groups(oracle, edges, rng, groups=600, true_per_group=24, false_per_group=6)
    fresh = new_edges(oracle, edges, rng, inserts)
    stream: List[Tuple[bool, int]] = []  # (is_insert, pool or insert position)
    for position in range(inserts):
        stream.extend((False, rng.randrange(len(pool))) for _ in range(queries_per_insert))
        stream.append((True, position))
    growing = Oracle(num_vertices, edges)
    expected = []
    for is_insert, position in stream:
        if is_insert:
            growing.add_edge(*fresh[position])
            expected.append(None)
        else:
            expected.append(growing.answer(*pool[position][0]))
    return pool, fresh, stream, expected

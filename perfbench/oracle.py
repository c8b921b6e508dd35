"""An independent RLC reachability oracle for checking benchmark answers.

This module deliberately imports nothing from ``repro`` or ``tests``: it
is a second implementation of the query semantics, written from the
definition alone.  A query ``(s, t, L+)`` with ``L = (l_0 .. l_{m-1})``
is true when some path from ``s`` to ``t`` spells ``L`` one or more
times.  The search runs over product states ``(vertex, position)``,
where ``position`` counts the labels of the current copy of ``L``
already read; ``t`` is reachable exactly when ``(t, 0)`` is reached
after at least one edge.

One search per ``(source, constraint)`` answers every target, and the
reached states are memoized so that :meth:`Oracle.add_edge` can extend
them in place when the graph grows (reachability is monotone under
edge insertion).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

Labels = Tuple[int, ...]
State = Tuple[int, int]


class Oracle:
    """Memoized product-graph search over a growing edge set."""

    def __init__(self, num_vertices: int, edges: Iterable[Tuple[int, int, int]]):
        self.num_vertices = num_vertices
        self._out: Dict[Tuple[int, int], List[int]] = {}
        self._edges: Set[Tuple[int, int, int]] = set()
        for source, label, target in edges:
            self._add(int(source), int(label), int(target))
        self._memo: Dict[Tuple[int, Labels], Set[State]] = {}

    def _add(self, source: int, label: int, target: int) -> bool:
        edge = (source, label, target)
        if edge in self._edges:
            return False
        self._edges.add(edge)
        self._out.setdefault((source, label), []).append(target)
        return True

    def has_edge(self, source: int, label: int, target: int) -> bool:
        return (source, label, target) in self._edges

    def _search(self, source: int, labels: Labels, reached: Set[State], frontier) -> None:
        out = self._out
        m = len(labels)
        queue = deque(frontier)
        while queue:
            vertex, position = queue.popleft()
            following = (position + 1) % m
            for neighbor in out.get((vertex, labels[position]), ()):
                state = (neighbor, following)
                if state not in reached:
                    reached.add(state)
                    queue.append(state)

    def reached(self, source: int, labels: Labels) -> Set[State]:
        """Product states reachable from ``source`` by at least one edge."""
        key = (source, labels)
        states = self._memo.get(key)
        if states is None:
            states = set()
            self._search(source, labels, states, [(source, 0)])
            self._memo[key] = states
        return states

    def targets(self, source: int, labels: Labels) -> Set[int]:
        """Every ``t`` with ``(source, t, labels+)`` true."""
        return {vertex for vertex, position in self.reached(source, labels) if position == 0}

    def answer(self, source: int, target: int, labels: Labels) -> bool:
        return (target, 0) in self.reached(source, labels)

    def add_edge(self, source: int, label: int, target: int) -> None:
        """Insert an edge and extend every memoized search it affects."""
        if not self._add(source, label, target):
            return
        for (origin, labels), states in self._memo.items():
            m = len(labels)
            for position in range(m):
                if labels[position] != label:
                    continue
                if (source, position) not in states and not (
                    source == origin and position == 0
                ):
                    continue
                state = (target, (position + 1) % m)
                if state not in states:
                    states.add(state)
                    self._search(origin, labels, states, [state])

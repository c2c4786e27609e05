"""Cycle-graph construction from 2D task locations.

Two tour heuristics are provided: the doubled minimum spanning tree walk
and a greedy nearest-neighbor tour.  Both produce a ``CycleGraph`` whose
positions live in [0, L]; ``map_1d_to_2d`` interpolates a cycle position
back onto the plane.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

from .fleet import _integer, _list, _number

Point = tuple[float, float]


@dataclass(frozen=True)
class TaskSet:
    tasks: tuple[tuple[int, Point], ...]  # (id, (x, y))

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("task set: field 'tasks' is empty")
        ids = set()
        for k, (tid, (x, y)) in enumerate(self.tasks):
            if tid in ids:
                raise ValueError(f"tasks[{k}]: duplicate task id {tid}")
            ids.add(tid)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"task {tid}: coordinates must be finite")


@dataclass(frozen=True)
class CycleGraph:
    """Closed walk through the task locations.

    ``cumulative_lengths[s]`` is the walk length from waypoint 0 up to
    waypoint s; the closing edge back to waypoint 0 completes
    ``total_length``.
    """

    waypoints: tuple[Point, ...]
    cumulative_lengths: tuple[float, ...]
    total_length: float

    def __post_init__(self):
        if not math.isfinite(self.total_length):
            raise ValueError(f"tour length L = {self.total_length}: task x, y too far apart")
        if len(self.waypoints) != len(self.cumulative_lengths):
            raise ValueError("waypoints and cumulative_lengths must align")
        if self.cumulative_lengths[0] != 0.0:
            raise ValueError("first cumulative length must be 0")
        for a, b in zip(self.cumulative_lengths, self.cumulative_lengths[1:]):
            if b < a:
                raise ValueError("cumulative lengths must be non-decreasing")
        closing = _dist(self.waypoints[-1], self.waypoints[0])
        if abs(self.cumulative_lengths[-1] + closing - self.total_length) > 1e-9 * max(
            1.0, self.total_length
        ):
            raise ValueError("total_length does not close the walk")


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _graph_from_walk(points: list[Point]) -> CycleGraph:
    cum = [0.0]
    for a, b in zip(points, points[1:]):
        cum.append(cum[-1] + _dist(a, b))
    total = cum[-1] + _dist(points[-1], points[0])
    return CycleGraph(
        waypoints=tuple(points), cumulative_lengths=tuple(cum), total_length=total
    )


def mst_edges(tasks: TaskSet) -> list[tuple[int, int]]:
    """Prim's MST over task indexes; ties broken by (id, id) so the tree
    (and hence the tour) is reproducible."""
    items = sorted(tasks.tasks, key=lambda t: t[0])
    m = len(items)
    edges: list[tuple[int, int]] = []
    # best[j] = (dist, id_in_tree, id_j, i_tree, j)
    best = {}
    for j in range(1, m):
        best[j] = (_dist(items[0][1], items[j][1]), items[0][0], items[j][0], 0, j)
    for _ in range(m - 1):
        j_min = min(best, key=lambda j: best[j][:3])
        d, _, _, i_tree, j = best[j_min]
        edges.append((i_tree, j))
        del best[j_min]
        for k in best:
            cand = (_dist(items[j][1], items[k][1]), items[j][0], items[k][0], j, k)
            if cand[:3] < best[k][:3]:
                best[k] = cand
    return edges


def build_tour_mst(tasks: TaskSet) -> CycleGraph:
    """Closed walk from a depth-first traversal of the Euclidean MST with
    every edge duplicated; total length equals twice the tree weight."""
    items = sorted(tasks.tasks, key=lambda t: t[0])
    # Prim's edges run from a task already in the tree, so from the root 0
    # each edge (i, j) leads from parent i to child j; index order is id order
    children: dict[int, list[int]] = {i: [] for i in range(len(items))}
    for i, j in sorted(mst_edges(tasks), key=lambda e: e[1]):
        children[i].append(j)
    # depth first with an explicit stack (a deep tree would overflow
    # Python's recursion limit): children in id order, back to the parent
    # after each child
    walk: list[Point] = [items[0][1]]
    stack = [(0, iter(children[0]))]
    while stack:
        j = next(stack[-1][1], None)
        if j is None:
            stack.pop()
            if stack:
                walk.append(items[stack[-1][0]][1])
        else:
            walk.append(items[j][1])
            stack.append((j, iter(children[j])))
    # the Euler walk ends back at the root; the closing edge has length 0
    if len(walk) > 1:
        walk.pop()
    return _graph_from_walk(walk)


def build_tour_nn(tasks: TaskSet) -> CycleGraph:
    """Nearest-neighbor tour starting at the lowest task id, closed back
    to the start; distance ties go to the lower id."""
    items = sorted(tasks.tasks, key=lambda t: t[0])
    remaining = list(range(1, len(items)))
    order = [0]
    while remaining:
        cur = items[order[-1]][1]
        nxt = min(remaining, key=lambda j: (_dist(cur, items[j][1]), items[j][0]))
        order.append(nxt)
        remaining.remove(nxt)
    return _graph_from_walk([items[i][1] for i in order])


def map_1d_to_2d(graph: CycleGraph, p: float) -> Point:
    """Interpolate cycle position p in [0, L] onto the plane.

    p = 0 and p = L both map to waypoint 0.  Zero-length edges return
    their endpoint.
    """
    L = graph.total_length
    if not 0.0 <= p <= L:
        raise ValueError(f"cycle position {p} outside [0, {L}]")
    if L == 0.0:
        return graph.waypoints[0]
    cum = graph.cumulative_lengths
    # segment s runs from waypoint s (at cum[s]) to waypoint s+1, the last
    # segment being the closing edge back to waypoint 0
    s = bisect_right(cum, p) - 1
    if s >= len(graph.waypoints) - 1:
        s = len(graph.waypoints) - 1
        a, b = graph.waypoints[s], graph.waypoints[0]
        seg_len = L - cum[s]
    else:
        a, b = graph.waypoints[s], graph.waypoints[s + 1]
        seg_len = cum[s + 1] - cum[s]
    if seg_len == 0.0:
        return a
    frac = (p - cum[s]) / seg_len
    return (a[0] + (b[0] - a[0]) * frac, a[1] + (b[1] - a[1]) * frac)


def tasks_from_dict(doc: dict) -> TaskSet:
    """Task set from a parsed task file; a malformed entry is a ValueError
    that names it and the field, as for fleet files."""
    tasks = []
    for k, t in enumerate(_list(doc, "tasks", "task set")):
        where = f"tasks[{k}]"
        tasks.append((_integer(t, "id", where), (_number(t, "x", where), _number(t, "y", where))))
    return TaskSet(tasks=tuple(tasks))


def load_tasks_json(path) -> TaskSet:
    with open(path) as fh:
        return tasks_from_dict(json.load(fh))


def graph_to_dict(graph: CycleGraph) -> dict:
    return {
        "waypoints": [[x, y] for x, y in graph.waypoints],
        "cumulative_lengths": list(graph.cumulative_lengths),
        "total_length": graph.total_length,
    }


def save_graph_json(graph: CycleGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2)
        fh.write("\n")

import heapq
import itertools
import math
import random

import pytest

from cyclepatrol.scenario import (
    CycleGraph,
    TaskSet,
    build_tour_mst,
    build_tour_nn,
    graph_to_dict,
    mst_edges,
    tasks_from_dict,
)


def tasks(*points):
    return TaskSet(tasks=tuple((i + 1, (float(x), float(y)))
                               for i, (x, y) in enumerate(points)))


def prufer_tree_edges(seq, n):
    """Decode a Pruefer sequence into tree edges (brute-force MST oracle)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def brute_force_mst_weight(points):
    n = len(points)
    if n == 1:
        return 0.0
    if n == 2:
        return math.dist(points[0], points[1])
    best = math.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        w = sum(math.dist(points[a], points[b]) for a, b in prufer_tree_edges(seq, n))
        best = min(best, w)
    return best


class TestMstTour:
    def test_single_task(self):
        g = build_tour_mst(tasks((3, 4)))
        assert g.total_length == 0.0
        assert g.waypoints == ((3.0, 4.0),)

    def test_two_tasks_doubled_edge(self):
        g = build_tour_mst(tasks((0, 0), (6, 0)))
        assert g.total_length == 12.0
        assert g.waypoints == ((0.0, 0.0), (6.0, 0.0))

    def test_three_collinear(self):
        # MST is the path 1-2-3 of weight 3; doubling gives 6
        g = build_tour_mst(tasks((0, 0), (1, 0), (3, 0)))
        assert g.total_length == pytest.approx(6.0, rel=1e-12)

    def test_walk_visits_every_task(self):
        pts = [(0, 0), (4, 0), (4, 3), (0, 3), (2, 7)]
        g = build_tour_mst(tasks(*pts))
        for p in pts:
            assert any(math.dist(w, p) < 1e-12 for w in g.waypoints)

    def test_length_is_twice_brute_force_mst(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(2, 6)
            pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]
            g = build_tour_mst(tasks(*pts))
            assert g.total_length == pytest.approx(
                2.0 * brute_force_mst_weight(pts), rel=1e-9
            )

    def test_duplicate_positions_allowed(self):
        g = build_tour_mst(tasks((1, 1), (1, 1), (4, 5)))
        assert g.total_length == pytest.approx(10.0, rel=1e-12)

    def test_deep_tree_walks_without_recursion(self):
        # a path tree 1,100 tasks deep, past Python's default recursion limit
        g = build_tour_mst(tasks(*[(x, 0) for x in range(1100)]))
        assert g.total_length == 2198.0
        assert len(g.waypoints) == 2 * 1100 - 2


class TestNnTour:
    def test_unit_square_perimeter(self):
        g = build_tour_nn(tasks((0, 0), (1, 0), (1, 1), (0, 1)))
        assert g.total_length == pytest.approx(4.0, rel=1e-12)
        assert g.waypoints == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def test_two_tasks(self):
        g = build_tour_nn(tasks((0, 0), (3, 4)))
        assert g.total_length == 10.0

    def test_single_task(self):
        assert build_tour_nn(tasks((7, 7))).total_length == 0.0

    def test_tie_breaks_by_id(self):
        # tasks 2 and 3 are equidistant from 1; the tour must pick 2 first
        g = build_tour_nn(tasks((0, 0), (1, 0), (-1, 0)))
        assert g.waypoints[1] == (1.0, 0.0)


class TestValidationAndJson:
    def test_empty_task_set(self):
        with pytest.raises(ValueError):
            TaskSet(tasks=())

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            TaskSet(tasks=((1, (0.0, 0.0)), (1, (1.0, 1.0))))

    def test_non_finite_coordinates(self):
        with pytest.raises(ValueError):
            TaskSet(tasks=((1, (math.nan, 0.0)),))

    def test_json_round_trip(self):
        doc = {"tasks": [{"id": 2, "x": 1.0, "y": 2.0}, {"id": 1, "x": 0.0, "y": 0.0}]}
        ts = tasks_from_dict(doc)
        g = build_tour_nn(ts)
        out = graph_to_dict(g)
        assert out["total_length"] == g.total_length
        assert len(out["waypoints"]) == 2

    def test_cycle_graph_invariants(self):
        with pytest.raises(ValueError):
            CycleGraph(waypoints=((0.0, 0.0),), cumulative_lengths=(1.0,), total_length=1.0)


def test_mst_edges_deterministic_under_ties():
    # four corners of a square: several MSTs exist; ties resolve by id
    ts = tasks((0, 0), (1, 0), (0, 1), (1, 1))
    assert mst_edges(ts) == mst_edges(ts)
    g1 = build_tour_mst(ts)
    g2 = build_tour_mst(ts)
    assert g1.waypoints == g2.waypoints

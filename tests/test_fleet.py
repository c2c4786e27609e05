import json
import math
import random
import re

import pytest

from cyclepatrol.engine import traversing
from cyclepatrol.fleet import (
    FleetConfig,
    RobotParams,
    StaticallyCoverableError,
    compute_goal_partition,
    compute_t_star,
    fleet_from_dict,
)

from conftest import make_fleet


class TestTStar:
    def test_four_robot_benchmark_exact(self, fig3_fleet):
        assert compute_t_star(fig3_fleet) == 250.0

    def test_eight_robot_benchmark(self, eight_robot_fleet):
        t = compute_t_star(eight_robot_fleet)
        assert t == pytest.approx(127.77777777777777, rel=1e-12)
        assert abs(t - 127.8) < 0.05

    def test_two_unit_robots(self):
        cfg = make_fleet([1.0, 1.0], [0.0, 0.0], 2.0)
        assert compute_t_star(cfg) == 1.0

    def test_statically_coverable_rejected(self):
        with pytest.raises(StaticallyCoverableError):
            make_fleet([1.0, 1.0], [30.0, 30.0], 100.0)

    def test_adding_a_robot_decreases_t_star(self, rng):
        for _ in range(50):
            n = rng.randint(2, 10)
            vs = [rng.uniform(0.1, 5.0) for _ in range(n)]
            rs = [rng.uniform(0.0, 10.0) for _ in range(n)]
            cfg = make_fleet(vs, rs, 1000.0)
            bigger = make_fleet(vs + [rng.uniform(0.1, 5.0)], rs + [0.0], 1000.0)
            assert compute_t_star(bigger) < compute_t_star(cfg)

    def test_improving_a_robot_decreases_t_star(self, rng):
        for _ in range(50):
            n = rng.randint(2, 8)
            vs = [rng.uniform(0.1, 5.0) for _ in range(n)]
            rs = [rng.uniform(0.0, 10.0) for _ in range(n)]
            cfg = make_fleet(vs, rs, 1000.0)
            k = rng.randrange(n)
            faster = make_fleet(vs[:k] + [vs[k] * 1.5] + vs[k + 1:], rs, 1000.0)
            wider = make_fleet(vs, rs[:k] + [rs[k] + 5.0] + rs[k + 1:], 1000.0)
            assert compute_t_star(faster) < compute_t_star(cfg)
            assert compute_t_star(wider) < compute_t_star(cfg)


class TestGoalPartition:
    def test_four_robot_benchmark_values(self, fig3_fleet):
        g = compute_goal_partition(fig3_fleet)
        assert g.d_star == pytest.approx((175.0, 275.0, 175.0, 375.0), rel=1e-12)
        assert g.y_star == pytest.approx((175.0, 450.0, 625.0, 1000.0), rel=1e-12)

    def test_symmetric_pair(self):
        g = compute_goal_partition(make_fleet([1.0, 1.0], [0.0, 0.0], 2.0))
        assert g.d_star == pytest.approx((1.0, 1.0))
        assert g.y_star == pytest.approx((1.0, 2.0))

    def test_lengths_tile_the_cycle(self, rng):
        for _ in range(100):
            n = rng.randint(2, 12)
            cfg = make_fleet(
                [rng.uniform(0.1, 5.0) for _ in range(n)],
                [rng.uniform(0.0, 10.0) for _ in range(n)],
                rng.uniform(500.0, 2000.0),
            )
            g = compute_goal_partition(cfg)
            assert sum(g.d_star) == pytest.approx(cfg.L, rel=1e-9)
            assert g.y_star[-1] == cfg.L
            assert all((g.d_star[i] - 2 * cfg.robots[i].r) / cfg.robots[i].v
                       == pytest.approx(g.t_star, rel=1e-9) for i in range(n))

    def test_speed_scaling_recomputed_exactly(self):
        # uniform scaling: t_star shrinks by 1/c while v*t_star, and hence
        # the partition, recompute to the same values (any radii)
        base = make_fleet([0.5, 1.5, 1.0], [5.0, 1.0, 3.0], 300.0)
        scaled = make_fleet([1.0, 3.0, 2.0], [5.0, 1.0, 3.0], 300.0)
        gb, gs = compute_goal_partition(base), compute_goal_partition(scaled)
        assert gs.t_star == pytest.approx(gb.t_star / 2.0, rel=1e-12)
        assert gs.y_star == pytest.approx(gb.y_star, rel=1e-12)
        # non-uniform change: the partition genuinely moves
        lopsided = make_fleet([1.0, 1.5, 1.0], [5.0, 1.0, 3.0], 300.0)
        yl = compute_goal_partition(lopsided).y_star
        assert any(abs(a - b) > 1e-6 for a, b in zip(yl[:-1], gb.y_star[:-1]))


class TestTraversingTime:
    def test_benchmark_region(self):
        assert traversing([275.0], [50.0], [0.7], 0) == pytest.approx(250.0, rel=1e-12)

    def test_zone_exactly_fills_region(self):
        assert traversing([10.0], [5.0], [2.0], 0) == 0.0

    def test_degenerate_region_is_negative_not_an_error(self):
        assert traversing([0.0], [1.0], [1.0], 0) == -2.0


class TestValidation:
    def test_speed_must_be_positive(self):
        with pytest.raises(ValueError):
            RobotParams(id=1, v=0.0, r=1.0)

    def test_radius_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            RobotParams(id=1, v=1.0, r=-1.0)

    def test_need_two_robots(self):
        with pytest.raises(ValueError):
            FleetConfig(robots=(RobotParams(id=1, v=1.0, r=0.0),), L=10.0)

    def test_duplicate_ids_rejected(self):
        # with ids 1,2,3,2 a change to robot 2 reached the first robot with
        # the id in the engine and the last in the trace's replay
        robots = [RobotParams(id=i, v=v, r=r) for i, v, r in
                  zip([1, 2, 3, 2], [0.3, 0.7, 0.3, 0.3], [50.0, 50.0, 50.0, 150.0])]
        with pytest.raises(ValueError, match="duplicate robot id 2"):
            FleetConfig(robots=tuple(robots), L=1000.0)

    @pytest.mark.parametrize("v, L", [(1e306, 1000.0), (0.8, 1e308), (1e308, 0.5)])
    def test_overflowing_speed_times_length_rejected(self, v, L):
        # the fastest robot is named; L below 1 counts as 1
        robots = (RobotParams(id=1, v=0.3, r=0.0), RobotParams(id=2, v=v, r=0.0))
        message = f"robot 2: speed v = {v} on a cycle of L = {L} overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            FleetConfig(robots=robots, L=L)

    @pytest.mark.parametrize("v, L", [(1e-306, 1000.0), (5e-324, 1000.0), (1e-309, 0.5)])
    def test_overflowing_length_over_speed_rejected(self, v, L):
        # the slowest robot is named; L below 1 counts as 1
        robots = (RobotParams(id=1, v=0.3, r=0.0), RobotParams(id=2, v=v, r=0.0))
        message = f"robot 2: speed v = {v} on a cycle of L = {L} overflows: max(L, 1)/v"
        with pytest.raises(ValueError, match=re.escape(message)):
            FleetConfig(robots=robots, L=L)

    def test_large_finite_bound_accepted(self):
        FleetConfig(robots=(RobotParams(id=1, v=1e300, r=0.0),
                            RobotParams(id=2, v=1.0, r=0.0)), L=1e7)

    def test_with_params_keeps_ids_and_checks_the_fleet(self, fig3_fleet):
        changed = fig3_fleet.with_params([0.3, 0.35, 0.3, 0.3], [50.0, 50.0, 50.0, 100.0])
        assert [rb.id for rb in changed.robots] == [1, 2, 3, 4]
        assert (changed.speeds[1], changed.radii[3], changed.L) == (0.35, 100.0, 1000.0)
        with pytest.raises(StaticallyCoverableError):
            fig3_fleet.with_params(fig3_fleet.speeds, [50.0, 50.0, 50.0, 350.0])


class TestJson:
    def test_round_trip(self, tmp_path):
        doc = {
            "L": 1000.0,
            "robots": [
                {"id": 1, "v": 0.3, "r": 50.0, "p0": 80.0, "o0": 1},
                {"id": 2, "v": 0.7, "r": 50.0, "p0": 400.0, "o0": -1},
            ],
            "events": [{"t": 5000.0, "robot": 2, "v": 0.35}],
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(doc))
        spec = fleet_from_dict(json.loads(path.read_text()))
        assert spec.config.n == 2
        assert spec.positions == [80.0, 400.0]
        assert spec.orientations == [1, -1]
        assert spec.changes[0]["robot"] == 2

    def test_without_initial_state(self):
        spec = fleet_from_dict(
            {"L": 100.0, "robots": [{"id": 1, "v": 1, "r": 0}, {"id": 2, "v": 1, "r": 0}]}
        )
        assert spec.positions is None

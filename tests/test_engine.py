import copy
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclepatrol import verify
from cyclepatrol.engine import (
    CONVERGENCE_RTOL,
    TIME_EPS,
    AssumptionError,
    Simulation,
    boundary_consensus_update,
    contact,
    random_initial_state,
)
from cyclepatrol.fleet import FleetConfig, RobotParams, StaticallyCoverableError, compute_t_star

from conftest import make_fleet


def patrolling(sim, i: int) -> bool:
    """Robot i knows both boundaries of its region."""
    left = sim.seam_known_left if i == 0 else not math.isnan(sim.y[i - 1])
    right = sim.seam_known_right if i == sim.n - 1 else not math.isnan(sim.y[i])
    return left and right


def two_robot_sim(L=2.0, v=(1.0, 1.0), r=(0.0, 0.0), p=(0.5, 1.5), o=(1, -1)):
    return Simulation(make_fleet(list(v), list(r), L), list(p), list(o))


class TestInitValidation:
    def test_valid_state(self):
        sim = two_robot_sim()
        assert not patrolling(sim, 0)

    def test_uniform_orientations_rejected(self):
        with pytest.raises(AssumptionError, match="A2"):
            two_robot_sim(o=(1, 1))

    def test_bad_orientation_names_the_robot(self):
        with pytest.raises(AssumptionError,
                           match=r"^robot 2: orientation must be -1 or \+1, got 0$"):
            Simulation(make_fleet([1, 1, 1], [1.0, 1.0, 1.0], 100.0),
                       [10.0, 40.0, 70.0], [1, 0, -1])

    def test_overlapping_zones_rejected(self):
        with pytest.raises(AssumptionError, match="A3"):
            Simulation(make_fleet([1, 1], [6.0, 6.0], 100.0), [10.0, 20.0], [1, -1])

    def test_overlap_message_names_both_robots(self):
        robots = (RobotParams(id=4, v=1.0, r=10.0), RobotParams(id=9, v=1.0, r=10.0))
        with pytest.raises(AssumptionError, match=r"robot 4 at 30\.0 .*overlaps robot 9 at 35\.0"):
            Simulation(FleetConfig(robots=robots, L=100.0), [30.0, 35.0], [1, -1])

    def test_touching_zones_accepted(self):
        sim = Simulation(make_fleet([1.0] * 3, [10.0] * 3, 100.0),
                         [10.0, 30.0, 90.0], [1, -1, 1])  # zones [0, 20], [20, 40], [80, 100]
        assert sim.position(1) == 30.0

    def test_unsorted_positions_rejected(self):
        with pytest.raises(AssumptionError, match="A3"):
            two_robot_sim(p=(1.5, 0.5))

    @pytest.mark.parametrize("p, robot", [((math.nan, 1.5), 1), ((0.5, math.nan), 2)])
    def test_nan_position_rejected(self, p, robot):
        with pytest.raises(AssumptionError, match=f"A3 violated.*robot {robot} at nan"):
            two_robot_sim(p=p)

    def test_zone_past_the_seam_rejected(self):
        with pytest.raises(AssumptionError, match="A3"):
            Simulation(make_fleet([1, 1], [5.0, 0.0], 100.0), [2.0, 50.0], [1, -1])


class TestEventScheduling:
    def test_head_on_discovery_time(self):
        # gap 1.0 closed at v1+v2=2: discovery at t=0.5, contact at 1.0
        sim = two_robot_sim()
        ev = sim.step()
        assert ev.kind == "discovery"
        assert ev.time == pytest.approx(0.5, abs=1e-12)
        assert ev.y_value == pytest.approx(1.0, abs=1e-12)

    def test_arrival_time_distance_over_speed(self):
        sim = two_robot_sim()
        sim.step()
        ev = sim.step()
        assert ev.kind == "arrival"
        assert ev.time == pytest.approx(1.5, abs=1e-12)  # 1.0 of travel at v=1

    def test_catch_of_moving_slower_neighbor(self):
        # same orientation, catcher twice as fast: gap 10 closes at speed 1
        # (the distant backward robot keeps the orientations mixed)
        sim = Simulation(make_fleet([2.0, 1.0, 0.001], [0.0, 0.0, 0.0], 300.0),
                         [10.0, 20.0, 290.0], [1, 1, -1])
        ev = sim.step()
        assert ev.kind == "catch"
        assert ev.time == pytest.approx(10.0, abs=1e-12)
        assert sim.act[0] == 0 and sim.act[1] == 1  # catcher waits

    def test_catch_of_stopped_neighbor(self):
        # the front robot parks at the seam at t=150; the chaser then
        # closes the remaining 90 at full speed 2
        sim = Simulation(
            make_fleet([0.01, 2.0, 1.0], [0.0, 10.0, 50.0], 1000.0),
            [100.0, 500.0, 800.0], [-1, 1, 1],
        )
        first = sim.step()
        assert (first.kind, first.robot_a, first.boundary) == ("arrival", 2, 2)
        assert first.time == pytest.approx(150.0, abs=1e-12)
        ev = sim.step()
        assert (ev.kind, ev.robot_a, ev.robot_b) == ("catch", 1, 2)
        assert ev.time == pytest.approx(195.0, abs=1e-12)
        assert ev.y_value == pytest.approx(900.0, abs=1e-12)

    def test_equal_speed_chase_never_meets(self):
        sim = Simulation(make_fleet([1.0, 1.0, 0.001], [0.0, 0.0, 0.0], 300.0),
                         [10.0, 20.0, 290.0], [1, 1, -1])
        ev = sim.step()
        # no catch between the equal-speed pair; the next event is the
        # head-on discovery further along the cycle
        assert (ev.kind, ev.boundary) == ("discovery", 1)


class TestDiscovery:
    def test_boundary_at_contact_plus_radius(self):
        # contact when 5+0.5+t*2 = 11-0.5 -> t=2.5, robot 0 at 7.5, y=8.0
        sim = Simulation(make_fleet([1.0, 1.0], [0.5, 0.5], 100.0),
                         [5.0, 11.0], [1, -1])
        ev = sim.step()
        assert ev.kind == "discovery"
        assert ev.y_value == pytest.approx(8.0, abs=1e-12)
        assert sim.o == [-1, 1]

    def test_seam_arrival_records_and_waits(self):
        sim = Simulation(make_fleet([1.0, 1.0, 0.001], [1.0, 1.0, 0.0], 100.0),
                         [10.0, 50.0, 90.0], [-1, -1, 1])
        ev = sim.step()
        assert (ev.kind, ev.robot_a, ev.boundary) == ("arrival", 0, 2)
        assert ev.time == pytest.approx(9.0, abs=1e-12)  # zone touches 0
        assert sim.act[0] == 0 and sim.seam_known_left


class TestMeeting:
    def test_symmetric_midpoint(self):
        assert boundary_consensus_update(0.0, 10.0, 1.0, 1.0, 0.0, 0.0) == 5.0

    def test_weighted_update_hand_value(self):
        # (3*(0+4) + 1*(20-2)) / 4 = 7.5
        y = boundary_consensus_update(0.0, 20.0, 1.0, 3.0, 2.0, 1.0)
        assert y == pytest.approx(7.5, abs=1e-12)
        e_left = (y - 0.0 - 2 * 2.0) / 1.0
        e_right = (20.0 - y - 2 * 1.0) / 3.0
        assert e_left == pytest.approx(3.5, abs=1e-12)
        assert e_right == pytest.approx(3.5, abs=1e-12)

    def test_region_sum_preserved(self, rng):
        for _ in range(100):
            y_prev = rng.uniform(0, 50)
            y_next = y_prev + rng.uniform(10, 100)
            y_old = rng.uniform(y_prev, y_next)
            vl, vr = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            y_new = boundary_consensus_update(y_prev, y_next, vl, vr, 1.0, 2.0)
            assert (y_new - y_prev) + (y_next - y_new) == pytest.approx(
                (y_old - y_prev) + (y_next - y_old), rel=1e-12
            )
            assert y_prev < y_new < y_next

    def test_pairwise_equalization_in_run(self, eight_robot_fleet, rng):
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=2000)
        meetings = [ev for ev in sim.trace.events if ev.kind == "meeting" and ev.updated]
        assert len(meetings) > 100
        for ev in meetings:
            assert ev.e_a == pytest.approx(ev.e_b, rel=1e-12)


class TestSymmetricPair:
    def test_boundary_pinned_and_periodic(self):
        sim = two_robot_sim()
        sim.run_until(t_end=20.0)
        meets = [ev for ev in sim.trace.events if ev.kind == "meeting"]
        inner = [ev for ev in meets if ev.boundary == 0]
        assert all(ev.y_value == 1.0 for ev in inner)
        times = [ev.time for ev in meets]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(1.0, abs=1e-12) for d in diffs)

    def test_empty_horizon_empty_trace(self):
        sim = two_robot_sim()
        trace = sim.run_until(t_end=0.0)
        assert trace.events == []


class TestConvergence:
    def test_four_robot_benchmark_long_run(self, fig3_fleet):
        rng = random.Random(42)
        pos, ori = random_initial_state(fig3_fleet, rng, n_minus=2)
        sim = Simulation(fig3_fleet, pos, ori)
        sim.run_until(t_end=1e6)
        for e in sim.e_values():
            assert abs(e - 250.0) / 250.0 < 1e-3

    def test_max_deviation_monotone_after_discovery(self, eight_robot_fleet):
        rng = random.Random(3)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        while not sim.all_boundaries_known():
            sim.step()
        prev = sim.max_deviation()
        for _ in range(2000):
            sim.step()
            cur = sim.max_deviation()
            assert cur <= prev + 1e-12
            prev = cur


class TestDeterminism:
    def test_identical_runs_bitwise(self, eight_robot_fleet):
        def run():
            rng = random.Random(7)
            pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=3)
            sim = Simulation(eight_robot_fleet, pos, ori)
            sim.run_until(max_events=3000)
            return [(ev.time, ev.kind, ev.robot_a, ev.robot_b, ev.boundary, ev.y_value)
                    for ev in sim.trace.events]

        assert run() == run()

    def test_csv_bytes_stable(self, fig3_fleet, tmp_path):
        paths = []
        for k in range(2):
            rng = random.Random(5)
            pos, ori = random_initial_state(fig3_fleet, rng)
            sim = Simulation(fig3_fleet, pos, ori)
            sim.run_until(max_events=500)
            p = tmp_path / f"t{k}.csv"
            sim.trace.write_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestParameterChange:
    def test_speed_drop_reconverges_to_new_t_star(self, eight_robot_fleet):
        rng = random.Random(11)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.schedule_parameter_change(20000.0, robot_id=5, v=0.35)
        sim.run_until(t_end=19000.0)
        assert sim.max_deviation() < 1e-3  # converged to the original target
        sim.run_until(t_end=300000.0)
        new_t_star = (1000.0 - 2 * 270.0) / (3.6 - 0.35)
        assert sim.t_star == pytest.approx(new_t_star, rel=1e-12)
        assert sim.max_deviation() < 1e-6
        assert sim.trace.converged_at is not None

    def test_noop_change_leaves_trace_unchanged(self, fig3_fleet):
        def run(with_change):
            rng = random.Random(2)
            pos, ori = random_initial_state(fig3_fleet, rng)
            sim = Simulation(fig3_fleet, pos, ori)
            if with_change:
                sim.schedule_parameter_change(5000.0, robot_id=2, v=0.7, r=50.0)
            sim.run_until(t_end=50000.0)
            return [(ev.time, ev.kind, ev.robot_a, ev.boundary, ev.y_value)
                    for ev in sim.trace.events]

        assert run(True) == run(False)

    def test_change_record_holds_the_state_it_leaves(self, fig3_fleet):
        """Each record, a no-op's too, is logged at the change's time with
        the speeds, radii and pins the engine holds right after it."""
        sim = Simulation(fig3_fleet, *random_initial_state(fig3_fleet, random.Random(2)))
        sim.schedule_parameter_change(3000.0, robot_id=2, v=0.35)
        sim.schedule_parameter_change(4000.0, robot_id=3)
        held = []
        while len(held) < 2:
            if sim.step() is None:  # a change was due first
                held.append((sim.t, tuple(sim.v), tuple(sim.r),
                             tuple(zip(sim.t_pin, sim.p_pin, sim.o, sim.act))))
        assert [(ch["t"], ch["speeds"], ch["radii"], ch["pins"])
                for ch in sim.trace.parameter_changes] == held
        assert [t for t, *_ in held] == [3000.0, 4000.0]

    def test_radius_blowup_rejected(self, fig3_fleet):
        rng = random.Random(2)
        pos, ori = random_initial_state(fig3_fleet, rng)
        sim = Simulation(fig3_fleet, pos, ori)
        with pytest.raises(StaticallyCoverableError):
            sim.apply_parameter_change(robot_id=1, r=250.1)

    @staticmethod
    def four_robot_run():
        cfg = make_fleet([1.0] * 4, [10.0] * 4, 400.0)
        pos, ori = random_initial_state(cfg, random.Random(0))
        sim = Simulation(cfg, pos, ori)
        sim.run_until(max_events=200)
        return sim

    def test_radius_growth_across_known_boundary_rejected(self):
        # robot 2 has just left y0 = 100; r = 45 would put its zone over it
        sim = self.four_robot_run()
        t = sim.t
        match = rf"A3 violated at t={re.escape(str(t))}: robot 2 .* crosses its boundary"
        with pytest.raises(AssumptionError, match=match):
            sim.apply_parameter_change(robot_id=2, r=45.0)
        assert sim.r[1] == 10.0 and sim.t == t and not sim.trace.parameter_changes

    def test_radius_growth_wider_than_region_rejected(self):
        sim = self.four_robot_run()
        with pytest.raises(AssumptionError, match="A3 violated.*robot 3 .*shorter than 2r"):
            sim.apply_parameter_change(robot_id=3, r=50.5)

    def test_radius_growth_that_fits_accepted(self):
        # robot 3 is parked at y2 = 300 and re-pins to the new contact point
        sim = self.four_robot_run()
        assert not sim.act[2] and sim.o[2] > 0
        sim.apply_parameter_change(robot_id=3, r=30.0)
        assert sim.position(2) == sim.y[2] - 30.0
        sim.run_until(max_events=100)

    @staticmethod
    def three_robot_sim():  # zones [0, 20], [30, 50], [80, 100]
        return Simulation(make_fleet([1.0] * 3, [10.0] * 3, 100.0), [10.0, 40.0, 90.0], [1, -1, 1])

    def test_radius_growth_to_a_touch_accepted(self):
        sim = self.three_robot_sim()
        sim.apply_parameter_change(robot_id=2, r=20.0)  # zone [20, 60] touches robot 1's [0, 20]
        assert sim.r[1] == 20.0
        sim.run_until(max_events=50)

    def test_radius_growth_past_a_touch_names_both_robots(self):
        sim = self.three_robot_sim()
        with pytest.raises(AssumptionError, match=re.escape(
                "A3 violated at t=0.0: robot 2 at 40.0 with r=20.5: its zone [19.5, 60.5] "
                "overlaps robot 1 at 10.0 with r=10.0")):
            sim.apply_parameter_change(robot_id=2, r=20.5)

    def test_fleet_is_the_fleet_in_force(self, eight_robot_fleet):
        sim = Simulation(eight_robot_fleet,
                         *random_initial_state(eight_robot_fleet, random.Random(0)))
        sim.schedule_parameter_change(100.0, robot_id=5, v=0.35, r=15.0)
        sim.run_until(t_end=200.0)
        assert sim.fleet.speeds == tuple(sim.v) and sim.fleet.radii == tuple(sim.r)
        assert sim.fleet.speeds[4] == 0.35 and sim.t_star == compute_t_star(sim.fleet)
        assert sim.trace.fleet is eight_robot_fleet  # replay starts from the starting fleet

    def test_radius_growth_over_undiscovered_neighbour_rejected(self):
        sim = Simulation(make_fleet([1.0, 1.0, 1.0], [0.0] * 3, 30.0),
                         [2.0, 3.5, 20.0], [1, -1, 1])
        with pytest.raises(AssumptionError, match="A3 violated at t=0.0: robot 1 .*overlaps robot 2"):
            sim.apply_parameter_change(robot_id=1, r=1.8)


class TimeFormTwin:
    """Independent event generator driven by traversing times only.

    After every meeting the pair's times mix with weights eps/v and each
    robot's next arrival is the meeting time plus its updated traversing
    time; boundary positions never enter.
    """

    def __init__(self, sim):
        self.n = sim.n
        self.v = list(sim.v)
        self.t = sim.t
        self.o = list(sim.o)
        # the boundary each parked robot waits at, None for a moving one
        self.waiting_at = [None if sim.act[i] else i if self.o[i] > 0 else (i - 1) % self.n
                           for i in range(self.n)]
        self.e = sim.e_values()
        self.arrival = [math.inf] * self.n
        for i in range(self.n):
            if self.waiting_at[i] is not None:
                continue
            p = sim.position(i)
            if self.o[i] > 0:
                target = (sim.L if i == self.n - 1 else sim.y[i]) - sim.r[i]
                self.arrival[i] = self.t + (target - p) / self.v[i]
            else:
                target = (0.0 if i == 0 else sim.y[i - 1]) + sim.r[i]
                self.arrival[i] = self.t + (p - target) / self.v[i]

    def heading_boundary(self, i):
        return i if self.o[i] > 0 else (i - 1) % self.n

    def step(self):
        cands = [(self.arrival[i], self.heading_boundary(i), i)
                 for i in range(self.n) if self.arrival[i] < math.inf]
        t_min = min(c[0] for c in cands)
        group = [c for c in cands if c[0] <= t_min + 1e-9]
        _, j, i = min(group, key=lambda c: (c[1], c[2]))
        t_e = max(self.arrival[i], self.t)
        self.t = t_e
        self.arrival[i] = math.inf
        left, right = j, (j + 1) % self.n
        partner = right if i == left else left
        if self.waiting_at[partner] == j:
            if j < self.n - 1:
                eps = self.v[left] * self.v[right] / (self.v[left] + self.v[right])
                diff = self.e[right] - self.e[left]
                self.e[left] += eps / self.v[left] * diff
                self.e[right] -= eps / self.v[right] * diff
            self.o[left], self.o[right] = -1, 1
            self.waiting_at[left] = self.waiting_at[right] = None
            self.arrival[left] = t_e + self.e[left]
            self.arrival[right] = t_e + self.e[right]
            return (t_e, "meeting", left, right, j)
        self.waiting_at[i] = j
        return (t_e, "arrival", i, None, j)


def test_time_form_equivalence(eight_robot_fleet):
    """The boundary-form engine and the time-form twin emit the same
    events at the same instants."""
    rng = random.Random(17)
    pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=3)
    sim = Simulation(eight_robot_fleet, pos, ori)
    while not all(patrolling(sim, i) for i in range(sim.n)):
        sim.step()
    twin = TimeFormTwin(sim)
    count = 2000
    start = len(sim.trace.events)
    sim.run_until(max_events=count)
    engine_events = sim.trace.events[start:]
    for ev in engine_events:
        t, kind, a, b, j = twin.step()
        assert kind == ev.kind
        assert j == ev.boundary
        assert abs(t - ev.time) <= 1e-9
        assert a == ev.robot_a and (b == ev.robot_b)


def test_deadlock_unreachable_on_random_instances(rng):
    for _ in range(10):
        n = rng.randint(3, 8)
        cfg = make_fleet(
            [rng.uniform(0.3, 3.0) for _ in range(n)],
            [rng.uniform(0.0, 10.0) for _ in range(n)],
            1000.0,
        )
        pos, ori = random_initial_state(cfg, rng, n_minus=rng.randint(1, n - 1))
        sim = Simulation(cfg, pos, ori)
        sim.run_until(max_events=3000)  # DeadlockError would propagate
        assert len(sim.trace.events) == 3000


# -- the kinetic queue against a full scan ---------------------------------

def scan_next_candidate(sim):
    """Reference scheduler: every arrival and contact time computed
    afresh; of those within the simulation's tie tolerance of the
    earliest, the one at the lowest boundary, then the lowest robot.
    Returns ``(time, key)`` like ``next_candidate``."""
    n = sim.n
    cands = [(sim._arrival_time(i), i, (i if sim.o[i] > 0 else (i - 1) % n, i))
             for i in range(n)]
    cands += [(sim._contact_time(j), n + j, (j, j)) for j in range(n - 1)]
    cands = [c for c in cands if c[0] is not None]
    if not cands:
        return None
    t_min = min(c[0] for c in cands)
    time, key, _ = min((c for c in cands if c[0] <= t_min + sim.tie_eps), key=lambda c: c[2])
    return time, key


def scratch_e(sim):
    out = []
    for i in range(sim.n):
        lo = 0.0 if i == 0 else sim.y[i - 1]
        hi = sim.y[i]
        out.append(math.nan if math.isnan(lo) or math.isnan(hi)
                   else (hi - lo - 2.0 * sim.r[i]) / sim.v[i])
    return out


def scratch_max_deviation(sim):
    if any(map(math.isnan, sim.y)):
        return math.inf
    return max(abs(e - sim.t_star) for e in scratch_e(sim)) / sim.t_star


@st.composite
def random_runs(draw):
    n = draw(st.integers(2, 10))
    speeds = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    if draw(st.booleans()):  # identical robots: exact ties between events
        speeds, radii = [speeds[0]] * n, [radii[0]] * n
    cfg = make_fleet(speeds, radii, 2.0 * sum(radii) + draw(st.floats(10.0, 1000.0)))
    n_minus = draw(st.integers(1, n - 1))
    pos, ori = random_initial_state(cfg, random.Random(draw(st.integers(0, 2**32 - 1))),
                                    n_minus=n_minus)
    robot = st.integers(0, n - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("steps"), st.integers(1, 60)),
        st.tuples(st.just("run_until"), st.floats(0.0, 0.5)),
        st.tuples(st.just("schedule_v"), st.floats(0.0, 1.0), robot, st.floats(0.3, 3.0)),
        st.tuples(st.just("schedule_noop"), st.floats(0.0, 1.0), robot),
        st.tuples(st.just("shrink_r"), robot, st.floats(0.2, 1.0)),
        st.tuples(st.just("shrink_parked"), robot, st.floats(0.2, 0.9)),
    ), min_size=1, max_size=30))
    return cfg, pos, ori, ops


def drive(sim, ops, advance):
    """Run the drawn ops on sim; every call that may apply an event or a
    change goes through advance(call)."""
    for op in ops:
        kind = op[0]
        if kind == "steps":
            for _ in range(op[1]):
                advance(sim.step)
        elif kind == "run_until":
            advance(lambda: sim.run_until(t_end=sim.t + op[1] * sim.t_star, max_events=1))
        elif kind == "schedule_v":
            _, dt, i, factor = op
            sim.schedule_parameter_change(sim.t + dt * sim.t_star, i + 1, v=sim.v[i] * factor)
        elif kind == "schedule_noop":
            sim.schedule_parameter_change(sim.t + op[1] * sim.t_star, op[2] + 1)
        else:  # shrink_r, or shrink_parked: the first parked robot from i on
            _, i, factor = op
            if kind == "shrink_parked":
                i = next((k % sim.n for k in range(i, i + sim.n) if not sim.act[k % sim.n]), i)
            advance(lambda: sim.apply_parameter_change(i + 1, r=sim.r[i] * factor))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_runs())
def test_queue_and_incremental_state_match_scratch(run):
    """At every step, through parameter changes and stops mid-gap, the
    queue picks what the full scan picks, and e, max_deviation and
    converged_at equal a from-scratch recomputation."""
    cfg, pos, ori, ops = run
    sim = Simulation(cfg, pos, ori)
    expected_converged = None

    def advance(call):
        nonlocal expected_converged
        params, events = (list(sim.v), list(sim.r)), len(sim.trace.events)
        call()
        if (sim.v, sim.r) != params:
            expected_converged = None
        if (len(sim.trace.events) > events and expected_converged is None
                and scratch_max_deviation(sim) < CONVERGENCE_RTOL):
            expected_converged = sim.trace.events[-1].time
        assert sim.e_values() == pytest.approx(scratch_e(sim), rel=0, abs=0, nan_ok=True)
        assert sim.max_deviation() == scratch_max_deviation(sim)
        assert sim.converged_at == expected_converged
        assert sim.next_candidate() == scan_next_candidate(sim)

    drive(sim, ops, advance)


def bits(xs):
    return ["nan" if math.isnan(x) else x.hex() for x in xs]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_runs())
def test_replay_cursor_matches_engine_state(run):
    """After every event, through scheduled speed and no-op changes and
    immediate radius shrinks, of parked robots too (logged at the clock of
    the last event), the trace's replay cursor holds the engine's y, e,
    speeds, radii and every robot's pinned state (t_pin, p_pin, o, act)
    bit for bit, and yields new speeds and radii tuples exactly at the
    first event and the events with logged changes before them.  After
    every event and change each parked robot is pinned at its contact bit
    for bit, which lets the round model derive positions, not store them."""
    cfg, pos, ori, ops = run
    sim = Simulation(cfg, pos, ori)
    held = []

    def advance(call):
        events = len(sim.trace.events)
        call()
        for i in range(sim.n):
            if not sim.act[i]:
                assert sim.p_pin[i].hex() == contact(sim.y, i, sim.o[i], sim.r[i]).hex()
        if len(sim.trace.events) > events:
            kin = [(t.hex(), p.hex(), o, a)
                   for t, p, o, a in zip(sim.t_pin, sim.p_pin, sim.o, sim.act)]
            held.append((bits(sim.y), bits(sim.e_values()), tuple(sim.v),
                         tuple(sim.r), kin))

    drive(sim, ops, advance)
    replayed = []
    renewed = []
    prev = (None, None)
    for _, y, e, v, r, kin in sim.trace.replay():
        replayed.append((bits(y), bits(e), v, r,
                         [(t.hex(), p.hex(), o, a) for t, p, o, a in kin]))
        renewed.append((v is not prev[0], r is not prev[1]))
        prev = (v, r)
    assert replayed == held
    changed_at = {ch["events"] for ch in sim.trace.parameter_changes}
    assert renewed == [(k == 0 or k in changed_at,) * 2 for k in range(len(held))]


def test_replay_until_stops_before_later_events(fig3_fleet):
    """The cursor leaves y, e and kin as they were after the last event
    up to `until`: the first later event is not applied."""
    pos, ori = random_initial_state(fig3_fleet, random.Random(3))
    sim = Simulation(fig3_fleet, pos, ori)
    sim.run_until(max_events=300)
    t_cut = sim.trace.events[150].time
    kept = [ev for ev in sim.trace.events if ev.time <= t_cut]
    seen = []
    for ev, y, e, _, _, kin in sim.trace.replay(until=t_cut):
        seen.append(ev)
    full = sim.trace.replay()
    for _ in kept:
        _, y_ref, e_ref, _, _, kin_ref = next(full)
    assert seen == kept
    assert (bits(y), bits(e), kin) == (bits(y_ref), bits(e_ref), kin_ref)


def live_entries(sim):
    """The queue's live entries as key -> time."""
    return {key: t for t, key, ver in sim._queue if ver == sim._version[key]}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_runs())
def test_requeued_entries_match_a_rebuild(run):
    """After every step, change and mid-gap stop, the live entries the
    events left re-queued are those a fresh rebuild of the queue holds,
    and the open-contact count is the number of unknown inner
    boundaries."""
    cfg, pos, ori, ops = run
    sim = Simulation(cfg, pos, ori)

    def advance(call):
        call()
        fresh = copy.copy(sim)
        fresh._version = list(sim._version)
        fresh._rebuild_queue()
        assert live_entries(sim) == live_entries(fresh)
        assert sim._open == sum(map(math.isnan, sim.y[:-1]))

    drive(sim, ops, advance)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_runs())
def test_final_state_is_the_last_replay_state(run):
    """Through no-op changes, speed changes and immediate radius shrinks
    (logged after the last event), the final-state read equals the last
    replay yield bit for bit."""
    cfg, pos, ori, ops = run
    sim = Simulation(cfg, pos, ori)
    drive(sim, ops, lambda call: call())
    y, e, v, r = sim.trace.final_state()
    last = None
    for _, y_r, e_r, v_r, r_r, _ in sim.trace.replay():
        last = (bits(y_r), bits(e_r), v_r, r_r)
    if last is not None:
        assert (bits(y), bits(e), v, r) == last


def test_final_state_skips_a_change_after_the_last_event(fig3_fleet):
    pos, ori = random_initial_state(fig3_fleet, random.Random(2))
    sim = Simulation(fig3_fleet, pos, ori)
    sim.schedule_parameter_change(1000.0, 3)  # a no-op, logged mid-run
    sim.run_until(max_events=400)
    before = (bits(sim.e_values()), tuple(sim.v), tuple(sim.r))
    sim.apply_parameter_change(2, v=1.4, r=40.0)  # logged after the last event
    assert [ch["events"] for ch in sim.trace.parameter_changes] == [
        sim.trace.parameter_changes[0]["events"], 400]
    y, e, v, r = sim.trace.final_state()
    assert (bits(e), v, r) == before
    *_, (_, y_r, e_r, v_r, r_r, _) = sim.trace.replay()
    assert (bits(y), bits(e), v, r) == (bits(y_r), bits(e_r), v_r, r_r)


def test_next_candidate_is_a_pure_peek_under_exact_ties():
    """Identical robots, evenly spaced and alternating: events tie
    exactly, and in discovery open contacts tie with arrivals.  Two
    next_candidate() calls in a row return the same candidate, the one
    the full scan picks, and leave the live entries as they were."""
    cfg = make_fleet([0.5] * 6, [5.0] * 6, 600.0)
    sim = Simulation(cfg, [50.0 + 100.0 * i for i in range(6)], [1, -1] * 3)
    ties = 0
    for _ in range(500):
        live = live_entries(sim)
        first = sim.next_candidate()
        assert live_entries(sim) == live
        assert sim.next_candidate() == first == scan_next_candidate(sim)
        assert live_entries(sim) == live
        ties += sum(t <= first[0] + sim.tie_eps for t in live.values()) > 1
        sim.step()
    assert ties > 250


@pytest.mark.parametrize("seed", range(3))
def test_queue_matches_the_scan_in_synchronized_rounds(eight_robot_fleet, seed):
    """Once the n=8 benchmark fleet has converged, its meetings fall into
    synchronized rounds and most events are chosen from a tie group (602
    to 632 of 1,000 from two or more live entries, 277 to 308 from three
    or more, at these seeds).  Through 1,000 such events the queue picks
    what the full scan picks."""
    sim = Simulation(eight_robot_fleet,
                     *random_initial_state(eight_robot_fleet, random.Random(seed)))
    verify.run_to_deep_convergence(sim, rtol=1e-9)
    sizes = []
    for _ in range(1000):
        first = sim.next_candidate()
        assert first == scan_next_candidate(sim)
        sizes.append(sum(t <= first[0] + sim.tie_eps for t in live_entries(sim).values()))
        sim.step()
    assert sum(k >= 2 for k in sizes) >= 500
    assert sum(k >= 3 for k in sizes) >= 200


def test_deep_convergence_polls_stay_on_their_grid_across_a_change(eight_robot_fleet):
    """A parameter change due inside the run is not one of the events
    between two polls: every poll falls on a multiple of 4n events."""
    sim = Simulation(eight_robot_fleet,
                     *random_initial_state(eight_robot_fleet, random.Random(0)))
    sim.schedule_parameter_change(20_000.0, robot_id=5, v=0.35)
    polls, deviation = [], sim.max_deviation
    sim.max_deviation = lambda: polls.append(len(sim.trace.events)) or deviation()
    verify.run_to_deep_convergence(sim, rtol=1e-9)
    assert sim.trace.parameter_changes and sim.trace.parameter_changes[0]["events"] < polls[-1]
    assert [k for k in polls if k % 32] == []


@pytest.mark.parametrize("rtol", [1e-9, 1e-11])
def test_deep_convergence_stops_only_below_its_tolerance(rtol):
    """On this 15-robot fleet the max deviation reads 1.04e-8, 1.04e-8,
    9.36e-9, 9.36e-9 at successive polls while its worst robot waits for
    a meeting; a run that took the repeat for the arithmetic floor
    returned 9.36e-9 for either tolerance.  Stepping on reaches both."""
    rng = random.Random(89)
    n = rng.randint(14, 24)
    cfg = verify.random_fleet(rng, n=n)
    sim = Simulation(cfg, *random_initial_state(cfg, rng, n_minus=rng.randint(1, n - 1)))
    dev = verify.run_to_deep_convergence(sim, rtol=rtol)
    assert dev == sim.max_deviation() < rtol
    assert len(sim.trace.events) % (4 * n) == 0


def test_stale_queue_entries_are_compacted(eight_robot_fleet):
    """Re-queueing every key at its own time leaves the heap's live
    entries as they were and buries them under stale ones, past four per
    key, so that the peeks on the way, which pop only the root's stale
    copies, leave more than twice the key count.  The first pair event
    re-queues around its boundary and compacts the heap to its live
    entries; the run goes on as its untouched twin's."""
    start = random_initial_state(eight_robot_fleet, random.Random(4))
    sim, twin = (Simulation(eight_robot_fleet, *start) for _ in range(2))
    sim.run_until(max_events=200)
    twin.run_until(max_events=200)
    keys = len(sim._version)
    while len(sim._queue) <= 4 * keys:
        for key, t in live_entries(sim).items():
            sim._queue_key(key, t)
    assert live_entries(sim) == live_entries(twin)
    while twin.step().kind == "arrival":  # a parking arrival re-queues no pair
        sim.step()
    sim.step()
    assert len(sim._queue) == len(live_entries(sim))
    sim.run_until(max_events=499)
    twin.run_until(max_events=499)
    assert repr(sim.trace.events) == repr(twin.trace.events)  # repr: nan == nan


def event_label(ev):
    """(kind, boundary, robots) of a trace event."""
    robots = (ev.robot_a,) if ev.robot_b is None else (ev.robot_a, ev.robot_b)
    return ev.kind, ev.boundary, tuple(sorted(robots))


def mirrored_label(ev, n):
    """An event's label in the mirror image: robot i -> n-1-i, inner
    boundary j -> n-2-j, and the seam n-1 stays."""
    kind, j, robots = event_label(ev)
    return kind, j if j == n - 1 else n - 2 - j, tuple(sorted(n - 1 - i for i in robots))


def tie_clusters(events, width, label):
    """The events cut into runs each within width of the one before, as
    ``(times, labels)``, both sorted.  An arrival at a boundary where the
    run also holds a meeting loses its robot: either robot of the pair can
    be the one logged as parking, by the tie rule's robot order."""
    runs = []
    for ev in events:
        if not runs or ev.time - runs[-1][-1].time > width:
            runs.append([])
        runs[-1].append(ev)
    clusters = []
    for run in runs:
        labels = [label(ev) for ev in run]
        met = {j for kind, j, _ in labels if kind == "meeting"}
        labels = [(kind, j, () if kind == "arrival" and j in met else robots)
                  for kind, j, robots in labels]
        clusters.append((sorted(ev.time for ev in run), sorted(labels)))
    return clusters


def test_mirror_image_mirrors_the_trace():
    """Mirroring a start (p -> L - p, o -> -o, robot i -> n-1-i with its
    speed and radius) mirrors the run: cluster for cluster of simultaneous
    events, the same events with mapped labels at the same times.  Order
    inside a cluster is not kept: the tie rule resolves by boundary index,
    which the map reverses.  Every fifth fleet is identical robots evenly
    spaced, whose events tie exactly."""
    rng = random.Random(2024)
    for fleet in range(20):
        n = rng.randint(3, 10)
        if fleet % 5:
            speeds = [rng.uniform(0.3, 3.0) for _ in range(n)]
            radii = [rng.uniform(0.0, 10.0) for _ in range(n)]
            cfg = make_fleet(speeds, radii, 2.0 * sum(radii) + rng.uniform(100.0, 1000.0))
            pos, ori = random_initial_state(cfg, rng, n_minus=rng.randint(1, n - 1))
        else:
            cfg = make_fleet([0.5] * n, [5.0] * n, 100.0 * n)
            _, ori = random_initial_state(cfg, rng, n_minus=rng.randint(1, n - 1))
            pos = [50.0 + 100.0 * i for i in range(n)]
        mirror = make_fleet([rb.v for rb in reversed(cfg.robots)],
                            [rb.r for rb in reversed(cfg.robots)], cfg.L)
        runs = [Simulation(cfg, pos, ori),
                Simulation(mirror, [cfg.L - p for p in reversed(pos)], [-o for o in reversed(ori)])]
        for sim in runs:
            sim.run_until(max_events=2000)
        width = 100.0 * runs[0].tie_eps
        ours = tie_clusters(runs[0].trace.events, width, lambda ev: mirrored_label(ev, n))
        theirs = tie_clusters(runs[1].trace.events, width, event_label)
        # the 2,000th event may cut the last cluster at different events
        assert len(ours) == len(theirs), fleet
        assert [lab for _, lab in ours[:-1]] == [lab for _, lab in theirs[:-1]], fleet
        assert [t for ts, _ in ours[:-1] for t in ts] == pytest.approx(
            [t for ts, _ in theirs[:-1] for t in ts], rel=1e-9), fleet
        a, b = (sim.converged_at for sim in runs)
        assert (a is None) == (b is None), fleet
        assert a is None or b == pytest.approx(a, rel=1e-9), fleet


def trace_bytes_per_event(n, events=1500):
    """Bytes a recorded trace retains per event (tracemalloc, trace on
    minus trace off) on a random n-robot fleet."""
    rng = random.Random(n)
    radii = [rng.uniform(0.0, 2.0) for _ in range(n)]
    cfg = make_fleet([rng.uniform(0.5, 2.0) for _ in range(n)], radii,
                     2.0 * sum(radii) + 20.0 * n)
    pos, ori = random_initial_state(cfg, rng)
    retained = {}
    for on in (False, True):
        tracemalloc.start()
        try:
            sim = Simulation(cfg, pos, ori, record_trace=on)
            sim.run_until(max_events=events)
            retained[on] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del sim
    return (retained[True] - retained[False]) / events


def test_trace_bytes_per_event_independent_of_n():
    small, large = trace_bytes_per_event(8), trace_bytes_per_event(256)
    assert 0 < large <= 2.0 * small, (small, large)


def test_near_simultaneous_events_resolve_by_boundary():
    """Two discoveries half the tie tolerance TIME_EPS * L / sum(v) apart
    are simultaneous, so the one at the lower boundary goes first although
    it is the later one; one and a half tolerances apart, time decides."""
    cfg = make_fleet([1.0] * 4, [0.0] * 4, 100.0)
    tol = TIME_EPS * 100.0 / 4.0
    for lag, order in ((0.5, (0, 2)), (1.5, (2, 0))):
        # the pair at boundary 0 closes a gap of 2 + 2*lag*tol at speed 2
        sim = Simulation(cfg, [10.0, 12.0 + 2.0 * lag * tol, 50.0, 52.0], [1, -1, 1, -1])
        assert sim.tie_eps == tol
        first, second = sim.step(), sim.step()
        assert (first.kind, second.kind) == ("discovery", "discovery")
        assert (first.boundary, second.boundary) == order
        late = first if first.boundary == 0 else second
        assert late.time == pytest.approx(1.0 + lag * tol, abs=1e-14)
        assert second.time == max(first.time, late.time)  # the clock never runs backwards


def test_tie_tolerance_follows_a_speed_change(fig3_fleet):
    sim = Simulation(fig3_fleet, *random_initial_state(fig3_fleet, random.Random(6)))
    assert sim.tie_eps == pytest.approx(TIME_EPS * 1000.0 / 1.6, rel=1e-12)
    sim.apply_parameter_change(robot_id=2, v=2.1)
    assert sim.tie_eps == pytest.approx(TIME_EPS * 1000.0 / 3.0, rel=1e-12)


def test_speed_up_reschedules_the_arrival(fig3_fleet):
    rng = random.Random(6)
    pos, ori = random_initial_state(fig3_fleet, rng)
    sim = Simulation(fig3_fleet, pos, ori)
    sim.run_until(max_events=40)
    sim.apply_parameter_change(robot_id=2, v=5.0)
    for _ in range(40):
        assert sim.next_candidate() == scan_next_candidate(sim)
        sim.step()


def test_run_until_never_moves_the_clock_back(fig3_fleet):
    rng = random.Random(4)
    pos, ori = random_initial_state(fig3_fleet, rng)
    sim = Simulation(fig3_fleet, pos, ori)
    sim.run_until(t_end=5000.0)
    assert sim.t == 5000.0
    sim.run_until(t_end=1000.0)
    assert sim.t == 5000.0


@pytest.mark.parametrize("seed", range(5))
def test_paused_run_matches_uninterrupted(eight_robot_fleet, seed):
    """Pausing a run at 36 arbitrary times with run_until(t_end=...) and
    then continuing it gives the uninterrupted trace bit for bit: no
    candidate time depends on where the clock stopped."""
    pos, ori = random_initial_state(eight_robot_fleet, random.Random(seed))
    whole = Simulation(eight_robot_fleet, pos, ori)
    whole.run_until(max_events=6000)
    rng = random.Random(1000 + seed)
    paused = Simulation(eight_robot_fleet, pos, ori)
    for t in sorted(rng.uniform(0.0, whole.t) for _ in range(36)):
        paused.run_until(t_end=t)
        assert paused.t == t
    paused.run_until(max_events=6000 - len(paused.trace.events))
    assert list(map(repr, paused.trace.events)) == list(map(repr, whole.trace.events))


# -- metamorphic: the trace does not depend on the units ---------------------

@st.composite
def random_fleets(draw):
    n = draw(st.integers(2, 10))
    speeds = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    # scaling a subnormal length by 2**m rounds it; no fleet has one
    radii = draw(st.lists(st.floats(0.0, 20.0, allow_subnormal=False), min_size=n, max_size=n))
    if draw(st.booleans()):  # identical robots: exact ties between events
        speeds, radii = [speeds[0]] * n, [radii[0]] * n
    L = 2.0 * sum(radii) + draw(st.floats(10.0, 1000.0))
    pos, ori = random_initial_state(make_fleet(speeds, radii, L),
                                    random.Random(draw(st.integers(0, 2**32 - 1))),
                                    n_minus=draw(st.integers(1, n - 1)))
    return speeds, radii, L, pos, ori


def run_events(speeds, radii, L, pos, ori, events=2000):
    sim = Simulation(make_fleet(speeds, radii, L), pos, ori)
    sim.run_until(max_events=events)
    return sim.trace.events


def labels(events):
    return [(ev.kind, ev.robot_a, ev.robot_b, ev.boundary, ev.updated) for ev in events]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_fleets(), st.integers(-10, 20))
def test_scaling_lengths_scales_times_exactly(fleet, m):
    """Every length times 2**m: the same labelled events, and every time,
    boundary value and traversing time times 2**m bit for bit."""
    speeds, radii, L, pos, ori = fleet
    k = 2.0 ** m
    base = run_events(speeds, radii, L, pos, ori)
    scaled = run_events(speeds, [x * k for x in radii], L * k, [x * k for x in pos], ori)
    assert labels(scaled) == labels(base)
    for field in ("time", "y_value", "e_a", "e_b"):
        assert bits(getattr(ev, field) for ev in scaled) == \
            bits(getattr(ev, field) * k for ev in base), field


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_fleets(), st.integers(-10, 20))
def test_scaling_speeds_divides_times_exactly(fleet, m):
    """Every speed times 2**m: the same labelled events and boundary
    values, and every time and traversing time divided by 2**m bit for
    bit."""
    speeds, radii, L, pos, ori = fleet
    k = 2.0 ** m
    base = run_events(speeds, radii, L, pos, ori)
    scaled = run_events([v * k for v in speeds], radii, L, pos, ori)
    assert labels(scaled) == labels(base)
    assert bits(ev.y_value for ev in scaled) == bits(ev.y_value for ev in base)
    for field in ("time", "e_a", "e_b"):
        assert bits(getattr(ev, field) for ev in scaled) == \
            bits(getattr(ev, field) / k for ev in base), field

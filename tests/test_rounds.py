import dataclasses
import random

import pytest

from cyclepatrol import rounds, words
from cyclepatrol.engine import Simulation, random_initial_state
from cyclepatrol.rounds import (
    NotConvergedError,
    RoundState,
    check_synchronization,
    compare_with_engine,
    lift_from_trace,
    run_rounds,
    step_round,
)
from cyclepatrol.verify import run_to_deep_convergence
from cyclepatrol.words import Word

from conftest import make_fleet


def synthetic_state(ori, te, t_round=1.0, y=None, radii=None, t0=0.0):
    n = len(ori)
    y = y or tuple(float(k + 1) for k in range(n))
    radii = radii or tuple(0.0 for _ in range(n))
    return RoundState(k=0, t0=t0, t_round=t_round, te=tuple(te),
                      word=Word.from_letters(ori), y=tuple(y), radii=tuple(radii))


class TestStepRound:
    def test_two_robot_alternation(self):
        st = synthetic_state([1, -1], [0.1, 0.2])
        nxt, ms = step_round(st)
        assert [j for j, _ in ms] == [0]
        assert str(nxt.word) == "-+"
        assert nxt.te == (1.2, 1.2)
        nxt2, ms2 = step_round(nxt)
        assert [j for j, _ in ms2] == [1]  # the seam pair
        assert str(nxt2.word) == "+-"

    def test_single_inner_pair(self):
        st = synthetic_state([1, 1, -1, -1], [0.1, 0.2, 0.3, 0.4])
        nxt, ms = step_round(st)
        assert [j for j, _ in ms] == [1]
        assert ms[0][1] == 0.3  # max of the pair's arrivals
        assert str(nxt.word) == "+-+-"
        assert nxt.te == (0.1, 1.3, 1.3, 0.4)

    def test_balanced_interlaced_shifts_left(self):
        st = synthetic_state([1, -1, 1, -1], [0.1, 0.2, 0.3, 0.4])
        assert words.is_interlaced(st.word)
        nxt, ms = step_round(st)
        assert [j for j, _ in ms] == [0, 2]
        assert words.is_interlaced(nxt.word)
        _, ms2 = step_round(nxt)
        assert [j for j, _ in ms2] == [1, 3]  # indexes shifted by one


class TestInterlaced:
    def test_not_interlaced_pair_word(self):
        st = synthetic_state([1, 1, -1, -1], [0.0] * 4)
        assert not words.is_interlaced(st.word)
        assert [j for j, _ in step_round(st)[1]] == [1]

    def test_uniform_rejected(self):
        st = synthetic_state([1, 1, 1, 1], [0.0] * 4)
        with pytest.raises(ValueError, match="A2"):
            words.is_interlaced(st.word)


class TestSynchronization:
    def test_hand_run_max_consensus(self):
        # n=4 balanced interlaced, offsets (0.2, 0.5, 0.1, 0.4)
        st = synthetic_state([1, -1, 1, -1], [0.2, 0.5, 0.1, 0.4])
        states, _ = run_rounds(st, 4)
        rep = check_synchronization(states)
        assert rep.ok
        assert rep.k0 == 0 and rep.sync_round == 2
        # after two rounds every event sits at max(te) + k * t_round
        assert states[2].te == (2.5, 2.5, 2.5, 2.5)
        assert states[3].te == (3.5, 3.5, 3.5, 3.5)

    def test_already_synchronized(self):
        st = synthetic_state([1, -1], [0.5, 0.5])
        states, _ = run_rounds(st, 3)
        rep = check_synchronization(states)
        assert rep.ok and rep.k0 == 0 and rep.sync_round == 1

    def test_violation_reported(self):
        st = synthetic_state([1, -1, 1, -1], [0.2, 0.5, 0.1, 0.4])
        states, _ = run_rounds(st, 4)
        broken = states[:3] + [
            RoundState(k=3, t0=0.0, t_round=1.0,
                       te=(3.5, 3.5, 3.5, 9.9), word=states[3].word,
                       y=states[3].y, radii=states[3].radii)
        ]
        rep = check_synchronization(broken)
        assert not rep.ok
        assert rep.first_violation[0] == 3  # the offending robot

    @pytest.mark.parametrize("word, te, k0, sync_round", [
        ("++--", (0.2, 0.5, 0.1, 0.4), 1, 3),
        ("+++---", (0.3, 0.1, 0.6, 0.2, 0.5, 0.4), 2, 5),
        ("++-", (0.2, 0.5, 0.1), None, None),
    ])
    def test_k0_is_the_first_interlaced_round(self, word, te, k0, sync_round):
        """A balanced word not yet interlaced synchronizes n/2 rounds after
        the first interlaced round k0; an unbalanced word is not ok."""
        st = synthetic_state([1 if c == "+" else -1 for c in word], te)
        states, _ = run_rounds(st, 8)
        rep = check_synchronization(states)
        assert rep.ok == (k0 is not None)
        assert (rep.k0, rep.sync_round) == (k0, sync_round)


def cut_short(events, k, t_end):
    return [ev for ev in events if ev.time < t_end]


def drop_a_meeting(events, k, t_end):
    return events[:k] + events[k + 1:]


def move_a_meeting(events, k, t_end):
    """Meeting k at the next boundary of the n=8 fleet."""
    moved = events[k]._replace(boundary=(events[k].boundary + 1) % 8)
    return events[:k] + [moved] + events[k + 1:]


class TestLift:
    @pytest.fixture
    def converged_sim(self, eight_robot_fleet):
        rng = random.Random(6)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        run_to_deep_convergence(sim, rtol=1e-11)
        return sim

    def test_unconverged_rejected(self, eight_robot_fleet):
        rng = random.Random(6)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=20)
        with pytest.raises(NotConvergedError):
            lift_from_trace(sim.trace)

    def test_lift_state_shape(self, converged_sim):
        sim = converged_sim
        st = lift_from_trace(sim.trace)
        n = sim.n
        assert st.k == 0
        assert st.t_round == pytest.approx(sim.t_star, rel=1e-6)
        assert st.word.n == n
        for i in range(n):
            assert st.t0 <= st.te[i] < st.t0 + st.t_round * (1 + 1e-9)

    def test_waiting_robot_te_is_t0(self, converged_sim):
        sim = converged_sim
        t0 = rounds.choose_t0(sim.trace)
        *_, snap_states = rounds._state_at(sim.trace, t0)
        st = lift_from_trace(sim.trace, t0=t0)
        for i, (_, _, _, a) in enumerate(snap_states):
            if a == 0:
                assert st.te[i] == t0

    def test_engine_equivalence_100_rounds(self, converged_sim):
        sim = converged_sim
        st = lift_from_trace(sim.trace)
        sim.run_until(t_end=st.t0 + 102 * st.t_round)
        rep = compare_with_engine(sim.trace, st, n_rounds=100, tol=1e-6)
        assert rep.ok, (rep.detail, rep.max_time_err, rep.max_pos_err)
        assert rep.model_meetings == rep.engine_meetings == 400

    @pytest.mark.parametrize("corrupt, detail", [
        (cut_short, "trace ends before the comparison window"),
        (drop_a_meeting, "meeting counts differ"),
        (move_a_meeting, "pair mismatch at t="),
    ])
    def test_engine_equivalence_fails_on_a_corrupted_trace(self, converged_sim,
                                                           corrupt, detail):
        """A trace copy cut short, missing the window's first meeting or
        with that meeting at the next boundary fails the comparison with
        the report that names it."""
        sim = converged_sim
        st = lift_from_trace(sim.trace)
        t_end = st.t0 + 100 * st.t_round
        sim.run_until(t_end=t_end + 2 * st.t_round)
        evs = sim.trace.events
        k = next(k for k, ev in enumerate(evs) if ev.kind == "meeting" and ev.time > st.t0)
        trace = dataclasses.replace(sim.trace, events=corrupt(evs, k, t_end))
        rep = compare_with_engine(trace, st, n_rounds=100, tol=1e-6)
        assert not rep.ok
        assert rep.detail.startswith(detail)


class TestLiftAcrossChanges:
    def test_positions_after_a_speed_change(self, fig3_fleet):
        """Halfway to the next event after a speed change, the positions
        rebuilt from the trace are the engine's.  Before the cursor
        re-pinned at changes, robot 2 was put at 400.64 (engine: 342.15)."""
        sim = Simulation(fig3_fleet, *random_initial_state(fig3_fleet, random.Random(2)))
        sim.schedule_parameter_change(5000.0, 2, v=0.35)
        sim.run_until(t_end=5000.0)
        sim.run_until(max_events=1)
        t = 0.5 * (sim.trace.events[-1].time + sim.next_candidate()[0])
        kin = rounds._state_at(sim.trace, t)[-1]
        assert [p for _, p, _, _ in kin] == [sim.position(i, t) for i in range(sim.n)]

    def test_change_after_the_last_event_rejected(self, fig3_fleet):
        sim = Simulation(fig3_fleet, *random_initial_state(fig3_fleet, random.Random(2)))
        sim.run_until(max_events=50)
        sim.apply_parameter_change(2, v=0.35)
        with pytest.raises(NotConvergedError, match="parameter change"):
            rounds._state_at(sim.trace, sim.t + 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_engine_equivalence_after_two_changes(self, eight_robot_fleet, seed):
        """The n=8 fleet with robot 5 slowed at t=3000 and robot 2's zone
        narrowed at t=9000: the model lifted after both changes matches the
        engine over 100 rounds.  With the initial radii the lift was off
        by 7.5 m, the old radius 20 minus the new 12.5."""
        sim = Simulation(eight_robot_fleet,
                         *random_initial_state(eight_robot_fleet, random.Random(seed)))
        sim.schedule_parameter_change(3000.0, 5, v=0.35)
        sim.schedule_parameter_change(9000.0, 2, r=12.5)
        sim.run_until(t_end=9000.0)
        run_to_deep_convergence(sim, rtol=1e-11)
        st = lift_from_trace(sim.trace)
        sim.run_until(t_end=st.t0 + 102 * st.t_round)
        rep = compare_with_engine(sim.trace, st, n_rounds=100, tol=1e-6)
        assert rep.ok, (rep.detail, rep.max_time_err, rep.max_pos_err)
        assert st.radii[1] == 12.5

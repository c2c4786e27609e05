"""The conservation suite fails, naming the broken invariant, on a run
whose every step breaks one fact the protocol preserves."""

import dataclasses

import pytest

from cyclepatrol import rounds, verify
from cyclepatrol.engine import Simulation


def flip_an_orientation(sim, ev):
    sim.o[0] = -sim.o[0]
    return ev


def swap_two_boundaries(sim, ev):
    if sim.all_boundaries_known():
        sim.y[0], sim.y[1] = sim.y[1], sim.y[0]
    return ev


def move_the_seam(sim, ev):
    sim.y[-1] += 1.0
    return ev


def unbalance_a_meeting(sim, ev):
    if ev is not None and ev.kind == "meeting" and ev.updated:
        return ev._replace(e_b=ev.e_b + 1.0)
    return ev


def shift_one_e(sim, ev):
    if sim.all_boundaries_known():
        sim._e[0] += 1.0
    return ev


def fail(sim, ev):
    raise RuntimeError("step failed")


@pytest.mark.parametrize("corrupt, message", [
    (flip_an_orientation, "orientation sum changed"),
    (swap_two_boundaries, "boundaries out of order"),
    (move_the_seam, "seam boundary moved"),
    (unbalance_a_meeting, "post-meeting times unequal"),
    (shift_one_e, "weighted e sum drifted"),
    (fail, "RuntimeError('step failed')"),
])
def test_conservation_suite_reports_a_broken_invariant(monkeypatch, corrupt, message):
    step = Simulation.step
    monkeypatch.setattr(Simulation, "step", lambda sim: corrupt(sim, step(sim)))
    res = verify.conservation_suite(total_events=2000)
    assert res.checks == [("invariants_hold", False, f"run 1: {message}")]


def test_rounds_suite_counts_an_instance_off_once(monkeypatch):
    """An instance that breaks both the per-round and the per-boundary
    meeting count is one instance off, not two."""
    step_round = rounds.step_round

    def spurious_meeting(state):
        nxt, meetings = step_round(state)
        return nxt, (*meetings, (0, state.t0))

    compare = rounds.compare_with_engine
    monkeypatch.setattr(rounds, "step_round", spurious_meeting)
    monkeypatch.setattr(rounds, "compare_with_engine",
                        lambda *a, **kw: dataclasses.replace(compare(*a, **kw), ok=True))
    res = verify.rounds_suite(instances=1)
    assert "[FAIL] rounds: interlaced_meeting_counts (1 instances off)" in res.summary_lines()

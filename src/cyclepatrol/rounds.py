"""Discrete synchronous round model layered on a converged simulation.

Once the fleet has converged to a common traversing time, the protocol
advances in rounds of that duration.  A state's orientations are a
`words.Word`, and a round is `words.step_word` plus the meeting times: the
cyclically adjacent (+, -) pairs meet at the later of their two boundary
arrivals and re-arrive at the opposite boundaries one traversing time
later.  Lifting a converged trace into this model and stepping it must
reproduce the engine's meetings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import words
from .engine import CONVERGENCE_RTOL, Trace, contact, deviation, kin_at

SEARCH_ROUNDS = 4.0  # choose_t0 searches this many round-widths of the trace
COMPARE_ROUNDS = 100  # compare_with_engine steps the model this many rounds
COMPARE_TOL = 1e-6  # its bound on every meeting's time and contact-point error
SYNC_ATOL = 1e-9  # check_synchronization's bound on an event time's offset from its round


class NotConvergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class RoundState:
    k: int
    t0: float
    t_round: float  # realized common traversing time used as round width
    te: tuple[float, ...]  # latest boundary-arrival time per robot
    word: words.Word  # the robots' orientations
    y: tuple[float, ...]  # boundary values frozen at t0 (y[n-1] = L)
    radii: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.te)


def _state_at(trace: Trace, t0: float):
    """Boundary values, traversing times, speeds, radii and each robot's
    kinematic state ``(t0, p, o, a)`` advanced to t0, from the replay
    cursor after the last event up to t0."""
    done, step = 0, None
    for done, step in enumerate(trace.replay(until=t0), 1):
        pass
    if step is None:
        raise NotConvergedError("no events before t0")
    if any(ch["events"] >= done and ch["t"] <= t0 for ch in trace.parameter_changes):
        raise NotConvergedError("a parameter change falls between the last event and t0")
    _, y, e, v, r, kin = step
    return list(y), list(e), v, r, kin_at(kin, v, t0)


def _median(xs) -> float:
    """The middle of xs sorted, or the mean of the two middle values, as
    ``statistics.median`` computes it (without importing ``statistics``)."""
    s = sorted(xs)
    i = len(s) // 2
    return s[i] if len(s) % 2 else (s[i - 1] + s[i]) / 2


def choose_t0(trace: Trace) -> float:
    """Midpoint of the largest event-free gap in the trace's last rounds.

    The search spans SEARCH_ROUNDS round-widths from that many before the
    last event, or from the convergence time if that is later, so the
    lifted model starts where the run converged deepest.
    """
    if trace.converged_at is None:
        raise NotConvergedError("trace never reached the convergence criterion")
    t_c = max(trace.converged_at, trace.events[-1].time - SEARCH_ROUNDS * trace.t_star)
    horizon = t_c + SEARCH_ROUNDS * trace.t_star
    times = [ev.time for ev in trace.events if t_c <= ev.time <= horizon]
    if len(times) < 2:
        raise NotConvergedError("not enough post-convergence events to place t0")
    best_gap, best_mid = -1.0, None
    for a, b in zip(times, times[1:]):
        if b - a > best_gap:
            best_gap, best_mid = b - a, 0.5 * (a + b)
    if best_gap <= 0.0:
        raise NotConvergedError("no event-free gap after convergence")
    return best_mid


def lift_from_trace(trace: Trace) -> RoundState:
    """Initial round state from a converged trace, at t0 = `choose_t0`.

    The state at t0 must be within CONVERGENCE_RTOL of t_star.  Waiting
    robots carry te = t0; moving robots the exact time their zone
    reaches the boundary ahead.  Boundary values are frozen at t0 and the
    round width is the realized common traversing time (median of e at
    t0, within numerical noise of the closed form).
    """
    t0 = choose_t0(trace)
    y_vals, e_vals, speeds, radii, kin = _state_at(trace, t0)
    dev = deviation(e_vals, trace.t_star)
    if dev > CONVERGENCE_RTOL:
        raise NotConvergedError(f"deviation {dev} above tolerance {CONVERGENCE_RTOL} at t0")
    t_round = _median(e_vals)
    # a parked robot is pinned at its contact; a moving one reaches it
    # |contact - p| / v later (times o, an exact negation, for o < 0)
    te = tuple(t0 if a == 0 else t0 + (contact(y_vals, i, o, radii[i]) - p) * o / speeds[i]
               for i, (_, p, o, a) in enumerate(kin))
    return RoundState(
        k=0, t0=t0, t_round=t_round, te=te,
        word=words.Word.from_letters([o for _, _, o, _ in kin]),
        y=tuple(y_vals), radii=tuple(radii),
    )


Meetings = tuple[tuple[int, float], ...]  # (boundary index, meeting time), ascending


def step_round(state: RoundState) -> tuple[RoundState, Meetings]:
    """One round: the word steps by `words.step_word`, and each meeting
    pair (j, j+1) meets at the later of its two arrivals and re-arrives one
    round width later."""
    n = state.n
    te = list(state.te)
    meetings = []
    for j in words.meeting_pairs(state.word):
        right = (j + 1) % n
        m = max(state.te[j], state.te[right])
        meetings.append((j, m))
        te[j] = te[right] = m + state.t_round
    nxt = replace(state, k=state.k + 1, te=tuple(te), word=words.step_word(state.word))
    return nxt, tuple(meetings)


def run_rounds(state: RoundState, count: int) -> tuple[list[RoundState], list[Meetings]]:
    states = [state]
    meetings = []
    for _ in range(count):
        state, ms = step_round(state)
        states.append(state)
        meetings.append(ms)
    return states, meetings


@dataclass
class SyncReport:
    ok: bool
    k0: int | None
    sync_round: int | None
    first_violation: tuple[int, int, float] | None  # (robot, round, |error|)

    def __bool__(self) -> bool:
        return self.ok


def check_synchronization(states: list[RoundState]) -> SyncReport:
    """Balanced interlaced fleets synchronize all event times within n/2
    rounds of reaching the interlaced configuration.  A step keeps the
    word's count of '+', so the first state's word decides balance."""
    first = states[0].word
    base = None
    if first.n == 2 * first.n_bal:
        base = next((s for s in states if words.is_interlaced(s.word)), None)
    if base is None:
        return SyncReport(ok=False, k0=None, sync_round=None, first_violation=None)
    k0 = base.k
    m0 = max(base.te)
    sync_round = k0 + base.n // 2
    for s in states:
        if s.k < sync_round:
            continue
        expect = (s.k - k0) * s.t_round + m0
        for i, t in enumerate(s.te):
            if abs(t - expect) > SYNC_ATOL:
                return SyncReport(ok=False, k0=k0, sync_round=sync_round,
                                  first_violation=(i, s.k, abs(t - expect)))
    return SyncReport(ok=True, k0=k0, sync_round=sync_round, first_violation=None)


@dataclass
class EquivalenceReport:
    ok: bool
    model_meetings: int
    engine_meetings: int
    max_time_err: float
    max_pos_err: float
    detail: str = ""
    # the round model as stepped: COMPARE_ROUNDS + 1 states and as many meeting sets
    states: list[RoundState] = field(default_factory=list, repr=False)
    meeting_sets: list[Meetings] = field(default_factory=list, repr=False)

    def __bool__(self) -> bool:
        return self.ok


def compare_with_engine(trace: Trace, state: RoundState) -> EquivalenceReport:
    """Step the round model COMPARE_ROUNDS rounds from ``state``, a lift of
    this trace, and match it meeting-for-meeting against the engine trace
    over the same window, to COMPARE_TOL; the report holds the states and
    meeting sets it stepped.
    """
    states, sets = run_rounds(state, COMPARE_ROUNDS)
    t_end = state.t0 + COMPARE_ROUNDS * state.t_round
    model = []  # (time, boundary, left contact, right contact)
    for ms in sets:
        for j, m in ms:
            left, right = j, (j + 1) % state.n
            model.append((m, j, contact(state.y, left, 1, state.radii[left]),
                          contact(state.y, right, -1, state.radii[right])))
    engine = []
    for ev in trace.events:
        if ev.kind == "meeting" and state.t0 < ev.time <= t_end:
            engine.append((ev.time, ev.boundary, ev.states[0][1], ev.states[1][1]))

    def report(ok, max_dt=0.0, max_dp=0.0, detail=""):
        return EquivalenceReport(ok, len(model), len(engine), max_dt, max_dp,
                                 detail, states, sets)

    if trace.events and trace.events[-1].time < t_end:
        return report(False, detail="trace ends before the comparison window")
    # boundary-major order: near-simultaneous meetings may sort either way
    # by time alone, but per boundary the meeting sequence is unambiguous
    model.sort(key=lambda m: (m[1], m[0]))
    engine.sort(key=lambda m: (m[1], m[0]))
    if len(model) != len(engine):
        return report(False, detail="meeting counts differ")
    max_dt = 0.0
    max_dp = 0.0
    for (tm, jm, la, ra), (te_, je, lb, rb) in zip(model, engine):
        if jm != je:
            return report(False, max_dt, max_dp, f"pair mismatch at t={te_}: {jm} vs {je}")
        max_dt = max(max_dt, abs(tm - te_))
        max_dp = max(max_dp, abs(la - lb), abs(ra - rb))
    return report(max_dt <= COMPARE_TOL and max_dp <= COMPARE_TOL, max_dt, max_dp)

"""Exact continuous-time, event-driven execution of the patrolling protocol.

Robots move at constant speed between events, so every event time has a
closed form; nothing is time-stepped.  The four event kinds:

* discovery - two approaching robots with opposite orientations touch
  communication zones and initialize their common boundary, reversing.
* catch - same-orientation contact; the chasing robot parks at the new
  boundary, the caught robot keeps going.
* arrival - a robot's zone touches a boundary it knows; it parks there
  unless the neighbor is already waiting.
* meeting - both robots of a pair are at their common boundary; the
  boundary moves by the pairwise weighted average (skipped for the fixed
  seam boundary), and both reverse reactivated.

The seam at position 0 == L is a fixed boundary between the last and
first robots (it is never averaged); each of the two learns it by
arriving there, and the pair never produces discovery or catch events
across it.

At a meeting both positions re-pin to the *updated* boundary's contact
points, so the following traversal takes exactly the updated traversing
time.  This is the discrete-asynchronous reading of the protocol and is
what makes the event times reproducible by the matrix oracle and the
round model to tight tolerances.

Scheduling is a kinetic event queue (the certificate pattern of kinetic
data structures, Basch, Guibas & Hershberger, SODA 1997).  Each candidate
time is computed once, when its key is queued, from the state pinned at
the participants' last events, and stays exact until an event changes one
of its inputs.  A binary heap holds one entry per key (a robot's arrival
or an inner boundary's contact), ordered by that time and stamped with a
per-key version.  An event is a key and its entry's time: the key says
what to apply, robot i's arrival or the contact across boundary j.  A
robot ends every traversal at ``contact(y, i, o, r)``, where its zone
touches the boundary its orientation faces; it arrives, parks and
re-pins there, and the round model lifts and steps positions by the
same function.  Choosing the next event peeks: when neither child of the
heap root lies within the tie window, the root is the event and nothing
is popped.  An event re-queues only the keys whose inputs it changed.  A
robot that arrives and parks re-queues its own arrival (it has none while
parked) and its open contacts, whose closing speed its stop changed; its
partner's arrival is left alone.  A meeting, discovery or catch at
boundary j re-queues the arrivals of robots j and j+1 and their open
contacts.  A contact is open while its boundary is unknown; a count of
the open ones falls as boundaries are discovered, each discovery retiring
its contact's entry, and once it reaches zero no event looks at contacts
again.  Superseded entries become stale and are dropped when they reach
the top, or by compacting the heap once stale entries outnumber live
ones.  A parameter change re-pins every robot and rebuilds the queue.

Candidates within TIME_EPS * L / sum(v) of the earliest are simultaneous
and resolve by lowest boundary, then lowest robot.  Pairwise meetings
make a balanced fleet settle into synchronized rounds, so ties are
common: 44% of the events of a run of the n=8 benchmark fleet to deep
convergence are chosen from two or more live entries, about 60% once it
has converged.  A tie group of k live entries costs O(k) to rank, so a
synchronized round of k events costs O(k^2).  No candidate time reads the
clock, so pausing and resuming a run leaves its trace unchanged, and
scaling every length or every speed by a power of two scales every event
time exactly.

Each fact of the run state is held once.  The boundary vector y holds
NaN while a boundary is unknown, so the traversing times
``traversing(y, r, v, i)`` are NaN until both of a robot's boundaries are
known.  A robot is parked iff act[i] == 0, and then waits at its
contact.  The traversing times e and the count of robots outside
CONVERGENCE_RTOL are kept incrementally: writing y[j] updates only e_j
and e_{j+1}, and the convergence test is a comparison of that count
with 0.

The trace is a delta log: each event records only what it changed (the
boundary value, the participants' traversing times and kinematic states),
so its size does not grow with n.  ``Trace.replay()`` rebuilds the whole
state after each event from those records and the logged parameter
changes: y, e, speeds, radii and every robot's pinned kinematic state.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .fleet import FleetConfig, RobotParams, StaticallyCoverableError

NAN = float("nan")

# Candidates within TIME_EPS * L / sum(v) of the earliest are simultaneous.
# L / sum(v) is a time in the fleet's own units, so the tie rule does not
# depend on the choice of length or time unit.
TIME_EPS = 1e-11
CONVERGENCE_RTOL = 1e-3  # tooling threshold for Trace.converged_at


class AssumptionError(ValueError):
    """An initial state violating A1/A2/A3 (message names the assumption)."""


class DeadlockError(RuntimeError):
    """No future event exists; unreachable when A2 holds."""


def traversing(y, r, v, i: int) -> float:
    """Robot i's traversing time (y[i] - y[i-1] - 2 r_i) / v_i, with y[-1]
    read as 0; NaN while either boundary is unknown."""
    return (y[i] - (0.0 if i == 0 else y[i - 1]) - 2.0 * r[i]) / v[i]


def contact(y, i: int, o: int, r: float) -> float:
    """Where robot i of radius r, facing o, ends a traversal: its zone
    touches the boundary it faces, at y[i] - r if o > 0, else y[i-1] + r
    with y[-1] read as 0; NaN while that boundary is unknown."""
    return y[i] - r if o > 0 else (0.0 if i == 0 else y[i - 1]) + r


def kin_at(kin, v, t: float) -> list:
    """Each pinned state ``(t_pin, p, o, a)`` of kin moved on to time t at
    the speeds v."""
    return [(t, p + vi * a * o * (t - tp), o, a) for vi, (tp, p, o, a) in zip(v, kin)]


def deviation(e, t_star: float) -> float:
    """max_i |e_i - t_star| / t_star."""
    return max(abs(x - t_star) for x in e) / t_star


def boundary_consensus_update(y_prev: float, y_next: float,
                              v_left: float, v_right: float,
                              r_left: float, r_right: float) -> float:
    """Pairwise weighted-average boundary update at a meeting."""
    return (v_right * (y_prev + 2.0 * r_left) + v_left * (y_next - 2.0 * r_right)) / (
        v_left + v_right
    )


class TraceEvent(NamedTuple):
    """What one event changed; full state comes from ``Trace.replay()``.

    A discovery, a catch and an updating meeting set y[boundary] to
    y_value; an arrival and a seam or non-updating meeting leave y as it
    was (y_value then repeats the boundary's value).
    """

    time: float
    kind: str  # discovery | catch | arrival | meeting
    robot_a: int  # 0-based index of first participant (left robot for pair events)
    robot_b: int | None
    boundary: int  # 0-based boundary index; n-1 is the seam
    y_value: float
    e_a: float  # post-event traversing times of the participants
    e_b: float
    updated: bool
    # post-event kinematic state of the participants: (robot, p, o, a)
    states: tuple[tuple[int, float, int, int], ...]


@dataclass
class Trace:
    """Event log of one run.

    ``parameter_changes`` holds one dict per applied change (no-ops
    included) with its time, robot id, new v and r, and ``events``, the
    number of trace events recorded before it.
    """

    fleet: FleetConfig
    t_star: float
    initial_positions: tuple[float, ...]
    initial_orientations: tuple[int, ...]
    events: list[TraceEvent] = field(default_factory=list)
    converged_at: float | None = None
    parameter_changes: list[dict] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.fleet.n

    def replay(self, until: float | None = None):
        """Yield ``(ev, y, e, v, r, kin)`` after each event, stopping
        before the first event later than ``until``, bit for bit the state
        the engine held after that event.

        y is the boundary vector (NaN while unknown, y[n-1] = L), e the
        traversing times, v and r the speeds and radii in force, and kin[i]
        robot i's state ``(t, p, o, a)`` pinned at its last event; a robot
        with a == 0 is parked at ``contact(y, i, o, r[i])``.
        Changes logged before an event apply ahead of it as in the engine:
        one that is not a no-op re-pins every robot at its time with the old
        speeds, and a parked changed robot at its contact with the new
        radius.  v and r are new tuples exactly at the events with changes
        before them.  y, e and kin change in place: copy what you keep.
        """
        n = self.n
        v = [rb.v for rb in self.fleet.robots]
        r = [rb.r for rb in self.fleet.robots]
        speeds, radii = tuple(v), tuple(r)
        index = {rb.id: i for i, rb in enumerate(self.fleet.robots)}
        y = [NAN] * (n - 1) + [self.fleet.L]
        kin = [(0.0, p, o, 1) for p, o in zip(self.initial_positions, self.initial_orientations)]
        e = [traversing(y, r, v, i) for i in range(n)]
        changes = self.parameter_changes
        c = 0
        for k, ev in enumerate(self.events):
            if until is not None and ev.time > until:
                return
            applied = c
            while c < len(changes) and changes[c]["events"] <= k:
                ch = changes[c]
                c += 1
                i = index[ch["robot_id"]]
                if ch["v"] == v[i] and ch["r"] == r[i]:
                    continue  # a no-op change leaves the engine's state untouched
                t = ch["t"]
                kin[:] = kin_at(kin, v, t)
                v[i], r[i] = ch["v"], ch["r"]
                _, p, o, a = kin[i]
                if not a:  # parked at its contact
                    kin[i] = (t, contact(y, i, o, r[i]), o, a)
            if c > applied:
                speeds, radii = tuple(v), tuple(r)
                e[:] = [traversing(y, r, v, i) for i in range(n)]
            if ev.kind in ("discovery", "catch") or ev.updated:
                j = ev.boundary
                y[j] = ev.y_value
                e[j] = traversing(y, r, v, j)
                e[j + 1] = traversing(y, r, v, j + 1)
            for i, p, o, a in ev.states:
                kin[i] = (ev.time, p, o, a)
            yield ev, y, e, speeds, radii, kin

    def final_state(self):
        """``(y, e, v, r)`` after the last event, bit for bit the last
        ``replay()`` yield (the state before any event if there is none),
        read without stepping the events: y[j] is the last y_value logged
        at boundary j, and v and r apply the changes logged before the last
        event.  A change logged after it does not enter."""
        n = self.n
        v = [rb.v for rb in self.fleet.robots]
        r = [rb.r for rb in self.fleet.robots]
        index = {rb.id: i for i, rb in enumerate(self.fleet.robots)}
        for ch in self.parameter_changes:
            if ch["events"] < len(self.events):
                i = index[ch["robot_id"]]
                v[i], r[i] = ch["v"], ch["r"]
        y = [NAN] * (n - 1) + [self.fleet.L]
        unseen = n - 1
        for ev in reversed(self.events):
            if not unseen:
                break
            j = ev.boundary
            if j < n - 1 and math.isnan(y[j]):
                y[j] = ev.y_value
                unseen -= 1
        return y, [traversing(y, r, v, i) for i in range(n)], tuple(v), tuple(r)

    def write_csv(self, path) -> None:
        rows = (CSV_ROW % (ev.time, ev.kind, ev.robot_a + 1,
                           "" if ev.robot_b is None else ev.robot_b + 1,
                           ev.boundary + 1, ev.y_value, ev.e_a, ev.e_b)
                for ev in self.events)
        write_rows(path, "time,kind,robot_a,robot_b,boundary_index,y_value,e_a,e_b\n", rows)


CSV_ROW = "%.9f,%s,%d,%s,%d,%.9f,%.9f,%.9f\n"
ROWS_PER_WRITE = 1024


def write_rows(path, header: str, rows) -> None:
    """Write header and the newline-terminated rows, joined in chunks of
    ROWS_PER_WRITE so the file never exists as one string in memory."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        chunk = list(itertools.islice(rows, ROWS_PER_WRITE))
        while chunk:
            fh.write("".join(chunk))
            chunk = list(itertools.islice(rows, ROWS_PER_WRITE))


class Simulation:
    """Event-driven simulation of one fleet on the cycle.

    Strictly sequential; deterministic given the initial state.  All
    positions are pinned to exact contact values at events, so repeated
    runs produce bit-identical traces.

    ``y[j]`` is boundary j, between robots j and j+1, NaN while unknown;
    the seam y[n-1] = L is fixed.  Robot i is parked iff ``act[i] == 0``,
    and then waits at ``contact(y, i, o[i], r[i])``.

    Queue keys: 0..n-1 are the arrivals of robots 0..n-1, n+j is the
    contact across inner boundary j.  An entry is ``(time, key, version)``
    with the candidate's exact time.  ``next_candidate`` pops stale entries
    off the top, picks among the live ones within ``tie_eps`` (TIME_EPS
    * L / sum(v), recomputed at a parameter change) of the first the one
    at the lowest boundary, then the lowest robot, and returns its
    ``(time, key)``; the event applied is that key's, so an event costs
    O(log n + k) for k tied entries, not the 2n-1 candidates of a full
    scan.

    ``e_values()`` returns a fresh list copied from the maintained
    traversing times; ``max_deviation()`` reads the same list.
    """

    def __init__(self, fleet: FleetConfig, positions, orientations, record_trace: bool = True):
        n = fleet.n
        if len(positions) != n or len(orientations) != n:
            raise ValueError("positions/orientations must match fleet size")
        self.fleet = fleet
        self.L = fleet.L
        self.n = n
        self.v = [rb.v for rb in fleet.robots]
        self.r = [rb.r for rb in fleet.robots]
        self._validate_initial(positions, orientations)

        self.t = 0.0
        self.p_pin = [float(p) for p in positions]
        self.t_pin = [0.0] * n
        self.o = [int(x) for x in orientations]
        self.act = [1] * n
        self.y = [NAN] * (n - 1) + [self.L]
        self.seam_known_left = False   # robot 0 has recorded the seam
        self.seam_known_right = False  # robot n-1 has recorded the seam
        self._pending_changes: list[dict] = []
        self._converged_at: float | None = None
        self._open = n - 1  # inner boundaries still unknown
        self._queue: list[tuple[float, int, int]] = []
        self._version = [0] * (2 * n - 1)
        self._derive_from_parameters()
        self.trace = Trace(
            fleet=fleet,
            t_star=self.t_star,
            initial_positions=tuple(self.p_pin),
            initial_orientations=tuple(self.o),
        ) if record_trace else None

    # -- validation ---------------------------------------------------

    def _validate_initial(self, positions, orientations):
        """A2 and A3 at t = 0.  Each position test is written to fail on
        NaN, so a NaN start position is rejected, naming its robot."""
        n = self.n
        ids = [rb.id for rb in self.fleet.robots]
        if any(o not in (-1, 1) for o in orientations):
            raise AssumptionError("orientations must be -1 or +1")
        if len(set(orientations)) < 2:
            raise AssumptionError("A2 violated: all robots share one orientation")
        for i in range(n - 1):
            if not positions[i] <= positions[i + 1]:
                raise AssumptionError(
                    "A3 violated: initial positions must be sorted by robot index: "
                    f"robot {ids[i]} at {positions[i]}, robot {ids[i + 1]} at {positions[i + 1]}"
                )
        for i in range(n):
            if not (positions[i] - self.r[i] >= 0 and positions[i] + self.r[i] <= self.L):
                raise AssumptionError(
                    f"A3 violated: robot {ids[i]} communication zone leaves [0, L]"
                )
        for i in range(n - 1):
            if not positions[i] + self.r[i] <= positions[i + 1] - self.r[i + 1]:
                raise AssumptionError(
                    f"A3 violated: zones overlap: robot {ids[i]} at {positions[i]} with "
                    f"r={self.r[i]}, robot {ids[i + 1]} at {positions[i + 1]} with r={self.r[i + 1]}"
                )

    # -- geometry helpers ---------------------------------------------

    def position(self, i: int, t: float | None = None) -> float:
        t = self.t if t is None else t
        return self.p_pin[i] + self.v[i] * self.act[i] * self.o[i] * (t - self.t_pin[i])

    def all_boundaries_known(self) -> bool:
        return not self._open

    def e_values(self) -> list[float]:
        """Traversing times per robot (a fresh list); nan while a boundary
        is undefined."""
        return list(self._e)

    def max_deviation(self) -> float:
        """max_i |e_i - t_star| / t_star, or inf while boundaries are missing."""
        if not self.all_boundaries_known():
            return math.inf
        return deviation(self._e, self.t_star)

    @property
    def converged_at(self) -> float | None:
        return self._converged_at

    # -- incremental e and convergence state ---------------------------

    def _update_e(self, i: int) -> None:
        t_star = self.t_star
        e = traversing(self.y, self.r, self.v, i)
        # within rtol is false for nan; since division by t_star > 0 is
        # monotone, all robots within rtol <=> max_deviation() < CONVERGENCE_RTOL
        self._off += ((abs(self._e[i] - t_star) / t_star < CONVERGENCE_RTOL)
                      - (abs(e - t_star) / t_star < CONVERGENCE_RTOL))
        self._e[i] = e

    def _derive_from_parameters(self) -> None:
        """What the speeds and radii fix: t_star (as ``compute_t_star``
        computes it), the tie window, e with the count of robots whose e is
        not within CONVERGENCE_RTOL of t_star, and the queue."""
        self.t_star = (self.L - 2.0 * sum(self.r)) / sum(self.v)
        self.tie_eps = TIME_EPS * self.L / sum(self.v)
        self._e = [NAN] * self.n
        self._off = self.n
        for i in range(self.n):
            self._update_e(i)
        self._rebuild_queue()

    def _set_y(self, j: int, value: float) -> None:
        if math.isnan(self.y[j]):  # discovered: the contact across j is dead for good
            self._open -= 1
            self._queue_key(self.n + j, None)
        self.y[j] = value
        self._update_e(j)
        self._update_e(j + 1)

    # -- scheduling ----------------------------------------------------

    def _arrival_time(self, i: int) -> float | None:
        if not self.act[i]:
            return None
        o = self.o[i]
        # IEEE negation is exact: for o < 0 this is p - contact bit for bit
        dist = (contact(self.y, i, o, self.r[i]) - self.p_pin[i]) * o
        if math.isnan(dist):  # the boundary ahead is unknown
            return None
        return self.t_pin[i] + max(dist, 0.0) / self.v[i]

    def _contact_time(self, j: int) -> float | None:
        # only inner boundaries are discoverable; the seam is fixed
        if not math.isnan(self.y[j]):
            return None
        a, b = j, j + 1
        ua = self.v[a] * self.act[a] * self.o[a]
        ub = self.v[b] * self.act[b] * self.o[b]
        closing = ua - ub
        if closing <= 0.0:
            return None
        t_ref = max(self.t_pin[a], self.t_pin[b])
        gap = (self.position(b, t_ref) - self.r[b]) - (self.position(a, t_ref) + self.r[a])
        return t_ref + max(gap, 0.0) / closing

    def _queue_key(self, key: int, time: float | None) -> None:
        """Supersede key's queued entry, if any, and queue the key at time
        (None: the key has no candidate)."""
        self._version[key] += 1
        if time is not None:
            heapq.heappush(self._queue, (time, key, self._version[key]))

    def _rebuild_queue(self) -> None:
        self._queue = []
        for i in range(self.n):
            self._queue_key(i, self._arrival_time(i))
        for j in range(self.n - 1):
            self._queue_key(self.n + j, self._contact_time(j))

    def _queue_open_contacts(self, i: int) -> None:
        """Re-queue robot i's contacts across its inner boundaries that are
        still unknown: a change of its motion changes their closing speed.
        Call only while ``_open`` is nonzero."""
        n, y = self.n, self.y
        for k in (i - 1, i):
            if 0 <= k < n - 1 and math.isnan(y[k]):
                self._queue_key(n + k, self._contact_time(k))

    def _requeue_around(self, j: int) -> None:
        """Re-queue what an event at boundary j can change: the arrivals
        of robots j and j+1 (index mod n) and, while some inner boundary
        is unknown, their open contacts.  The contact across j itself is
        dead: it was known before a meeting, and ``_set_y`` retired it at
        a discovery or catch."""
        n = self.n
        for i in (j, (j + 1) % n):
            self._queue_key(i, self._arrival_time(i))
            if self._open:
                self._queue_open_contacts(i)
        # live entries are at most one per key, so past twice the key
        # count the stale ones are the majority
        if len(self._queue) > 2 * len(self._version):
            version = self._version
            self._queue = [en for en in self._queue if en[2] == version[en[1]]]
            heapq.heapify(self._queue)

    def next_candidate(self) -> tuple[float, int] | None:
        """The next event as ``(time, key)`` of its live queue entry: of
        the entries within ``tie_eps`` of the earliest, the one at the
        lowest boundary, then the lowest robot.  That pair is unique among
        live entries: the contact across j is live only while y[j] is
        unknown, and robot j's arrival at j only once it is known.

        Stale entries are popped off the top of the heap; the live entries
        are only read, so the call can be repeated.  When neither child of
        the root lies within the tie window, no other entry does and the
        root is the event.  Otherwise the entries within the window form a
        subtree at the root, and one walk over it ranks each live entry
        once: O(k) for a group of k.
        """
        queue, version = self._queue, self._version
        while queue and queue[0][2] != version[queue[0][1]]:
            heapq.heappop(queue)
        if not queue:
            return None
        time, key, _ = queue[0]
        limit = time + self.tie_eps
        size = len(queue)
        if (size < 2 or queue[1][0] > limit) and (size < 3 or queue[2][0] > limit):
            return time, key
        n, o = self.n, self.o
        best, best_rank = None, (n,)  # every boundary is below n
        stack = [0]
        while stack:
            k = stack.pop()
            t, key, ver = queue[k]
            if ver == version[key]:
                if key >= n:  # the contact across boundary key - n
                    rank = (key - n, key - n)
                else:  # an arrival, at the boundary the robot faces
                    rank = (key if o[key] > 0 else (key - 1) % n, key)
                if rank < best_rank:
                    best, best_rank = (t, key), rank
            k = 2 * k + 1  # the children: k and k + 1
            if k < size and queue[k][0] <= limit:
                stack.append(k)
            if k + 1 < size and queue[k + 1][0] <= limit:
                stack.append(k + 1)
        return best

    # -- event application ----------------------------------------------

    def _record(self, kind, a, b, boundary, y_value, updated=False):
        t, trace = self.t, self.trace
        if trace is not None:
            e, p, o, act = self._e, self.p_pin, self.o, self.act
            if b is None:
                e_b, states = NAN, ((a, p[a], o[a], act[a]),)
            else:
                e_b, states = e[b], ((a, p[a], o[a], act[a]), (b, p[b], o[b], act[b]))
            events = trace.events
            if events and t < events[-1].time:
                raise AssertionError("event times must be non-decreasing")
            events.append(TraceEvent(t, kind, a, b, boundary, y_value, e[a], e_b, updated, states))
        if self._converged_at is None and self._off == 0:
            self._converged_at = t
            if trace is not None:
                trace.converged_at = t

    def _apply_arrival(self, i: int) -> None:
        # the boundary robot i faces: no event changes o between the peek
        # that chose this arrival and here
        j = i if self.o[i] > 0 else (i - 1) % self.n
        self.p_pin[i] = contact(self.y, i, self.o[i], self.r[i])
        self.t_pin[i] = self.t
        if j == self.n - 1:
            if i == 0:
                self.seam_known_left = True
            else:
                self.seam_known_right = True
        partner = (j + 1) % self.n if i == j else j
        # the partner waits at j iff it is parked facing the other way
        if not self.act[partner] and self.o[partner] != self.o[i]:
            self._apply_meeting(j)
            return
        # parked: no arrival until a meeting, and the partner's inputs are
        # unchanged; only the closing speed of i's open contacts changes
        self.act[i] = 0
        self._queue_key(i, None)
        if self._open:
            self._queue_open_contacts(i)
        self._record("arrival", i, None, j, self.y[j])

    def _apply_meeting(self, j: int) -> None:
        n, y, r, t = self.n, self.y, self.r, self.t
        left, right = j, (j + 1) % n
        assert self.o[left] == 1 and self.o[right] == -1, "meeting orientations out of order"
        # the boundaries beyond the pair, NaN while unknown to it
        lo = (0.0 if self.seam_known_left else NAN) if j == 0 else y[j - 1]
        hi = (y[right] if self.seam_known_right else NAN) if right == n - 1 else y[right]
        updated = j < n - 1 and not (math.isnan(lo) or math.isnan(hi))
        if updated:
            self._set_y(j, boundary_consensus_update(
                lo, hi, self.v[left], self.v[right], r[left], r[right]))
        y_val = y[j]
        # re-pin both to the (possibly moved) boundary's contact points
        self.p_pin[left] = contact(y, left, 1, r[left])
        self.p_pin[right] = contact(y, right, -1, r[right])
        self.t_pin[left] = self.t_pin[right] = t
        self.o[left] = -1
        self.o[right] = 1
        self.act[left] = self.act[right] = 1
        self._requeue_around(j)
        self._record("meeting", left, right, j, y_val, updated=updated)

    def _apply_contact(self, j: int) -> None:
        t = self.t
        a, b = j, j + 1
        # where the zones touch, from the left robot's zone edge
        touch = self.position(a, t) + self.r[a]
        self.p_pin[a] = touch - self.r[a]
        self.p_pin[b] = touch + self.r[b]
        self.t_pin[a] = self.t_pin[b] = t
        if self.o[a] == 1 and self.o[b] == -1:
            assert self.act[a] and self.act[b], "discovery requires both robots moving"
            self._set_y(j, touch)
            self.o[a] = -1
            self.o[b] = 1
            self._requeue_around(j)
            self._record("discovery", a, b, j, touch)
        elif self.o[a] == self.o[b]:
            self._set_y(j, touch)
            if self.o[a] == 1:
                catcher, caught = a, b
            else:
                catcher, caught = b, a
            assert self.act[catcher], "catcher must be moving"
            self.act[catcher] = 0
            self.act[caught] = 1
            self._requeue_around(j)
            self._record("catch", a, b, j, touch)
        else:
            raise AssertionError("contact between receding robots")

    # -- running ---------------------------------------------------------

    def _advance(self, t_end: float | None = None) -> bool | None:
        """Apply whichever comes first: the next due parameter change
        (returns False) or the next event (returns True).  If it falls
        after t_end, apply nothing, move the clock forward to t_end and
        return None."""
        cand = self.next_candidate()
        t_next = None if cand is None else max(cand[0], self.t)
        pending = self._pending_changes
        change_due = bool(pending) and (cand is None or pending[0]["t"] <= t_next)
        if change_due:
            t_next = pending[0]["t"]
        elif cand is None:
            raise DeadlockError(
                "no future event: all robots waiting (impossible under A2)"
            )
        if t_end is not None and t_next > t_end:
            self.t = max(self.t, t_end)
            return None
        if change_due:
            self._apply_due_change()
            return False
        self.t = t_next
        key = cand[1]
        if key >= self.n:
            self._apply_contact(key - self.n)
        else:
            self._apply_arrival(key)
        return True

    def step(self) -> TraceEvent | None:
        """Advance to and apply the next event; None if a parameter change
        was due first, or if no trace is recorded."""
        if self._advance() and self.trace is not None:
            return self.trace.events[-1]
        return None

    def run_until(self, t_end: float | None = None, max_events: int | None = None) -> Trace:
        """Apply events until the next one falls after t_end (the clock
        then stops at t_end) or max_events events are done; parameter
        changes due on the way are applied and not counted."""
        processed = 0
        while max_events is None or processed < max_events:
            applied = self._advance(t_end)
            if applied is None:
                break
            processed += applied
        return self.trace

    # -- parameter changes -------------------------------------------------

    def schedule_parameter_change(self, t: float, robot_id: int,
                                  v: float | None = None, r: float | None = None) -> None:
        """Queue a speed/radius change for the robot with the given 1-based id."""
        if t < self.t:
            raise ValueError("cannot schedule a change in the past")
        self._pending_changes.append({"t": t, "robot_id": robot_id, "v": v, "r": r})
        self._pending_changes.sort(key=lambda ch: ch["t"])

    def _apply_due_change(self) -> None:
        ch = self._pending_changes.pop(0)
        self.apply_parameter_change(ch["robot_id"], v=ch["v"], r=ch["r"], at=ch["t"])

    def apply_parameter_change(self, robot_id: int, v: float | None = None,
                               r: float | None = None, at: float | None = None) -> None:
        idx = next((k for k, rb in enumerate(self.fleet.robots) if rb.id == robot_id), None)
        if idx is None:
            raise ValueError(f"no robot with id {robot_id}")
        new_v = self.v[idx] if v is None else float(v)
        new_r = self.r[idx] if r is None else float(r)
        RobotParams(id=robot_id, v=new_v, r=new_r)  # re-validate invariants
        radii = list(self.r)
        radii[idx] = new_r
        if self.L - 2.0 * sum(radii) <= 0:
            raise StaticallyCoverableError(
                "parameter change rejected: cycle would be statically coverable"
            )
        t_change = self.t if at is None else at
        if t_change < self.t:
            raise ValueError("cannot apply a change in the past")
        if new_r > self.r[idx]:
            self._check_grown_zone(idx, new_r, t_change)
        if self.trace is not None:
            self.trace.parameter_changes.append(
                {"t": t_change, "robot_id": robot_id, "v": new_v, "r": new_r,
                 "events": len(self.trace.events)}
            )
        if new_v == self.v[idx] and new_r == self.r[idx]:
            return  # literal no-op: leave the state (and hence the trace) untouched
        # pin everyone at the change time so past motion keeps old speeds
        self.p_pin = [self.position(i, t_change) for i in range(self.n)]
        self.t_pin = [t_change] * self.n
        self.t = t_change
        self.v[idx] = new_v
        self.r[idx] = new_r
        # a parked robot re-pins to its contact with the new radius
        if not self.act[idx]:
            self.p_pin[idx] = contact(self.y, idx, self.o[idx], new_r)
        self._converged_at = None
        self._derive_from_parameters()
        if self.trace is not None:
            self.trace.converged_at = None
            self.trace.t_star = self.t_star

    def _check_grown_zone(self, i: int, r_new: float, t: float) -> None:
        """A3 at a radius growth: at time t, robot i's zone of radius r_new
        must fit its region (d_i >= 2 r_i), stay inside the boundaries it
        knows and clear its neighbours' zones.  A parked robot is checked
        where it re-pins.  A shrink cannot break any of these.

        An unknown boundary is NaN, and every comparison with NaN is false,
        so the region and boundary tests pass over what i does not know."""
        n = self.n
        lo = 0.0 if i == 0 else self.y[i - 1]
        hi = self.y[i]  # y[n-1] == L
        p = self.position(i, t) if self.act[i] else contact(self.y, i, self.o[i], r_new)
        ids = [rb.id for rb in self.fleet.robots]
        zone = f"its zone [{p - r_new}, {p + r_new}]"
        if hi - lo < 2.0 * r_new:
            problem = f"its region [{lo}, {hi}] is shorter than 2r"
        elif p - r_new < lo:
            problem = f"{zone} crosses its boundary {lo}"
        elif p + r_new > hi:
            problem = f"{zone} crosses its boundary {hi}"
        elif i > 0 and self.position(i - 1, t) + self.r[i - 1] > p - r_new:
            problem = f"{zone} overlaps robot {ids[i - 1]}'s zone"
        elif i < n - 1 and p + r_new > self.position(i + 1, t) - self.r[i + 1]:
            problem = f"{zone} overlaps robot {ids[i + 1]}'s zone"
        else:
            return
        raise AssumptionError(f"A3 violated at t={t}: robot {ids[i]} with r={r_new}: {problem}")


def random_initial_state(cfg: FleetConfig, rng: random.Random,
                         n_minus: int | None = None,
                         orientations: list[int] | None = None):
    """Random sorted positions with disjoint zones, plus orientations.

    Slack between zones is drawn from a uniform Dirichlet split, so zones
    never overlap or straddle the seam.  Orientation signs: explicit list,
    or a random subset of ``n_minus`` robots oriented backward (default
    n // 2).
    """
    n = cfg.n
    slack = cfg.free_length
    weights = [-math.log(rng.random()) for _ in range(n + 1)]
    total = sum(weights)
    gaps = [slack * w / total for w in weights]
    positions = []
    x = 0.0
    for i, rb in enumerate(cfg.robots):
        x += gaps[i] + rb.r
        positions.append(x)
        x += rb.r
    if orientations is None:
        k = n // 2 if n_minus is None else n_minus
        if not 1 <= k <= n - 1:
            raise AssumptionError("A2 violated: need both orientations present")
        backward = set(rng.sample(range(n), k))
        orientations = [-1 if i in backward else 1 for i in range(n)]
    return positions, orientations

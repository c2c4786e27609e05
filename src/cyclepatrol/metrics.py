"""Performance quantities from traces: traversing times, inter-meeting
times, windowed revisit averages, and theorem-conformance verdicts."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .engine import Trace, deviation, write_rows
from .words import Word

PASS_REL_TOL = 0.01  # absorbs the asymptotic-convergence residual


def meetings_by_boundary(trace: Trace) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for ev in trace.events:
        if ev.kind == "meeting":
            out.setdefault(ev.boundary, []).append(ev.time)
    return out


def inter_meeting_times(trace: Trace) -> dict[int, list[float]]:
    """Successive differences of meeting timestamps per boundary; fewer
    than two meetings give an empty series."""
    return {
        j: [b - a for a, b in zip(ts, ts[1:])]
        for j, ts in meetings_by_boundary(trace).items()
    }


def windowed_revisit(series: list[float], n_bal: int) -> list[float]:
    """Sliding mean over n_bal consecutive inter-meeting times."""
    if n_bal < 1:
        raise ValueError("n_bal must be at least 1")
    if len(series) < n_bal:
        return []
    return [sum(series[k:k + n_bal]) / n_bal for k in range(len(series) - n_bal + 1)]


def n_bal_of(trace: Trace) -> int:
    return Word.from_letters(trace.initial_orientations).n_bal


@dataclass
class Verdict:
    name: str
    status: str  # PASS | FAIL | INCONCLUSIVE
    predicted: float | None = None
    measured: float | None = None
    rel_err: float | None = None


@dataclass
class PerformanceReport:
    t_star: float
    n_bal: int
    balanced: bool
    t_rev_predicted: float
    converged_at: float | None
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v.status == "PASS" for v in self.verdicts)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_pass": self.all_pass}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def theorem_verdicts(trace: Trace) -> PerformanceReport:
    """PASS/FAIL verdicts against the convergence and revisit-time claims.

    Verdicts come from the post-convergence tail only; a trace that never
    converged is INCONCLUSIVE, not FAIL.  The target is the t_star in
    force at the end of the trace, after any mid-run parameter change.
    """
    t_star = trace.t_star
    n = trace.n
    n_bal = n_bal_of(trace)
    balanced = (2 * n_bal == n)
    t_rev = t_star * n / n_bal if n_bal else math.inf
    report = PerformanceReport(
        t_star=t_star,
        n_bal=n_bal,
        balanced=balanced,
        t_rev_predicted=t_rev,
        converged_at=trace.converged_at,
    )
    if trace.converged_at is None:
        report.verdicts = [
            Verdict("common_traversing_time", "INCONCLUSIVE"),
            Verdict("revisit_time", "INCONCLUSIVE"),
        ]
        return report

    _, final_e, _, _ = trace.final_state()
    dev = deviation(final_e, t_star)
    report.verdicts.append(
        Verdict(
            "common_traversing_time",
            "PASS" if dev <= PASS_REL_TOL else "FAIL",
            predicted=t_star,
            measured=max(final_e, key=lambda e: abs(e - t_star)),
            rel_err=dev,
        )
    )

    # steady-state inter-meeting behavior, measured from the trailing window
    worst = 0.0
    measured = None
    enough = True
    k = max(n_bal, 1)
    for j, series in inter_meeting_times(trace).items():
        # the last 3 windows read only the last k + 2 times
        take = windowed_revisit(series[-(k + 2):], k)
        if not take:
            enough = False
            continue
        for wv in take:
            err = abs(wv - t_rev) / t_rev
            if err >= worst:
                worst, measured = err, wv
    name = "revisit_time_balanced" if balanced else "revisit_time_windowed"
    if measured is None or not enough:
        report.verdicts.append(Verdict(name, "INCONCLUSIVE", predicted=t_rev))
    else:
        report.verdicts.append(
            Verdict(
                name,
                "PASS" if worst <= PASS_REL_TOL else "FAIL",
                predicted=t_rev,
                measured=measured,
                rel_err=worst,
            )
        )
    return report


def plot_data_rows(trace: Trace):
    """Yield `time,robot,e_i,f_i,windowed_f_i` rows, newline-terminated,
    one per meeting."""
    n_bal = max(n_bal_of(trace), 1)
    last_meeting: dict[int, float] = {}
    history: dict[int, list[float]] = {}  # inter-meeting times per boundary
    for ev in trace.events:
        if ev.kind != "meeting":
            continue
        j = ev.boundary
        if j in last_meeting:
            tail = history[j]
            f = ev.time - last_meeting[j]
            tail.append(f)
            wf = sum(tail[-n_bal:]) / n_bal if len(tail) >= n_bal else math.nan
        else:
            history[j] = []
            f = wf = math.nan
        last_meeting[j] = ev.time
        yield PLOT_ROW % (ev.time, ev.robot_a + 1, ev.e_a, f, wf)


PLOT_ROW = "%.9f,%d,%.9f,%.9f,%.9f\n"


def write_plot_data(trace: Trace, path) -> None:
    write_rows(path, "time,robot,e_i,f_i,windowed_f_i\n", plot_data_rows(trace))

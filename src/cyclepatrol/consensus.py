"""Closed-form verification of the pairwise weighted-consensus claims.

A meeting of neighbors (i, i+1) replaces their traversing times by the
speed-weighted mean: e <- P_i e with P_i = I - diag(1/v) eps_i L_i, L_i the
link's Laplacian and eps_i = v_i v_{i+1} / (v_i + v_{i+1}).  Because
eps_i (1/v_i + 1/v_{i+1}) = 1, each P_i is a projection with spectrum
{0, 1^(n-1)}: ``average_link`` applies it as a two-entry update, and no
n x n matrix per link is stored.

``check_spectrum`` checks that identity per link and reads a sweep's
spectrum without forming it.  In z = diag(sqrt v) e link j is I - b_j b_j^T,
b_j the unit vector along e_j/sqrt(v_j) - e_{j+1}/sqrt(v_{j+1}).  Links two
apart commute, and AB and BA share their nonzero eigenvalues, so every link
order has the nonzero spectrum of (even links)(odd links): the squared
cosines sigma^2 of the principal angles between the even and the odd b_j.
Their Gram matrix M has a unit diagonal, off-diagonal c_j =
-(1/v_{j+1}) / sqrt(w_j w_{j+1}), w_j = 1/v_j + 1/v_{j+1}, and eigenvalues
1 +- sigma, so |lambda_2| = (1 - mu_min(M))^2, mu_min found by Sturm-count
bisection (Golub & Van Loan, "Matrix Computations", symmetric tridiagonal).
``iterate_consensus`` runs each sweep as one running weighted mean with
``average_link``'s float operations, bit for bit, and takes the O(n) max
distance to the target only once the last entry is within CONSENSUS_TOL of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class ConsensusMatrices:
    n: int
    speeds: tuple[float, ...]
    eps: tuple[float, ...]  # per link i (robots i, i+1): v_i v_{i+1} / (v_i + v_{i+1})


def build_matrices(speeds) -> ConsensusMatrices:
    v = tuple(float(x) for x in speeds)
    if len(v) < 2:
        raise ValueError("need at least two speeds")
    if any(not x > 0 for x in v):
        raise ValueError("speeds must be positive")
    eps = tuple(a * b / (a + b) for a, b in zip(v, v[1:]))
    return ConsensusMatrices(n=len(v), speeds=v, eps=eps)


def average_link(e, speeds, i: int) -> None:
    """e <- P_i e in place: entries i and i+1 become their speed-weighted
    mean.  Works on a list, or on the rows of a 2-D array (one column per
    vector)."""
    a, b = speeds[i], speeds[i + 1]
    e[i] = e[i + 1] = (a * e[i] + b * e[i + 1]) / (a + b)


@dataclass
class SpectrumReport:
    ok: bool
    violations: list[str]
    second_modulus: float  # |lambda_2| of the sweep product: its per-sweep contraction


def _sturm_count(x: float, c2: list[float]) -> int:
    """Eigenvalues <= x of the unit-diagonal tridiagonal matrix with squared
    off-diagonal c2: its LDL^T pivots <= 0 at shift x, a zero one taken as negative."""
    count, q = 0, 1.0 - x
    for c in c2:
        if q <= 0.0:
            count += 1
            q = min(q, -sys.float_info.min)
        q = 1.0 - x - c / q
    return count + (q <= 0.0)


SPECTRUM_ATOL = 1e-9  # check_spectrum's bound on a link's eigenvalue other than 1


def check_spectrum(m: ConsensusMatrices) -> SpectrumReport:
    """Each P_i must be a projection (its one eigenvalue other than 1,
    1 - eps_i (1/v_i + 1/v_{i+1}), is 0), and M's eigenvalues must lie in
    (0, 2): one Sturm count at 0, as diag(+-1) conjugates M to 2I - M.  The
    sweep is primitive without a check: its row i is positive in columns
    0..min(i+1, n-1), so it is irreducible with a positive diagonal."""
    v = m.speeds
    w = [1.0 / a + 1.0 / b for a, b in zip(v, v[1:])]
    violations = [f"link {i}: eigenvalue {lam} where a projection has 0"
                  for i, lam in enumerate(1.0 - eps * wi for eps, wi in zip(m.eps, w))
                  if abs(lam) > SPECTRUM_ATOL]
    c2 = [(1.0 / b) ** 2 / (wa * wb) for b, wa, wb in zip(v[1:], w, w[1:])]
    if _sturm_count(0.0, c2):
        violations.append("Gram matrix has an eigenvalue outside (0, 2)")
    lo, hi = 0.0, 1.0  # count(lo) == 0 < count(hi): mu_min lies in (lo, hi]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _sturm_count(mid, c2) else (mid, hi)
    return SpectrumReport(not violations, violations, second_modulus=(1.0 - hi) ** 2)


def fixed_point(speeds, e0) -> float:
    """Weighted mean that every entry converges to: sum(v e0) / sum(v)."""
    return sum(v * e for v, e in zip(speeds, e0)) / sum(speeds)


CONSENSUS_TOL = 1e-9  # the sweeps' stopping distance to the weighted mean


def iterate_consensus(m: ConsensusMatrices, e0, max_sweeps: int = 10_000):
    """Apply round-robin sweeps over all links (jointly connected
    infinitely often) until every entry lies within CONSENSUS_TOL of the
    weighted mean.  Returns (e, sweeps, converged), e a list.

    A sweep applies links 0, 1, ..., n-2 in turn, so it is one running
    weighted mean: link i sets entries i and i+1 to (v_i m + v_{i+1}
    e_{i+1}) / (v_i + v_{i+1}), m being the mean link i-1 left in entry i.
    The sweep computes that mean with the float operations of
    ``average_link`` in the same order, so e is bit for bit the same.
    The last entry holds the last mean; while it lies CONSENSUS_TOL or more
    from the target, so does the max over e, and the O(n) max is skipped.
    """
    v = m.speeds
    e = [float(x) for x in e0]
    target = fixed_point(v, e0)
    links = [(a, b, a + b) for a, b in zip(v, v[1:])]
    for sweep in range(1, max_sweeps + 1):
        mean = e[0]
        swept = []
        for (a, b, ab), x in zip(links, e[1:]):
            mean = (a * mean + b * x) / ab
            swept.append(mean)
        swept.append(mean)
        e = swept
        if (abs(mean - target) < CONSENSUS_TOL
                and max(abs(x - target) for x in e) < CONSENSUS_TOL):
            return e, sweep, True
    return e, max_sweeps, False


REPLAY_TOL = 1e-9  # replay_trace's bound on an entry's error


def replay_trace(trace):
    """Replay an engine trace's meetings through the link updates.

    From the first event at which every boundary is defined, each
    boundary-updating meeting applies its link update with the speeds in
    force; the resulting vector must match the engine's traversing times
    (from the trace's replay cursor) entrywise.  After a logged parameter
    change, which recomputes all of e, the vector restarts from the
    cursor's e.  Returns (ok, max_err, updates_checked), ok meaning
    max_err <= REPLAY_TOL.
    """
    e = None
    speeds = None
    max_err = 0.0
    checked = 0
    for ev, _, e_engine, v, _, _ in trace.replay():
        if v is not speeds:  # the first event, or changes applied before ev
            speeds, e = v, None
        if e is None:
            if not any(map(math.isnan, e_engine)):
                e = list(e_engine)
        elif ev.kind == "meeting" and ev.updated:
            average_link(e, v, ev.boundary)
            max_err = max(max_err, max(abs(a - b) for a, b in zip(e, e_engine)))
            checked += 1
    if e is None:
        raise ValueError("trace never defines all boundaries")
    return max_err <= REPLAY_TOL, max_err, checked

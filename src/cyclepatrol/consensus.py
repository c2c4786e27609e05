"""Matrix-level verification of the pairwise weighted-consensus claims.

The boundary update at a meeting of neighbors (i, i+1), written in
traversing times, is one application of a Perron matrix P_i that mixes
entries i and i+1 with weights eps_i / v.  This module builds those
matrices, their symmetrized similar forms, checks their spectra, and
iterates link sequences to the weighted-mean fixed point - independently
of the simulator, so engine traces can be replayed against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkMatrices:
    link: int  # boundary between robots link and link+1 (0-based)
    eps: float
    P: np.ndarray
    Ptilde: np.ndarray
    Laptilde: np.ndarray


@dataclass(frozen=True)
class ConsensusMatrices:
    n: int
    speeds: tuple[float, ...]
    links: tuple[LinkMatrices, ...]


def build_matrices(speeds) -> ConsensusMatrices:
    v = np.asarray(speeds, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("need at least two speeds")
    if np.any(v <= 0):
        raise ValueError("speeds must be positive")
    n = len(v)
    inv_sqrt = np.diag(1.0 / np.sqrt(v))
    links = []
    for i in range(n - 1):
        eps = v[i] * v[i + 1] / (v[i] + v[i + 1])
        Lap = np.zeros((n, n))
        Lap[i, i] = Lap[i + 1, i + 1] = 1.0
        Lap[i, i + 1] = Lap[i + 1, i] = -1.0
        P = np.eye(n) - np.diag(1.0 / v) @ (eps * Lap)
        Laptilde = inv_sqrt @ (eps * Lap) @ inv_sqrt
        Ptilde = np.eye(n) - Laptilde
        links.append(LinkMatrices(link=i, eps=eps, P=P, Ptilde=Ptilde,
                                  Laptilde=Laptilde))
    return ConsensusMatrices(n=n, speeds=tuple(v), links=tuple(links))


@dataclass
class SpectrumReport:
    ok: bool
    eigenvalues: list[np.ndarray]  # per link, ascending
    product_radius: float
    primitive: bool
    violations: list[str]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "per_link_eigenvalues": [list(e) for e in self.eigenvalues],
            "product_spectral_radius": self.product_radius,
            "primitive": self.primitive,
            "violations": self.violations,
        }


def check_spectrum(m: ConsensusMatrices, atol: float = 1e-9) -> SpectrumReport:
    """Every eigenvalue of every P_i / Ptilde_i must lie in (-1, 1], and the
    all-links product must be primitive.

    Ptilde_i is symmetric and similar to P_i, so a symmetric eigensolver
    covers both.
    """
    violations = []
    eigs = []
    for lm in m.links:
        lam = np.linalg.eigvalsh(lm.Ptilde)
        eigs.append(lam)
        if lam[0] <= -1.0 - atol or lam[-1] > 1.0 + atol:
            violations.append(
                f"link {lm.link}: eigenvalues [{lam[0]}, {lam[-1]}] leave (-1, 1]"
            )
        if not np.allclose(lm.Ptilde, lm.Ptilde.T, atol=1e-12):
            violations.append(f"link {lm.link}: Ptilde not symmetric")
    product = np.eye(m.n)
    for lm in m.links:
        product = product @ lm.Ptilde
    radius = max(abs(np.linalg.eigvals(product)))
    if radius > 1.0 + atol:
        violations.append(f"product spectral radius {radius} exceeds 1")
    primitive = bool(np.all(np.linalg.matrix_power(product, m.n) > 0))
    if not primitive:
        violations.append("all-links product is not primitive")
    return SpectrumReport(
        ok=not violations,
        eigenvalues=eigs,
        product_radius=float(radius),
        primitive=primitive,
        violations=violations,
    )


def fixed_point(speeds, e0) -> float:
    """Weighted mean that every entry converges to: sum(v e0) / sum(v)."""
    v = np.asarray(speeds, dtype=float)
    e = np.asarray(e0, dtype=float)
    return float(v @ e / v.sum())


def iterate_consensus(m: ConsensusMatrices, e0, link_sequence=None,
                      tol: float = 1e-9, max_sweeps: int = 10_000):
    """Apply P matrices along a link sequence until the weighted mean.

    Default sequence: round-robin sweeps over all links (jointly connected
    infinitely often).  Returns (e, sweeps, converged).
    """
    e = np.asarray(e0, dtype=float).copy()
    target = fixed_point(m.speeds, e0)
    if link_sequence is not None:
        for link in link_sequence:
            e = m.links[link].P @ e
        return e, 0, bool(np.max(np.abs(e - target)) < tol)
    for sweep in range(1, max_sweeps + 1):
        for lm in m.links:
            e = lm.P @ e
        if np.max(np.abs(e - target)) < tol:
            return e, sweep, True
    return e, max_sweeps, False


def replay_trace(trace, rtol: float = 1e-9):
    """Replay an engine trace's meetings through the matrices.

    Starting from the first event at which every boundary is defined, each
    boundary-updating meeting applies its link matrix; the resulting
    vector must match the engine's traversing times (from the trace's
    replay cursor) entrywise.  Returns (ok, max_err, updates_checked).
    """
    m = build_matrices([rb.v for rb in trace.fleet.robots])
    e = None
    max_err = 0.0
    checked = 0
    for ev, _, e_engine in trace.replay():
        if e is None:
            if not any(map(math.isnan, e_engine)):
                e = np.array(e_engine)
        elif ev.kind == "meeting" and ev.updated:
            e = m.links[ev.boundary].P @ e
            max_err = max(max_err, float(np.max(np.abs(e - e_engine))))
            checked += 1
    if e is None:
        raise ValueError("trace never defines all boundaries")
    return max_err <= rtol, max_err, checked

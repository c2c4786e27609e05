"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with `pytest -s` or on
failure) and asserts the criterion at its stated tolerance.
"""

import itertools
import random
import time
from collections import defaultdict

import pytest

from cyclepatrol import consensus, metrics, rounds, verify, words
from cyclepatrol.engine import Simulation, random_initial_state
from cyclepatrol.fleet import compute_goal_partition, compute_t_star
from cyclepatrol.verify import run_to_deep_convergence

from conftest import make_fleet

T8 = 127.77777777777777  # common traversing time of the n=8 benchmark


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS" + (f" - {detail}" if detail else ""))


def eight_fleet():
    return make_fleet(
        [0.6, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4],
        [20.0, 20.0, 50.0, 20.0, 20.0, 20.0, 100.0, 20.0],
        1000.0,
    )


def test_criterion_1_closed_form_reproduction(fig3_fleet):
    compute_goal_partition(fig3_fleet)  # warm bytecode/caches
    start = time.perf_counter()
    goal = compute_goal_partition(fig3_fleet)
    elapsed = time.perf_counter() - start
    assert goal.t_star == 250.0
    t_rev = 2.0 * goal.t_star
    assert t_rev == 500.0
    assert elapsed < 1e-3
    _report(1, "closed-form", f"t_star=250 exactly, t_rev=500, {elapsed * 1e6:.0f}us")


def _converged_balanced_run(seed):
    cfg = eight_fleet()
    rng = random.Random(seed)
    pos, ori = random_initial_state(cfg, rng, n_minus=4)
    sim = Simulation(cfg, pos, ori)
    run_to_deep_convergence(sim, rtol=1e-10)
    state = rounds.lift_from_trace(sim.trace)
    sim.run_until(t_end=state.t0 + 30.0 * state.t_round)
    return sim, state


def test_criterion_2_balanced_convergence():
    t_star = compute_t_star(eight_fleet())
    n = 8
    worst_dev = 0.0
    worst_f = 0.0
    worst_spread = 0.0
    for seed in range(20):
        t_wall = time.perf_counter()
        sim, state = _converged_balanced_run(seed)
        # traversing times at the common value
        dev = max(abs(e - t_star) for e in sim.e_values()) / t_star
        worst_dev = max(worst_dev, dev)
        assert dev < 1e-3
        # every boundary's inter-meeting time at 2 t_star
        series = metrics.inter_meeting_times(sim.trace)
        assert len(series) == n
        for s in series.values():
            for f in s[-3:]:
                err = abs(f - 2 * t_star) / (2 * t_star)
                worst_f = max(worst_f, err)
                assert err < 0.01
        # synchronized meetings: per-round timestamp spread after n/2 rounds
        per_round = defaultdict(list)
        for ev in sim.trace.events:
            if ev.kind == "meeting" and state.t0 < ev.time <= state.t0 + 28 * state.t_round:
                per_round[int((ev.time - state.t0) // state.t_round)].append(ev.time)
        assert per_round
        for k, ts in per_round.items():
            assert len(ts) == n // 2
            if k >= n // 2:
                spread = max(ts) - min(ts)
                worst_spread = max(worst_spread, spread)
                assert spread < 1e-6
        elapsed = time.perf_counter() - t_wall
        assert elapsed < 10.0
    _report(2, "balanced convergence",
            f"20 seeds, worst e-dev {worst_dev:.2e}, worst f-err {worst_f:.2e}, "
            f"worst spread {worst_spread:.2e}s")


def test_criterion_3_unbalanced_performance():
    cfg = eight_fleet()
    t_star = compute_t_star(cfg)
    n, n_bal = 8, 3
    target = n * t_star / n_bal
    worst_win = 0.0
    for seed in range(20):
        t_wall = time.perf_counter()
        rng = random.Random(1000 + seed)
        pos, ori = random_initial_state(cfg, rng, n_minus=n_bal)
        sim = Simulation(cfg, pos, ori)
        run_to_deep_convergence(sim, rtol=1e-10)
        state = rounds.lift_from_trace(sim.trace)
        window_rounds = 10 * n
        sim.run_until(t_end=state.t0 + (window_rounds + 1) * state.t_round)
        # windowed inter-meeting averages at n t_star / n_bal
        series = metrics.inter_meeting_times(sim.trace)
        for s in series.values():
            wins = metrics.windowed_revisit(s, n_bal)[-3:]
            assert wins
            for w in wins:
                err = abs(w - target) / target
                worst_win = max(worst_win, err)
                assert err < 0.01
        # exactly n_bal meetings per round; per n-round window each boundary
        # hosts exactly n_bal meetings (= right-boundary arrivals of robot i)
        per_round = defaultdict(list)
        for ev in sim.trace.events:
            if (ev.kind == "meeting"
                    and state.t0 < ev.time <= state.t0 + window_rounds * state.t_round):
                k = int((ev.time - state.t0) // state.t_round)
                per_round[k].append(ev.boundary)
        assert sorted(per_round) == list(range(window_rounds))
        assert all(len(b) == n_bal for b in per_round.values())
        for w0 in range(0, window_rounds, n):
            counts = defaultdict(int)
            for k in range(w0, w0 + n):
                for j in per_round[k]:
                    counts[j] += 1
            assert all(counts[j] == n_bal for j in range(n))
        elapsed = time.perf_counter() - t_wall
        assert elapsed < 10.0
    _report(3, "unbalanced performance",
            f"20 seeds, windowed revisit err <= {worst_win:.2e} vs {target:.2f}s")


def test_criterion_4_interlacing_bound():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 13):
        for bits in itertools.product((1, -1), repeat=n):
            w = words.Word.from_letters(bits)
            if w.n_bal == 0:
                continue
            wk = w
            taken = 0
            while not words.is_interlaced(wk):
                wk = words.step_word(wk)
                taken += 1
                assert taken <= n, f"{w} failed to interlace"
            assert taken < max(w.n_bal, 1), f"{w}: {taken} rounds"
            checked += 1
    res = verify.words_random_suite(n=64, samples=10_000, seed=11)
    assert res.ok, res.summary_lines()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "interlacing bound",
            f"{checked} exhaustive words + 10^4 random n=64 in {elapsed:.1f}s")


def test_criterion_5_rewrite_calculus_soundness():
    start = time.perf_counter()
    res = verify.words_exhaustive_suite(max_n=12)
    elapsed = time.perf_counter() - start
    assert res.ok, res.summary_lines()
    assert res.checks[0][2] == "8166 words <= n=12, max 5 rounds"
    assert elapsed < 30.0
    _report(5, "rewrite calculus", res.checks[0][2] + f" in {elapsed:.1f}s")


def test_criterion_6_consensus_oracle():
    start = time.perf_counter()
    res = verify.consensus_suite(n_fleets=200, seed=7, engine_crosschecks=3)
    elapsed = time.perf_counter() - start
    assert res.ok, res.summary_lines()
    assert res.checks[1][2] == "worst case 8674 sweeps"
    assert res.checks[2][2].endswith("max sweeps above prediction 1.00")
    assert elapsed < 60.0
    details = "; ".join(d for _, _, d in res.checks)
    _report(6, "consensus oracle", details + f" in {elapsed:.1f}s")


def test_criterion_7_model_equivalence():
    res = verify.rounds_suite(instances=20, n_rounds=100, seed=23, tol=1e-6)
    assert res.ok, res.summary_lines()
    assert res.checks[2] == ("balanced_synchronize_within_n_over_2", True,
                             "2 balanced instances")
    _report(7, "model equivalence", res.checks[0][2])


def test_criterion_8_conservation_suite():
    res = verify.conservation_suite(total_events=100_000, seed=31)
    assert res.ok, res.summary_lines()
    _report(8, "conservation", res.checks[0][2])


def test_criterion_9_trend_reproduction():
    # the points of `cyclepatrol sweep` at --v 2 --r 50 --L 10000 --seed 5
    v, r, L, seed = 2.0, 50.0, 10_000.0, 5
    rows_n = [verify.sweep_point(verify.size_fleet(n, v, r, L), label=float(n),
                                 seed=seed + n, measure=True) for n in range(2, 21)]
    t_rev_n = [r["t_rev_measured"] for r in rows_n]
    assert all(b < a for a, b in zip(t_rev_n, t_rev_n[1:])), t_rev_n
    assert all(r["rel_err"] < 0.01 for r in rows_n)
    factors = [0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 15.0]
    rows_f = [verify.sweep_point(verify.factor_fleet(f, v, r, L), label=f,
                                 seed=seed + k, measure=True) for k, f in enumerate(factors)]
    t_rev_f = [r["t_rev_measured"] for r in rows_f]
    assert all(b < a for a, b in zip(t_rev_f, t_rev_f[1:])), t_rev_f
    assert all(r["rel_err"] < 0.01 for r in rows_f)
    _report(9, "trend reproduction",
            f"n=2..20 monotone ({t_rev_n[0]:.0f}s -> {t_rev_n[-1]:.0f}s), "
            f"factor sweep monotone ({t_rev_f[0]:.0f}s -> {t_rev_f[-1]:.0f}s)")

"""Machine-checkable property suites over the consensus matrices, the
word calculus, the round model, and the simulator's conservation laws.

Each suite returns a SuiteResult with per-check outcomes; the CLI maps a
failing suite to exit code 3.  The exhaustive word suite walks one word
per rotation class forward and judges each round as it is labelled (see
`words_exhaustive_suite`).
The suites are sized so the full set runs in well under a few minutes;
the acceptance tests call them at the sizes the criteria demand.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from . import consensus, metrics, rounds, words
from .engine import Simulation, random_initial_state
from .fleet import FleetConfig, RobotParams, compute_t_star


@dataclass
class SuiteResult:
    name: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_lines(self) -> list[str]:
        return [
            f"[{'PASS' if ok else 'FAIL'}] {self.name}: {name}"
            + (f" ({detail})" if detail else "")
            for name, ok, detail in self.checks
        ]


def random_fleet(rng: random.Random, n: int) -> FleetConfig:
    speeds = [rng.uniform(0.5, 10.0) for _ in range(n)]
    L = rng.uniform(500.0, 2000.0)
    budget = 0.25 * L / (2 * n)
    radii = [rng.uniform(0.0, budget) for _ in range(n)]
    robots = tuple(
        RobotParams(id=i + 1, v=speeds[i], r=radii[i]) for i in range(n)
    )
    return FleetConfig(robots=robots, L=L)


MAX_EVENTS = 400_000  # run_to_deep_convergence's event budget


def run_to_deep_convergence(sim: Simulation, rtol: float = 1e-11) -> float:
    """Step until no parameter change is pending and max|e - t_star|/t_star,
    polled every max(8, 4n) events (changes are not counted), is below rtol,
    and return it; raise ``rounds.NotConvergedError`` after MAX_EVENTS
    events, naming a change still pending.  These are the only two exits."""
    chunk = max(8, 4 * sim.n)
    for _ in range(0, MAX_EVENTS, chunk):
        dev = sim.max_deviation()
        if dev < rtol and not sim.pending_changes:
            return dev
        sim.run_until(max_events=chunk)
    raise rounds.NotConvergedError(
        f"the last parameter change lies beyond {MAX_EVENTS} events" if sim.pending_changes
        else f"no convergence to {rtol} within {MAX_EVENTS} events")


def converged_simulation(cfg: FleetConfig, seed: int, n_minus: int | None = None,
                         rtol: float = 1e-11, tail_rounds: float = 0.0) -> Simulation:
    rng = random.Random(seed)
    positions, orientations = random_initial_state(cfg, rng, n_minus=n_minus)
    sim = Simulation(cfg, positions, orientations)
    run_to_deep_convergence(sim, rtol=rtol)
    if tail_rounds:
        sim.run_until(t_end=sim.t + tail_rounds * sim.t_star)
    return sim


# -- consensus suite ------------------------------------------------------

CONSENSUS_SEED = 7  # seeds the consensus suite's fleets and its crosschecks' placements
ENGINE_CROSSCHECKS = 3  # engine runs whose meetings the consensus suite replays


def predicted_sweeps(second_modulus: float, speeds, e0) -> float:
    """Sweeps for the distance to the weighted mean to fall from
    ||e0 - mean||_inf to tol = `consensus.CONSENSUS_TOL` at |lambda_2| per
    sweep (Boyd, Ghosh, Prabhakar & Shah, "Randomized gossip algorithms",
    IEEE T-IT 2006): log(tol / ||e0 - mean||_inf) / log|lambda_2|, at
    least 0; inf when the sweep product does not contract."""
    tol = consensus.CONSENSUS_TOL
    if second_modulus >= 1.0:
        return math.inf
    mean = consensus.fixed_point(speeds, e0)
    spread = max(abs(x - mean) for x in e0)
    if spread <= tol or second_modulus <= 0.0:
        return 0.0
    return math.log(tol / spread) / math.log(second_modulus)


def consensus_suite(n_fleets: int = 200) -> SuiteResult:
    res = SuiteResult("consensus")
    rng = random.Random(CONSENSUS_SEED)
    bad_spectrum = slow = worst_sweeps = over_gap = 0
    worst_excess = -math.inf
    for _ in range(n_fleets):
        n = rng.randint(2, 32)
        speeds = [rng.uniform(0.2, 10.0) for _ in range(n)]
        m = consensus.build_matrices(speeds)
        rep = consensus.check_spectrum(m)
        if not rep.ok:
            bad_spectrum += 1
        # traversing times of a random boundary partition of an L=1000 cycle
        cuts = sorted(rng.uniform(0.0, 1000.0) for _ in range(n - 1))
        ys = [0.0] + cuts + [1000.0]
        e0 = [(ys[i + 1] - ys[i]) / speeds[i] for i in range(n)]
        predicted = predicted_sweeps(rep.second_modulus, speeds, e0)
        cap = math.ceil(predicted) + 2 if predicted < math.inf else 10_000  # n=2: 0, needs 1
        _, sweeps, converged = consensus.iterate_consensus(m, e0, cap)
        worst_sweeps = max(worst_sweeps, sweeps)
        slow += not converged
        excess = sweeps - predicted
        worst_excess = max(worst_excess, excess)
        over_gap += excess > 1.0
    res.add("spectra_in_unit_interval", bad_spectrum == 0,
            f"{n_fleets} fleets, {bad_spectrum} violations")
    res.add("round_robin_reaches_weighted_mean", slow == 0,
            f"worst case {worst_sweeps} sweeps")
    res.add("sweeps_within_spectral_gap_bound", over_gap == 0,
            f"{over_gap} fleets over, max sweeps above prediction {worst_excess:.2f}")
    worst_err = 0.0
    checked = 0
    replays_ok = True
    for k in range(ENGINE_CROSSCHECKS):
        cfg = random_fleet(rng, n=rng.randint(3, 8))
        inner = random.Random(CONSENSUS_SEED + 100 + k)
        positions, orientations = random_initial_state(
            cfg, inner, n_minus=inner.randint(1, cfg.n - 1))
        sim = Simulation(cfg, positions, orientations)
        sim.run_until(max_events=3000)
        ok, err, count = consensus.replay_trace(sim.trace)
        replays_ok &= ok
        worst_err = max(worst_err, err)
        checked += count
    res.add("engine_replay_matches", replays_ok,
            f"{checked} updates, max err {worst_err:.3g}")
    return res


# -- word-calculus suite ---------------------------------------------------

_REDUCING = (words.Rule.REDUCE, words.Rule.DISAPPEAR)


def _word_checks(w: words.Word, probes: dict) -> int:
    """Judge start word w against every lemma of the word calculus and
    return its rounds to interlacing.

    w walks forward on a `words.TrackedEvolution`, at most n rounds, to
    its first interlaced word, and each lemma is checked on the round it
    happens: a span moves at most one position per round; a sequence that
    reduced goes on reducing and dies exactly l/2 rounds after it began
    reducing from length l, unless the word interlaces first; a lineage
    that ran the doomed rule runs no forbidden rule after it and is gone
    by interlacing.  Lineages are carried forward by sequence id along
    the step's ``successors``, and a message names the id the lineage had
    on the round that committed it.  The n_bal bound and the balanced
    endgame are checked at the end of the walk.

    The collaborative-rule lemmas are oriented for a '+' majority; for a
    '-' majority the dynamics mirror and Move+ plays the doomed role.  The
    absorbing-regime probe walks from each unbalanced final word and reads
    each interlaced word's step once from ``probes``, keyed by its '+'
    mask; a repeat walk steps no word.
    """
    Rule = words.Rule
    n = w.n
    absorbing, doomed_rule = ((Rule.MOVE_PLUS, Rule.MOVE_MINUS) if w.n_plus >= w.n_minus
                              else (Rule.MOVE_MINUS, Rule.MOVE_PLUS))
    forbidden = (absorbing, Rule.EXPAND)
    ev = words.TrackedEvolution(w)
    reducing: dict[int, tuple[int, int]] = {}  # id -> (round it began reducing, length then)
    doomed: dict[int, int] = {}  # id -> its lineage's id when it last ran the doomed rule
    while not words.is_interlaced(ev.word):
        if ev.round == n:
            raise words.CalculusViolation(f"{w} did not interlace within {n} rounds")
        t, spans = ev.round, ev.ids
        ev.step()
        next_reducing, next_doomed = {}, {}
        for sid, (start, length) in spans.items():
            rule, nid = ev.rules[sid], ev.successors.get(sid)
            if rule in _REDUCING:
                began, began_len = reducing.get(sid, (t, length))
                if nid is not None:
                    next_reducing[nid] = began, began_len
                elif t + 1 - began != began_len // 2:
                    raise words.CalculusViolation(
                        f"{w}: sequence {sid} reduced from {began_len} in {t + 1 - began} rounds")
            elif sid in reducing:
                raise words.CalculusViolation(f"{w}: sequence {sid} stopped reducing ({rule})")
            if rule in forbidden and sid in doomed:
                raise words.CalculusViolation(
                    f"{w}: sequence {doomed[sid]} ran {rule} after {doomed_rule}")
            if nid is None:
                continue
            # speed limit: spans move at most one position per round (a merged
            # span's start comes from the absorbed partner, so skip those)
            start2, length2 = ev.ids[nid]
            if rule != Rule.MERGE and length2 < n and (start2 - start) % n not in (0, 1, n - 1):
                raise words.CalculusViolation(f"{w}: sequence {nid} jumped")
            tag = sid if rule == doomed_rule else doomed.get(sid)
            if tag is not None:
                next_doomed.setdefault(nid, tag)
        reducing, doomed = next_reducing, next_doomed
    if doomed:
        raise words.CalculusViolation(
            f"{w}: {doomed_rule} sequence {next(iter(doomed.values()))} survived")
    if ev.round >= max(w.n_bal, 1):
        raise words.CalculusViolation(f"{w} took {ev.round} rounds, bound is {w.n_bal}")

    final = ev.word
    if final.n == 2 * final.n_bal:
        if len(ev.spans) != 1 or ev.spans[0][1] != n:
            raise words.CalculusViolation(f"{w}: balanced endgame not a single cycle")
    else:
        # unbalanced absorbing behavior: every sequence slides through the
        # majority letters forever
        x = final
        for _ in range(min(n, 6)):
            step = probes.get(x.plus)
            if step is None:
                probe = words.TrackedEvolution(x)
                step = probes[x.plus] = (probe.step(), all(
                    r == absorbing for r in probe.rules.values()))
            x, absorbed = step
            if not absorbed:
                raise words.CalculusViolation(f"{w}: interlaced word not in {absorbing} regime")
    return ev.round


def words_exhaustive_suite(max_n: int = 12) -> SuiteResult:
    """Walk the first word, in ``itertools.product((1, -1))`` order, of each
    rotation class of the words of 2..max_n letters with n_bal > 0 through
    `_word_checks`, and count the whole class.

    The step is rule 184 on a ring, so it commutes with the cyclic shift
    (Fuks, Phys. Rev. E 1999), as do the interlacing test and n_bal; the
    decomposition is shift-equivariant as a set of position sets, and every
    rule and check reads positions relative to a span, mod n.  So a class
    shares its verdict and rounds, and a fault that commutes with the shift
    is named at the word a walk over every word would name: the first start
    word whose walk reaches a violation, by the first check that the walk
    breaks.  The probe steps live for one length, as a word steps only to
    its own.
    """
    res = SuiteResult("words-exhaustive")
    count = max_rounds = 0
    violation = None
    for n in range(2, max_n + 1):
        probes: dict = {}
        seen = bytearray(1 << n)  # the '+' masks whose class was judged
        seen[0] = seen[-1] = 1  # the uniform words, n_bal = 0
        # letter 0 varies slowest and '+' comes first
        for plus in map(sum, itertools.product(*((1 << i, 0) for i in range(n)))):
            if seen[plus]:
                continue
            rotations = {words._rotl(plus, k, n) for k in range(n)}
            for mask in rotations:
                seen[mask] = 1
            try:
                max_rounds = max(max_rounds, _word_checks(words.Word(n, plus), probes))
            except words.CalculusViolation as exc:
                violation = str(exc)
                break
            count += len(rotations)
        if violation:
            break
    res.add("exhaustive_calculus", violation is None,
            violation or f"{count} words <= n={max_n}, max {max_rounds} rounds")
    return res


RANDOM_WORD_LETTERS = 64  # the length n of every random word
RANDOM_WORDS_SEED = 11  # seeds the random words' letters


def words_random_suite(samples: int = 10_000) -> SuiteResult:
    """Interlacing bound on large random words.  Each word of n =
    RANDOM_WORD_LETTERS letters has m = randrange(1, n) '-' letters at
    random positions, drawn from ``random.Random(RANDOM_WORDS_SEED)``, and
    is stepped by `words.step_word` for at most n rounds."""
    res = SuiteResult("words-random")
    n = RANDOM_WORD_LETTERS
    rng = random.Random(RANDOM_WORDS_SEED)
    full = (1 << n) - 1
    stuck = over = max_rounds = 0
    for _ in range(samples):
        minus = sum(1 << i for i in rng.sample(range(n), rng.randrange(1, n)))
        w = words.Word(n, full ^ minus)
        n_bal = w.n_bal
        taken = 0
        while taken < n and not words.is_interlaced(w):
            w = words.step_word(w)
            taken += 1
        stuck += taken == n
        over += taken >= n_bal
        max_rounds = max(max_rounds, taken)
    res.add("all_random_words_interlace", stuck == 0, f"{samples} words at n={n}")
    res.add("interlace_bound_random", over == 0, f"max rounds {max_rounds}")
    return res


def words_suite(random_samples: int = 10_000) -> SuiteResult:
    res = SuiteResult("words")
    for sub in (words_exhaustive_suite(), words_random_suite(random_samples)):
        for name, ok, detail in sub.checks:
            res.add(name, ok, detail)
    return res


# -- round-model suite -----------------------------------------------------

ROUNDS_SEED = 23  # seeds the rounds suite's fleets and its instance k's placement


def rounds_suite(instances: int = 20) -> SuiteResult:
    """Lift each of ``instances`` converged random fleets into the round
    model and match `rounds.COMPARE_ROUNDS` rounds of it against the
    engine."""
    res = SuiteResult("rounds")
    rng = random.Random(ROUNDS_SEED)
    worst_dt = 0.0
    worst_dp = 0.0
    mismatches = []
    bad_counts = 0
    balanced = 0
    unsynced = []
    for k in range(instances):
        n = rng.randint(3, 10)
        cfg = random_fleet(rng, n=n)
        n_minus = rng.randint(1, n - 1)
        sim = converged_simulation(cfg, seed=ROUNDS_SEED * 1000 + k, n_minus=n_minus,
                                   rtol=1e-11)
        state = rounds.lift_from_trace(sim.trace)
        sim.run_until(t_end=state.t0 + (rounds.COMPARE_ROUNDS + 2) * state.t_round)
        rep = rounds.compare_with_engine(sim.trace, state)
        worst_dt = max(worst_dt, rep.max_time_err)
        worst_dp = max(worst_dp, rep.max_pos_err)
        if not rep.ok:
            mismatches.append(f"instance {k}: {rep.detail or 'tolerance exceeded'}")
            continue
        # interlaced regime: exactly n_bal meetings per round, and per full
        # n-round window each boundary hosts exactly n_bal of them
        n_bal = state.word.n_bal
        full_windows = rounds.COMPARE_ROUNDS // n
        states = rep.states[:full_windows * n + 1]
        sets = rep.meeting_sets[:full_windows * n]
        per_boundary = Counter(j for ms in sets for j, _t in ms)
        bad_counts += (any(len(ms) != n_bal for ms in sets)
                       or any(per_boundary[j] != full_windows * n_bal for j in range(n)))
        if 2 * n_bal == n:
            balanced += 1
            sync = rounds.check_synchronization(states)
            if not sync:
                unsynced.append(f"instance {k}: {sync.first_violation or 'never interlaced'}")
    res.add("engine_equivalence", not mismatches,
            "; ".join(mismatches) or
            f"{instances} instances, max dt {worst_dt:.3g}s, max dp {worst_dp:.3g}m")
    res.add("interlaced_meeting_counts", bad_counts == 0,
            f"{bad_counts} instances off")
    res.add("balanced_synchronize_within_n_over_2", not unsynced,
            "; ".join(unsynced) or f"{balanced} balanced instances")
    return res


# -- conservation suite ------------------------------------------------------

CONSERVATION_SEED = 31  # seeds the conservation suite's fleets and placements
CONSERVATION_RTOL = 1e-9  # its bound on a meeting's pair gap and on the weighted e sum's drift


def conservation_suite(total_events: int = 100_000) -> SuiteResult:
    """Step random instances event by event, asserting the invariants the
    protocol preserves; runs until the requested event budget is spent."""
    res = SuiteResult("conservation")
    rng = random.Random(CONSERVATION_SEED)
    events_done = 0
    violations: list[str] = []
    runs = 0
    worst_pair = 0.0
    while events_done < total_events and not violations:
        n = rng.randint(3, 12)
        cfg = random_fleet(rng, n=n)
        positions, orientations = random_initial_state(
            cfg, rng, n_minus=rng.randint(1, n - 1))
        sim = Simulation(cfg, positions, orientations)
        o_sum = sum(sim.o)
        invariant = cfg.L - 2.0 * sum(cfg.radii)
        runs += 1
        for _ in range(min(5000, total_events - events_done)):
            try:
                ev = sim.step()
            except Exception as exc:  # deadlock or internal assertion
                violations.append(f"run {runs}: {exc!r}")
                break
            events_done += 1
            if sum(sim.o) != o_sum:
                violations.append(f"run {runs}: orientation sum changed")
                break
            vals = [0.0] + [y for y in sim.y if not math.isnan(y)]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                violations.append(f"run {runs}: boundaries out of order")
                break
            if sim.y[n - 1] != cfg.L:
                violations.append(f"run {runs}: seam boundary moved")
                break
            if ev is not None and ev.kind == "meeting" and ev.updated:
                scale = max(abs(ev.e_a), abs(ev.e_b), 1.0)
                gap = abs(ev.e_a - ev.e_b) / scale
                worst_pair = max(worst_pair, gap)
                if gap > CONSERVATION_RTOL:
                    violations.append(f"run {runs}: post-meeting times unequal")
                    break
            if sim.all_boundaries_known():
                e = sim.e_values()
                weighted = sum(v * x for v, x in zip(sim.v, e))
                if abs(weighted - invariant) > CONSERVATION_RTOL * max(1.0, abs(invariant)):
                    violations.append(f"run {runs}: weighted e sum drifted")
                    break
        del sim  # free this run's trace before the next run builds its own
    res.add("invariants_hold", not violations,
            "; ".join(violations) or
            f"{events_done} events over {runs} runs, worst pair gap {worst_pair:.2g}")
    return res


# -- sweeps -------------------------------------------------------------------

def size_fleet(n: int, v: float, r: float, L: float) -> FleetConfig:
    """n identical robots: the fleet of one ``sweep --vary-n`` point."""
    return FleetConfig(robots=tuple(RobotParams(id=i + 1, v=v, r=r) for i in range(n)), L=L)


def factor_fleet(f: float, v: float, r: float, L: float) -> FleetConfig:
    """Six robots, the first two with speed and radius scaled by f: the
    fleet of one ``sweep --factor`` point."""
    scale = [f, f, 1.0, 1.0, 1.0, 1.0]
    return FleetConfig(robots=tuple(RobotParams(id=i + 1, v=v * s, r=r * s)
                                    for i, s in enumerate(scale)), L=L)


def sweep_point(cfg: FleetConfig, label: float, seed: int, measure: bool) -> dict:
    """The closed-form revisit time of one sweep point and, if ``measure``,
    the one measured on a converged run from ``seed``."""
    t_star = compute_t_star(cfg)
    n = cfg.n
    n_bal = n // 2
    t_rev_pred = t_star * n / n_bal
    row = {
        "label": label,
        "n": n,
        "t_star": t_star,
        "t_rev_predicted": t_rev_pred,
        "t_rev_measured": math.nan,
        "rel_err": math.nan,
    }
    if measure:
        sim = converged_simulation(cfg, seed=seed, n_minus=n_bal, rtol=1e-9,
                                   tail_rounds=10.0 * n + 4)
        series = metrics.inter_meeting_times(sim.trace)
        k = max(n_bal, 1)
        vals = []
        for s in series.values():
            # the last 2 windows, read from the last k + 1 times
            vals.extend(metrics.windowed_revisit(s[-(k + 1):], k))
        measured = sum(vals) / len(vals)
        row["t_rev_measured"] = measured
        row["rel_err"] = abs(measured - t_rev_pred) / t_rev_pred
    return row


ALL_SUITES = {
    "consensus": consensus_suite,
    "words": words_suite,
    "rounds": rounds_suite,
    "conservation": conservation_suite,
}

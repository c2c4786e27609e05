import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepatrol import verify, words
from cyclepatrol.words import (
    CalculusViolation,
    Rule,
    TrackedEvolution,
    Word,
    classify_transition,
    decompose,
    evolve_until_interlaced,
    is_interlaced,
    meeting_pairs,
    step_word,
)

W = Word.from_string


class TestStep:
    def test_two_letter_swap(self):
        assert str(step_word(W("+-"))) == "-+"

    def test_single_pair_flip(self):
        assert str(step_word(W("++--"))) == "+-+-"

    def test_cyclic_word(self):
        assert str(step_word(W("++-+"))) == "+-++"

    def test_uniform_word_rejected(self):
        with pytest.raises(ValueError, match="A2"):
            step_word(W("++++"))

    def test_counts_conserved(self):
        for s in ("+-+--+", "++-+--", "-+-+++"):
            w = W(s)
            w2 = step_word(w)
            assert (w2.n_plus, w2.n_minus) == (w.n_plus, w.n_minus)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from((1, -1)), min_size=2, max_size=16))
    def test_step_preserves_counts_and_pairs_are_disjoint(self, bits):
        w = Word(tuple(bits))
        if w.n_bal == 0:
            return
        pairs = meeting_pairs(w)
        touched = [i for p in pairs for i in (p, (p + 1) % w.n)]
        assert len(touched) == len(set(touched))
        w2 = step_word(w)
        assert w2.n_plus == w.n_plus


class TestDecompose:
    def test_fully_interlaced(self):
        d = decompose(W("+-+-"))
        assert d.sequences == ((0, 4),)
        assert d.letters == ()

    def test_single_inner_pair(self):
        d = decompose(W("++--"))
        assert d.sequences == ((1, 2),)
        assert set(d.letters) == {0, 3}

    def test_seam_wrapping_sequence(self):
        d = decompose(W("--++"))
        assert d.sequences == ((3, 2),)
        assert set(d.letters) == {1, 2}

    def test_run_through_the_index_seam(self):
        # the natural maximal run covers positions 4,0,1,2
        d = decompose(W("-+-++"))
        assert d.sequences == ((4, 4),)
        assert d.letters == (3,)

    def test_all_letters(self):
        d = decompose(W("-+"))
        assert d.sequences == ((1, 2),)

    def test_sorted_word_has_one_pair(self):
        d = decompose(W("--++-"))
        assert d.sequences == ((3, 2),)
        assert set(d.letters) == {0, 1, 2}

    def test_odd_truncation(self):
        d = decompose(W("+-+++"))
        assert d.sequences == ((0, 2),)
        assert set(d.letters) == {2, 3, 4}

    def test_sequences_have_even_length_and_start_plus(self):
        for n in range(2, 11):
            for bits in itertools.product((1, -1), repeat=n):
                w = Word(bits)
                d = decompose(w)
                for start, length in d.sequences:
                    assert length % 2 == 0 and length >= 2
                    for k in range(length):
                        want = 1 if k % 2 == 0 else -1
                        assert w.letters[(start + k) % n] == want
                covered = [(s + k) % n for s, l in d.sequences for k in range(l)]
                assert sorted(covered + list(d.letters)) == list(range(n))


class TestInterlaced:
    def test_balanced_interlaced(self):
        ok, witness = is_interlaced(W("+-+-"))
        assert ok and witness == [0, 2]

    def test_not_interlaced(self):
        ok, witness = is_interlaced(W("++--"))
        assert not ok and witness == [1]

    def test_uniform_rejected(self):
        with pytest.raises(ValueError, match="A2"):
            is_interlaced(W("+++"))

    def test_single_minority_letter_always_interlaced(self):
        for n in range(2, 10):
            for pos in range(n):
                bits = [1] * n
                bits[pos] = -1
                assert is_interlaced(Word(tuple(bits)))[0]


class TestClassify:
    def test_expand(self):
        labels = classify_transition(W("++--"), step_word(W("++--")))
        assert [(l.start, l.length, l.rule) for l in labels] == [(1, 2, Rule.EXPAND)]

    def test_move_plus(self):
        labels = classify_transition(W("++-+"), step_word(W("++-+")))
        assert labels[0].rule == Rule.MOVE_PLUS
        assert labels[0].successor == (0, 2)

    def test_move_minus(self):
        labels = classify_transition(W("-+--"), step_word(W("-+--")))
        assert labels[0].rule == Rule.MOVE_MINUS

    def test_reduce_and_disappear(self):
        w = W("--+-++")
        labels = {(l.start, l.length): l.rule for l in classify_transition(w, step_word(w))}
        assert labels[(2, 2)] == Rule.DISAPPEAR
        assert labels[(5, 2)] == Rule.EXPAND

    def test_reduce_long_sequence(self):
        w = W("--+-+-++")  # run (2,4) sits between a '-' and a '+': Reduce
        assert decompose(w).sequences == ((2, 4), (7, 2))
        labels = classify_transition(w, step_word(w))
        by_span = {(l.start, l.length): l for l in labels}
        assert by_span[(2, 4)].rule == Rule.REDUCE
        assert by_span[(2, 4)].successor == (3, 2)
        assert by_span[(7, 2)].rule == Rule.EXPAND
        assert by_span[(7, 2)].successor == (6, 4)

    def test_merge_label(self):
        w = W("++-++--")
        labels = classify_transition(w, step_word(w))
        assert sorted(l.rule for l in labels) == [Rule.MERGE, Rule.MERGE]

    def test_full_cycle_rotates(self):
        w = W("+-+-")
        labels = classify_transition(w, step_word(w))
        assert labels[0].rule == Rule.MOVE_PLUS
        assert labels[0].length == 4

    def test_wrong_successor_rejected(self):
        with pytest.raises(ValueError):
            classify_transition(W("++--"), W("++--"))


class TestEvolve:
    def test_already_interlaced(self):
        rounds, history = evolve_until_interlaced(W("+-"))
        assert rounds == 0
        assert history == [{0: 2}]

    def test_one_round(self):
        rounds, history = evolve_until_interlaced(W("++--"))
        assert rounds == 1
        assert history[-1] == {0: 4}

    def test_exhaustive_interlace_bound(self):
        for n in range(2, 13):
            for bits in itertools.product((1, -1), repeat=n):
                w = Word(bits)
                if w.n_bal == 0:
                    continue
                wk = w
                rounds = 0
                while not is_interlaced(wk)[0]:
                    wk = step_word(wk)
                    rounds += 1
                    assert rounds <= n, f"{w} not interlacing"
                assert rounds < max(w.n_bal, 1), f"{w} took {rounds} rounds"

    def test_length_history(self):
        # one sequence of length 2 grows to 4 in the one round to interlacing
        assert evolve_until_interlaced(W("++--")) == (1, [{0: 2}, {0: 4}])

    def test_sequence_count_never_grows(self):
        for n in range(2, 12):
            for bits in itertools.product((1, -1), repeat=n):
                w = Word(bits)
                if w.n_bal == 0:
                    continue
                prev = len(decompose(w).sequences)
                for _ in range(n):
                    w = step_word(w)
                    cur = len(decompose(w).sequences)
                    assert cur <= prev
                    prev = cur


def _nonuniform_words(max_n):
    for n in range(2, max_n + 1):
        for bits in itertools.product((1, -1), repeat=n):
            w = Word(bits)
            if w.n_bal > 0:
                yield w


class TestTrackedEvolution:
    def test_rules_match_public_classify(self):
        # the carried decomposition must label every round exactly as the
        # public path that decomposes both words from scratch
        for w in _nonuniform_words(9):
            ev = TrackedEvolution(w)
            while not is_interlaced(ev.word)[0]:
                spans = dict(ev.ids)
                expected = {(l.start, l.length): l.rule
                            for l in classify_transition(ev.word, step_word(ev.word))}
                ev.step()
                got = {spans[sid]: rule for sid, rule in ev.rules.items()}
                assert got == expected, f"{w} round {ev.round}"
                assert ev.decomposition == decompose(ev.word)

    @staticmethod
    def _state(ev):
        return (ev.round, ev.word, ev.decomposition, ev.ids, ev.lengths, ev.rules,
                ev.merges)

    def test_shared_table_matches_fresh_steps(self):
        # the exhaustive suite's pattern: one table per length, shared by
        # every start word in enumeration order and by the probe from its
        # interlaced word; every state must equal a table-less evolution's
        for n in range(2, 10):
            table = {}
            for bits in itertools.product((1, -1), repeat=n):
                w = Word(bits)
                if w.n_bal == 0:
                    continue
                tabled, fresh = TrackedEvolution(w, table), TrackedEvolution(w)
                while not is_interlaced(fresh.word)[0]:
                    tabled.step()
                    fresh.step()
                    assert self._state(tabled) == self._state(fresh), f"{w} round {fresh.round}"
                tabled, fresh = TrackedEvolution(fresh.word, table), TrackedEvolution(fresh.word)
                for _ in range(min(n, 6)):
                    tabled.step()
                    fresh.step()
                    assert self._state(tabled) == self._state(fresh), f"probe of {w}"
            assert table, f"n={n}: nothing was tabled"

    def test_failed_labelling_leaves_no_entry(self, monkeypatch):
        start = W("+++---")
        bad = step_word(start)  # "++-+--", stepped from in round 1
        assert not is_interlaced(bad)[0]
        original = words._label_transition
        failures = []

        def label(w, *args):
            if w == bad:
                failures.append(w)
                raise CalculusViolation(f"{w}: injected")
            return original(w, *args)

        monkeypatch.setattr(words, "_label_transition", label)
        table = {}
        for attempt in (1, 2):
            ev = TrackedEvolution(start, table)
            ev.step()
            with pytest.raises(CalculusViolation, match="injected"):
                ev.step()
            assert bad.letters not in table
            assert len(failures) == attempt
        # the same two rounds without the fault do store the transition
        monkeypatch.setattr(words, "_label_transition", original)
        ev = TrackedEvolution(start, table)
        ev.step()
        ev.step()
        assert bad.letters in table


class TestExhaustiveSuite:
    TARGET = W("++-+-")  # unbalanced and interlaced; "+++--" also ends there

    def _first_start_reaching(self, target, max_n):
        for w in _nonuniform_words(max_n):
            final = w
            while not is_interlaced(final)[0]:
                final = step_word(final)
            if final == target:
                return w
        raise AssertionError(f"no start word reaches {target}")

    def _probe_patch(self, monkeypatch, break_it):
        # Only the absorbing-regime probe steps from an interlaced word, so
        # round-0 steps from TARGET are exactly the probes of TARGET.
        original = TrackedEvolution.step
        probes = []

        def step(ev):
            probing = ev.round == 0 and ev.word == self.TARGET
            w2 = original(ev)
            if probing:
                probes.append(w2)
                if break_it:
                    ev.rules = {sid: Rule.EXPAND for sid in ev.rules}
            return w2

        monkeypatch.setattr(TrackedEvolution, "step", step)
        return probes

    def test_probe_runs_once_per_interlaced_word(self, monkeypatch):
        probes = self._probe_patch(monkeypatch, break_it=False)
        assert self._first_start_reaching(self.TARGET, 7) != self.TARGET
        res = verify.words_exhaustive_suite(max_n=7)
        assert res.ok
        assert len(probes) == 1

    def test_failing_probe_names_first_start_word(self, monkeypatch):
        self._probe_patch(monkeypatch, break_it=True)
        first = self._first_start_reaching(self.TARGET, 7)
        res = verify.words_exhaustive_suite(max_n=7)
        assert not res.ok
        [(name, ok, detail)] = res.checks
        assert detail == f"{first}: interlaced word not in {Rule.MOVE_PLUS} regime"
        assert detail.endswith("not in Move+ regime")


def test_rule_formats_as_its_value():
    assert f"{Rule.MOVE_PLUS}" == "Move+"
    assert str(Rule.MOVE_MINUS) == "Move-"
    assert f"{Rule.EXPAND:>8}" == "  Expand"


def test_word_sizes_and_letter_check():
    w = Word.from_string("++-+-")
    assert (w.n, w.n_plus, w.n_minus, w.n_bal) == (5, 3, 2, 2)
    for bad in [(1, 0), (1, 2), (1, float("nan")), (1, "+")]:
        with pytest.raises(ValueError, match="letters must be"):
            Word(bad)


def _late_death(ev, before, last):
    # hide each Disappear's 0, then report it one round later
    for sid, rule in ev.rules.items():
        if rule == Rule.DISAPPEAR:
            del ev.lengths[sid]
    for sid, rule in last.items():
        if rule == Rule.DISAPPEAR:
            ev.lengths[sid] = 0


def _reducing_as_move_plus(ev, before, last):
    for sid, rule in last.items():
        if rule == Rule.REDUCE:
            ev.rules[sid] = Rule.MOVE_PLUS
            return


def _doomed_as_expand(ev, before, last):
    w = ev.word
    doomed = Rule.MOVE_MINUS if w.n_plus >= w.n_minus else Rule.MOVE_PLUS
    for sid, rule in last.items():
        if rule == doomed and sid in ev.rules:
            ev.rules[sid] = Rule.EXPAND
            return


def _start_shifted_by_2(ev, before, last):
    n = ev.word.n
    for sid, (st, ln) in ev.ids.items():
        if sid in before and ln < n and ev.rules[sid] != Rule.MERGE:
            pst = before[sid][0]
            if (st + 2 - pst) % n not in (n - 1, 0, 1):
                ev.ids[sid] = ((st + 2) % n, ln)
                return


def _extra_id(ev, before, last):
    if len(ev.ids) == len(before):
        ev.ids[max(before) + 1] = (0, 2)


class TestEachRoundCheckFires:
    """Falsify one round of what `TrackedEvolution.step` reports; the
    exhaustive suite must reject it with that round's message.  Words of
    up to 7 letters run no Move+, Move- or Reduce, so the suite runs to 8."""

    @pytest.mark.parametrize("corrupt, message", [
        (_reducing_as_move_plus, r"sequence \d+ stopped reducing \(Move\+\)"),
        (_doomed_as_expand, r"sequence \d+ ran Expand after Move[+-]"),
        (_start_shifted_by_2, r"sequence \d+ jumped"),
        (_extra_id, r"sequence count grew"),
        (_late_death, r"sequence \d+ reduced from \d+ in \d+ rounds"),
    ])
    def test_corrupted_round_fails(self, monkeypatch, corrupt, message):
        # corrupt(ev, before, last) sees the ids before the step and the
        # rules the same evolution reported one step earlier
        original = TrackedEvolution.step
        memo = {"ev": None, "rules": {}}

        def step(ev):
            before = ev.ids
            w2 = original(ev)
            last = memo["rules"] if memo["ev"] is ev else {}
            memo["ev"], memo["rules"] = ev, dict(ev.rules)
            corrupt(ev, before, last)
            return w2

        monkeypatch.setattr(TrackedEvolution, "step", step)
        res = verify.words_exhaustive_suite(max_n=8)
        assert not res.ok
        [(name, ok, detail)] = res.checks
        assert re.fullmatch(r"[+-]+: " + message, detail), detail

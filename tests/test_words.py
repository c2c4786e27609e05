import itertools
import math
import random
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
        w = Word.from_letters(bits)
        if w.n_bal == 0:
            return
        pairs = meeting_pairs(w)
        touched = [i for p in pairs for i in (p, (p + 1) % w.n)]
        assert len(touched) == len(set(touched))
        w2 = step_word(w)
        assert w2.n_plus == w.n_plus


def _covered(spans, n):
    return [(s + k) % n for s, l in spans for k in range(l)]


def _letters(w):
    """The leftover letters of w: the positions outside its spans."""
    return set(range(w.n)) - set(_covered(decompose(w), w.n))


class TestDecompose:
    def test_fully_interlaced(self):
        assert decompose(W("+-+-")) == ((0, 4),)
        assert _letters(W("+-+-")) == set()

    def test_single_inner_pair(self):
        assert decompose(W("++--")) == ((1, 2),)
        assert _letters(W("++--")) == {0, 3}

    def test_seam_wrapping_sequence(self):
        assert decompose(W("--++")) == ((3, 2),)
        assert _letters(W("--++")) == {1, 2}

    def test_run_through_the_index_seam(self):
        # the natural maximal run covers positions 4,0,1,2
        assert decompose(W("-+-++")) == ((4, 4),)
        assert _letters(W("-+-++")) == {3}

    def test_all_letters(self):
        assert decompose(W("-+")) == ((1, 2),)

    def test_sorted_word_has_one_pair(self):
        assert decompose(W("--++-")) == ((3, 2),)
        assert _letters(W("--++-")) == {0, 1, 2}

    def test_odd_truncation(self):
        assert decompose(W("+-+++")) == ((0, 2),)
        assert _letters(W("+-+++")) == {2, 3, 4}

    def test_sequences_have_even_length_and_start_plus(self):
        for n in range(2, 11):
            for bits in itertools.product((1, -1), repeat=n):
                spans = decompose(Word.from_letters(bits))
                for start, length in spans:
                    assert length % 2 == 0 and length >= 2
                    for k in range(length):
                        want = 1 if k % 2 == 0 else -1
                        assert bits[(start + k) % n] == want
                # the spans are disjoint: each position is covered at most once
                covered = _covered(spans, n)
                assert len(set(covered)) == len(covered)


class TestInterlaced:
    def test_balanced_interlaced(self):
        assert is_interlaced(W("+-+-"))
        assert meeting_pairs(W("+-+-")) == [0, 2]

    def test_not_interlaced(self):
        assert not is_interlaced(W("++--"))
        assert meeting_pairs(W("++--")) == [1]

    def test_uniform_rejected(self):
        with pytest.raises(ValueError, match="A2"):
            is_interlaced(W("+++"))

    def test_single_minority_letter_always_interlaced(self):
        for n in range(2, 10):
            for pos in range(n):
                bits = [1] * n
                bits[pos] = -1
                assert is_interlaced(Word.from_letters(bits))


def _rules(w):
    """Each span of w with the rule it runs, in span order."""
    return list(zip(decompose(w), classify_transition(w, step_word(w))))


def _successors(w):
    """Each span of w that survives the round, mapped to the span of
    ``decompose(step_word(w))`` it lands on."""
    w2 = step_word(w)
    spans, spans2 = decompose(w), decompose(w2)
    _, preds_by_target = words._label_transition(w, w2, spans, spans2)
    return {spans[k]: span2 for span2, preds in zip(spans2, preds_by_target) for k in preds}


class TestClassify:
    def test_expand(self):
        assert _rules(W("++--")) == [((1, 2), Rule.EXPAND)]

    def test_move_plus(self):
        assert _rules(W("++-+")) == [((1, 2), Rule.MOVE_PLUS)]
        assert _successors(W("++-+")) == {(1, 2): (0, 2)}

    def test_move_minus(self):
        assert _rules(W("-+--")) == [((1, 2), Rule.MOVE_MINUS)]

    def test_reduce_and_disappear(self):
        rules = dict(_rules(W("--+-++")))
        assert rules[(2, 2)] == Rule.DISAPPEAR
        assert rules[(5, 2)] == Rule.EXPAND

    def test_reduce_long_sequence(self):
        w = W("--+-+-++")  # run (2,4) sits between a '-' and a '+': Reduce
        assert _rules(w) == [((2, 4), Rule.REDUCE), ((7, 2), Rule.EXPAND)]
        assert _successors(w) == {(2, 4): (3, 2), (7, 2): (6, 4)}

    def test_merge_label(self):
        rules = [rule for _, rule in _rules(W("++-++--"))]
        assert rules == [Rule.MERGE, Rule.MERGE]

    def test_full_cycle_rotates(self):
        assert _rules(W("+-+-")) == [((0, 4), Rule.MOVE_PLUS)]

    def test_wrong_successor_rejected(self):
        with pytest.raises(ValueError):
            classify_transition(W("++--"), W("++--"))


class TestEvolve:
    def test_exhaustive_interlace_bound(self):
        for n in range(2, 13):
            for bits in itertools.product((1, -1), repeat=n):
                w = Word.from_letters(bits)
                if w.n_bal == 0:
                    continue
                wk = w
                rounds = 0
                while not is_interlaced(wk):
                    wk = step_word(wk)
                    rounds += 1
                    assert rounds <= n, f"{w} not interlacing"
                assert rounds < max(w.n_bal, 1), f"{w} took {rounds} rounds"

    def test_sequence_count_never_grows(self):
        for n in range(2, 12):
            for bits in itertools.product((1, -1), repeat=n):
                w = Word.from_letters(bits)
                if w.n_bal == 0:
                    continue
                prev = len(decompose(w))
                for _ in range(n):
                    w = step_word(w)
                    cur = len(decompose(w))
                    assert cur <= prev
                    prev = cur


def _nonuniform_words(max_n):
    for n in range(2, max_n + 1):
        for bits in itertools.product((1, -1), repeat=n):
            w = Word.from_letters(bits)
            if w.n_bal > 0:
                yield w


class TestTrackedEvolution:
    def test_rules_match_public_classify(self):
        # the carried spans must label every round exactly as the public
        # path that decomposes both words from scratch
        for w in _nonuniform_words(9):
            ev = TrackedEvolution(w)
            while not is_interlaced(ev.word):
                spans = dict(ev.ids)
                expected = dict(_rules(ev.word))
                ev.step()
                got = {spans[sid]: rule for sid, rule in ev.rules.items()}
                assert got == expected, f"{w} round {ev.round}"
                assert ev.spans == decompose(ev.word)


class TestExhaustiveSuite:
    TARGET = W("++-+-")  # unbalanced and interlaced; "+++--" also ends there

    def _first_start_probing(self, target, max_n):
        # the probe of a final word steps it and the next min(n, 6) - 1 words
        for w in _nonuniform_words(max_n):
            x = w
            while not is_interlaced(x):
                x = step_word(x)
            for _ in range(min(w.n, 6)):
                if x == target:
                    return w
                x = step_word(x)
        raise AssertionError(f"no probe steps {target}")

    def _probe_patch(self, monkeypatch, break_it):
        # The suite steps a TrackedEvolution only to probe an interlaced
        # word (and to number the sequence a violation names), so round-0
        # steps from TARGET are exactly the probes of TARGET.
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
        assert self._first_start_probing(self.TARGET, 7) != self.TARGET
        res = verify.words_exhaustive_suite(max_n=7)
        assert res.ok
        assert len(probes) == 1

    def test_failing_probe_names_first_start_word(self, monkeypatch):
        self._probe_patch(monkeypatch, break_it=True)
        first = self._first_start_probing(self.TARGET, 7)
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
    assert (w.n, w.plus, w.n_plus, w.n_minus, w.n_bal) == (5, 0b01011, 3, 2, 2)
    for bad in [(1, 0), (1, 2), (1, float("nan")), (1, "+")]:
        with pytest.raises(ValueError, match="letters must be"):
            Word.from_letters(bad)
    for short in [(), (1,)]:
        with pytest.raises(ValueError, match="at least 2 letters"):
            Word.from_letters(short)
    with pytest.raises(ValueError, match="at least 2 letters"):
        Word(1, 0)
    for n, plus in [(3, 1 << 3), (5, 1 << 5 | 1), (64, 1 << 64), (4, -1)]:
        with pytest.raises(ValueError, match="bits outside"):
            Word(n, plus)


def _letterwise_round(letters):
    """The step rule stated letter by letter: every cyclic (+, -) pair
    flips to (-, +).  Returns the pairs' first positions and the next
    letters."""
    n = len(letters)
    pairs = [i for i in range(n) if (letters[i], letters[(i + 1) % n]) == (1, -1)]
    out = list(letters)
    for i in pairs:
        out[i], out[(i + 1) % n] = -1, 1
    return pairs, tuple(out)


def test_mask_rule_matches_the_letterwise_rule():
    # 63, 64 and 65 letters put the seam pair on either side of bit 63
    rng = random.Random(5)
    for n in range(2, 71):
        for _ in range(20):
            minus = set(rng.sample(range(n), rng.randint(0, n)))
            letters = tuple(-1 if i in minus else 1 for i in range(n))
            w = Word.from_letters(letters)
            for _ in range(5):
                pairs, after = _letterwise_round(letters)
                assert meeting_pairs(w) == pairs
                if not pairs:  # a uniform word
                    with pytest.raises(ValueError, match="A2"):
                        step_word(w)
                    with pytest.raises(ValueError, match="A2"):
                        is_interlaced(w)
                    break
                n_bal = min(letters.count(1), letters.count(-1))
                assert is_interlaced(w) == (len(pairs) == n_bal)
                letters, w = after, step_word(w)
                assert w == Word.from_letters(letters)
                assert str(w) == "".join("+" if x == 1 else "-" for x in letters)


def _facts(monkeypatch, change):
    # what a judged word hands its predecessors: (rule, fate, doom) per sequence
    original = verify._judge_round
    monkeypatch.setattr(verify, "_judge_round",
                        lambda *args: tuple(change(*fact) for fact in original(*args)))


def _late_death(monkeypatch):
    # every death reported one round late
    _facts(monkeypatch, lambda rule, fate, doom: (rule, fate + 1 if fate else 0, doom))


def _reducing_as_move_plus(monkeypatch):
    # a Disappear reported to its predecessor as Move+
    _facts(monkeypatch, lambda rule, fate, doom:
           (Rule.MOVE_PLUS if rule == Rule.DISAPPEAR else rule, fate, doom))


def _doomed_as_expand(monkeypatch):
    # every lineage reported to run Expand before it is gone
    _facts(monkeypatch, lambda rule, fate, doom: (rule, fate, doom or Rule.EXPAND))


def _successors_swapped(monkeypatch):
    # a round's first two sequences reported to land on each other's successor
    original = words._label_transition

    def label(*args):
        rules, preds = original(*args)
        if len(preds) >= 2 and len(preds[0]) == len(preds[1]) == 1:
            preds = [preds[1], preds[0], *preds[2:]]
        return rules, preds

    monkeypatch.setattr(words, "_label_transition", label)


def _extra_id(monkeypatch):
    # "++-+--" lists its one sequence twice; "+++---" steps to it
    original = words.decompose

    def decompose(w):
        spans = original(w)
        return spans * 2 if str(w) == "++-+--" else spans

    monkeypatch.setattr(words, "decompose", decompose)


def _exhaustive_detail(max_n=8):
    res = verify.words_exhaustive_suite(max_n=max_n)
    [(name, ok, detail)] = res.checks
    assert not ok, detail
    return detail


class TestEachRoundCheckFires:
    """Falsify what the suite reads of a round: its labels, a word's
    decomposition, or the facts a judged word hands its predecessors.  The
    exhaustive suite must reject it with that check's message.  Words of
    up to 7 letters run no Move+, Move- or Reduce, so the suite runs to 8."""

    @pytest.mark.parametrize("corrupt, message", [
        (_reducing_as_move_plus, r"sequence \d+ stopped reducing \(Move\+\)"),
        (_doomed_as_expand, r"sequence \d+ ran Expand after Move[+-]"),
        (_successors_swapped, r"sequence \d+ jumped"),
        (_extra_id, r"sequence count grew"),
        (_late_death, r"sequence \d+ reduced from \d+ in \d+ rounds"),
    ])
    def test_corrupted_round_fails(self, monkeypatch, corrupt, message):
        corrupt(monkeypatch)
        detail = _exhaustive_detail()
        assert re.fullmatch(r"[+-]+: " + message, detail), detail

    def test_reduction_is_judged_where_the_walk_reaches_it(self, monkeypatch):
        # "+++--+--", the first start word to reach "++-+--+-", steps to it
        # in one round; there a sequence disappears after a round it did not
        # reduce in.  Its death reported late names "+++--+--".
        late, original = W("++-+--+-"), verify._judge_round

        def judge(w, t, x, *args):
            facts = original(w, t, x, *args)
            return tuple((r, f + 1 if f else 0, d) for r, f, d in facts) if x == late else facts

        monkeypatch.setattr(verify, "_judge_round", judge)
        detail = _exhaustive_detail()
        assert re.fullmatch(r"\+\+\+--\+--: sequence \d+ reduced from 2 in 2 rounds", detail), detail


def _reported_interlaced(monkeypatch, word, interlaced):
    original = words.is_interlaced
    monkeypatch.setattr(words, "is_interlaced",
                        lambda w: interlaced if w == word else original(w))


class TestEachWalkCheckFires:
    """The checks of a start word's walk as a whole, each fed one
    falsified step or interlacing test."""

    def test_cycling_step_never_interlaces(self, monkeypatch):
        # a step that rotates every word not yet interlaced
        original = words.step_word
        monkeypatch.setattr(words, "step_word", lambda w: original(w) if is_interlaced(w)
                            else Word(w.n, w.plus >> 1 | (w.plus & 1) << (w.n - 1)))
        assert _exhaustive_detail() == "++-- did not interlace within 4 rounds"

    def test_a_round_late_breaks_the_bound(self, monkeypatch):
        # "+++--" (n_bal = 2) steps to "++-+-", reported not interlaced
        _reported_interlaced(monkeypatch, W("++-+-"), False)
        assert _exhaustive_detail() == "+++-- took 2 rounds, bound is 2"

    def test_balanced_endgame_is_one_cycle(self, monkeypatch):
        _reported_interlaced(monkeypatch, W("++--"), True)
        assert _exhaustive_detail() == "++--: balanced endgame not a single cycle"

    def test_doomed_sequence_must_not_survive(self, monkeypatch):
        # the first round of 8 letters that runs Move- ('+' majority)
        w = W("+++--+--")
        assert Rule.MOVE_MINUS in classify_transition(w, step_word(w))
        _reported_interlaced(monkeypatch, step_word(w), True)
        assert re.fullmatch(r"\+\+\+--\+--: Move- sequence \d+ survived", _exhaustive_detail())


def _necklaces(n):
    """Binary necklaces of n beads, by Burnside's lemma over the n rotations."""
    return sum(2 ** math.gcd(k, n) for k in range(n)) // n


class TestRotationClasses:
    """The exhaustive suite judges one word per rotation class.  With sigma
    rotating a word by one letter, these are the obligations that make that
    sound, and the faults it must still catch."""

    def test_calculus_commutes_with_the_rotation(self):
        for n in range(2, 13):
            for plus in range(1, (1 << n) - 1):
                w, sw = Word(n, plus), Word(n, words._rotl(plus, 1, n))
                w2, sw2 = step_word(w), step_word(sw)
                assert sw2 == Word(n, words._rotl(w2.plus, 1, n)), w
                assert is_interlaced(sw) == is_interlaced(w), w
                # a span is read as the positions it covers: a span of the
                # whole ring starts at the first '+' of its word
                rules = {words._span_mask((s + 1) % n, length, n): rule
                         for (s, length), rule in zip(decompose(w), classify_transition(w, w2))}
                spans = [words._span_mask(*span, n) for span in decompose(sw)]
                assert set(spans) == set(rules), w
                assert dict(zip(spans, classify_transition(sw, sw2))) == rules, w

    def test_one_judged_word_per_class(self, monkeypatch):
        judged = []
        original = verify._word_checks

        def checks(w, memo, probes):
            judged.append(w)
            return original(w, memo, probes)

        monkeypatch.setattr(verify, "_word_checks", checks)
        res = verify.words_exhaustive_suite()
        assert res.checks == [("exhaustive_calculus", True, "8166 words <= n=12, max 5 rounds")]
        assert len(judged) == sum(_necklaces(n) - 2 for n in range(2, 13)) == 777

    def test_a_fault_at_the_seam_is_caught(self, monkeypatch):
        # the pair across the seam (n - 1, 0) flips only when it is the
        # word's one pair: a fault that no rotation of the word maps away
        original = words.step_word

        def step(w):
            inner = words._pairs(w) & ~(1 << (w.n - 1))
            return Word(w.n, w.plus ^ inner | words._rotl(inner, 1, w.n)) if inner else original(w)

        monkeypatch.setattr(words, "step_word", step)
        assert (_exhaustive_detail(max_n=6)
                == "-+-++ -> --+++: successors [0, 1, 3, 4] do not tile [0, 4]")

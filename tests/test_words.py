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


def _label(w, w2=None):
    """The labelled round w -> w2 (by default ``step_word(w)``), on fresh
    decompositions of both words."""
    w2 = step_word(w) if w2 is None else w2
    return words._label_transition(w, w2, decompose(w), decompose(w2))


def _rules(w):
    """Each span of w with the rule it runs, in span order."""
    return list(zip(decompose(w), _label(w)[0]))


def _successors(w):
    """Each span of w that survives the round, mapped to the span of
    ``decompose(step_word(w))`` it lands on."""
    _, preds_by_target = _label(w)
    spans, spans2 = decompose(w), decompose(step_word(w))
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
        # "++--" steps to "+-+-": its Expand cannot land on "++--" again
        message = "++-- -> ++--: successors [0, 1, 2, 3] do not tile [1, 2]"
        with pytest.raises(CalculusViolation, match=re.escape(message)):
            _label(W("++--"), W("++--"))


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
        # the carried spans must label every round exactly as a labelling
        # that decomposes both words from scratch
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
        # A walk steps a TrackedEvolution only from a word not yet
        # interlaced, so round-0 steps from the interlaced TARGET are
        # exactly the probes of TARGET.
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


def _relabel(monkeypatch, change):
    # what the judge reads of a round: change(ev, sid, rule, last) is the
    # rule reported for id sid, last being the rule it ran the round before
    original = TrackedEvolution.step

    def step(ev):
        last = ev.rules
        w2 = original(ev)
        ev.rules = {sid: change(ev, sid, rule, last.get(sid)) for sid, rule in ev.rules.items()}
        return w2

    monkeypatch.setattr(TrackedEvolution, "step", step)


def _dies_next(ev, sid):
    # whether the sequence that sid became disappears in the coming round
    nid = ev.successors.get(sid)
    return nid is not None and words._base_rule(ev.word, *ev.ids[nid]) == Rule.DISAPPEAR


def _late_death(monkeypatch):
    # every death reported one round late: the round before a Disappear
    # is reported as a Reduce
    _relabel(monkeypatch, lambda ev, sid, rule, last:
             Rule.REDUCE if _dies_next(ev, sid) else rule)


def _reducing_as_move_plus(monkeypatch):
    # a Disappear that ends a Reduce reported as Move+
    _relabel(monkeypatch, lambda ev, sid, rule, last:
             Rule.MOVE_PLUS if rule == Rule.DISAPPEAR and last == Rule.REDUCE else rule)


def _doomed_as_expand(monkeypatch):
    # every lineage reported to run Expand on the round it is gone
    _relabel(monkeypatch, lambda ev, sid, rule, last:
             Rule.EXPAND if sid not in ev.successors else rule)


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
    """Falsify what the suite reads of a round: its labels, its successors
    or a word's decomposition.  The exhaustive suite must reject it with
    that check's message.  Words of up to 7 letters run no Move+, Move- or
    Reduce, so the suite runs to 8."""

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
        # reduce in.  That round reported as a Reduce makes the death a
        # round late, and the walk from "+++--+--" is the first to see it.
        late = W("++-+--+-")
        _relabel(monkeypatch, lambda ev, sid, rule, last:
                 Rule.REDUCE if ev.word == late and _dies_next(ev, sid) else rule)
        detail = _exhaustive_detail()
        assert re.fullmatch(r"\+\+\+--\+--: sequence \d+ reduced from 2 in 2 rounds", detail), detail


_MOVES_SWAPPED = {Rule.MOVE_PLUS: Rule.MOVE_MINUS, Rule.MOVE_MINUS: Rule.MOVE_PLUS}


def _relabelled(old, new, length=None):
    # the base rule `old` labelled `new`, on spans of any length or of one
    return lambda span_length, rule: (
        new if rule == old and length in (None, span_length) else rule)


@pytest.mark.parametrize("relabel, geometry, expected", [
    (lambda length, rule: _MOVES_SWAPPED.get(rule, rule), {},
     "++- -> +-+: successors [0, 2] do not tile [0, 1]"),
    (_relabelled(Rule.EXPAND, Rule.MOVE_PLUS), {},
     "++-- -> +-+-: successors [0, 1] do not tile [0, 1, 2, 3]"),
    (_relabelled(Rule.MOVE_MINUS, Rule.EXPAND), {},
     "+-- -> -+-: successors [0, 1, 2] do not tile [1, 2]"),
    (_relabelled(Rule.REDUCE, Rule.EXPAND), {},
     "++--+-+- -> +-+--+-+: successors [0, 1, 2, 3, 4, 5, 6, 7] do not tile [0, 1, 2, 3]"),
    (_relabelled(Rule.REDUCE, Rule.DISAPPEAR, length=4), {},
     "++--+-+- -> +-+--+-+: sequence at [5, 6] has no predecessor"),
    (None, {Rule.MOVE_MINUS: (2, 0)},
     "+-- -> -+-: successors [0, 2] do not tile [1, 2]"),
    (None, {Rule.REDUCE: (0, -2)},
     "++--+-+- -> +-+--+-+: successors [4, 5] do not tile [5, 6]"),
    (_relabelled(Rule.REDUCE, Rule.MOVE_MINUS), {},
     "++--+-+- -> +-+--+-+: successors [0, 1, 2, 3, 5, 6, 7] do not tile [0, 1, 2, 3]"),
    (_relabelled(Rule.EXPAND, Rule.REDUCE), {},
     "++-- -> +-+-: sequence at [0, 1, 2, 3] has no predecessor"),
    (_relabelled(Rule.REDUCE, Rule.MERGE), {},
     "++--+-+-: sequence at [4, 5, 6, 7] has no Merge move"),
    (_relabelled(Rule.EXPAND, Rule.MERGE), {},
     "++--: sequence at [1, 2] has no Merge move"),
], ids=["moves-swapped", "expand-as-move-plus", "move-minus-as-expand", "reduce-as-expand",
        "reduce-4-as-disappear", "move-minus-jumps-2", "reduce-keeps-start",
        "reduce-as-move-minus", "expand-as-reduce", "reduce-as-merge", "expand-as-merge"])
def test_label_mutant_verdicts(monkeypatch, relabel, geometry, expected):
    """A mislabelled rule of one case of the calculus, or a rule's move
    misstated in `words._GEOMETRY`, is rejected with the message that names
    the first start word and check it breaks."""
    if relabel is not None:
        original = words._base_rule
        monkeypatch.setattr(words, "_base_rule", lambda w, start, length:
                            relabel(length, original(w, start, length)))
    for rule, move in geometry.items():
        monkeypatch.setitem(words._GEOMETRY, rule, move)
    assert _exhaustive_detail() == expected


def _reported_interlaced(monkeypatch, word, interlaced):
    original = words.is_interlaced
    monkeypatch.setattr(words, "is_interlaced",
                        lambda w: interlaced if w == word else original(w))


class TestEachWalkCheckFires:
    """The checks of a start word's walk as a whole, each fed one
    falsified step or interlacing test."""

    def test_cycling_step_never_interlaces(self, monkeypatch):
        # "+-" steps to "-+" and back, and no word is reported interlaced
        monkeypatch.setattr(words, "is_interlaced", lambda w: False)
        assert _exhaustive_detail() == "+- did not interlace within 2 rounds"

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
        assert Rule.MOVE_MINUS in _label(w)[0]
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
                         for (s, length), rule in zip(decompose(w), _label(w, w2)[0])}
                spans = [words._span_mask(*span, n) for span in decompose(sw)]
                assert set(spans) == set(rules), w
                assert dict(zip(spans, _label(sw, sw2)[0])) == rules, w

    def test_one_judged_word_per_class(self, monkeypatch):
        judged = []
        original = verify._word_checks

        def checks(w, probes):
            judged.append(w)
            return original(w, probes)

        monkeypatch.setattr(verify, "_word_checks", checks)
        res = verify.words_exhaustive_suite()
        assert res.checks == [("exhaustive_calculus", True, "8166 words <= n=12, max 5 rounds")]
        assert len(judged) == sum(_necklaces(n) - 2 for n in range(2, 13)) == 777

    def test_fourteen_letters(self):
        res = verify.words_exhaustive_suite(max_n=14)
        assert res.checks == [("exhaustive_calculus", True, "32738 words <= n=14, max 6 rounds")]

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

"""Cyclic orientation words and their rewrite calculus.

A word over {+1, -1} encodes the robot orientations at a round.  Stepping
the word flips every cyclically adjacent (+, -) pair (the meeting pairs,
which are automatically disjoint).  Maximal even alternating runs
"+-...+-" are *sequences*; between rounds each sequence follows one of
the rules Move+ / Move- / Expand / Reduce (plus Merge and Disappear),
determined by the letters around it.

A `Word` is its length n and the int bit mask ``plus`` of its '+'
positions (bit i is letter i).  Stepping, the meeting pairs, the
interlacing test and the decomposition are bit operations on that mask,
so a step costs no work per letter; letters appear only where a word is
built from them or printed.  A word's decomposition is the tuple of the
(start, length) spans of its sequences, and a labelled round is the list
of its sequences' rules, in span order.  `TrackedEvolution` follows
each sequence's identity from round to round; `verify.words_exhaustive_suite`
walks it forward from one word per rotation class, as the step commutes
with the cyclic shift.
"""

from __future__ import annotations

from enum import Enum

PLUS = 1
MINUS = -1

_VALUES = {"+": PLUS, "-": MINUS}


class CalculusViolation(AssertionError):
    """A word transition that the rewrite rules cannot explain."""


class Word:
    """n letters held as the mask ``plus`` of the '+' positions: bit i is
    set iff letter i is '+'.

    Building one checks n >= 2 and that ``plus`` has no bit at or above n,
    nothing per letter.  A word is a value: equal words have equal n and
    mask, and neither is reassigned after it is built.  A word steps only
    to words of its own length, so among those the mask alone names it,
    and it is the key of the exhaustive judge's per-length probe cache.
    """

    __slots__ = ("n", "plus")

    def __init__(self, n: int, plus: int):
        if n < 2:
            raise ValueError("a word needs at least 2 letters")
        if plus < 0 or plus >> n:
            raise ValueError(f"mask {plus:#b} has bits outside the {n} letters")
        self.n = n
        self.plus = plus

    @classmethod
    def from_letters(cls, letters) -> "Word":
        if not all(map((PLUS, MINUS).__contains__, letters)):
            raise ValueError("letters must be +1 or -1")
        return cls(len(letters), sum(1 << i for i, x in enumerate(letters) if x == PLUS))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        return cls.from_letters([_VALUES[c] for c in s])

    @property
    def n_plus(self) -> int:
        return self.plus.bit_count()

    @property
    def n_minus(self) -> int:
        return self.n - self.plus.bit_count()

    @property
    def n_bal(self) -> int:
        n_plus = self.plus.bit_count()
        return min(n_plus, self.n - n_plus)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.n == other.n and self.plus == other.plus

    def __hash__(self) -> int:
        return hash((self.n, self.plus))

    def __repr__(self) -> str:
        return f"Word.from_string({str(self)!r})"

    def __str__(self) -> str:
        return "".join("+" if self.plus >> i & 1 else "-" for i in range(self.n))


def _rotl(mask: int, k: int, n: int) -> int:
    """An n-bit mask rotated by 0 <= k <= n: bit i moves to bit (i + k) % n."""
    return (mask << k | mask >> (n - k)) & ((1 << n) - 1)


def _pairs(w: Word) -> int:
    """The mask of positions i with (w[i], w[i+1]) = (+, -), cyclically:
    the '+' bits whose right neighbour's bit is a '-'."""
    n, plus = w.n, w.plus
    return plus & _rotl(plus ^ ((1 << n) - 1), n - 1, n)


def meeting_pairs(w: Word) -> list[int]:
    """Positions i with (w[i], w[i+1]) = (+, -), cyclically.

    Such pairs are pairwise disjoint: a position cannot be the '-' of one
    pair and the '+' of another.
    """
    return _positions(_pairs(w), w.n)


def step_word(w: Word) -> Word:
    """One round: every meeting pair (+,-) flips to (-,+)."""
    pairs = _pairs(w)
    if not pairs:
        raise ValueError("A2 violated: word has a single orientation, no meetings possible")
    return Word(w.n, w.plus ^ pairs | _rotl(pairs, 1, w.n))


def is_interlaced(w: Word) -> bool:
    """Interlaced iff the meeting pairs already number n_bal.

    Uniform words are rejected: n_bal = 0 cannot arise under the
    protocol's assumptions.
    """
    pairs = _pairs(w)
    if not pairs:
        raise ValueError("A2 violated: uniform orientations have n_bal = 0")
    return pairs.bit_count() == w.n_bal


def _scan_origin(w: Word) -> int:
    # Start scanning just after an equal adjacent pair, which no alternating
    # run can cross; a fully alternating word has none, so start at its
    # first '+'.
    n, plus = w.n, w.plus
    equal = ((1 << n) - 1) ^ plus ^ _rotl(plus, 1, n)  # bit s: letters s - 1 and s are equal
    first = equal or plus
    return (first & -first).bit_length() - 1


def decompose(w: Word) -> tuple[tuple[int, int], ...]:
    """The (start, length) spans of w's maximal even alternating runs, in
    scan order; the positions outside them are w's leftover letters."""
    n = w.n
    origin = _scan_origin(w)
    # bit k of r is the letter at origin + k; bit k of alt says that
    # letters k and k + 1 of the window differ
    r = _rotl(w.plus, n - origin, n)
    alt = (r ^ r >> 1) & ((1 << (n - 1)) - 1)
    seqs: list[tuple[int, int]] = []
    k = 0
    while k < n:
        if r >> k & 1:
            # maximal alternating run starting with '+', capped at the
            # window: one letter plus the trailing ones of alt >> k; an odd
            # run drops its trailing '+', which is re-examined as a letter
            ones = alt >> k
            length = (ones ^ (ones + 1)).bit_length() & ~1
            if length >= 2:
                seqs.append(((origin + k) % n, length))
                k += length
                continue
        k += 1
    return tuple(seqs)


class Rule(str, Enum):
    """Formats as its value on every Python version (a str mixin's default
    format changed in 3.11 and again in 3.12)."""

    __str__ = str.__str__
    __format__ = str.__format__

    MOVE_PLUS = "Move+"
    MOVE_MINUS = "Move-"
    EXPAND = "Expand"
    REDUCE = "Reduce"
    MERGE = "Merge"
    DISAPPEAR = "Disappear"


def _span_mask(start: int, length: int, n: int) -> int:
    """The positions start, ..., start + length - 1 (mod n) as bits of an int."""
    return _rotl((1 << length) - 1, start, n)


def _positions(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


# each base rule's move of a span (start, length) to its successor
# (start + d_start, length + d_length), mod n; a Disappear leaves none
_GEOMETRY: dict[Rule, tuple[int, int] | None] = {
    Rule.MOVE_PLUS: (-1, 0),
    Rule.MOVE_MINUS: (1, 0),
    Rule.EXPAND: (-1, 2),
    Rule.REDUCE: (1, -2),
    Rule.DISAPPEAR: None,
}


def _base_rule(w: Word, start: int, length: int) -> Rule:
    """The rule of one sequence, ignoring merges, read from the letters
    around it."""
    if length == w.n:
        # the whole word is one interlaced cycle; it rotates left each round
        return Rule.MOVE_PLUS
    left_plus = w.plus >> ((start - 1) % w.n) & 1
    right_plus = w.plus >> ((start + length) % w.n) & 1
    if left_plus and right_plus:
        return Rule.MOVE_PLUS
    if not (left_plus or right_plus):
        return Rule.MOVE_MINUS
    if left_plus:
        return Rule.EXPAND
    # a '-' on the left, a '+' on the right
    return Rule.DISAPPEAR if length == 2 else Rule.REDUCE


def _successor_mask(w: Word, start: int, length: int, rule: Rule) -> int:
    """The positions the sequence at (start, length) covers after the
    round, as `_GEOMETRY` moves it for ``rule``: 0 if it leaves none."""
    if rule not in _GEOMETRY:
        raise CalculusViolation(
            f"{w}: sequence at {_positions(_span_mask(start, length, w.n), w.n)} "
            f"has no {rule} move")
    move = _GEOMETRY[rule]
    if move is None:
        return 0
    return _span_mask((start + move[0]) % w.n, length + move[1], w.n)


def _label_transition(
    w: Word, w_next: Word, spans: tuple[tuple[int, int], ...],
    next_spans: tuple[tuple[int, int], ...],
) -> tuple[list[Rule], list[list[int]]]:
    """The rule explaining w -> w_next of each sequence of w, given the
    sequence spans of w and w_next (their decompositions): ``rules[k]`` is
    the rule of ``spans[k]``, MERGE overriding the base rule when spans
    coalesce.

    Also returns, for each sequence of w_next in order, the indices of the
    sequences of w whose successors tile it.  Spans are compared as int
    bitmasks of their positions.  Raises CalculusViolation if the moved
    spans, merged where they abut, do not reproduce ``next_spans``.
    """
    n = w.n
    base = [_base_rule(w, *span) for span in spans]
    succ_masks = [_successor_mask(w, *span, rule) for span, rule in zip(spans, base)]

    # group predecessors onto the canonical spans of the next word
    merged = [False] * len(base)
    claimed = [False] * len(base)
    preds_by_target = []
    for span in next_spans:
        target = _span_mask(*span, n)
        preds = [k for k, ss in enumerate(succ_masks) if ss & target]
        if not preds:
            raise CalculusViolation(
                f"{w} -> {w_next}: sequence at {_positions(target, n)} has no predecessor"
            )
        union = 0
        for k in preds:
            union |= succ_masks[k]
        if union != target:
            raise CalculusViolation(
                f"{w} -> {w_next}: successors {_positions(union, n)} "
                f"do not tile {_positions(target, n)}"
            )
        for k in preds:
            if claimed[k]:
                raise CalculusViolation(f"{w} -> {w_next}: successor claimed twice")
            claimed[k] = True
            if len(preds) > 1:
                merged[k] = True
        preds_by_target.append(preds)
    for k, ss in enumerate(succ_masks):
        if ss and not claimed[k]:
            raise CalculusViolation(
                f"{w} -> {w_next}: successor {_positions(ss, n)} "
                f"of sequence {spans[k]} vanished"
            )

    rules = [Rule.MERGE if merged[k] else rule for k, rule in enumerate(base)]
    return rules, preds_by_target


class TrackedEvolution:
    """Step a word while tracking sequence identities across rounds.

    Merged groups keep the lowest member id.  Only the last step is kept:
    ``rules`` maps each id before it to the rule it ran, and
    ``successors`` each id that did not disappear to the id of the
    sequence it became.  Each round steps and decomposes the word once: the
    current word's spans carry over from the round that produced it.  A
    step raises, before it labels the round, if the sequences would grow
    in number; the message names the word the evolution started from.
    """

    def __init__(self, w: Word):
        self.start = w
        self.word = w
        self.round = 0
        self.spans = decompose(w)
        # ids are listed in the order of self.spans
        self.ids: dict[int, tuple[int, int]] = dict(enumerate(self.spans))
        self.rules: dict[int, Rule] = {}
        self.successors: dict[int, int] = {}

    def step(self) -> Word:
        w2 = step_word(self.word)
        spans2 = decompose(w2)
        if len(spans2) > len(self.spans):
            raise CalculusViolation(f"{self.start}: sequence count grew")
        rules, preds_by_target = _label_transition(self.word, w2, self.spans, spans2)
        sids = list(self.ids)
        # each target span keeps the lowest id among its predecessors
        targets = [min(sids[k] for k in preds) for preds in preds_by_target]

        self.word = w2
        self.spans = spans2
        self.round += 1
        self.ids = dict(zip(targets, spans2))
        self.rules = dict(zip(sids, rules))
        self.successors = {sids[k]: target
                           for target, preds in zip(targets, preds_by_target) for k in preds}
        return w2

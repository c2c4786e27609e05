"""Cyclic orientation words and their rewrite calculus.

A word over {+1, -1} encodes the robot orientations at a round.  Stepping
the word flips every cyclically adjacent (+, -) pair (the meeting pairs,
which are automatically disjoint).  Maximal even alternating runs
"+-...+-" are *sequences*; between rounds each sequence follows one of
the rules Move+ / Move- / Expand / Reduce (plus Merge and Disappear),
determined by the letters around it.  A transition's rules and successors
are a pure function of the word's letters, which is what lets
`verify.words_exhaustive_suite` judge each word once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

PLUS = 1
MINUS = -1

_CHARS = {PLUS: "+", MINUS: "-"}
_VALUES = {"+": PLUS, "-": MINUS}


class CalculusViolation(AssertionError):
    """A word transition that the rewrite rules cannot explain."""


@dataclass(frozen=True, slots=True)
class Word:
    """Letters plus their sizes n, n_plus, n_minus and n_bal, which are
    plain attributes computed once here: a word is read about ten times
    for each time one is built.  Equality and hashing use the letters
    alone."""

    letters: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)
    n_plus: int = field(init=False, repr=False, compare=False)
    n_minus: int = field(init=False, repr=False, compare=False)
    n_bal: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = self.letters
        if len(letters) < 2:
            raise ValueError("a word needs at least 2 letters")
        if not all(map((PLUS, MINUS).__contains__, letters)):
            raise ValueError("letters must be +1 or -1")
        n, n_plus = len(letters), letters.count(PLUS)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_minus", n - n_plus)
        object.__setattr__(self, "n_bal", min(n_plus, n - n_plus))

    @classmethod
    def from_string(cls, s: str) -> "Word":
        return cls(tuple(_VALUES[c] for c in s))

    def __str__(self) -> str:
        return "".join(_CHARS[x] for x in self.letters)


def meeting_pairs(w: Word) -> list[int]:
    """Positions i with (w[i], w[i+1]) = (+, -), cyclically.

    Such pairs are pairwise disjoint: a position cannot be the '-' of one
    pair and the '+' of another.
    """
    n = w.n
    return [i for i in range(n) if w.letters[i] == PLUS and w.letters[(i + 1) % n] == MINUS]


def step_word(w: Word) -> Word:
    """One round: every meeting pair (+,-) flips to (-,+)."""
    if w.n_bal == 0:
        raise ValueError("A2 violated: word has a single orientation, no meetings possible")
    out = list(w.letters)
    n = w.n
    for i in meeting_pairs(w):
        out[i] = MINUS
        out[(i + 1) % n] = PLUS
    return Word(tuple(out))


def is_interlaced(w: Word) -> tuple[bool, list[int]]:
    """Interlaced iff the meeting pairs already number n_bal.

    Returns the witness pair-start positions.  Uniform words are rejected:
    n_bal = 0 cannot arise under the protocol's assumptions.
    """
    if w.n_bal == 0:
        raise ValueError("A2 violated: uniform orientations have n_bal = 0")
    pairs = meeting_pairs(w)
    return len(pairs) == w.n_bal, pairs


@dataclass(frozen=True, slots=True)
class SequenceDecomposition:
    """Maximal even alternating runs (start, length) plus leftover letters."""

    n: int
    sequences: tuple[tuple[int, int], ...]
    letters: tuple[int, ...]


def _scan_origin(w: Word) -> int:
    # Start scanning just after an equal adjacent pair, which no alternating
    # run can cross; a fully alternating word has none, so start at its
    # first '+'.
    n = w.n
    for s in range(n):
        if w.letters[(s - 1) % n] == w.letters[s]:
            return s
    for s in range(n):
        if w.letters[s] == PLUS:
            return s
    raise AssertionError("unreachable: word has no '+' and no equal pair")


def decompose(w: Word) -> SequenceDecomposition:
    n = w.n
    origin = _scan_origin(w)
    seqs: list[tuple[int, int]] = []
    letters: list[int] = []
    k = 0
    while k < n:
        pos = (origin + k) % n
        if w.letters[pos] != PLUS:
            letters.append(pos)
            k += 1
            continue
        # maximal alternating run starting with '+', capped at the window
        run = 1
        while k + run < n:
            want = PLUS if run % 2 == 0 else MINUS
            if w.letters[(origin + k + run) % n] != want:
                break
            run += 1
        # odd runs drop their trailing '+', which is re-examined as a letter
        length = run - (run % 2)
        if length >= 2:
            seqs.append((pos, length))
            k += length
        else:
            letters.append(pos)
            k += 1
    return SequenceDecomposition(n=n, sequences=tuple(seqs), letters=tuple(letters))


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
    run = (1 << length) - 1
    return (run << start | run >> (n - start)) & ((1 << n) - 1)


def _positions(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def _base_rule(w: Word, start: int, length: int) -> tuple[Rule, tuple[int, int] | None]:
    """Rule and successor span for one sequence, ignoring merges."""
    n = w.n
    if length == n:
        # the whole word is one interlaced cycle; it rotates left each round
        return Rule.MOVE_PLUS, ((start - 1) % n, n)
    left = w.letters[(start - 1) % n]
    right = w.letters[(start + length) % n]
    if left == PLUS and right == PLUS:
        return Rule.MOVE_PLUS, ((start - 1) % n, length)
    if left == MINUS and right == MINUS:
        return Rule.MOVE_MINUS, ((start + 1) % n, length)
    if left == PLUS and right == MINUS:
        return Rule.EXPAND, ((start - 1) % n, length + 2)
    # left == MINUS, right == PLUS
    if length == 2:
        return Rule.DISAPPEAR, None
    return Rule.REDUCE, ((start + 1) % n, length - 2)


@dataclass(frozen=True)
class TransitionLabel:
    start: int
    length: int
    rule: Rule  # MERGE overrides the base rule when spans coalesce
    successor: tuple[int, int] | None


def classify_transition(w: Word, w_next: Word) -> list[TransitionLabel]:
    """Label every sequence of w with the rule explaining w -> w_next.

    Raises CalculusViolation if the labeled successors (after merging
    abutting spans) do not reproduce the canonical decomposition of
    w_next.
    """
    if step_word(w) != w_next:
        raise ValueError("w_next is not step_word(w)")
    return _label_transition(w, w_next, decompose(w).sequences,
                             decompose(w_next).sequences)[0]


def _label_transition(
    w: Word, w_next: Word, spans: tuple[tuple[int, int], ...],
    next_spans: tuple[tuple[int, int], ...],
) -> tuple[list[TransitionLabel], list[list[int]]]:
    """`classify_transition` on given sequence spans of w and w_next (the
    ``sequences`` of their decompositions).

    Also returns, for each sequence of w_next in order, the indices of the
    sequences of w whose successors tile it.  Spans are compared as int
    bitmasks of their positions.
    """
    n = w.n
    base = [(span, *_base_rule(w, *span)) for span in spans]
    succ_masks = [_span_mask(*succ, n) if succ else 0 for _, _, succ in base]

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
                f"of sequence {base[k][0]} vanished"
            )

    labels = [TransitionLabel(start=start, length=length,
                              rule=Rule.MERGE if merged[k] else rule, successor=succ)
              for k, ((start, length), rule, succ) in enumerate(base)]
    return labels, preds_by_target


class TrackedEvolution:
    """Step a word while tracking sequence identities across rounds.

    Merged groups keep the lowest member id.  Only the last step is kept:
    ``lengths`` maps each id to its length after it (0 for an id that
    disappeared or merged away; the start lengths before any step),
    and ``rules`` maps each id before it to the rule it ran.  Each round
    steps and decomposes the word once: the current word's decomposition
    carries over from the round that produced it.
    """

    def __init__(self, w: Word):
        self.word = w
        self.round = 0
        self.decomposition = decompose(w)
        # ids are listed in the order of self.decomposition.sequences
        self.ids: dict[int, tuple[int, int]] = dict(enumerate(self.decomposition.sequences))
        self.lengths: dict[int, int] = {k: span[1] for k, span in self.ids.items()}
        self.rules: dict[int, Rule] = {}

    def step(self) -> Word:
        w2 = step_word(self.word)
        dec2 = decompose(w2)
        labels, preds_by_target = _label_transition(
            self.word, w2, self.decomposition.sequences, dec2.sequences)
        sids = list(self.ids)

        new_ids: dict[int, tuple[int, int]] = {}
        lengths: dict[int, int] = {}
        for span, preds in zip(dec2.sequences, preds_by_target):
            members = [sids[k] for k in preds]
            survivor = min(members)
            new_ids[survivor] = span
            lengths[survivor] = span[1]
            for k in members:
                if k != survivor:
                    lengths[k] = 0
        for sid, lab in zip(sids, labels):
            if lab.successor is None:
                lengths[sid] = 0

        self.word = w2
        self.decomposition = dec2
        self.round += 1
        self.ids = new_ids
        self.lengths = lengths
        self.rules = {sid: lab.rule for sid, lab in zip(sids, labels)}
        return w2


def evolve_until_interlaced(w: Word):
    """Iterate rounds until the word is interlaced.

    Returns (rounds_taken, history) where history[k] maps sequence id to
    its length at round k (0 on the round it disappears).  Raises
    CalculusViolation if interlacing takes n rounds or more.
    """
    ev = TrackedEvolution(w)
    history = [ev.lengths]
    while not is_interlaced(ev.word)[0]:
        if ev.round >= w.n:
            raise CalculusViolation(f"word {w} not interlaced after {ev.round} rounds")
        ev.step()
        history.append(ev.lengths)
    return ev.round, history

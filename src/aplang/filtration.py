"""Filtering words and regular languages along arithmetic progressions.

filter_word keeps the letters at indices b, a+b, 2a+b, ...  The automaton
construction lifts this to a regular language: states are boolean row
vectors over the source DFA's state set, stepped by cached powers of the
transition-union matrix, so any (a, b), however large, costs the same.
A word-level oracle recomputes filtered languages by direct state-set
simulation, sharing nothing with the matrix construction; walking a built
automaton in lockstep with that simulation finds the least word on which
the two disagree without listing words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence, TypeVar

from .automata import Dfa, Word
from .boolmat import incidence_matrices, power_orbit

W = TypeVar("W", bound=Sequence)


@dataclass(frozen=True)
class ArithFilter:
    """The index progression step*i + offset, strictly increasing."""

    step: int
    offset: int

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("step must be at least 1")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    def __str__(self) -> str:
        return f"(a={self.step}, b={self.offset})"


class FilterFamily(Enum):
    """The four admissible (step, offset) regions."""

    WEAK = "weak"          # offset = 0
    ORDINARY = "ordinary"  # 0 <= offset < step
    STRONG = "strong"      # any step >= 1, offset >= 0
    SHIFT = "shift"        # step = 1

    def admits(self, f: ArithFilter) -> bool:
        if self is FilterFamily.WEAK:
            return f.offset == 0
        if self is FilterFamily.ORDINARY:
            return f.offset < f.step
        if self is FilterFamily.SHIFT:
            return f.step == 1
        return True

    def window_pairs(self, step_max: int, offset_bound: int) -> Iterator[ArithFilter]:
        """Family members with step <= step_max and offset < offset_bound,
        in (step, offset) lexicographic order."""
        for a in range(1, step_max + 1):
            if self is FilterFamily.SHIFT and a != 1:
                break
            for b in range(offset_bound):
                f = ArithFilter(a, b)
                if self.admits(f):
                    yield f


def filter_word(w: W, f: ArithFilter) -> W:
    """The subsequence of w at indices offset, step+offset, ... that fall
    inside the word; empty when the offset is already past the end."""
    return w[f.offset::f.step]


def signature(d: Dfa, f: ArithFilter) -> tuple[int, int, int, bool]:
    """Everything the filtered-language automaton depends on, as orbit
    positions and bits of the transition union M.

    The tuple holds the position of the stride M^(step-1) in the power
    orbit; the fold, the number of leading powers I, M, ..., whose OR
    lets up to step-1 trailing free letters reach acceptance (at most
    len(powers), since higher powers repeat listed ones); the start
    state's row of M^offset; and whether the empty word is filtered in.
    build_filtered_dfa reads nothing else, so equal signatures give equal
    filtered languages.
    """
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    shortest = d.shortest_word_length()
    return (
        orbit.reduce(f.step - 1),
        min(f.step, len(orbit.powers)),
        orbit.power(f.offset).rows[d.start],
        shortest is not None and shortest <= f.offset,
    )


def build_filtered_dfa(d: Dfa, f: ArithFilter) -> Dfa:
    """Automaton for the filtered language, built lazily over the boolean
    row vectors (int bit sets of source states) reachable from a dedicated
    start state.

    From the start state, symbol c leads to start_row * M_c; from a vector
    state v it leads to v * M^(step-1) * M_c.  A vector state accepts iff
    v meets near, the source states from which fewer than fold free
    letters reach acceptance, i.e. some number of trailing free letters
    below the step reaches an accepting source state; the start state
    accepts iff the empty word is filtered in.
    """
    mats, m = incidence_matrices(d)
    powers = power_orbit(m).powers
    stride, fold, start_row, eps_in = signature(d, f)
    final = sum(1 << q for q in d.accepting)
    near = sum(
        1 << q for q in range(d.size) if any(p.rows[q] & final for p in powers[:fold])
    )
    # fold the stride into per-symbol matrices so each transition is one product
    step_syms = [powers[stride] @ mc for mc in mats]

    index: dict[int, int] = {}
    vectors: list[int] = []

    def state_of(bits: int) -> int:
        if bits not in index:
            index[bits] = len(vectors) + 1
            vectors.append(bits)
        return index[bits]

    start_targets = tuple(state_of(mc.rows_or(start_row)) for mc in mats)
    rows: list[tuple[int, ...]] = [start_targets]
    i = 0
    while i < len(vectors):
        v = vectors[i]
        rows.append(tuple(state_of(ms.rows_or(v)) for ms in step_syms))
        i += 1

    size = 1 + len(vectors)
    if size > (1 << d.size) + 1:
        raise RuntimeError(f"{size} states exceed the subset bound 2^{d.size} + 1")
    accepting = {0} if eps_in else set()
    accepting.update(idx + 1 for idx, bits in enumerate(vectors) if bits & near)
    return Dfa(d.alphabet, size, 0, frozenset(accepting), tuple(rows))


class _SourceWalk:
    """The source DFA walked with concrete state sets, the shared core of
    the word-level oracles; it knows nothing of the matrix construction.

    A node stands for every filtered word that leads to it: None for the
    empty word, otherwise the set of source states the unfiltered sources
    of a word can end in, right after its last kept letter.  The empty
    word's sources are all reached by the offset prefix of free letters;
    a kept letter c follows the prefix (from None) or step-1 free letters
    (from a set) and then reads c.  A set accepts iff fewer than step
    trailing free letters reach an accepting state; None accepts iff some
    accepted source fits inside the offset.
    """

    def __init__(self, d: Dfa, f: ArithFilter) -> None:
        self._delta = d.delta
        self._final = d.accepting
        self._step = f.step
        self._free: dict[frozenset[int], frozenset[int]] = {}
        self._kept: dict[tuple[Optional[frozenset[int]], int], frozenset[int]] = {}
        self._accepts: dict[frozenset[int], bool] = {}
        current = frozenset((d.start,))
        self._eps = bool(current & self._final)
        for _ in range(f.offset):
            current = self._free_letter(current)
            self._eps = self._eps or bool(current & self._final)
        self._entry = current

    def _free_letter(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._free.get(states)
        if cached is None:
            cached = frozenset(t for q in states for t in self._delta[q])
            self._free[states] = cached
        return cached

    def step(self, node: Optional[frozenset[int]], c: int) -> frozenset[int]:
        """The node reached from node by the kept letter c."""
        key = (node, c)
        cached = self._kept.get(key)
        if cached is None:
            if node is None:
                gap = self._entry
            else:
                gap = node
                for _ in range(self._step - 1):
                    gap = self._free_letter(gap)
            cached = frozenset(self._delta[q][c] for q in gap)
            self._kept[key] = cached
        return cached

    def accepts(self, node: Optional[frozenset[int]]) -> bool:
        if node is None:
            return self._eps
        cached = self._accepts.get(node)
        if cached is None:
            states = node
            for _ in range(self._step - 1):
                if states & self._final:
                    break
                states = self._free_letter(states)
            cached = bool(states & self._final)
            self._accepts[node] = cached
        return cached


def filtered_language_oracle(d: Dfa, f: ArithFilter, max_len: int) -> set[Word]:
    """Filtered words of length <= max_len, recomputed independently of the
    matrix construction.

    Equivalent to filtering every accepted source word of length up to
    step*max_len + offset: the oracle walks the source DFA directly with
    concrete state sets, treating unkept positions as free letters, and
    admits the empty word iff some accepted source fits inside the offset.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    walk = _SourceWalk(d, f)
    symbols = range(len(d.alphabet))
    out: set[Word] = {()} if walk.accepts(None) else set()
    level: dict[Word, Optional[frozenset[int]]] = {(): None}
    for _ in range(max_len):
        level = {w + (c,): walk.step(node, c) for w, node in level.items() for c in symbols}
        out.update(w for w, node in level.items() if walk.accepts(node))
    return out


def first_disagreement(d: Dfa, f: ArithFilter, dfa: Dfa, max_len: int) -> Optional[Word]:
    """The tuple-least word of length <= max_len that dfa and the filtered
    language of d disagree on, or None if they agree on all of them; the
    same answer as sorted(set(dfa.enumerate_accepted(max_len)) ^
    filtered_language_oracle(d, f, max_len))[0], without listing words.

    dfa is walked in lockstep with the oracle's source walk, each
    (dfa state, source node) pair once, breadth first to depth max_len.
    A backward search from the pairs whose acceptance differs gives each
    pair's distance to the nearest disagreement, and the witness is read
    off greedily: stop at a disagreeing pair, else take the least letter
    whose pair still has a disagreement within the remaining length.  The
    cost is bounded by the reachable pairs, not by the number of words.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    if dfa.alphabet != d.alphabet:
        raise ValueError("alphabet mismatch")
    walk = _SourceWalk(d, f)
    symbols = range(len(d.alphabet))
    start = (dfa.start, None)
    succ: dict[tuple, tuple[tuple, ...]] = {}
    preds: dict[tuple, list[tuple]] = {}
    seen = {start}
    layer = [start]
    for _ in range(max_len):
        if not layer:
            break
        nxt = []
        for pair in layer:
            q, node = pair
            succ[pair] = tuple((dfa.delta[q][c], walk.step(node, c)) for c in symbols)
            for t in succ[pair]:
                preds.setdefault(t, []).append(pair)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        layer = nxt

    frontier = [p for p in seen if (p[0] in dfa.accepting) != walk.accepts(p[1])]
    dist = dict.fromkeys(frontier, 0)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for t in frontier:
            for pair in preds.get(t, ()):
                if pair not in dist:
                    dist[pair] = depth
                    nxt.append(pair)
        frontier = nxt

    if dist.get(start, max_len + 1) > max_len:
        return None
    word: list[int] = []
    pair = start
    while dist[pair]:
        budget = max_len - len(word) - 1
        c = next(c for c, t in enumerate(succ[pair]) if dist.get(t, budget + 1) <= budget)
        word.append(c)
        pair = succ[pair][c]
    return tuple(word)


@dataclass(frozen=True)
class FiltrationAtlas:
    """All distinct filtered languages of one family, as canonical DFAs
    keyed by the first (step, offset) pair that produced each."""

    family: FilterFamily
    entries: tuple[tuple[ArithFilter, Dfa], ...]
    step_window: int
    offset_window: int

    def __len__(self) -> int:
        return len(self.entries)

    def canonical_forms(self) -> frozenset[Dfa]:
        return frozenset(dfa for _, dfa in self.entries)


def enumeration_window(d: Dfa) -> tuple[int, int]:
    """Window (step_max, offset_bound) that exhibits every filtered-language
    signature of d in every family.

    Let M's orbit have index i and period p, D = i + p = len(powers), and
    lmin the shortest accepted length (0 for the empty language).

    - Step half (stride position, fold): for a > D the fold is D and
      reduce(a-1) = i + (a-1-i) mod p, so it repeats with period p in a,
      and every step shares it with one in [1, D + p].
    - Offset half (start row, empty-word bit): for b >= max(i, lmin) the
      start row e_start * M^b repeats with period p in b and the bit is
      constant, so every offset b shares it with a reduced offset
      b' < offset_bound = max(i, lmin) + p.
    - Weak, shift and strong pairs are therefore all covered once
      step_max >= D + p, which holds as D <= offset_bound.
    - Ordinary pairs (b < a): if a <= D then b < D <= offset_bound and the
      pair is in the window already.  Otherwise the interval
      (max(D, b'), max(D, b') + p] holds a step a' congruent to a mod p:
      a' > D gives it the step half of a, a' > b' keeps (a', b')
      ordinary, and a' <= offset_bound + p since D <= offset_bound and
      b' < offset_bound.

    Hence step_max = offset_bound + p.
    """
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    shortest = d.shortest_word_length()
    lmin = 0 if shortest is None else shortest
    offset_bound = max(orbit.index, lmin) + orbit.period
    return offset_bound + orbit.period, offset_bound


def enumerate_distinct_filtrations(d: Dfa, family: FilterFamily) -> FiltrationAtlas:
    """Build, minimize, and deduplicate the filtered language of every
    family member inside the enumeration window.  A pair whose signature
    was already seen is skipped: equal signatures give equal languages,
    so the entries and their first-producing pairs do not change."""
    step_max, offset_bound = enumeration_window(d)
    signatures: set[tuple[int, int, int, bool]] = set()
    seen: set[Dfa] = set()
    entries: list[tuple[ArithFilter, Dfa]] = []
    for f in family.window_pairs(step_max, offset_bound):
        sig = signature(d, f)
        if sig in signatures:
            continue
        signatures.add(sig)
        canon = build_filtered_dfa(d, f).minimized()
        if canon not in seen:
            seen.add(canon)
            entries.append((f, canon))
    return FiltrationAtlas(family, tuple(entries), step_max, offset_bound)

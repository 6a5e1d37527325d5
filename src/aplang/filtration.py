"""Filtering words and regular languages along arithmetic progressions.

filter_word keeps the letters at indices b, a+b, 2a+b, ...  The automaton
construction lifts this to a regular language: states are boolean row
vectors over the states of the source's minimal DFA, stepped by cached
powers of the transition-union matrix, so any (a, b), however large,
costs the same.  A word-level oracle recomputes filtered languages by
direct state-set simulation of the source as given, sharing nothing
with the matrix construction, not even the minimization; walking a built
automaton in lockstep with that simulation to its fixpoint finds the
shortlex-least word on which the two disagree, at any length, without
listing words.
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
        return f.offset in self.offsets(f.step, f.offset + 1)

    def offsets(self, step: int, offset_bound: int) -> range:
        """The offsets below offset_bound that the family admits with step."""
        if self is FilterFamily.WEAK:
            return range(min(1, offset_bound))
        if self is FilterFamily.ORDINARY:
            return range(min(step, offset_bound))
        if self is FilterFamily.SHIFT and step != 1:
            return range(0)
        return range(offset_bound)

    def window_pairs(self, step_max: int, offset_bound: int) -> Iterator[ArithFilter]:
        """Family members with step <= step_max and offset < offset_bound,
        in (step, offset) lexicographic order."""
        for a in range(1, step_max + 1):
            for b in self.offsets(a, offset_bound):
                yield ArithFilter(a, b)


def filter_word(w: W, f: ArithFilter) -> W:
    """The subsequence of w at indices offset, step+offset, ... that fall
    inside the word; empty when the offset is already past the end."""
    return w[f.offset::f.step]


class FilteredAutomata:
    """The automata of every filtered language of one source DFA, built
    over boolean row vectors (int bit sets of source states) and stepped
    by the power orbit of the transition union M.

    A filter's automaton depends on two halves of it.  The step half,
    (position of the stride M^(step-1) in the orbit, fold), depends on the
    step alone: the fold is the number of leading powers I, M, ..., whose
    OR lets up to step-1 trailing free letters reach acceptance (at most
    len(powers), since higher powers repeat listed ones).  The offset
    half, (the start state's row of M^offset, whether the empty word is
    filtered in), depends on the offset alone.  The builder reads nothing
    else, so filters with equal halves have equal filtered languages.

    The filtered language depends on L(d) alone, so everything is built
    on d's minimal DFA (the source).  If M^(i+p) = M^i in d, the same
    holds in any quotient of d, so the source's orbit index is at most i
    and its period divides p: no source state, orbit power or half is
    made by unreachable or equivalent states of d.
    """

    def __init__(self, d: Dfa) -> None:
        self.source = d = d.minimized()
        self.mats, m = incidence_matrices(d)
        self.orbit = power_orbit(m)
        self.shortest = d.shortest_word_length()
        final = sum(1 << q for q in d.accepting)
        # near[fold]: the states from which fewer than fold free letters reach acceptance
        self.near = [0]
        for p in self.orbit.powers:
            reach = sum(1 << q for q, row in enumerate(p.rows) if row & final)
            self.near.append(self.near[-1] | reach)
        # _first[r]: a start node's targets r * M_c, shared by every step half
        self._first: dict[int, tuple[int, ...]] = {}

    def step_half(self, step: int) -> tuple[int, int]:
        return self.orbit.reduce(step - 1), min(step, len(self.orbit.powers))

    def offset_half(self, offset: int) -> tuple[int, bool]:
        row = self.orbit.power(offset).rows[self.source.start]
        return row, self.shortest is not None and self.shortest <= offset

    def build(
        self, step_half: tuple[int, int], offset_halves: Sequence[tuple[int, bool]]
    ) -> Dfa:
        """One automaton for a step half, built lazily over the vectors
        reachable from a start node per offset half: node i is the start
        of offset_halves[i], and node 0 is the automaton's start.

        From a start node with row r, symbol c leads to r * M_c; from a
        vector state v it leads to v * M^(step-1) * M_c.  A vector state
        accepts iff v meets near[fold], i.e. some number of trailing free
        letters below the step reaches an accepting source state; a start
        node accepts iff its empty-word bit is set.
        """
        stride, fold = step_half
        # fold the stride into per-symbol matrices so each transition is one product
        step_syms = [self.orbit.powers[stride] @ mc for mc in self.mats]
        starts = len(offset_halves)
        index: dict[int, int] = {}
        vectors: list[int] = []

        def state_of(bits: int) -> int:
            if bits not in index:
                index[bits] = starts + len(vectors)
                vectors.append(bits)
            return index[bits]

        rows = []
        for row, _ in offset_halves:
            if row not in self._first:
                self._first[row] = tuple(mc.rows_or(row) for mc in self.mats)
            rows.append(tuple(state_of(bits) for bits in self._first[row]))
        i = 0
        while i < len(vectors):
            v = vectors[i]
            rows.append(tuple(state_of(ms.rows_or(v)) for ms in step_syms))
            i += 1

        # every vector is a non-empty set, as d is complete
        n = self.source.size
        if len(vectors) > (1 << n) - 1:
            raise RuntimeError(f"{len(vectors)} vector states exceed the subset bound 2^{n} - 1")
        near = self.near[fold]
        accepting = {i for i, (_, eps_in) in enumerate(offset_halves) if eps_in}
        accepting.update(starts + i for i, bits in enumerate(vectors) if bits & near)
        return Dfa(self.source.alphabet, len(rows), 0, frozenset(accepting), tuple(rows))


def build_filtered_dfa(d: Dfa, f: ArithFilter) -> Dfa:
    """Automaton for the filtered language: FilteredAutomata's automaton
    with the one start node of f's offset half."""
    automata = FilteredAutomata(d)
    return automata.build(automata.step_half(f.step), [automata.offset_half(f.offset)])


_Node = tuple[frozenset[int], int]


class _SourceWalk:
    """The source DFA walked with concrete state sets for one step, the
    shared core of the word-level oracles; it knows nothing of the matrix
    construction.

    A node (states, gap) stands for every filtered word that leads to it:
    states is the set of source states the word's unfiltered sources can
    end in, and gap the number of free letters before the next kept
    letter.  An offset is only a longer first gap, so the empty word
    under offset b is the node ({start}, b).  A kept letter c follows gap
    free letters, reads c and leaves a gap of step-1.  A node accepts iff
    the states after some 0..gap free letters meet the accepting set; for
    the empty word under b, iff some accepted source fits inside b.  Free
    letters are cached per state set, shared by every node and offset.
    """

    def __init__(self, d: Dfa, step: int) -> None:
        self._delta = d.delta
        self._final = d.accepting
        self._step = step
        self._free: dict[frozenset[int], frozenset[int]] = {}

    def _free_letter(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._free.get(states)
        if cached is None:
            cached = frozenset(t for q in states for t in self._delta[q])
            self._free[states] = cached
        return cached

    def step(self, node: _Node, c: int) -> _Node:
        """The node reached from node by the kept letter c."""
        states, gap = node
        for _ in range(gap):
            states = self._free_letter(states)
        return frozenset(self._delta[q][c] for q in states), self._step - 1

    def accepts(self, node: _Node) -> bool:
        states, gap = node
        for _ in range(gap):
            if states & self._final:
                return True
            states = self._free_letter(states)
        return bool(states & self._final)


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
    walk = _SourceWalk(d, f.step)
    symbols = range(len(d.alphabet))
    # level[node]: the words of the current length that lead to node
    level: dict[_Node, list[Word]] = {(frozenset((d.start,)), f.offset): [()]}
    out: set[Word] = set()
    for length in range(max_len + 1):
        if length:
            nxt: dict[_Node, list[Word]] = {}
            for node, words in level.items():
                for c in symbols:
                    nxt.setdefault(walk.step(node, c), []).extend(w + (c,) for w in words)
            level = nxt
        out.update(w for node, words in level.items() if walk.accepts(node) for w in words)
    return out


def first_disagreements(
    d: Dfa, step: int, offsets: Sequence[int], dfa: Dfa
) -> list[Optional[Word]]:
    """For each offsets[i], the shortlex-least word (shortest, then least)
    that dfa started at node i and the filtered language of d by (step,
    offsets[i]) disagree on, or None if the two languages are equal.  Node
    i is the start of offsets[i], as in FilteredAutomata.build; dfa.start
    is not read.

    dfa is walked in lockstep with the oracle's source walk, from every
    start pair (i, ({d.start}, offsets[i])) at once, each (dfa state,
    source node) pair once, until no new pair turns up.  Both sides are
    finite, as a source node's gap is at most max(step-1, offset), so the
    walk closes and agreement on the pairs it reached is agreement on
    every word.  A start node with offset step-1 is the node a kept letter
    leaves with the same states; both stand for the same words, so their
    pairs merge soundly.  One backward search from the pairs whose
    acceptance differs gives each pair's distance to the nearest
    disagreement, for every start alike, and each start's witness is read
    off greedily: take the least letter whose pair is one step nearer.
    The cost is bounded by the reachable pairs, not by the number of words.
    """
    if step < 1 or min(offsets, default=0) < 0:
        raise ValueError("step must be at least 1 and offsets non-negative")
    if dfa.alphabet != d.alphabet:
        raise ValueError("alphabet mismatch")
    if len(offsets) > dfa.size:
        raise ValueError(f"{len(offsets)} offsets but only {dfa.size} start nodes")
    walk = _SourceWalk(d, step)
    symbols = range(len(d.alphabet))
    starts = [(i, (frozenset((d.start,)), b)) for i, b in enumerate(offsets)]
    succ: dict[tuple, tuple[tuple, ...]] = {}
    preds: dict[tuple, list[tuple]] = {}
    todo = list(starts)
    while todo:
        pair = todo.pop()
        if pair in succ:
            continue
        q, node = pair
        succ[pair] = tuple((dfa.delta[q][c], walk.step(node, c)) for c in symbols)
        for t in succ[pair]:
            preds.setdefault(t, []).append(pair)
            todo.append(t)

    frontier = [p for p in succ if (p[0] in dfa.accepting) != walk.accepts(p[1])]
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

    witnesses: list[Optional[Word]] = []
    for pair in starts:
        if pair not in dist:
            witnesses.append(None)
            continue
        word: list[int] = []
        while dist[pair]:
            nearer = dist[pair] - 1
            c = next(c for c, t in enumerate(succ[pair]) if dist.get(t) == nearer)
            word.append(c)
            pair = succ[pair][c]
        witnesses.append(tuple(word))
    return witnesses


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
    """Window (step_max, offset_bound) that exhibits every combination of
    step and offset halves, read off d's own orbit, that a family member
    of d has, in every family.  A quotient of d has an index no larger and
    a period dividing d's, so d's window also covers the halves of its
    minimal DFA, which FilteredAutomata builds on.

    Let M's orbit have index i and period p, D = i + p = len(powers), and
    lmin the shortest accepted length (0 for the empty language).

    - Step half (stride position, fold): for a >= D the fold is
      min(a, D) = D and a-1 >= i, so reduce(a-1) = i + (a-1-i) mod p; the
      half repeats with period p from a = D on, and every step shares it
      with one in [1, D + p - 1].
    - Offset half (start row, empty-word bit): for b >= max(i, lmin) the
      start row e_start * M^b repeats with period p in b and the bit is
      constant, so every offset b shares it with a reduced offset
      b' < offset_bound = max(i, lmin) + p.
    - Weak, shift and strong pairs are therefore all covered once
      step_max >= D + p - 1, which holds as D <= offset_bound.
    - Ordinary pairs (b < a): a pair with a <= offset_bound + p - 1 and
      b < offset_bound is in the window already.  Otherwise a >= D, as
      a > b >= offset_bound >= D or a >= offset_bound + p > D.  Then the
      interval [max(D, b'+1), max(D, b'+1) + p - 1] holds a step a'
      congruent to a mod p: a' >= D gives it the step half of a, a' > b'
      keeps (a', b') ordinary, and a' <= offset_bound + p - 1 since
      D <= offset_bound and b' + 1 <= offset_bound.

    Hence step_max = offset_bound + p - 1.
    """
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    shortest = d.shortest_word_length()
    lmin = 0 if shortest is None else shortest
    offset_bound = max(orbit.index, lmin) + orbit.period
    return offset_bound + orbit.period - 1, offset_bound


def enumerate_distinct_filtrations(d: Dfa, family: FilterFamily) -> FiltrationAtlas:
    """The distinct filtered languages of every family member inside the
    enumeration window, each keyed by its lexicographically first pair.

    Each distinct step half gets one automaton, with a start node per
    offset half its family members need.  One Moore refinement over it
    gives every node's language class, and each start class's canonical
    DFA is read off once.  A last pass over the window's (step, offset)
    pairs in lexicographic order looks up each pair's language and keeps
    the first pair per language, stopping once every language has one.
    """
    automata = FilteredAutomata(d)
    step_max, offset_bound = enumeration_window(automata.source)
    offset_ids: dict[tuple[int, bool], int] = {}
    offset_id = [
        offset_ids.setdefault(automata.offset_half(b), len(offset_ids))
        for b in range(offset_bound)
    ]
    offset_halves = list(offset_ids)
    step_halves = {
        a: automata.step_half(a)
        for a in range(1, step_max + 1)
        if family.offsets(a, offset_bound)
    }
    # the offset half ids each step half's family members need, in first-use order
    needed: dict[tuple[int, int], dict[int, None]] = {}
    for a, half in step_halves.items():
        wanted = needed.setdefault(half, {})
        wanted.update(dict.fromkeys(offset_id[b] for b in family.offsets(a, offset_bound)))

    forms: dict[Dfa, int] = {}
    # language[step half][offset half id]: the id of the pair's language
    language: dict[tuple[int, int], dict[int, int]] = {}
    for half, wanted in needed.items():
        graph = automata.build(half, [offset_halves[o] for o in wanted])
        classes = graph.language_classes(range(graph.size))
        by_class: dict[int, int] = {}
        ids = language[half] = {}
        for node, o in enumerate(wanted):
            c = classes[node]
            if c not in by_class:
                by_class[c] = forms.setdefault(graph.canonical_from(classes, node), len(forms))
            ids[o] = by_class[c]

    first: dict[int, tuple[int, int]] = {}
    for a, half in step_halves.items():
        ids = language[half]
        for b in family.offsets(a, offset_bound):
            lang = ids[offset_id[b]]
            if lang not in first:
                first[lang] = (a, b)
        if len(first) == len(forms):
            break
    canon = list(forms)
    entries = tuple((ArithFilter(a, b), canon[lang]) for lang, (a, b) in first.items())
    return FiltrationAtlas(family, entries, step_max, offset_bound)

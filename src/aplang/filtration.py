"""Filtering words and regular languages along arithmetic progressions.

filter_word keeps the letters at indices b, a+b, 2a+b, ...  The automaton
construction lifts this to a regular language: states are boolean row
vectors over the source DFA's state set, stepped by cached powers of the
transition-union matrix, so any (a, b), however large, costs the same.
A word-level oracle recomputes filtered languages by direct state-set
simulation, sharing nothing with the matrix construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, TypeVar

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
    k = len(d.alphabet)
    delta = d.delta
    final = d.accepting

    free_memo: dict[frozenset[int], frozenset[int]] = {}

    def free(states: frozenset[int]) -> frozenset[int]:
        cached = free_memo.get(states)
        if cached is None:
            nxt: set[int] = set()
            for q in states:
                nxt.update(delta[q])
            cached = frozenset(nxt)
            free_memo[states] = cached
        return cached

    kept_memo: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def kept(states: frozenset[int], c: int) -> frozenset[int]:
        key = (states, c)
        cached = kept_memo.get(key)
        if cached is None:
            cached = frozenset(delta[q][c] for q in states)
            kept_memo[key] = cached
        return cached

    out: set[Word] = set()
    current = frozenset((d.start,))
    eps = False
    for i in range(f.offset + 1):
        if current & final:
            eps = True
        if i < f.offset:
            current = free(current)
    if eps:
        out.add(())

    def can_accept(states: frozenset[int]) -> bool:
        s = states
        for j in range(f.step):
            if s & final:
                return True
            if j < f.step - 1:
                s = free(s)
        return False

    level: dict[Word, frozenset[int]] = {}
    for c in range(k):
        t = kept(current, c)
        if t:
            level[(c,)] = t
    for length in range(1, max_len + 1):
        for w, states in level.items():
            if can_accept(states):
                out.add(w)
        if length == max_len:
            break
        nxt_level: dict[Word, frozenset[int]] = {}
        for w, states in level.items():
            gap = states
            for _ in range(f.step - 1):
                gap = free(gap)
            for c in range(k):
                t = kept(gap, c)
                if t:
                    nxt_level[w + (c,)] = t
        level = nxt_level
    return out


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

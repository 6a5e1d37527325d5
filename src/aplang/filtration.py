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
from .boolmat import (
    BoolMatrix,
    BoolVector,
    incidence_matrices,
    mat_vec_mul,
    power_orbit,
    vec_mat_mul,
)

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

    def position(self, i: int) -> int:
        return self.step * i + self.offset

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


@dataclass(frozen=True)
class FiltrationSignature:
    """Everything the filtered-language automaton depends on.

    step_matrix drives the inter-letter stride, accept_or folds the up-to
    step-1 trailing free letters into acceptance, start_row is the start
    state's row after the leading offset, and eps_in records whether the
    empty word is filtered in.  Equal signatures give equal filtered
    languages (a tested property).
    """

    step_matrix: BoolMatrix
    accept_or: BoolMatrix
    start_row: BoolVector
    eps_in: bool


def signature(d: Dfa, f: ArithFilter) -> FiltrationSignature:
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    step_matrix = orbit.power(f.step - 1)
    distinct = orbit.index + orbit.period
    acc = orbit.powers[0]
    for i in range(1, min(f.step, distinct)):
        acc = acc | orbit.powers[i]
    start_row = vec_mat_mul(BoolVector.unit(d.size, d.start), orbit.power(f.offset))
    shortest = d.shortest_word_length()
    eps_in = shortest is not None and shortest <= f.offset
    return FiltrationSignature(step_matrix, acc, start_row, eps_in)


def build_filtered_dfa(d: Dfa, f: ArithFilter) -> Dfa:
    """Automaton for the filtered language, built lazily over the boolean
    row vectors reachable from a dedicated start state.

    From the start state, symbol c leads to start_row * M_c; from a vector
    state q it leads to q * step_matrix * M_c.  A vector state accepts iff
    it meets accept_or * f, i.e. some number of trailing free letters
    below the step reaches an accepting source state; the start state
    accepts iff the empty word is filtered in.
    """
    mats, _ = incidence_matrices(d)
    sig = signature(d, f)
    k = len(d.alphabet)
    final_vec = BoolVector.from_indices(d.size, d.accepting)
    accept_bits = mat_vec_mul(sig.accept_or, final_vec).bits
    # fold the stride into per-symbol matrices so each transition is one product
    step_syms = [sig.step_matrix @ mc for mc in mats]

    index: dict[int, int] = {}
    vectors: list[int] = []

    def state_of(bits: int) -> int:
        if bits not in index:
            index[bits] = len(vectors) + 1
            vectors.append(bits)
        return index[bits]

    start_targets = tuple(
        state_of(vec_mat_mul(sig.start_row, mats[c]).bits) for c in range(k)
    )
    rows: list[tuple[int, ...]] = [start_targets]
    i = 0
    while i < len(vectors):
        v = BoolVector(d.size, vectors[i])
        rows.append(tuple(state_of(vec_mat_mul(v, step_syms[c]).bits) for c in range(k)))
        i += 1

    size = 1 + len(vectors)
    if size > (1 << d.size) + 1:
        raise RuntimeError(f"{size} states exceed the subset bound 2^{d.size} + 1")
    accepting = {0} if sig.eps_in else set()
    accepting.update(
        idx + 1 for idx, bits in enumerate(vectors) if bits & accept_bits
    )
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
    """Window (step_max, offset_bound) guaranteed to exhibit every
    filtered-language signature of d.

    Steps: the stride matrix M^(a-1) cycles through the power orbit, and the
    acceptance fold of the powers below a stops changing once all distinct
    powers are in, so steps up to index+period cover every combination.
    Offsets: the start row is orbit-periodic in b and the empty-word bit is
    monotone, constant from the shortest accepted length on, so offsets
    below max(index, shortest) + period cover the rest.
    """
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    shortest = d.shortest_word_length()
    lmin = 0 if shortest is None else shortest
    step_max = orbit.index + orbit.period
    offset_bound = max(orbit.index, lmin) + orbit.period
    return step_max, offset_bound


def enumerate_distinct_filtrations(d: Dfa, family: FilterFamily) -> FiltrationAtlas:
    """Build, minimize, and deduplicate the filtered language of every
    family member inside the enumeration window."""
    step_max, offset_bound = enumeration_window(d)
    seen: set[Dfa] = set()
    entries: list[tuple[ArithFilter, Dfa]] = []
    for f in family.window_pairs(step_max, offset_bound):
        canon = build_filtered_dfa(d, f).minimized()
        if canon not in seen:
            seen.add(canon)
            entries.append((f, canon))
    return FiltrationAtlas(family, tuple(entries), step_max, offset_bound)

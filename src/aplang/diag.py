"""The square-diagonal operation on words and regular languages.

A word of length n*n, laid out row-major in an n-by-n array, has its main
diagonal at indices 0, n+1, 2(n+1), ...  diag of a language keeps only the
square-length members and maps each to its diagonal word.  The automaton
construction guesses the gap matrix (some power of the transition union M)
up front and checks the guess at acceptance time, which keeps the state
space finite because matrix powers are eventually periodic.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence, TypeVar

from .automata import Dfa, Nfa, Word
from .boolmat import incidence_matrices, power_orbit
from .filtration import _SourceWalk

W = TypeVar("W", bound=Sequence)


def diag_word(w: W) -> W:
    """Main diagonal of a word of square length n*n (n >= 1)."""
    n = isqrt(len(w))
    if n == 0 or n * n != len(w):
        raise ValueError("length is not a perfect square")
    return w[:: n + 1]


def build_diag_nfa(d: Dfa, *, gap_after: bool = False) -> Nfa:
    """NFA accepting exactly the diagonal words of the DFA's language,
    built on d's minimal DFA: the diagonal depends on the language alone,
    and the minimal DFA's orbit has an index no larger and a period
    dividing d's.

    After the first letter a state is the triple (reach, steps, gap) of
    ints: reach holds the bits of the source states reachable so far, and
    steps and gap are positions in the power orbit of the transition
    union M, naming the running power M^t of the t letters read and the
    guessed matrix bridging consecutive diagonal letters.  The orbit's
    powers are pairwise distinct, so equal positions mean equal matrices.

    The first letter fans out over every distinct power of M as the gap
    guess.  Each further letter a updates reach to (reach * gap) * M_a:
    the gap sits between consecutive diagonal letters, never after the
    last one.  A state accepts iff its reach vector meets the accepting
    set and steps == gap, i.e. the gap really is M^t for the t letters
    read.

    gap_after=True steps with the gap after each non-initial letter
    instead (reach * M_a * gap).  That order diverges from diag semantics
    at two letters; the verification harness builds it to demonstrate
    the divergence.
    """
    d = d.minimized()
    mats, m = incidence_matrices(d)
    orbit = power_orbit(m)
    k = len(d.alphabet)
    final = sum(1 << q for q in d.accepting)
    # fold each gap guess into the letter matrices: one product per transition
    stride = [
        [mc @ guess if gap_after else guess @ mc for mc in mats] for guess in orbit.powers
    ]

    index: dict[tuple[int, int, int], int] = {}
    order: list[tuple[int, int, int]] = []

    def state_of(s: tuple[int, int, int]) -> int:
        if s not in index:
            index[s] = len(order) + 1
            order.append(s)
        return index[s]

    first = orbit.reduce(1)
    entry_row = tuple(
        frozenset(
            state_of((mats[c].rows_or(1 << d.start), first, guess))
            for guess in range(len(orbit.powers))
        )
        for c in range(k)
    )
    rows: list[tuple[frozenset[int], ...]] = [entry_row]
    i = 0
    while i < len(order):
        reach, steps, gap = order[i]
        nxt = orbit.reduce(steps + 1)
        rows.append(
            tuple(
                frozenset((state_of((stride[gap][c].rows_or(reach), nxt, gap)),))
                for c in range(k)
            )
        )
        i += 1

    accepting = frozenset(
        idx + 1
        for idx, (reach, steps, gap) in enumerate(order)
        if reach & final and steps == gap
    )
    return Nfa(d.alphabet, 1 + len(order), frozenset((0,)), accepting, tuple(rows))


def diag_oracle_accepts(d: Dfa, w: Word) -> bool:
    """Word-level oracle: is w the diagonal of some accepted square word?

    No guessing involved: between consecutive diagonal letters lie exactly
    t = len(w) free letters, so w is the (t+1, 0) filtration of the source
    cut off right after its last kept letter.  One walk of the source's
    state sets by _SourceWalk(d, t+1) from ({start}, 0) decides it: accept
    iff the states after the last letter meet the accepting set.  That is
    v * M_c * M^t per letter, computed on d.delta without the
    construction's matrices or power orbit.
    """
    t = len(w)
    if t == 0:
        raise ValueError("the empty word has no diagonal source")
    k = len(d.alphabet)
    if any(not 0 <= s < k for s in w):
        raise ValueError("symbol outside the alphabet")
    walk = _SourceWalk(d, t + 1)
    node = (frozenset((d.start,)), 0)
    for s in w:
        node = walk.step(node, s)
    return not node[0].isdisjoint(d.accepting)


def diag_oracle_exhaustive(d: Dfa, t: int) -> set[Word]:
    """Diagonals of every accepted word of length t*t.

    Reads the t*t positions of the square one at a time, keeping the set
    of (source state, diagonal letters so far) pairs: a diagonal position
    appends its letter, any other steps by every symbol.  That gives the
    same set as listing every word, with levels of at most |Q| * k^t pairs.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    k = len(d.alphabet)
    delta = d.delta
    level: set[tuple[int, Word]] = {(d.start, ())}
    for i in range(t * t):
        if i % (t + 1) == 0:
            level = {(delta[q][c], x + (c,)) for q, x in level for c in range(k)}
        else:
            level = {(r, x) for q, x in level for r in delta[q]}
    return {x for q, x in level if q in d.accepting}

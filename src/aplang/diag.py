"""The square-diagonal operation on words and regular languages.

A word of length n*n, laid out row-major in an n-by-n array, has its main
diagonal at indices 0, n+1, 2(n+1), ...  diag of a language keeps only the
square-length members and maps each to its diagonal word.  The automaton
construction runs the filtration builder's stride automata, one per power
of the transition union M, in lockstep with the orbit position of the word
length, which keeps the state space finite because matrix powers are
eventually periodic.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence, TypeVar

from .automata import Dfa, Nfa, Word, explore
from .filtration import FilteredAutomata, _SourceWalk

W = TypeVar("W", bound=Sequence)


def diag_word(w: W) -> W:
    """Main diagonal of a word of square length n*n (n >= 1)."""
    n = isqrt(len(w))
    if n == 0 or n * n != len(w):
        raise ValueError("length is not a perfect square")
    return w[:: n + 1]


def build_diag_nfa(d: Dfa) -> Nfa:
    """Automaton accepting exactly the diagonal words of the DFA's
    language, with one target per transition: the lockstep of
    FilteredAutomata's stride automata, so it is built on d's minimal DFA.

    A diagonal word of length t is its source filtered by step t+1 with
    no free letters after the last letter.  For each position r of the
    power orbit of M, the stride automaton A_r steps by M^r between
    letters and accepts only in the source's accepting set, so a word of
    length t is a diagonal iff A_r accepts it for r = reduce(t).  A state
    is the tuple of every A_r's state plus the position reduce(t) of the
    t letters read, and it accepts iff the A_r at its position does.  The
    empty word sits at position 0 with every A_r at its start node, which
    no word reaches again and which accepts nothing.
    """
    automata = FilteredAutomata(d)
    orbit = automata.orbit
    entry = [(1 << automata.source.start, False)]
    strides = [automata.build((r, 1), entry) for r in range(len(orbit.powers))]
    symbols = range(len(d.alphabet))

    def successors(node: tuple) -> list[tuple]:
        states, pos = node
        nxt = orbit.reduce(pos + 1)
        return [(tuple(a.delta[q][c] for a, q in zip(strides, states)), nxt) for c in symbols]

    nodes, rows = explore((((0,) * len(strides), 0),), successors)
    accepting = frozenset(
        i for i, (states, pos) in enumerate(nodes) if states[pos] in strides[pos].accepting
    )
    delta = tuple(tuple(frozenset((t,)) for t in row) for row in rows)
    return Nfa(d.alphabet, len(nodes), frozenset((0,)), accepting, delta)


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


def diag_oracle_words(d: Dfa, t: int) -> set[Word]:
    """The words of length t that diag_oracle_accepts accepts, from one
    _SourceWalk(d, t+1) stepped over the tree of words of length t, so
    each prefix is stepped once rather than once per word that extends it.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    walk = _SourceWalk(d, t + 1)
    symbols = range(len(d.alphabet))
    level: list[tuple[Word, tuple[frozenset[int], int]]] = [((), (frozenset((d.start,)), 0))]
    for _ in range(t):
        level = [(w + (c,), walk.step(node, c)) for w, node in level for c in symbols]
    return {w for w, (states, _) in level if not states.isdisjoint(d.accepting)}


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

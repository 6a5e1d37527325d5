"""Complete DFAs, epsilon-free NFAs, and the standard algorithms on them.

Words are tuples of symbol indices into an Alphabet.  Every automaton is
immutable after construction and every operation is a pure function, so
values can be shared freely.  minimized() returns a canonical record:
two DFAs over the same alphabet accept the same language iff their
minimized forms compare equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free sequence of printable symbol tokens."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("alphabet tokens must be unique")
        if any(not isinstance(t, str) or not t for t in self.names):
            raise ValueError("alphabet tokens must be nonempty strings")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, token: str) -> int:
        try:
            return self.names.index(token)
        except ValueError:
            raise ValueError(f"token {token!r} is not in the alphabet") from None

    def word(self, text: str) -> Word:
        """Parse a word of single-character tokens."""
        return tuple(self.index(ch) for ch in text)

    def format(self, word: Word) -> str:
        return "".join([self.names[s] for s in word])


def _check_word(alphabet: Alphabet, word: Word) -> None:
    k = len(alphabet)
    for s in word:
        if not 0 <= s < k:
            raise ValueError(f"symbol {s} is outside the alphabet")


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton: delta[q][c] is defined for every
    state q and symbol c."""

    alphabet: Alphabet
    size: int
    start: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if self.size <= 0:
            raise ValueError("state count must be positive")
        if not 0 <= self.start < self.size:
            raise ValueError("start state out of range")
        if not all(0 <= q < self.size for q in self.accepting):
            raise ValueError("accepting state out of range")
        k = len(self.alphabet)
        if len(self.delta) != self.size or any(len(row) != k for row in self.delta):
            raise ValueError("transition table must be total")
        for row in self.delta:
            for t in row:
                if not 0 <= t < self.size:
                    raise ValueError("transition target out of range")

    @classmethod
    def build(
        cls,
        alphabet: Alphabet,
        size: int,
        start: int,
        accepting: Iterable[int],
        transitions: Mapping[tuple[int, int], int],
    ) -> "Dfa":
        """Build from a possibly partial table; missing transitions go to an
        implicit dead state appended as index `size`."""
        k = len(alphabet)
        for (q, c), t in transitions.items():
            if not (0 <= q < size and 0 <= c < k and 0 <= t < size):
                raise ValueError(f"transition ({q}, {c}) -> {t} out of range")
        complete = all((q, c) in transitions for q in range(size) for c in range(k))
        total = size if complete else size + 1
        dead = size
        rows = []
        for q in range(total):
            if q == dead and not complete:
                rows.append(tuple(dead for _ in range(k)))
            else:
                rows.append(tuple(transitions.get((q, c), dead) for c in range(k)))
        return cls(alphabet, total, start, frozenset(accepting), tuple(rows))

    def accepts(self, word: Word) -> bool:
        _check_word(self.alphabet, word)
        q = self.start
        for s in word:
            q = self.delta[q][s]
        return q in self.accepting

    def to_nfa(self) -> "Nfa":
        """Test aid: the same automaton as an NFA of singleton target sets."""
        rows = tuple(
            tuple(frozenset((t,)) for t in row) for row in self.delta
        )
        return Nfa(self.alphabet, self.size, frozenset((self.start,)), self.accepting, rows)

    def shortest_word_length(self) -> Optional[int]:
        """Length of a shortest accepted word by breadth-first search, or
        None when the language is empty."""
        if self.start in self.accepting:
            return 0
        dist = {self.start: 0}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            for t in self.delta[q]:
                if t not in dist:
                    dist[t] = dist[q] + 1
                    if t in self.accepting:
                        return dist[t]
                    queue.append(t)
        return None

    def enumerate_accepted(self, max_len: int, limit: Optional[int] = None) -> list[Word]:
        """The accepted words of length <= max_len in length-then-lexicographic
        order (symbols in alphabet order), or the first `limit` of them.

        Words of each length are grown depth first, letter by letter, only
        into states that reach acceptance in exactly the letters left, so
        every branch ends in a word and the cost follows the words listed.
        """
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive")
        k = len(self.alphabet)
        # live[r]: the states from which some word of exactly r letters is accepted
        live = [self.accepting]
        out: list[Word] = []
        for length in range(max_len + 1):
            if length:
                live.append(frozenset(
                    q for q in range(self.size) if any(t in live[-1] for t in self.delta[q])
                ))
            if not live[-1]:
                break
            if self.start not in live[-1]:
                continue
            stack: list[tuple[Word, int]] = [((), self.start)]
            while stack:
                w, q = stack.pop()
                left = length - len(w)
                if not left:
                    out.append(w)
                    if len(out) == limit:
                        return out
                    continue
                for c in reversed(range(k)):
                    t = self.delta[q][c]
                    if t in live[left - 1]:
                        stack.append((w + (c,), t))
        return out

    def minimized(self) -> "Dfa":
        """Unique minimal complete DFA in canonical form: states renumbered
        by breadth-first discovery order from the start state, scanning
        symbols in alphabet order."""
        order = [self.start]
        seen = {self.start}
        for q in order:
            for t in self.delta[q]:
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        return self.canonical_from(self.language_classes(order), self.start)

    def language_classes(self, states: Iterable[int]) -> dict[int, int]:
        """Moore partition refinement: a class number for each given state,
        equal exactly when the states accept the same language.  The given
        states must be closed under the transitions."""
        states = list(states)
        delta = self.delta
        block = {q: (0 if q in self.accepting else 1) for q in states}
        count = len(set(block.values()))
        while True:
            relabel: dict[tuple, int] = {}
            block = {
                q: relabel.setdefault(
                    (block[q], tuple(block[t] for t in delta[q])), len(relabel)
                )
                for q in states
            }
            if len(relabel) == count:
                return block
            count = len(relabel)

    def canonical_from(self, classes: Mapping[int, int], start: int) -> "Dfa":
        """The canonical minimal DFA of the language accepted from `start`,
        given the language classes of every state reachable from it: one
        state per class, numbered in breadth-first discovery order from
        `start`'s class, scanning symbols in alphabet order."""
        index = {classes[start]: 0}
        reps = [start]
        rows = []
        for q in reps:
            row = []
            for t in self.delta[q]:
                b = classes[t]
                if b not in index:
                    index[b] = len(reps)
                    reps.append(t)
                row.append(index[b])
            rows.append(tuple(row))
        accepting = frozenset(i for i, q in enumerate(reps) if q in self.accepting)
        return Dfa(self.alphabet, len(reps), 0, accepting, tuple(rows))


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton without epsilon transitions."""

    alphabet: Alphabet
    size: int
    initial: frozenset[int]
    accepting: frozenset[int]
    delta: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(
            self, "delta", tuple(tuple(frozenset(s) for s in row) for row in self.delta)
        )
        if self.size <= 0:
            raise ValueError("state count must be positive")
        k = len(self.alphabet)
        if len(self.delta) != self.size or any(len(row) != k for row in self.delta):
            raise ValueError("transition table has the wrong shape")
        in_range = lambda q: 0 <= q < self.size
        if not all(in_range(q) for q in self.initial | self.accepting):
            raise ValueError("state out of range")
        for row in self.delta:
            for targets in row:
                if not all(in_range(t) for t in targets):
                    raise ValueError("transition target out of range")

    def accepts(self, word: Word) -> bool:
        _check_word(self.alphabet, word)
        current = self.initial
        for s in word:
            nxt: set[int] = set()
            for q in current:
                nxt.update(self.delta[q][s])
            if not nxt:
                return False
            current = frozenset(nxt)
        return bool(current & self.accepting)

    def determinize(self) -> Dfa:
        """Test aid: subset construction over the subsets reachable from the
        initial set; the empty subset, if reached, is the dead state."""
        k = len(self.alphabet)
        start = self.initial
        index: dict[frozenset[int], int] = {start: 0}
        order: list[frozenset[int]] = [start]
        rows: list[tuple[int, ...]] = []
        for subset in order:
            row = []
            for c in range(k):
                target: set[int] = set()
                for q in subset:
                    target.update(self.delta[q][c])
                ft = frozenset(target)
                if ft not in index:
                    index[ft] = len(order)
                    order.append(ft)
                row.append(index[ft])
            rows.append(tuple(row))
        accepting = frozenset(
            i for i, subset in enumerate(order) if subset & self.accepting
        )
        return Dfa(self.alphabet, len(order), 0, accepting, tuple(rows))

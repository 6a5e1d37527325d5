"""Complete DFAs, epsilon-free NFAs, and the standard algorithms on them.

Words are tuples of symbol indices into an Alphabet.  Every automaton is
immutable after construction and every operation is a pure function, so
values can be shared freely.  minimized() returns a canonical record:
two DFAs over the same alphabet accept the same language iff their
minimized forms compare equal.  forms computes them, for any number of
start states, from one Moore refinement per DFA.

The value types here and in the other modules are slotted Record
subclasses: setting or deleting a field raises AttributeError, and ==,
hash, repr and pickling all read the field tuple, in field order, of _key.

explore is the one place where built states get their numbers: each
construction (subsets, canonical DFAs, filtered automata, the diagonal,
the power orbit, CYK's unit closure) numbers its reachable nodes by it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional, TypeVar

Word = tuple[int, ...]
N = TypeVar("N", bound=Hashable)


def explore(
    starts: Iterable[N], successors: Callable[[N], Iterable[N]]
) -> tuple[list[N], list[list[int]]]:
    """The nodes reachable from starts, numbered breadth first: the
    distinct starts first, in the order given, then every other node in
    the order first met, scanning nodes by number and each node's
    successors in order.  rows[i] holds the numbers of
    successors(nodes[i])."""
    index: dict[N, int] = {}
    for node in starts:
        index.setdefault(node, len(index))
    nodes = list(index)
    rows = []
    for node in nodes:
        row = []
        for t in successors(node):
            i = index.get(t)
            if i is None:
                i = index[t] = len(nodes)
                nodes.append(t)
            row.append(i)
        rows.append(row)
    return nodes, rows


class Record:
    """Base of the value types: fields in __slots__, set once by _fill, read by _key."""

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class Alphabet(Record):
    """Ordered, duplicate-free sequence of printable symbol tokens."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("alphabet tokens must be unique")
        if any(not isinstance(t, str) or not t for t in names):
            raise ValueError("alphabet tokens must be nonempty strings")
        self._fill(names)

    def _key(self) -> tuple:
        return (self.names,)

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


class Dfa(Record):
    """Complete deterministic automaton: delta[q][c] is defined for every
    state q and symbol c."""

    __slots__ = ("alphabet", "size", "start", "accepting", "delta")

    def __init__(
        self, alphabet: Alphabet, size: int, start: int, accepting: Iterable[int], delta: Iterable
    ) -> None:
        accepting = frozenset(accepting)
        delta = tuple(tuple(row) for row in delta)
        if size <= 0:
            raise ValueError("state count must be positive")
        if not 0 <= start < size:
            raise ValueError("start state out of range")
        if not all(0 <= q < size for q in accepting):
            raise ValueError("accepting state out of range")
        k = len(alphabet)
        if len(delta) != size or any(len(row) != k for row in delta):
            raise ValueError("transition table must be total")
        for row in delta:
            for t in row:
                if not 0 <= t < size:
                    raise ValueError("transition target out of range")
        self._fill(alphabet, size, start, accepting, delta)

    def _key(self) -> tuple:
        return (self.alphabet, self.size, self.start, self.accepting, self.delta)

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
        implicit dead state appended as index `size`.  start and accepting
        must name given states, never the dead one."""
        accepting = frozenset(accepting)
        if not 0 <= start < size or not all(0 <= q < size for q in accepting):
            raise ValueError("start or accepting state out of range")
        k = len(alphabet)
        rows = [[size] * k for _ in range(size)]
        for (q, c), t in transitions.items():
            if not (0 <= q < size and 0 <= c < k and 0 <= t < size):
                raise ValueError(f"transition ({q}, {c}) -> {t} out of range")
            rows[q][c] = t
        # the keys are distinct, so a cell is missing exactly when fewer are listed
        if len(transitions) < size * k:
            rows.append([size] * k)
        return cls(alphabet, len(rows), start, accepting, rows)

    def accepts(self, word: Word) -> bool:
        _check_word(self.alphabet, word)
        q = self.start
        for s in word:
            q = self.delta[q][s]
        return q in self.accepting

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
        # forms refines every state, and an input DFA may have many unreachable ones
        reachable, rows = explore((self.start,), self.delta.__getitem__)
        accepting = (i for i, q in enumerate(reachable) if q in self.accepting)
        return Dfa(self.alphabet, len(rows), 0, accepting, rows).forms((0,))[0]

    def forms(self, starts: Iterable[int]) -> list["Dfa"]:
        """The canonical minimal DFA of the language accepted from each of
        `starts`, in order.  One Moore partition refinement over every
        state gives each state's language class; each class met among
        `starts` is read off once, one state per class, numbered in
        breadth-first discovery order from the start's class, scanning
        symbols in alphabet order."""
        delta, states = self.delta, range(self.size)
        block = [0 if q in self.accepting else 1 for q in states]
        count = len(set(block))
        while True:
            relabel: dict[tuple, int] = {}
            block = [
                relabel.setdefault((block[q], tuple(block[t] for t in delta[q])), len(relabel))
                for q in states
            ]
            if len(relabel) == count:
                break
            count = len(relabel)

        form: dict[int, Dfa] = {}
        out = []
        for start in starts:
            c = block[start]
            if c not in form:
                # rep[b]: the first state of class b met, which stands for the class
                rep = {c: start}
                reps, rows = explore(
                    (start,), lambda q: [rep.setdefault(block[t], t) for t in delta[q]]
                )
                accepting = frozenset(i for i, q in enumerate(reps) if q in self.accepting)
                form[c] = Dfa(self.alphabet, len(reps), 0, accepting, tuple(rows))
            out.append(form[c])
        return out


class Nfa(Record):
    """Nondeterministic automaton without epsilon transitions."""

    __slots__ = ("alphabet", "size", "initial", "accepting", "delta")

    def __init__(
        self, alphabet: Alphabet, size: int, initial: Iterable[int], accepting: Iterable[int], delta
    ) -> None:
        initial, accepting = frozenset(initial), frozenset(accepting)
        delta = tuple(tuple(frozenset(s) for s in row) for row in delta)
        if size <= 0:
            raise ValueError("state count must be positive")
        k = len(alphabet)
        if len(delta) != size or any(len(row) != k for row in delta):
            raise ValueError("transition table has the wrong shape")
        in_range = lambda q: 0 <= q < size
        if not all(in_range(q) for q in initial | accepting):
            raise ValueError("state out of range")
        for row in delta:
            for targets in row:
                if not all(in_range(t) for t in targets):
                    raise ValueError("transition target out of range")
        self._fill(alphabet, size, initial, accepting, delta)

    def _key(self) -> tuple:
        return (self.alphabet, self.size, self.initial, self.accepting, self.delta)

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
        """Subset construction over the subsets reachable from the initial
        set; the empty subset, if reached, is the dead state."""
        delta, symbols = self.delta, range(len(self.alphabet))

        def successors(subset: frozenset[int]) -> list[frozenset[int]]:
            row = []
            for c in symbols:
                target: set[int] = set()
                for q in subset:
                    target.update(delta[q][c])
                row.append(frozenset(target))
            return row

        subsets, rows = explore((self.initial,), successors)
        accepting = frozenset(i for i, subset in enumerate(subsets) if subset & self.accepting)
        return Dfa(self.alphabet, len(subsets), 0, accepting, tuple(rows))

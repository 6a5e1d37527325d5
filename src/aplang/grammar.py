"""Context-free grammars plus the structured languages behind the
infinite-filtration and diagonal counterexamples.

CYK over a binary normal form, with nullable symbols and unit steps
closed over in its tables, decides membership; bounded enumeration
fills a table of each symbol's words by exact length over the epsilon-free
rules, splitting a length only over the lengths at which a body's symbols
have words.  The three built-in languages each come with a direct
structural predicate that parses the displayed pattern with no grammar
involved, serving as the independent oracle for every grammar-based result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import isqrt
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .automata import Alphabet, Word

Rhs = tuple[str, ...]


@dataclass(frozen=True)
class Cfg:
    """Context-free grammar over string tokens.

    rules holds one entry per nonterminal, in nonterminal declaration
    order, so structurally equal grammars compare equal and hash equal.
    """

    terminals: Alphabet
    nonterminals: tuple[str, ...]
    start: str
    rules: tuple[tuple[str, tuple[Rhs, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nonterminals", tuple(self.nonterminals))
        object.__setattr__(
            self,
            "rules",
            tuple((lhs, tuple(tuple(r) for r in rhss)) for lhs, rhss in self.rules),
        )
        nts = set(self.nonterminals)
        if len(nts) != len(self.nonterminals):
            raise ValueError("duplicate nonterminal names")
        if self.start not in nts:
            raise ValueError("start symbol is not a declared nonterminal")
        terms = set(self.terminals.names)
        if nts & terms:
            raise ValueError("terminal and nonterminal names overlap")
        if tuple(lhs for lhs, _ in self.rules) != self.nonterminals:
            raise ValueError("rules must list every nonterminal once, in order")
        for _, rhss in self.rules:
            for rhs in rhss:
                for sym in rhs:
                    if sym not in nts and sym not in terms:
                        raise ValueError(f"undeclared symbol {sym!r} in a rule")

    @classmethod
    def make(
        cls,
        terminals: Alphabet,
        nonterminals: Sequence[str],
        start: str,
        rules: Mapping[str, Iterable[Sequence[str]]],
    ) -> "Cfg":
        for lhs in rules:
            if lhs not in nonterminals:
                raise ValueError(f"rule head {lhs!r} is not a declared nonterminal")
        grouped = tuple(
            (nt, tuple(tuple(r) for r in rules.get(nt, ())))
            for nt in nonterminals
        )
        return cls(terminals, tuple(nonterminals), start, grouped)

    def productions(self) -> Iterator[tuple[str, Rhs]]:
        for lhs, rhss in self.rules:
            for rhs in rhss:
                yield lhs, rhs


# A few grammars are in use at a time; the bound caps long-lived processes.
@lru_cache(maxsize=16)
def _cyk_tables(g: Cfg) -> tuple[list, dict, int, bool]:
    """CYK's tables for g in binary normal form (Lange and Leiss, "To CNF
    or not to CNF?", 2009).

    A body longer than two is split as X1 <X2...Xk>, the suffix tuple
    itself naming the link, so no fresh names are needed.  Every symbol
    gets an int id: terminal t the id t, then the nonterminals, then the
    links.  A unit step derives a head from a body symbol whose siblings
    are all nullable.  leaf[t] holds the ids that derive terminal t by unit
    steps, and pairs[(b, c)] the heads of the bodies b c, closed under unit
    steps.  The last two entries are the start's id and whether the start
    is nullable."""
    rules: list[tuple] = []
    for head, body in g.productions():
        while len(body) > 2:
            rules.append((head, (body[0], body[1:])))
            head = body = body[1:]
        rules.append((head, body))
    ids = {sym: i for i, sym in enumerate((*g.terminals.names, *g.nonterminals))}
    for head, _ in rules:
        ids.setdefault(head, len(ids))
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in nullable and all(sym in nullable for sym in body):
                nullable.add(head)
                changed = True
    steps: dict = {}
    for head, body in rules:
        for i, sym in enumerate(body):
            if all(other in nullable for other in body[:i] + body[i + 1 :]):
                steps.setdefault(sym, set()).add(head)
    up: dict = {}
    for sym in ids:
        seen, todo = {sym}, [sym]
        while todo:
            for head in steps.get(todo.pop(), ()):
                if head not in seen:
                    seen.add(head)
                    todo.append(head)
        up[sym] = frozenset(map(ids.__getitem__, seen))
    pairs: dict[tuple[int, int], frozenset[int]] = {}
    for head, body in rules:
        if len(body) == 2:
            key = ids[body[0]], ids[body[1]]
            pairs[key] = pairs.get(key, frozenset()) | up[head]
    leaf = [up[name] for name in g.terminals.names]
    return leaf, pairs, ids[g.start], g.start in nullable


def cyk_accepts(g: Cfg, w: Word) -> bool:
    """Membership via CYK on the grammar's binary normal form."""
    k = len(g.terminals)
    for s in w:
        if not 0 <= s < k:
            raise ValueError(f"symbol {s} is outside the terminal alphabet")
    leaf, pairs, start, start_nullable = _cyk_tables(g)
    if not w:
        return start_nullable
    n = len(w)
    # chart[i]: span -> the non-empty set of ids deriving w[i:i+span]; an
    # empty cell has no entry, so a split is tried only where both halves derive
    chart: list[dict[int, frozenset[int] | set[int]]] = [{1: leaf[s]} for s in w]
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell: set[int] = set()
            for split, left in chart[i].items():
                right = chart[i + split].get(span - split)
                if right:
                    for b in left:
                        for c in right:
                            hit = pairs.get((b, c))
                            if hit:
                                cell |= hit
            if cell:
                chart[i][span] = cell
    return start in chart[0].get(n, ())


def _splits(n: int, parts: list[dict], least: list[int], i: int = 0) -> Iterator[tuple[int, ...]]:
    """The ways to split length n over parts[i:], a body's by-length word
    tables: each part takes a length at which it has words, in ascending
    order, while least[i + 1], the minimum yield after it, still fits."""
    if i == len(parts) - 1:
        if n in parts[i]:
            yield (n,)
        return
    for length in parts[i]:
        if length + least[i + 1] > n:
            break
        for rest in _splits(n - length, parts, least, i + 1):
            yield (length,) + rest


def enumerate_cfg_words(g: Cfg, max_len: int) -> set[str]:
    """Exactly the generated words of length <= max_len, as strings of
    single-character terminal tokens (longer tokens raise ValueError, as
    their joined words can be ambiguous).

    The rules are first made epsilon-free (each nullable occurrence
    dropped in every way, empty right-hand sides dropped, the empty word
    added iff the start is nullable), so every symbol yields a letter.  A
    table of each symbol's words at each exact length is then filled
    bottom-up by length: a body's words of length n join its symbols'
    shorter words over every split of n (see _splits), and the unit rules
    alone, which read length n itself, are settled by a fixpoint.  A
    symbol is filled only up to the longest of its words that fits in a
    start word beside minimum yields, and the start's words go straight to
    the output when no body names the start."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    names = g.terminals.names
    if any(len(name) != 1 for name in names):
        raise ValueError("word enumeration needs single-character terminal tokens")
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions():
            if lhs not in nullable and all(sym in nullable for sym in rhs):
                nullable.add(lhs)
                changed = True
    # dicts keep the rule order and drop repeated right-hand sides
    rules: dict[str, dict[Rhs, None]] = {nt: {} for nt in g.nonterminals}
    for lhs, rhs in g.productions():
        options = [(sym, None) if sym in nullable else (sym,) for sym in rhs]
        bodies = (tuple(s for s in body if s is not None) for body in product(*options))
        rules[lhs].update(dict.fromkeys(filter(None, bodies)))

    yields = dict.fromkeys(names, 1)
    changed = True
    while changed:
        changed = False
        for head, bodies in rules.items():
            for body in bodies:
                if all(sym in yields for sym in body):
                    total = sum(map(yields.__getitem__, body))
                    if total < yields.get(head, total + 1):
                        yields[head] = total
                        changed = True
    # rules with an unproductive symbol derive no word; least[i] is the
    # minimum yield of body[i:]
    live = [
        (head, body, list(accumulate(map(yields.__getitem__, reversed(body))))[::-1])
        for head, bodies in rules.items()
        for body in bodies
        if all(sym in yields for sym in body)
    ]
    # room[sym]: the longest word of sym that fits in a start word
    room = {g.start: max_len}
    changed = True
    while changed:
        changed = False
        for head, body, least in live:
            for sym in body:
                fits = room.get(head, 0) - least[0] + yields[sym]
                if fits > room.get(sym, 0):
                    room[sym] = fits
                    changed = True

    table = {nt: {} for nt in g.nonterminals} | {name: {1: {name}} for name in names}
    units = [(head, body[0]) for head, body, _ in live if len(body) == 1 and body[0] in rules]
    start_unused = all(g.start not in body for _, body, _ in live)
    out = {""} if g.start in nullable else set()
    for n in range(1, max_len + 1):
        found: dict[str, set[str]] = {}
        for head, body, least in live:
            if room.get(head, 0) >= n and (len(body) > 1 or body[0] in names):
                parts = [table[sym] for sym in body]
                for split in _splits(n, parts, least):
                    words = product(*map(dict.__getitem__, parts, split))
                    found.setdefault(head, set()).update(map("".join, words))
        for head, words in found.items():
            table[head][n] = words
        changed = True
        while changed:
            changed = False
            for head, sym in units:
                new = table[sym].get(n, set()) - table[head].get(n, set())
                if new and room.get(head, 0) >= n:
                    table[head].setdefault(n, set()).update(new)
                    changed = True
        out.update(table[g.start].pop(n, ()) if start_unused else table[g.start].get(n, ()))
    return out


# ---------------------------------------------------------------------------
# Built-in language 1: {1 0^n 2 (0^+ 3)^n : n >= 1}, whose weak filtrations
# are pairwise distinct.

THM2_ALPHABET = Alphabet(("0", "1", "2", "3"))

THM2_GRAMMAR = Cfg.make(
    THM2_ALPHABET,
    ("S", "A", "B"),
    "S",
    {
        "S": [("1", "0", "A", "B")],
        "A": [("0", "A", "B"), ("2",)],
        "B": [("0", "B"), ("0", "3")],
    },
)


def in_thm2(s: str) -> bool:
    """Structural parse of 1 0^n 2 (0^+ 3)^n with n >= 1: n is the index of
    the first 2 less one, and the rest is zeros and n threes that starts
    with a zero, ends with a three and has no two threes in a row."""
    two = s.find("2")
    if two < 2 or s[0] != "1" or s[1:two].strip("0"):
        return False
    rest = s[two + 1 :]
    return (
        rest.count("3") == two - 1
        and rest.endswith("3")
        and rest[0] == "0"
        and "33" not in rest
        and not rest.strip("03")
    )


# ---------------------------------------------------------------------------
# Built-in language 2: {0^n 1^n : n >= 0}, whose shifts are pairwise distinct.

ZERO_ONE_ALPHABET = Alphabet(("0", "1"))

ZERO_N_ONE_N_GRAMMAR = Cfg.make(
    ZERO_ONE_ALPHABET,
    ("S",),
    "S",
    {"S": [("0", "S", "1"), ()]},
)


def in_0n1n(s: str) -> bool:
    i = 0
    while i < len(s) and s[i] == "0":
        i += 1
    zeros = i
    while i < len(s) and s[i] == "1":
        i += 1
    return i == len(s) and len(s) == 2 * zeros


# ---------------------------------------------------------------------------
# Built-in language 3: three chained blocks of zero runs whose diagonal is
# not context-free.  Block shape: X 0^{3m+1} Y (0^+ Z)^{m-2} 0^+ with
# m >= 3, for (X, Y, Z) = (a, b, c), (d, e, f), (g, h, i), then a final j.

THM5_ALPHABET = Alphabet(tuple("abcdefghij0"))

_THM5_BLOCKS = (("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i"))


def _parse_thm5_block(s: str, i: int, first: str, second: str, repeated: str) -> Optional[int]:
    if i >= len(s) or s[i] != first:
        return None
    i += 1
    run = 0
    while i < len(s) and s[i] == "0":
        i += 1
        run += 1
    if run < 10 or (run - 1) % 3:
        return None
    m = (run - 1) // 3
    if i >= len(s) or s[i] != second:
        return None
    i += 1
    groups = 0
    while True:
        run = 0
        while i < len(s) and s[i] == "0":
            i += 1
            run += 1
        if run < 1:
            return None
        if i < len(s) and s[i] == repeated:
            i += 1
            groups += 1
        else:
            break
    return i if groups == m - 2 else None


def in_thm5(s: str) -> bool:
    """Structural parse of the three-block language (the authoritative
    oracle; the language is context-free as a concatenation of its blocks
    but is represented here by its pattern, not a grammar)."""
    pos: Optional[int] = 0
    for first, second, repeated in _THM5_BLOCKS:
        pos = _parse_thm5_block(s, pos, first, second, repeated)
        if pos is None:
            return False
    return pos == len(s) - 1 and s[pos] == "j"


def thm5_witness(t: int) -> str:
    """The member with m = n = p = t + 2 and every variable zero run of
    length 3m+1; its total length is (3m+1)^2 and its diagonal is
    ab c^t de f^t gh i^t j."""
    if t < 1:
        raise ValueError("t must be at least 1")
    m = t + 2
    z = "0" * (3 * m + 1)
    parts = []
    for first, second, repeated in _THM5_BLOCKS:
        parts.append(first + z + second + (z + repeated) * (m - 2) + z)
    return "".join(parts) + "j"


def _thm5_pins(
    total_len: int, diag_prefilter: Optional[str]
) -> tuple[list[Optional[str]], list[int]]:
    """The checked pin tables of a member length and diagonal prefilter (a
    word of length t = sqrt(total_len), "?" as wildcard), which pins its
    letters at the diagonal positions, the multiples of t + 1.

    pinned[pos] is the symbol pinned at pos, or None; zero_end[pos] is the
    first position at or after pos that may not hold a zero.
    """
    if total_len < 0:
        raise ValueError("total_len must be non-negative")
    pinned: list[Optional[str]] = [None] * (total_len + 1)
    if diag_prefilter is not None:
        t = isqrt(total_len)
        if t == 0 or t * t != total_len:
            raise ValueError("total_len is not a perfect square")
        if len(diag_prefilter) != t:
            raise ValueError("prefilter length must be the square root of total_len")
        allowed = set(THM5_ALPHABET.names) | {"?"}
        if any(ch not in allowed for ch in diag_prefilter):
            raise ValueError("prefilter may use alphabet letters and '?' only")
        for k, ch in enumerate(diag_prefilter):
            if ch != "?":
                pinned[k * (t + 1)] = ch
    zero_end = [total_len] * (total_len + 1)
    for pos in range(total_len - 1, -1, -1):
        zero_end[pos] = pos if pinned[pos] not in (None, "0") else zero_end[pos + 1]
    return pinned, zero_end


def _thm5_units(m: int, n: int, p: int, total_len: int) -> list[tuple[str, int, int]]:
    """The member shape for (m, n, p) as (letter, least, most) units: each
    letter followed by a zero run of least..most zeros."""
    units: list[tuple[str, int, int]] = []
    for (first, second, repeated), count in zip(_THM5_BLOCKS, (m, n, p)):
        units.append((first, 3 * count + 1, 3 * count + 1))
        units.append((second, 1, total_len))
        units.extend([(repeated, 1, total_len)] * (count - 2))
    units.append(("j", 0, 0))
    return units


def enumerate_thm5_by_length(
    total_len: int, diag_prefilter: Optional[str] = None
) -> Iterator[str]:
    """Every member of the three-block language with the exact total
    length, ordered by (m, n, p) then by zero-run lengths, earlier runs
    varying slowest.

    A member is a sequence of letters, each followed by a zero run, so one
    recursion places a letter and then tries each feasible run length.
    With a prefilter (see _thm5_pins) a letter is placed only where the
    pin allows it, a zero run stops before the first pinned non-zero
    letter, and a branch stops as soon as a pinned letter ahead of it is
    one that only earlier units hold.
    """
    pinned, zero_end = _thm5_pins(total_len, diag_prefilter)

    # emit reads the current (m, n, p) shape: its units, the fewest symbols
    # rest[i] that units i, i+1, ... take, need[pos] (the least, over pinned
    # letters at or after pos, of the last unit holding that letter, -1 if
    # none does), and the letters and runs placed
    parts: list[str] = []

    def emit(idx: int, pos: int) -> Iterator[str]:
        if idx == len(units):
            if pos == total_len:
                yield "".join(parts)
            return
        letter, least, most = units[idx]
        if pinned[pos] not in (None, letter) or need[pos] < idx:
            return
        pos += 1
        top = min(most, total_len - pos - rest[idx + 1], zero_end[pos] - pos)
        parts.append(letter)
        for length in range(least, top + 1):
            parts.append("0" * length)
            yield from emit(idx + 1, pos + length)
            parts.pop()
        parts.pop()

    m = 3
    while 5 * m + 31 <= total_len:
        n = 3
        while 5 * m + 5 * n + 16 <= total_len:
            p = 3
            while 5 * m + 5 * n + 5 * p + 1 <= total_len:
                units = _thm5_units(m, n, p, total_len)
                rest = [0] * (len(units) + 1)
                for i in range(len(units) - 1, -1, -1):
                    rest[i] = rest[i + 1] + 1 + units[i][1]
                last = {letter: i for i, (letter, _, _) in enumerate(units)}
                need = [len(units)] * (total_len + 1)
                for pos in range(total_len - 1, -1, -1):
                    need[pos] = need[pos + 1]
                    if pinned[pos] not in (None, "0"):
                        need[pos] = min(need[pos], last.get(pinned[pos], -1))
                yield from emit(0, 0)
                p += 1
            n += 1
        m += 1


def count_thm5_by_length(
    total_len: int, diag_prefilter: Optional[str] = None
) -> tuple[int, Optional[str]]:
    """The number of members enumerate_thm5_by_length yields for the same
    arguments, and one of them (None when there are none), found without
    listing them.

    Once its start position is fixed, a block is independent of the
    others, so a count vector over positions 0..total_len (ways[pos]: the
    member prefixes that end just before pos) is pushed through each block
    in turn and summed over the block's count c.  The block's first letter
    with exactly 3c+1 zeros shifts the vector; each later letter with a run
    of at least one zero adds its count to a range of end positions, as
    far as zero_end allows, through a difference array.  The member ends
    with j at total_len - 1.  Only the vectors at block boundaries are
    kept: the member is rebuilt backwards, one block at a time, from that
    block's unit vectors recomputed for the chosen c.
    """
    pinned, zero_end = _thm5_pins(total_len, diag_prefilter)
    # a block with count c takes at least 5c symbols, the other two at least 15 each
    block_counts = range(3, (total_len - 31) // 5 + 1)

    def run_letters(block: tuple[str, str, str], c: int) -> tuple[str, ...]:
        """The block's letters that take a run of at least one zero."""
        return (block[1],) + (block[2],) * (c - 2)

    def unit_vectors(ways: list[int], block: tuple[str, str, str], c: int) -> Iterator[list[int]]:
        """The vectors after each unit of a block with count c."""
        shift = 3 * c + 2
        ways_out = [0] * (total_len + 1)
        for pos in range(total_len - shift + 1):
            if ways[pos] and pinned[pos] in (None, block[0]) and pos + shift <= zero_end[pos + 1]:
                ways_out[pos + shift] = ways[pos]
        yield ways_out
        for letter in run_letters(block, c):
            ways = ways_out
            diff = [0] * (total_len + 2)
            for pos in range(total_len - 1):
                if ways[pos] and pinned[pos] in (None, letter):
                    diff[pos + 2] += ways[pos]
                    diff[zero_end[pos + 1] + 1] -= ways[pos]
            ways_out = list(accumulate(diff[: total_len + 1]))
            yield ways_out

    def block_end(ways: list[int], block: tuple[str, str, str], c: int) -> list[int]:
        """The vector after the block, or an all-zero one as soon as a
        unit leaves no way through."""
        out = ways
        for out in unit_vectors(ways, block, c):
            if not any(out):
                break
        return out

    boundaries = [[1] + [0] * total_len]
    for block in _THM5_BLOCKS:
        total = [0] * (total_len + 1)
        for c in block_counts:
            total = [x + y for x, y in zip(total, block_end(boundaries[-1], block, c))]
        boundaries.append(total)
    end = total_len - 1
    count = boundaries[-1][end] if end >= 0 and pinned[end] in (None, "j") else 0
    if not count:
        return 0, None

    pieces = ["j"]
    for block, ways in zip(reversed(_THM5_BLOCKS), reversed(boundaries[:-1])):
        c = next(c for c in block_counts if block_end(ways, block, c)[end])
        # the vectors before each run letter: after the first letter's run,
        # then after each run letter but the last
        befores = list(unit_vectors(ways, block, c))[:-1]
        for letter, before in zip(reversed(run_letters(block, c)), reversed(befores)):
            start = next(
                p for p in range(end - 1)
                if before[p] and pinned[p] in (None, letter) and end <= zero_end[p + 1]
            )
            pieces.append(letter + "0" * (end - start - 1))
            end = start
        end -= 3 * c + 2
        pieces.append(block[0] + "0" * (3 * c + 1))
    return count, "".join(reversed(pieces))

"""Context-free grammars plus the structured languages behind the
infinite-filtration and diagonal counterexamples.

CYK over a binary normal form, with nullable symbols and unit steps
closed over in its tables, decides membership; bounded enumeration
fills a table of each symbol's words by exact length over the epsilon-free
rules, splitting a length only over the lengths at which a body's symbols
have words, and yields the start's words one exact length at a time.
The three built-in languages each come with a direct structural predicate
that parses the displayed pattern with no grammar involved, serving as the
independent oracle for every grammar-based result.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, product
from math import isqrt
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .automata import Alphabet, Record, Word, explore

Rhs = tuple[str, ...]


class Cfg(Record):
    """Context-free grammar over string tokens.

    productions lists the rules (head, body); make orders them by head in
    nonterminal declaration order, so grammars built from the same rules
    compare equal and hash equal, whatever the order of the mapping.
    """

    __slots__ = ("terminals", "nonterminals", "start", "productions")

    def __init__(
        self, terminals: Alphabet, nonterminals: Iterable[str], start: str, productions: Iterable
    ) -> None:
        nonterminals = tuple(nonterminals)
        productions = tuple((lhs, tuple(rhs)) for lhs, rhs in productions)
        nts = set(nonterminals)
        if len(nts) != len(nonterminals):
            raise ValueError("duplicate nonterminal names")
        if start not in nts:
            raise ValueError("start symbol is not a declared nonterminal")
        terms = set(terminals.names)
        if nts & terms:
            raise ValueError("terminal and nonterminal names overlap")
        for lhs, rhs in productions:
            if lhs not in nts:
                raise ValueError(f"rule head {lhs!r} is not a declared nonterminal")
            for sym in rhs:
                if sym not in nts and sym not in terms:
                    raise ValueError(f"undeclared symbol {sym!r} in a rule")
        self._fill(terminals, nonterminals, start, productions)

    def _key(self) -> tuple:
        return (self.terminals, self.nonterminals, self.start, self.productions)

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
        productions = tuple((nt, tuple(rhs)) for nt in nonterminals for rhs in rules.get(nt, ()))
        return cls(terminals, tuple(nonterminals), start, productions)


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
    for head, body in g.productions:
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
    steps: dict = {sym: set() for sym in ids}
    for head, body in rules:
        for i, sym in enumerate(body):
            if all(other in nullable for other in body[:i] + body[i + 1 :]):
                steps[sym].add(head)
    up: dict = {}
    for sym in ids:
        reached, _ = explore((sym,), steps.__getitem__)
        up[sym] = frozenset(map(ids.__getitem__, reached))
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
    """The union of what enumerate_cfg_words_by_length(g, max_len) yields."""
    out: set[str] = set()
    for _, words in enumerate_cfg_words_by_length(g, max_len):
        out |= words
    return out


def enumerate_cfg_words_by_length(g: Cfg, max_len: int) -> Iterator[tuple[int, set[str]]]:
    """(n, the generated words of length exactly n) for n = 0..max_len in
    increasing order, empty sets included, the words as strings of
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
    start word beside minimum yields.  When no body names the start, its
    words of each length leave the table as they are yielded, so a set is
    freed once the caller drops it; otherwise the caller gets a copy."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    names = g.terminals.names
    if any(len(name) != 1 for name in names):
        raise ValueError("word enumeration needs single-character terminal tokens")
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs not in nullable and all(sym in nullable for sym in rhs):
                nullable.add(lhs)
                changed = True
    # dicts keep the rule order and drop repeated right-hand sides
    rules: dict[str, dict[Rhs, None]] = {nt: {} for nt in g.nonterminals}
    for lhs, rhs in g.productions:
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
    yield 0, {""} if g.start in nullable else set()
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
        yield n, table[g.start].pop(n, set()) if start_unused else set(table[g.start].get(n, ()))


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


_THM2_SHAPE = re.compile(r"1(0+)20[03]*3")


def in_thm2(s: str) -> bool:
    """1 0^n 2 (0^+ 3)^n with n >= 1: the shape 1 0^n 2 0 [03]* 3 by one
    pattern, whose first group 0^n ends at index n + 1, no "33", and
    exactly n threes.  A run of 0s and 3s that starts with 0, ends with 3
    and holds no 33 is exactly (0^+ 3)^+, as each 3 then follows a 0; the
    pattern has no repeated group for the matcher to track."""
    m = _THM2_SHAPE.fullmatch(s)
    return m is not None and "33" not in s and s.count("3") == m.end(1) - 1


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
    n = len(s) // 2
    return s == "0" * n + "1" * n


# ---------------------------------------------------------------------------
# Built-in language 3: three chained blocks of zero runs whose diagonal is
# not context-free.  Block shape: X 0^{3m+1} Y (0^+ Z)^{m-2} 0^+ with
# m >= 3, for (X, Y, Z) = (a, b, c), (d, e, f), (g, h, i), then a final j.

THM5_ALPHABET = Alphabet(tuple("abcdefghij0"))

_THM5_BLOCKS = (("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i"))

_THM5_SHAPE = re.compile("".join(f"{x}(0+){y}((?:0+{z})*)0+" for x, y, z in _THM5_BLOCKS) + "j")


def in_thm5(s: str) -> bool:
    """The three-block language by its pattern, not a grammar (the
    authoritative oracle): one full match of the shape, whose groups per
    block are the first zero run and the (0^+ Z) groups, each ending at a
    letter, so a word matches in one way only.  Then each block's first
    run has 3m+1 >= 10 zeros and exactly m-2 letters Z."""
    m = _THM5_SHAPE.fullmatch(s)
    if m is None:
        return False
    groups = m.groups()
    return all(
        len(run) >= 10 and len(run) % 3 == 1 and tail.count(z) == (len(run) - 1) // 3 - 2
        for run, tail, (_, _, z) in zip(groups[::2], groups[1::2], _THM5_BLOCKS)
    )


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
    with exactly 3c+1 zeros shifts the vector by 3c+2 (B_c).  Each later
    letter takes a run of at least one zero, as far as zero_end allows: a
    running sum, over the stretches between pinned letters, of the vector
    masked where the pins forbid that letter (R_Y for the second letter,
    R_Z for the repeated one).  A block of count c ends with
    R_Z^(c-2) R_Y B_c, one R_Z more than a block of count c-1, so the sum
    over c is taken by Horner's rule from the largest c down,
    acc = R_Y(B_c ways) + R_Z(acc), one running sum of both masked
    vectors, and the block ends with R_Z(acc).  That is one shift and one
    running sum per count, where each count on its own would take c-1.  A
    shift or run skips a stretch whose slice holds no ways, so a pinned
    call's work follows its live stretches.  The counts run from 3 up to the
    largest c with 3c+2 <= room, the longest first-letter shift zero_end
    leaves any start that has ways and that the pins allow the first letter
    at: every larger c needs a longer shift still, so its B_c vector is all
    zero and the bound is exact.  The member ends with j at total_len - 1.

    For each c a block keeps seconds, the ways to place the second letter
    of a block of count c at each position, and repeats, the ways to
    place a repeated letter with c-3 more after it (acc masked for that
    letter).  The member is rebuilt backwards, one block at a time, from
    those vectors alone.  Each letter starts at the least position whose
    run reaches the next letter: the last repeated letter from repeats at
    c = 3, and each one before it from seconds at the same c when that
    holds such a position, which fixes c, or else from repeats at c+1.
    """
    pinned, zero_end = _thm5_pins(total_len, diag_prefilter)
    pins = [(pos, ch) for pos, ch in enumerate(pinned) if ch is not None]
    # the stretches [s, e) between pinned non-zero letters: every start p
    # in one has zero_end[p + 1] == e
    cuts = [0] + [pos for pos, ch in pins if pos and ch != "0"] + [total_len]
    stretches = list(zip(cuts, cuts[1:]))

    def masked(ways: list[int], letter: str) -> list[int]:
        """ways, in place, with 0 wherever the pins forbid letter."""
        for pos, ch in pins:
            if ch != letter:
                ways[pos] = 0
        return ways

    def run_ends(starts: list[int]) -> list[int]:
        """The vector after a letter placed with starts[p] ways at each p
        and followed by a run of at least one zero: p reaches p+2 up to
        zero_end[p + 1]."""
        out = [0] * (total_len + 1)
        for s, e in stretches:
            if any(part := starts[s : e - 1]):
                out[s + 2 : e + 1] = accumulate(part)
        return out

    def lead(starts: list[int], end: int) -> Optional[int]:
        """The least p with starts[p] whose run reaches end, if any."""
        return next((p for p in range(end - 1) if starts[p] and end <= zero_end[p + 1]), None)

    ways = [1] + [0] * total_len
    kept: list[list[tuple[int, list[int], list[int]]]] = []
    for first, second, repeated in _THM5_BLOCKS:
        firsts = masked(ways, first)
        room = max((zero_end[p + 1] - p for p in range(total_len) if firsts[p]), default=0)
        steps: list[tuple[int, list[int], list[int]]] = []
        repeats = [0] * (total_len + 1)
        # every c from the largest down to 3 with 3c+2 <= room and
        # 5c + 31 <= total_len (5c symbols here, 15 per other block, then j)
        for c in range(min((total_len - 31) // 5, (room - 2) // 3), 2, -1):
            shift = 3 * c + 2
            seconds = [0] * (total_len + 1)
            for s, e in stretches:
                if s + shift <= e and any(part := firsts[s : e - shift + 1]):
                    seconds[s + shift : e + 1] = part
            masked(seconds, second)
            # the largest count has no repeated letters after it to add
            starts = [x + y for x, y in zip(seconds, repeats)] if steps else seconds
            repeats = masked(run_ends(starts), repeated)
            steps.append((c, seconds, repeats))
        kept.append(steps)
        ways = run_ends(repeats)
    end = total_len - 1
    count = ways[end] if end >= 0 and pinned[end] in (None, "j") else 0
    if not count:
        return 0, None

    pieces = ["j"]
    for (first, second, repeated), steps in zip(reversed(_THM5_BLOCKS), reversed(kept)):
        for c, seconds, repeats in reversed(steps):
            start = lead(repeats, end)
            pieces.append(repeated + "0" * (end - start - 1))
            end = start
            start = lead(seconds, end)
            if start is not None:
                break
        pieces.append(second + "0" * (end - start - 1))
        end = start - (3 * c + 2)
        pieces.append(first + "0" * (3 * c + 1))
    return count, "".join(reversed(pieces))

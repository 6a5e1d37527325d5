"""Grammars: CYK on a binary normal form, bounded enumeration, and the
three built-in pattern languages with their independent checks."""

import gc
import math
import random
import re
import signal
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from aplang.automata import Alphabet
from aplang.grammar import (
    Cfg,
    THM2_ALPHABET,
    THM2_GRAMMAR,
    THM5_ALPHABET,
    ZERO_N_ONE_N_GRAMMAR,
    ZERO_ONE_ALPHABET,
    count_thm5_by_length,
    cyk_accepts,
    enumerate_cfg_words,
    enumerate_cfg_words_by_length,
    enumerate_thm5_by_length,
    in_0n1n,
    in_thm2,
    in_thm5,
    thm5_witness,
)
from aplang.verification import _is_123plus, _thm2_pattern_words


# --- Cfg construction ---------------------------------------------------------


def test_cfg_validation():
    ab = Alphabet(("a", "b"))
    with pytest.raises(ValueError):
        Cfg.make(ab, ("S",), "T", {"S": [("a",)]})  # undeclared start
    with pytest.raises(ValueError):
        Cfg.make(ab, ("S",), "S", {"S": [("Z",)]})  # undeclared rhs symbol
    with pytest.raises(ValueError):
        Cfg.make(ab, ("a",), "a", {"a": []})  # name collision
    with pytest.raises(ValueError):
        Cfg.make(ab, ("S",), "S", {"Q": [("a",)]})  # rule for unknown head
    with pytest.raises(ValueError):
        Cfg.make(ab, ("S",), "S", {"S": [("a",)], "Q": []})  # unknown head, no rules
    with pytest.raises(ValueError):
        Cfg(ab, ("S",), "S", (("Q", ("a",)),))  # unknown head, built directly
    with pytest.raises(ValueError, match="duplicate nonterminal"):
        Cfg.make(ab, ("S", "S"), "S", {"S": [("a",)]})


def test_cfg_make_ignores_the_mapping_order():
    # _cyk_tables is cached on the grammar's hash, so the same rules must
    # give equal, equally hashing grammars in any mapping order
    ab = Alphabet(("a", "b"))
    rules = {"S": [("A", "B")], "A": [("a",), ()], "B": [("b",)]}
    forward = Cfg.make(ab, ("S", "A", "B"), "S", rules)
    backward = Cfg.make(ab, ("S", "A", "B"), "S", dict(reversed(rules.items())))
    assert forward == backward and hash(forward) == hash(backward)
    assert forward.productions == (("S", ("A", "B")), ("A", ("a",)), ("A", ()), ("B", ("b",)))


# --- CYK -------------------------------------------------------------------------


def test_cyk_epsilon_only_grammar():
    ab = Alphabet(("a", "b"))
    g = Cfg.make(ab, ("S",), "S", {"S": [()]})
    assert cyk_accepts(g, ())
    assert not cyk_accepts(g, (0,))


def test_cyk_empty_grammar():
    ab = Alphabet(("a",))
    g = Cfg.make(ab, ("S",), "S", {"S": []})
    assert enumerate_cfg_words(g, 5) == set()
    assert not cyk_accepts(g, ())
    assert not cyk_accepts(g, (0,))


def test_cyk_examples():
    assert cyk_accepts(THM2_GRAMMAR, THM2_ALPHABET.word("10203"))
    assert not cyk_accepts(THM2_GRAMMAR, THM2_ALPHABET.word("1023"))
    assert cyk_accepts(ZERO_N_ONE_N_GRAMMAR, ZERO_ONE_ALPHABET.word("0011"))
    assert not cyk_accepts(ZERO_N_ONE_N_GRAMMAR, ZERO_ONE_ALPHABET.word("011"))
    assert cyk_accepts(ZERO_N_ONE_N_GRAMMAR, ())


def test_cyk_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        cyk_accepts(THM2_GRAMMAR, (9,))


def test_cyk_matches_pattern_exhaustively_small():
    # full sweep over every word: length <= 6 on the 4-letter alphabet,
    # length <= 8 on the binary one
    for length in range(7):
        for w in product(range(4), repeat=length):
            s = THM2_ALPHABET.format(w)
            assert cyk_accepts(THM2_GRAMMAR, w) == in_thm2(s)
    for length in range(9):
        for w in product(range(2), repeat=length):
            s = ZERO_ONE_ALPHABET.format(w)
            assert cyk_accepts(ZERO_N_ONE_N_GRAMMAR, w) == in_0n1n(s)


def test_cyk_matches_pattern_on_members_and_near_misses():
    # members up to length 10 (thm2) / 12 (0^n 1^n), plus one-edit mutations
    cases = [
        (THM2_GRAMMAR, THM2_ALPHABET, in_thm2, 10),
        (ZERO_N_ONE_N_GRAMMAR, ZERO_ONE_ALPHABET, in_0n1n, 12),
    ]
    for g, alphabet, predicate, bound in cases:
        members = enumerate_cfg_words(g, bound)
        for w in members:
            assert predicate(w)
        mutated: set[str] = set()
        for w in members:
            for i in range(len(w)):
                for c in alphabet.names:
                    if c != w[i]:
                        mutated.add(w[:i] + c + w[i + 1 :])
                mutated.add(w[:i] + w[i + 1 :])
        for w in sorted(mutated)[:4000]:
            assert cyk_accepts(g, alphabet.word(w)) == predicate(w)


def test_grammar_pattern_agreement_via_set_equality():
    # agreement over all words up to length 10 / 12, phrased as equality of
    # the generated set and the pattern-enumerated set at those lengths
    got = enumerate_cfg_words(THM2_GRAMMAR, 10)
    want = set()
    for n in (1, 2):
        for zeros in product(range(1, 9), repeat=n):
            s = "1" + "0" * n + "2" + "".join("0" * z + "3" for z in zeros)
            if len(s) <= 10:
                want.add(s)
    assert got == want
    got01 = enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, 12)
    assert got01 == {"0" * n + "1" * n for n in range(7)}


def test_enumerate_matches_cyk_filter():
    # enumerate_cfg_words(g, L) = {w : |w| <= L, cyk_accepts(g, w)}
    expected = {
        w
        for length in range(9)
        for w in map("".join, product("01", repeat=length))
        if cyk_accepts(ZERO_N_ONE_N_GRAMMAR, ZERO_ONE_ALPHABET.word(w))
    }
    assert enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, 8) == expected
    expected2 = {
        w
        for length in range(7)
        for w in map("".join, product("0123", repeat=length))
        if cyk_accepts(THM2_GRAMMAR, THM2_ALPHABET.word(w))
    }
    assert enumerate_cfg_words(THM2_GRAMMAR, 6) == expected2


def test_enumerate_examples():
    assert enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, 4) == {"", "01", "0011"}
    assert enumerate_cfg_words(THM2_GRAMMAR, 5) == {"10203"}
    with pytest.raises(ValueError):
        enumerate_cfg_words(THM2_GRAMMAR, -1)


def test_enumerate_rejects_multi_character_tokens():
    # joined, "ab" + "c" and "a" + "bc" would be the same word
    g = Cfg.make(Alphabet(("ab", "c")), ("S",), "S", {"S": [("ab",), ("c", "S")]})
    with pytest.raises(ValueError, match="single-character"):
        enumerate_cfg_words(g, 3)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, -1)


def test_enumerate_yields_the_empty_word_iff_the_start_is_nullable():
    ab = Alphabet(("a", "b"))
    rules = {"S": [("A", "B")], "A": [("a",), ()], "B": [(), ("b",)]}
    g = Cfg.make(ab, ("S", "A", "B"), "S", rules)
    assert enumerate_cfg_words(g, 0) == {""}
    assert enumerate_cfg_words(g, 2) == {"", "a", "b", "ab"}
    assert enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, 0) == {""}
    assert enumerate_cfg_words(THM2_GRAMMAR, 0) == set()


def random_grammar(rng: random.Random) -> Cfg:
    """1-3 nonterminals over {a, b}, each with 0-3 right-hand sides of
    length 0-3, so epsilon rules, unit cycles and unproductive
    nonterminals all occur."""
    nts = ("S", "A", "B")[: rng.randint(1, 3)]
    symbols = ("a", "b") + nts
    rules = {
        nt: [
            tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 3))
        ]
        for nt in nts
    }
    return Cfg.make(Alphabet(("a", "b")), nts, "S", rules)


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block after `seconds`, so that a search
    that never returns fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_enumerate_returns_when_a_nullable_nonterminal_repeats():
    # S -> S S | eps | a: every form S^k has minimum yield 0, so without
    # epsilon elimination the search never ran out of forms
    g = Cfg.make(Alphabet(("a",)), ("S",), "S", {"S": [("S", "S"), (), ("a",)]})
    with time_limit(5):
        words = enumerate_cfg_words(g, 4)
    assert words == {"a" * n for n in range(5)}


def test_enumerate_matches_cyk_on_random_grammars():
    rng = random.Random(20111)
    short = [w for length in range(6) for w in map("".join, product("ab", repeat=length))]
    for _ in range(300):
        g = random_grammar(rng)
        with time_limit(5):
            words = enumerate_cfg_words(g, 5)
        assert words == {w for w in short if cyk_accepts(g, g.terminals.word(w))}, g


def test_enumerate_by_length_streams_each_length_once():
    # the grammars above: every length 0..5 once, in order, each set holding
    # only words of its length, and together the words enumerate_cfg_words lists
    rng = random.Random(20111)
    for _ in range(300):
        g = random_grammar(rng)
        with time_limit(5):
            stream = list(enumerate_cfg_words_by_length(g, 5))
        assert [n for n, _ in stream] == list(range(6)), g
        assert all(len(w) == n for n, words in stream for w in words), g
        assert set().union(*(words for _, words in stream)) == enumerate_cfg_words(g, 5), g


def test_enumerate_agrees_on_a_binarized_grammar():
    # THM2_GRAMMAR with wrapped terminals and two-symbol bodies: every word
    # passes through link and unit chains
    g = Cfg.make(
        THM2_ALPHABET,
        ("S", "X", "Y", "A", "U", "B", "O", "T", "Z", "H"),
        "S",
        {
            "S": [("O", "X")],
            "X": [("Z", "Y")],
            "Y": [("A", "B")],
            "A": [("Z", "U"), ("T",)],
            "U": [("A", "B")],
            "B": [("Z", "B"), ("Z", "H")],
            "O": [("1",)],
            "T": [("2",)],
            "Z": [("0",)],
            "H": [("3",)],
        },
    )
    for bound in (7, 12):
        assert enumerate_cfg_words(g, bound) == enumerate_cfg_words(THM2_GRAMMAR, bound)


def test_enumerate_follows_unit_chains_and_cycles():
    # S -> A reads A's words at the length being filled, which A -> B
    # gives only after S -> A was first visited
    ab = Alphabet(("a", "b"))
    chain = Cfg.make(ab, ("S", "A", "B"), "S", {"S": [("A",)], "A": [("B",)], "B": [("a", "b")]})
    assert enumerate_cfg_words(chain, 2) == {"ab"}
    cycle = Cfg.make(ab, ("S", "A"), "S", {"S": [("A",), ("a",)], "A": [("S",), ("b",)]})
    assert enumerate_cfg_words(cycle, 3) == {"a", "b"}


def test_enumerate_fills_the_last_body_symbol_to_its_full_room():
    # the longest word abbbbb needs B's room 6 - |a| = 5 in S -> a B
    ab = Alphabet(("a", "b"))
    g = Cfg.make(ab, ("S", "B"), "S", {"S": [("a", "B")], "B": [("b", "B"), ("b",)]})
    assert enumerate_cfg_words(g, 6) == {"a" + "b" * n for n in range(1, 6)}


def test_enumerate_leaves_no_garbage_cycles():
    # a cycle would keep the word table alive until the cyclic collector
    # ran, also when a stream is dropped half-way
    gc.collect()
    gc.disable()
    try:
        enumerate_cfg_words(THM2_GRAMMAR, 30)
        assert gc.collect() == 0
        for _ in enumerate_cfg_words_by_length(THM2_GRAMMAR, 30):
            pass
        assert gc.collect() == 0
        stream = enumerate_cfg_words_by_length(THM2_GRAMMAR, 30)
        for n, _ in stream:
            if n == 15:
                break
        del stream
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_thm2_source_counts_are_pinned():
    # the sources verify thm2 lists for a = 1..5, to length a(a+1)
    counts = [len(enumerate_cfg_words(THM2_GRAMMAR, a * (a + 1))) for a in range(1, 6)]
    assert counts == [0, 2, 27, 594, 27200]
    sizes = [
        sum(len(set(_thm2_pattern_words(n))) for n in range(a * (a + 1) + 1)) for a in range(1, 6)
    ]
    assert sizes == counts
    # and per exact length at bound 30, from the grammar and the pattern
    per_length = [
        0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 60, 88, 129, 189,
        277, 406, 595, 872, 1278, 1873, 2745, 4023, 5896, 8641,
    ]
    stream = enumerate_cfg_words_by_length(THM2_GRAMMAR, 30)
    assert [(n, len(words)) for n, words in stream] == list(enumerate(per_length))
    assert [len(set(_thm2_pattern_words(n))) for n in range(31)] == per_length
    for n, words in enumerate_cfg_words_by_length(THM2_GRAMMAR, 30):
        assert words == set(_thm2_pattern_words(n)), n


def test_thm2_pattern_words_are_yielded_once():
    # verify thm2 removes each pattern word from the grammar's set, so a
    # word yielded twice would be reported as a difference
    for n in range(31):
        words = list(_thm2_pattern_words(n))
        assert len(words) == len(set(words)), n


@pytest.mark.parametrize("length", range(11))
def test_thm2_pattern_words_are_the_short_members(length):
    members = {"".join(t) for t in product("0123", repeat=length) if in_thm2("".join(t))}
    assert set(_thm2_pattern_words(length)) == members


def test_thm2_predicates_agree_with_regular_expressions():
    # an independent reference for in_thm2's pattern: a parse by str
    # methods, where n is the index of the first 2 less one and the rest
    # is zeros and n threes that starts with a zero, ends with a three and
    # has no two threes in a row
    def ladder(s):
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

    for n in range(8):
        for t in product("0123x", repeat=n):
            s = "".join(t)
            assert in_thm2(s) == ladder(s), s
            assert _is_123plus(s) == (re.fullmatch(r"123+", s) is not None), s


# --- the three pattern predicates ------------------------------------------------


def test_in_thm2_examples():
    assert in_thm2("10203")
    assert not in_thm2("1203")  # no zeros after the 1
    assert not in_thm2("1023")  # no zeros before the 3
    assert in_thm2("1002030003")
    assert not in_thm2("100203")  # group count mismatch
    assert not in_thm2("")


def test_in_0n1n_examples():
    assert in_0n1n("")
    assert in_0n1n("01") and in_0n1n("000111")
    assert not in_0n1n("011") and not in_0n1n("10") and not in_0n1n("0x1")


def test_in_thm5_minimal_example():
    z = "0" * 10
    w = f"a{z}b0c0d{z}e0f0g{z}h0i0j"
    assert in_thm5(w)
    assert not in_thm5(w[:-1])
    assert not in_thm5(w.replace("0c", "c", 1))   # missing zeros before c
    assert not in_thm5("a" + "0" * 9 + w[11:])    # run not of the form 3m+1
    assert not in_thm5(w.replace("b0c0", "b0", 1))  # group count mismatch
    assert not in_thm5(w.replace("b", "c", 1))  # wrong letter after the long run
    # m = 2: a 7-zero first run with no repeated letter, each other block a member's
    assert not in_thm5("a" + "0" * 7 + "b0d" + z + "e0f0g" + z + "h0i0j")


def test_in_thm5_agrees_with_the_enumerator_on_every_single_edit():
    # each substitution, insertion and deletion of one symbol in every
    # member of lengths 46..49 is a member iff the enumerator lists it
    members = {n: set(enumerate_thm5_by_length(n)) for n in range(45, 51)}
    letters = THM5_ALPHABET.names
    edits = 0
    for w in members[46] | members[47] | members[48] | members[49]:
        for i in range(len(w) + 1):
            near = [w[:i] + c + w[i:] for c in letters]
            if i < len(w):
                near += [w[:i] + c + w[i + 1 :] for c in letters] + [w[:i] + w[i + 1 :]]
            for e in near:
                assert in_thm5(e) == (e in members[len(e)]), e
            edits += len(near)
    assert edits == 94764


def test_thm5_witness_structure():
    for t in (1, 2, 3):
        w = thm5_witness(t)
        side = 3 * (t + 2) + 1
        assert len(w) == side * side
        assert in_thm5(w)
    with pytest.raises(ValueError):
        thm5_witness(0)


# --- the thm5 enumerator ----------------------------------------------------------


def simple_thm5_members(length: int) -> set[str]:
    """Independent reference generation: loop over block parameters and cut
    the leftover zeros with combinations."""

    def exact_compositions(total: int, parts: int):
        if total < parts:
            return
        for cuts in combinations(range(1, total), parts - 1):
            bounds = (0,) + cuts + (total,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))

    out: set[str] = set()
    for m in range(3, length // 5 + 1):
        for n in range(3, length // 5 + 1):
            for p in range(3, length // 5 + 1):
                runs = (m - 1) + (n - 1) + (p - 1)
                leftover = length - (4 * (m + n + p) + 4)
                for comp in exact_compositions(leftover, runs):
                    out.add(thm5_member(m, n, p, comp))
    return out


def thm5_member(m: int, n: int, p: int, runs) -> str:
    """The member with block counts (m, n, p) and the given variable zero
    runs, in order."""
    it = iter(runs)
    parts = []
    for (x, y, z), count in zip(
        (("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i")), (m, n, p)
    ):
        parts.append(x + "0" * (3 * count + 1) + y)
        for _ in range(count - 2):
            parts.append("0" * next(it) + z)
        parts.append("0" * next(it))
    return "".join(parts) + "j"


def random_thm5_member(rng: random.Random, length: int) -> str:
    while True:
        m, n, p = (rng.randint(3, length // 15) for _ in range(3))
        runs = m + n + p - 3
        leftover = length - (4 * (m + n + p) + 4)
        if leftover >= runs:
            break
    cuts = sorted(rng.sample(range(1, leftover), runs - 1))
    return thm5_member(m, n, p, [b - a for a, b in zip([0] + cuts, cuts + [leftover])])


def test_enumerator_agrees_with_reference_generation():
    for length in (40, 45, 46, 47, 50):
        got = set(enumerate_thm5_by_length(length))
        assert got == simple_thm5_members(length)
        for w in got:
            assert len(w) == length
            assert in_thm5(w)
    assert set(enumerate_thm5_by_length(40)) == set()  # below the minimum 46
    assert set(enumerate_thm5_by_length(46)) != set()


def test_enumerator_length_99_is_nonempty():
    # length-99 members exist (minimal length is 46 and zero runs stretch)
    first = next(iter(enumerate_thm5_by_length(99)), None)
    assert first is not None
    assert len(first) == 99 and in_thm5(first)


def test_enumerator_prefilter_validation():
    with pytest.raises(ValueError):
        list(enumerate_thm5_by_length(99, "ab?de?gh?j"))  # 99 is not a square
    with pytest.raises(ValueError):
        list(enumerate_thm5_by_length(100, "abc"))  # wrong pattern length
    with pytest.raises(ValueError):
        list(enumerate_thm5_by_length(100, "ab?de?gh?x"))  # x is not a letter
    with pytest.raises(ValueError):
        list(enumerate_thm5_by_length(-1))
    # the counter rejects the same inputs
    for length, pattern in ((99, "ab?de?gh?j"), (100, "abc"), (100, "ab?de?gh?x"), (-1, None)):
        with pytest.raises(ValueError):
            count_thm5_by_length(length, pattern)


@pytest.mark.parametrize(
    "pattern",
    [
        "a0?0?0j",
        "?b?????",  # a letter inside the fixed 3c+1 run after a: no member
        "0??????",  # a zero where every member has its first letter
        "??0?0??",  # zeros where some members have d or g
        "??d?g?j",
        "???j???",  # j before the end: no member
    ],
)
def test_enumerator_prefilter_prunes_consistently(pattern):
    # with a prefilter the yields are exactly the unfiltered members whose
    # diagonals match the pattern, in the unfiltered order
    from aplang.diag import diag_word

    full = list(enumerate_thm5_by_length(49))
    assert full  # 49 = 7^2 admits members
    filtered = list(enumerate_thm5_by_length(49, pattern))
    expected = []
    for w in full:
        d = diag_word(w)
        if all(pc in ("?", dc) for pc, dc in zip(pattern, d)):
            expected.append(w)
    assert filtered == expected


def test_enumerator_counts_the_y100_sweep():
    # the |y|=100 step of verify thm5 reports this count
    assert sum(1 for _ in enumerate_thm5_by_length(100, "ab?de?gh?j")) == 6859


def test_enumerator_gives_up_early_on_a_pin_only_earlier_units_hold():
    # the second a can only be the first block's letter, which is already
    # placed; the lookahead sees that before trying any run composition
    t0 = time.perf_counter()
    assert list(enumerate_thm5_by_length(100, "a0c?000a0j")) == []
    assert time.perf_counter() - t0 < 10
    assert count_thm5_by_length(100, "a0c?000a0j") == (0, None)


def test_enumerator_witness_is_found_with_staircase_prefilter():
    members = list(enumerate_thm5_by_length(100, "abcdefghij"))
    assert thm5_witness(1) in members
    from aplang.diag import diag_word

    for w in members:
        assert diag_word(w) == "abcdefghij"


# --- the thm5 counter, checked against the enumerator ----------------------------


def assert_counter_matches_enumerator(length, pattern=None):
    """The counter's count and member agree with the enumerator's list;
    returns the count."""
    members = list(enumerate_thm5_by_length(length, pattern))
    count, member = count_thm5_by_length(length, pattern)
    assert count == len(members)
    if members:
        assert member in members
    else:
        assert member is None
    return count


@pytest.mark.parametrize("length", range(44, 57))
def test_counter_matches_enumerator_unfiltered(length):
    assert_counter_matches_enumerator(length)


def test_counter_matches_enumerator_on_the_sweep_sizes():
    assert assert_counter_matches_enumerator(100, "ab?de?gh?j") == 6859
    assert assert_counter_matches_enumerator(64) == 155305


@pytest.mark.parametrize("length", [49, 64, 100])
def test_counter_matches_enumerator_on_seeded_masks(length):
    # a member's diagonal with three symbols hidden by "?" or replaced, so
    # both realizable and unrealizable masks occur; at 100 the member is
    # the t=1 witness, since a random member's diagonal is nearly all
    # zeros there and leaves billions of members to list
    from aplang.diag import diag_word

    rng = random.Random(length)
    patterns = ["a0c?000a0j"] if length == 100 else []
    for _ in range(20):
        member = thm5_witness(1) if length == 100 else random_thm5_member(rng, length)
        pattern = list(diag_word(member))
        for k in rng.sample(range(len(pattern)), 3):
            pattern[k] = rng.choice(("?", rng.choice("abcdefghij0")))
        patterns.append("".join(pattern))
    counts = [assert_counter_matches_enumerator(length, p) for p in patterns]
    assert any(counts) and not all(counts)


def test_counter_finds_the_realizable_169_forms_the_enumerator_finds():
    realizable = set()
    for t1 in range(1, 5):
        for t2 in range(1, 6 - t1):
            t3 = 6 - t1 - t2
            pattern = "ab" + "c" * t1 + "de" + "f" * t2 + "gh" + "i" * t3 + "j"
            if assert_counter_matches_enumerator(169, pattern):
                realizable.add(pattern)
    assert realizable == {"abccdeffghiij"}


def closed_form_thm5_count(length: int) -> int:
    """The members of an exact length, by counting shapes: counts m, n, p
    fix 4c+1 symbols per block and j, and the m+n+p-3 variable zero runs
    share the other zeros, at least one each."""
    total = 0
    top = (length - 1) // 5  # the largest m+n+p that leaves each run a zero
    for m in range(3, top - 5):
        for n in range(3, top - m - 2):
            for p in range(3, top - m - n + 1):
                zeros = length - 1 - sum(4 * c + 1 for c in (m, n, p))
                runs = m + n + p - 3
                total += math.comb(zeros - 1, runs - 1)
    return total


def test_counter_matches_the_closed_form_unfiltered():
    lengths = [*range(201), 400, 625]
    for length in lengths:
        count, member = count_thm5_by_length(length)
        assert count == closed_form_thm5_count(length), length
        if count:
            assert len(member) == length and in_thm5(member)
        else:
            assert member is None
    assert closed_form_thm5_count(64) == 155305


@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_counter_realizes_only_the_staircase_among_the_candidate_forms(t):
    # every split of 3t run letters over c, f and i, at |y| = (3t+7)^2
    from aplang.diag import diag_word

    length = (3 * t + 7) ** 2
    realizable = set()
    forms = 0
    for t1 in range(1, 3 * t - 1):
        for t2 in range(1, 3 * t - t1):
            t3 = 3 * t - t1 - t2
            form = "ab" + "c" * t1 + "de" + "f" * t2 + "gh" + "i" * t3 + "j"
            forms += 1
            _, member = count_thm5_by_length(length, form)
            if member is not None:
                assert len(member) == length and in_thm5(member)
                assert diag_word(member) == form
                realizable.add(form)
    assert forms == math.comb(3 * t - 1, 2)
    assert realizable == {"ab" + "c" * t + "de" + "f" * t + "gh" + "i" * t + "j"}


# --- concatenation structure -------------------------------------------------------


def test_membership_iff_three_block_split():
    # the enumerator shares no code with in_thm5, so it is the oracle for
    # both the members and their mutations
    by_length = {n: set(enumerate_thm5_by_length(n)) for n in range(45, 52)}
    members = set().union(*(by_length[n] for n in range(46, 51)))
    assert members
    for w in members:
        assert in_thm5(w)
    # mutations leave the language, by the predicate and by the enumerator
    sample = sorted(members)[:40]
    for w in sample:
        for bad in (w[:-1], w[1:], w.replace("d", "g", 1), w + "0"):
            assert in_thm5(bad) == (bad in by_length[len(bad)])
            assert not in_thm5(bad)

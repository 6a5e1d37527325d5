"""DFA / NFA construction, canonical minimization, and the standard ops."""

import random
from itertools import product

import pytest

from aplang.automata import Alphabet, Dfa, Nfa, explore
from aplang.verification import random_dfa

from conftest import (
    AB,
    ab_star_dfa,
    empty_dfa,
    equivalent,
    single_word_dfa,
    to_nfa,
    twos_dfa,
    universal_dfa,
    with_start,
)


def all_words(alphabet: Alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from product(range(len(alphabet)), repeat=length)


def pad_with_unreachable(d: Dfa) -> Dfa:
    """Same language, one extra unreachable accepting state."""
    k = len(d.alphabet)
    rows = list(d.delta) + [(d.size,) * k]
    return Dfa(d.alphabet, d.size + 1, d.start, d.accepting | {d.size}, tuple(rows))


# --- numbering reachable nodes ----------------------------------------------


@pytest.mark.parametrize(
    "starts, graph, nodes, rows",
    [
        # starts first, in the order given and once each, before what they reach
        ("zyz", {"z": "x", "y": "x", "x": ""}, "zyx", [[2], [2], []]),
        # breadth first: both children of s before any grandchild
        ("s", {"s": "ab", "a": "c", "b": "d", "c": "", "d": ""}, "sabcd",
         [[1, 2], [3], [4], [], []]),
        # q keeps its start number although p reaches r first
        ("pq", {"p": "rq", "q": "p", "r": ""}, "pqr", [[2, 1], [0], []]),
        # a self-loop, a cycle and a repeated successor end the walk
        ("x", {"x": "xyy", "y": "x"}, "xy", [[0, 1, 1], [0]]),
        # a node without successors gets an empty row
        ("e", {"e": ""}, "e", [[]]),
    ],
    ids=["starts-in-order", "breadth-first", "reached-start", "cycles", "sink"],
)
def test_explore_numbers_nodes_in_first_met_order(starts, graph, nodes, rows):
    assert explore(starts, graph.__getitem__) == (list(nodes), rows)


# --- acceptance ------------------------------------------------------------


def test_dfa_accepts_examples(ab_star):
    assert ab_star.accepts(AB.word("abab"))
    assert not ab_star.accepts(AB.word("aba"))
    assert ab_star.accepts(())  # start is accepting


def test_dfa_accepts_rejects_foreign_symbols(ab_star):
    with pytest.raises(ValueError):
        ab_star.accepts((0, 5))


def test_nfa_accepts_basics(ab_star):
    n = to_nfa(ab_star)
    assert n.accepts(())
    assert n.accepts(AB.word("ab"))
    assert not n.accepts(AB.word("a"))
    hollow = Nfa(AB, 1, frozenset(), frozenset({0}), ((frozenset(), frozenset()),))
    assert not hollow.accepts(())
    assert not hollow.accepts(AB.word("ab"))


def test_nfa_rejects_foreign_symbols(ab_star):
    with pytest.raises(ValueError):
        to_nfa(ab_star).accepts((9,))


# --- determinization -------------------------------------------------------


def test_determinize_round_trip(ab_star):
    again = to_nfa(ab_star).determinize()
    assert equivalent(again, ab_star)
    for w in all_words(AB, 6):
        assert again.accepts(w) == ab_star.accepts(w)


def test_determinize_no_accepting_states():
    n = Nfa(AB, 2, frozenset({0}), frozenset(), ((frozenset({1}), frozenset({1})), (frozenset({1}), frozenset({1}))))
    assert n.determinize().minimized().accepting == frozenset()


def test_determinize_sigma_star_a():
    # two-state NFA for "ends with a": minimal DFA has two states
    n = Nfa(
        AB,
        2,
        frozenset({0}),
        frozenset({1}),
        (
            (frozenset({0, 1}), frozenset({0})),
            (frozenset(), frozenset()),
        ),
    )
    d = n.determinize().minimized()
    assert d.size == 2
    for w in all_words(AB, 6):
        assert d.accepts(w) == (len(w) > 0 and w[-1] == 0)


def test_determinize_preserves_acceptance_on_random_nfas():
    rng = random.Random(11)
    for _ in range(15):
        size = rng.randint(1, 4)
        k = rng.randint(1, 2)
        alphabet = Alphabet(tuple("ab"[:k]))
        rows = tuple(
            tuple(
                frozenset(q for q in range(size) if rng.random() < 0.4)
                for _ in range(k)
            )
            for _ in range(size)
        )
        n = Nfa(
            alphabet,
            size,
            frozenset(q for q in range(size) if rng.random() < 0.5),
            frozenset(q for q in range(size) if rng.random() < 0.5),
            rows,
        )
        d = n.determinize()
        for w in all_words(alphabet, 6):
            assert d.accepts(w) == n.accepts(w)


# --- minimization ----------------------------------------------------------


def test_minimize_idempotent(ab_star):
    once = ab_star.minimized()
    assert once.minimized() == once


def test_minimize_canonical_across_shapes():
    # two differently built automata for (ab)* collapse to identical records
    first = ab_star_dfa().minimized()
    bloated = pad_with_unreachable(pad_with_unreachable(ab_star_dfa()))
    redundant = Dfa.build(
        AB, 4, 0, [0, 2],
        {(0, 0): 1, (1, 1): 2, (2, 0): 3, (3, 1): 0},
    )
    assert bloated.minimized() == first
    assert redundant.minimized() == first


def test_minimize_unreachable_accepting_collapses_to_dead():
    d = Dfa(AB, 2, 0, frozenset({1}), (((0, 0)), (1, 1)))
    m = d.minimized()
    assert m.size == 1
    assert not m.accepting


def test_minimize_preserves_acceptance_random():
    rng = random.Random(12)
    for _ in range(25):
        d = random_dfa(rng, 5)
        m = d.minimized()
        for w in all_words(d.alphabet, 6):
            assert m.accepts(w) == d.accepts(w)


def test_forms_of_every_state_are_each_start_minimized():
    # one partition of the whole automaton serves every start state
    rng = random.Random(19)
    for _ in range(20):
        d = random_dfa(rng, 6)
        forms = d.forms(range(d.size))
        for q in range(d.size):
            assert forms[q] == with_start(d, q).minimized()


def test_forms_of_no_starts_is_empty(ab_star):
    assert ab_star.forms(()) == []


def test_forms_of_a_repeated_start_are_equal():
    rng = random.Random(23)
    for _ in range(10):
        d = random_dfa(rng, 5)
        forms = d.forms([d.start, (d.start + 1) % d.size, d.start])
        assert forms[0] == forms[2] == d.minimized()


def test_forms_ignore_unreachable_states():
    # the refinement runs over every state, reachable or not; an unreachable
    # accepting state must not split the reachable classes
    rng = random.Random(29)
    for _ in range(20):
        d = random_dfa(rng, 5)
        padded = pad_with_unreachable(pad_with_unreachable(d))
        assert padded.forms([padded.start]) == [padded.minimized()] == [d.minimized()]


def test_minimized_states_pairwise_distinguishable():
    # no two states of a minimized DFA share their right-language
    # (independent table-filling check)
    rng = random.Random(13)
    for _ in range(20):
        m = random_dfa(rng, 5).minimized()
        k = len(m.alphabet)
        marked = {
            (p, q)
            for p in range(m.size)
            for q in range(m.size)
            if (p in m.accepting) != (q in m.accepting)
        }
        changed = True
        while changed:
            changed = False
            for p in range(m.size):
                for q in range(m.size):
                    if p != q and (p, q) not in marked:
                        if any((m.delta[p][c], m.delta[q][c]) in marked for c in range(k)):
                            marked.add((p, q))
                            changed = True
        for p in range(m.size):
            for q in range(m.size):
                if p != q:
                    assert (p, q) in marked


# --- equivalence -----------------------------------------------------------


def test_equivalent_reflexive(ab_star):
    assert equivalent(ab_star, ab_star)


def test_equivalent_detects_difference():
    d1 = ab_star_dfa()
    # (ab)*ab: same loop, accepting only after at least one ab
    d2 = Dfa.build(AB, 3, 0, [2], {(0, 0): 1, (1, 1): 2, (2, 0): 1})
    assert not equivalent(d1, d2)
    assert d1.accepts(AB.word("ab")) and d2.accepts(AB.word("ab"))
    assert d1.accepts(()) and not d2.accepts(())


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(14)
    for _ in range(8):
        base = random_dfa(rng, 4)
        variants = [
            base,
            pad_with_unreachable(base),
            to_nfa(base).determinize(),
        ]
        other = random_dfa(rng, 4)
        pool = variants + ([other] if other.alphabet == base.alphabet else [])
        for x in pool:
            assert equivalent(x, x)
            for y in pool:
                assert equivalent(x, y) == equivalent(y, x)
                for z in pool:
                    if equivalent(x, y) and equivalent(y, z):
                        assert equivalent(x, z)
        assert equivalent(variants[0], variants[1])
        assert equivalent(variants[1], variants[2])
        assert equivalent(variants[0], variants[2])


def test_equivalent_alphabet_mismatch():
    with pytest.raises(ValueError):
        equivalent(ab_star_dfa(), twos_dfa())


# --- enumeration -----------------------------------------------------------


def test_enumerate_accepted_ab_star(ab_star):
    words = ab_star.enumerate_accepted(5)
    assert [AB.format(w) for w in words] == ["", "ab", "abab"]


def test_enumerate_accepted_empty_language():
    assert empty_dfa().enumerate_accepted(6) == []


def test_enumerate_accepted_zeros_then_one(zeros_then_one):
    words = zeros_then_one.enumerate_accepted(3)
    assert [zeros_then_one.alphabet.format(w) for w in words] == ["1", "01", "001"]


def test_enumerate_accepted_matches_accepts_exhaustively():
    rng = random.Random(16)
    for _ in range(15):
        d = random_dfa(rng, 5)
        for max_len in (0, 3, 6):
            got = d.enumerate_accepted(max_len)
            expected = [w for w in all_words(d.alphabet, max_len) if d.accepts(w)]
            # all_words yields length-then-lex already
            assert got == expected


def test_enumerate_accepted_rejects_negative(ab_star):
    with pytest.raises(ValueError):
        ab_star.enumerate_accepted(-1)
    with pytest.raises(ValueError):
        ab_star.enumerate_accepted(3, 0)


def test_enumerate_accepted_limit_is_a_prefix_of_the_full_list():
    rng = random.Random(17)
    for _ in range(40):
        d = random_dfa(rng, 5)
        full = d.enumerate_accepted(7)
        for limit in (1, 2, 6, len(full) + 1):
            assert d.enumerate_accepted(7, limit) == full[:limit]


def test_enumerate_accepted_limit_costs_only_the_words_listed():
    # (a|b)* has 2^61 - 1 words up to length 60: listing them all never ends
    words = universal_dfa().enumerate_accepted(60, 6)
    assert [AB.format(w) for w in words] == ["", "a", "b", "aa", "ab", "ba"]
    # a lone long word is reached without exploring its dead-end branches
    long_word = single_word_dfa("ab" * 30, AB)
    assert long_word.enumerate_accepted(1000, 6) == [AB.word("ab" * 30)]


# --- construction and validation --------------------------------------------


def test_build_completes_with_dead_state():
    d = Dfa.build(AB, 2, 0, [0], {(0, 0): 1, (1, 1): 0})
    assert d.size == 3  # dead state appended
    assert d.delta[0][1] == 2 and d.delta[2] == (2, 2)


def test_build_complete_table_adds_nothing():
    d = Dfa.build(AB, 1, 0, [0], {(0, 0): 0, (0, 1): 0})
    assert d.size == 1


@pytest.mark.parametrize("start, accepting", [(0, [1]), (1, [0])], ids=["accepting", "start"])
def test_build_rejects_the_implicit_dead_state(start, accepting):
    # a partial table gains its dead state as index `size`, here 1: naming
    # it would make the "dead" state accept (b and baa) or start there
    with pytest.raises(ValueError, match="out of range"):
        Dfa.build(AB, 1, start, accepting, {(0, 0): 0})
    # a complete table gains no state, so index 1 is out of range there too
    with pytest.raises(ValueError, match="out of range"):
        Dfa.build(AB, 1, start, accepting, {(0, 0): 0, (0, 1): 0})


def test_build_reads_accepting_once():
    d = Dfa.build(AB, 2, 0, iter([1]), {(0, 0): 1})
    assert d.accepting == frozenset({1})
    assert d.accepts(AB.word("a")) and not d.accepts(AB.word("b"))


def test_dfa_validation():
    with pytest.raises(ValueError, match="state count must be positive"):
        Dfa(AB, 0, 0, frozenset(), ())
    with pytest.raises(ValueError):
        Dfa(AB, 2, 5, frozenset(), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset({7}), ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset(), ((0,), (0, 0)))  # incomplete row
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset(), ((0, 3), (0, 0)))  # target out of range


def test_nfa_validation():
    none = frozenset()
    with pytest.raises(ValueError, match="state count must be positive"):
        Nfa(AB, 0, none, none, ())
    with pytest.raises(ValueError, match="transition table has the wrong shape"):
        Nfa(AB, 1, none, none, ((none,),))
    with pytest.raises(ValueError, match="state out of range"):
        Nfa(AB, 1, {1}, none, ((none, none),))
    with pytest.raises(ValueError, match="transition target out of range"):
        Nfa(AB, 1, none, none, ((none, {1}),))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert Alphabet(("a", "b", "c")).index("c") == 2
    with pytest.raises(ValueError):
        Alphabet(("a",)).index("b")

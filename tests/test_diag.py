"""The diagonal operation: word level, NFA construction, and both oracles."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aplang.automata import Dfa
from aplang.boolmat import incidence_matrices, matmul, power_orbit, rows_or
from aplang.diag import (
    build_diag_nfa,
    diag_oracle_accepts,
    diag_oracle_exhaustive,
    diag_oracle_words,
    diag_word,
)
from aplang.verification import _gap_after_accepts, random_dfa

from conftest import (
    AB,
    ab_star_dfa,
    empty_dfa,
    hub_chain_dfa,
    single_word_dfa,
    universal_dfa,
)


# --- diag on words -----------------------------------------------------------


def test_diag_word_examples():
    assert diag_word("absorbent") == "art"
    assert diag_word("x") == "x"
    assert diag_word("abcd") == "ad"
    assert diag_word((0, 1, 2, 3)) == (0, 3)


def test_diag_word_rejects_non_squares():
    for bad in ("", "abc", "ab", "abcde"):
        with pytest.raises(ValueError, match="perfect square"):
            diag_word(bad)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_diag_word_self_consistency(n, data):
    w = data.draw(st.text(alphabet="abz", min_size=n * n, max_size=n * n))
    d = diag_word(w)
    assert len(d) == n
    assert d == "".join(w[k * (n + 1)] for k in range(n))


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=6))
def test_diag_word_unary(n):
    assert diag_word("q" * (n * n)) == "q" * n


# --- the NFA construction ----------------------------------------------------


def test_diag_nfa_universal_accepts_every_nonempty_word():
    nfa = build_diag_nfa(universal_dfa())
    assert not nfa.accepts(())
    for t in range(1, 4):
        for w in product(range(2), repeat=t):
            assert nfa.accepts(w)


def test_diag_nfa_empty_language_accepts_nothing():
    nfa = build_diag_nfa(empty_dfa())
    for t in range(0, 4):
        for w in product(range(2), repeat=t):
            assert not nfa.accepts(w)


def test_diag_nfa_a_star():
    # sources a^(n^2) have all-a diagonals
    a_star = Dfa.build(AB, 1, 0, [0], {(0, 0): 0})
    nfa = build_diag_nfa(a_star)
    for t in range(1, 5):
        for w in product(range(2), repeat=t):
            assert nfa.accepts(w) == all(s == 0 for s in w)


def test_diag_nfa_ab_star():
    # the only accepted length-4 source is abab, whose diagonal is ab
    nfa = build_diag_nfa(ab_star_dfa())
    got = {w for w in product(range(2), repeat=2) if nfa.accepts(w)}
    assert got == {AB.word("ab")}


def test_diag_nfa_never_accepts_epsilon():
    rng = random.Random(31)
    for _ in range(15):
        nfa = build_diag_nfa(random_dfa(rng, 4, min_symbols=2, max_symbols=2))
        assert not nfa.accepts(())


# --- oracles ------------------------------------------------------------------


def test_matrix_oracle_universal():
    d = universal_dfa()
    for t in range(1, 4):
        for w in product(range(2), repeat=t):
            assert diag_oracle_accepts(d, w)


def test_matrix_oracle_single_letters_match_dfa():
    rng = random.Random(32)
    for _ in range(10):
        d = random_dfa(rng, 4)
        for c in range(len(d.alphabet)):
            assert diag_oracle_accepts(d, (c,)) == d.accepts((c,))


def test_matrix_oracle_a_star_length_two():
    a_star = Dfa.build(AB, 1, 0, [0], {(0, 0): 0})
    assert diag_oracle_accepts(a_star, AB.word("aa"))
    assert not diag_oracle_accepts(a_star, AB.word("ab"))


def test_matrix_oracle_rejects_epsilon():
    with pytest.raises(ValueError, match="empty word"):
        diag_oracle_accepts(universal_dfa(), ())


def test_matrix_oracle_rejects_symbols_outside_the_alphabet():
    for w in ((2,), (0, -1)):
        with pytest.raises(ValueError, match="outside the alphabet"):
            diag_oracle_accepts(universal_dfa(), w)


def matrix_power_accepts(d: Dfa, w) -> bool:
    """The matrix formulation: one pass of v * M_c * M^t per letter, with
    M^t from t plain products of the incidence matrices' union."""
    t = len(w)
    mats, m = incidence_matrices(d)
    gap = tuple(1 << q for q in range(d.size))
    for _ in range(t):
        gap = matmul(gap, m)
    v = 1 << d.start
    for j, s in enumerate(w):
        v = rows_or(mats[s], v)
        if j < t - 1:
            v = rows_or(gap, v)
    return bool(v & sum(1 << q for q in d.accepting))


def test_matrix_oracle_matches_matrix_powers():
    rng = random.Random(39)
    for _ in range(40):
        d = random_dfa(rng, 5)
        k = len(d.alphabet)
        for t in range(1, 6):
            for w in product(range(k), repeat=t):
                assert diag_oracle_accepts(d, w) == matrix_power_accepts(d, w), (d, w)


def test_exhaustive_oracle_examples():
    assert diag_oracle_exhaustive(ab_star_dfa(), 2) == {AB.word("ab")}
    assert diag_oracle_exhaustive(empty_dfa(), 2) == set()
    d = universal_dfa()
    assert diag_oracle_exhaustive(d, 1) == {(0,), (1,)}


def literal_diagonals(d: Dfa, t: int) -> set:
    """The definition: the diagonal of every accepted word of length t*t."""
    k = len(d.alphabet)
    return {diag_word(w) for w in product(range(k), repeat=t * t) if d.accepts(w)}


def test_exhaustive_oracle_matches_the_literal_definition():
    rng = random.Random(38)
    for _ in range(30):
        d = random_dfa(rng, 4, min_symbols=1, max_symbols=3)
        for t in range(1, 4):
            assert diag_oracle_exhaustive(d, t) == literal_diagonals(d, t), (d, t)
    for _ in range(4):
        d = random_dfa(rng, 4, min_symbols=2, max_symbols=2)
        assert diag_oracle_exhaustive(d, 4) == literal_diagonals(d, 4), d


def test_exhaustive_oracle_rejects_t_below_one():
    with pytest.raises(ValueError):
        diag_oracle_exhaustive(universal_dfa(), 0)


def _word_oracle_pool() -> list[Dfa]:
    rng = random.Random(39)
    pool = [random_dfa(rng, 5, min_symbols=1, max_symbols=3) for _ in range(20)]
    return [single_word_dfa("abba", AB), *pool]


def test_words_oracle_is_the_walk_oracle_per_length():
    # one walk over the tree of words of length t accepts exactly the
    # words the per-word walk accepts
    for d in _word_oracle_pool():
        k = len(d.alphabet)
        for t in range(1, 6):
            expected = {w for w in product(range(k), repeat=t) if diag_oracle_accepts(d, w)}
            assert diag_oracle_words(d, t) == expected, (d, t)


def test_words_oracle_matches_the_literal_oracle():
    for d in _word_oracle_pool():
        for t in range(1, 5):
            assert diag_oracle_words(d, t) == diag_oracle_exhaustive(d, t), (d, t)


def test_words_oracle_rejects_t_below_one():
    with pytest.raises(ValueError):
        diag_oracle_words(universal_dfa(), 0)


# --- agreement properties ------------------------------------------------------


def test_three_way_agreement_small_pool():
    rng = random.Random(33)
    pool = [random_dfa(rng, 4, min_symbols=2, max_symbols=2) for _ in range(10)]
    pool.append(single_word_dfa("abba", AB))
    for d in pool:
        nfa = build_diag_nfa(d)
        for t in range(1, 4):
            literal = diag_oracle_exhaustive(d, t)
            for w in product(range(2), repeat=t):
                expected = w in literal
                assert nfa.accepts(w) == expected
                assert diag_oracle_accepts(d, w) == expected


def test_two_way_agreement_length_four():
    rng = random.Random(34)
    for _ in range(8):
        d = random_dfa(rng, 4, min_symbols=2, max_symbols=2)
        nfa = build_diag_nfa(d)
        for w in product(range(2), repeat=4):
            assert nfa.accepts(w) == diag_oracle_accepts(d, w)


def test_determinization_terminates_and_agrees():
    # constructive regularity: the diag NFA determinizes to a finite DFA
    rng = random.Random(35)
    for _ in range(8):
        d = random_dfa(rng, 3, min_symbols=2, max_symbols=2)
        nfa = build_diag_nfa(d)
        dfa = nfa.determinize()
        assert dfa.size >= 1
        for t in range(0, 4):
            for w in product(range(2), repeat=t):
                assert dfa.accepts(w) == nfa.accepts(w)


# --- the rejected stepping ------------------------------------------------------


def test_gap_after_variant_diverges_at_two_letters():
    # for the single-word language {abba} the true diagonal set at t=2 is
    # {aa}; stepping with the gap after each letter instead accepts {ab}
    d = single_word_dfa("abba", AB)
    good = build_diag_nfa(d)
    aa, ab = AB.word("aa"), AB.word("ab")
    assert diag_word(AB.word("abba")) == aa
    assert good.accepts(aa) and not good.accepts(ab)
    assert _gap_after_accepts(d, ab) and not _gap_after_accepts(d, aa)
    assert diag_oracle_accepts(d, aa) and not diag_oracle_accepts(d, ab)
    assert diag_oracle_exhaustive(d, 2) == {aa}


def test_gap_after_variant_agrees_at_one_letter():
    # with a single letter there is no gap, so both steppings coincide
    rng = random.Random(36)
    for _ in range(10):
        d = random_dfa(rng, 4, min_symbols=2, max_symbols=2)
        good = build_diag_nfa(d)
        for c in range(2):
            assert good.accepts((c,)) == _gap_after_accepts(d, (c,))


# --- state-space sanity ----------------------------------------------------------


def test_diag_states_bounded_by_orbit():
    rng = random.Random(37)
    for _ in range(10):
        d = random_dfa(rng, 4, min_symbols=2, max_symbols=2)
        _, m = incidence_matrices(d)
        orbit = power_orbit(m)
        guesses = orbit.index + orbit.period
        nfa = build_diag_nfa(d)
        assert nfa.size <= 1 + guesses * guesses * (1 << d.size)


def test_a_four_state_source_has_a_19_state_minimal_diagonal():
    # the 4-state census witness with the largest minimal diagonal DFA
    d = Dfa(AB, 4, 0, frozenset({1, 3}), ((0, 1), (2, 3), (2, 2), (1, 2)))
    assert d.minimized().size == 4
    assert build_diag_nfa(d).determinize().minimized().size == 19


def coprime_cycle_dfa(lengths: tuple[int, ...]) -> Dfa:
    """Disjoint cycles of the given lengths over {a, b}; both letters step
    one place along the cycle; start 0, accepting {0}."""
    delta = []
    base = 0
    for length in lengths:
        delta.extend((base + (q + 1) % length,) * 2 for q in range(length))
        base += length
    return Dfa(AB, base, 0, frozenset({0}), tuple(delta))


def test_diag_state_count_on_coprime_cycles():
    """The (3, 4, 5) cycle automaton's diagonal automaton has exactly 4
    states.

    Its union matrix permutes the three cycles, with orbit index 0 and
    period lcm(3, 4, 5) = 60, but only the 3-cycle through the start is
    reachable, so the automaton is built on that 3-cycle: the minimal
    DFA, whose M is a 3-cycle permutation with index 0 and period 3, so
    D = 3 orbit positions.  Both letters apply M, so after t >= 1 letters
    each stride automaton A_r holds the vector e_0 M^(1 + (t-1)(r+1)), and
    the position is t mod 3: the whole state is a function of t mod 3.
    That gives D = 3 states after the first letter, plus the empty-word
    state.
    """
    d = coprime_cycle_dfa((3, 4, 5))
    orbit = power_orbit(incidence_matrices(d)[1])
    assert (orbit.index, orbit.period) == (0, 60)
    minimal = d.minimized()
    orbit = power_orbit(incidence_matrices(minimal)[1])
    assert (minimal.size, orbit.index, orbit.period) == (3, 0, 3)
    assert build_diag_nfa(d).size == 1 + 3


@pytest.mark.parametrize("cycles", [(3, 4, 5), (3, 5, 7)], ids=["p60", "p105"])
def test_diag_is_deterministic(cycles):
    # every transition has exactly one target, so the subset construction
    # only renames the states
    nfa = build_diag_nfa(hub_chain_dfa(cycles))
    assert all(len(targets) == 1 for row in nfa.delta for targets in row)
    assert len(nfa.initial) == 1
    assert nfa.determinize().size == nfa.size


@pytest.mark.parametrize(
    "cycles, size", [((3, 4, 5), 186), ((3, 5, 7), 321), ((2, 3, 5, 7), 850)],
    ids=["p60", "p105", "p210"],
)
def test_diag_state_count_on_hub_chains(cycles, size):
    # the hub chains are minimal with long orbits, so building on the
    # minimal DFA leaves them as they are; one state per reachable
    # (stride automata states, orbit position) tuple
    d = hub_chain_dfa(cycles)
    assert d.minimized().size == d.size
    assert build_diag_nfa(d).size == size


@pytest.mark.parametrize(
    "cycles, size", [((3, 4, 5), 10), ((3, 5, 7), 40)], ids=["p60", "p105"]
)
def test_diag_language_size_on_hub_chains(cycles, size):
    # the minimal DFA depends on the diagonal language alone, not on how
    # its automaton is built
    assert build_diag_nfa(hub_chain_dfa(cycles)).determinize().minimized().size == size


def test_diag_nfa_folds_back_through_orbit_index():
    # every path of {abba}'s automaton ends in the dead state after five
    # letters, so M^5 = M^6: index 5, period 1.  Words longer than five
    # letters step the running power past the listed range.
    d = single_word_dfa("abba", AB)
    _, m = incidence_matrices(d)
    orbit = power_orbit(m)
    assert (orbit.index, orbit.period) == (5, 1)
    assert orbit.reduce(6) == orbit.reduce(7) == 5
    nfa = build_diag_nfa(d)
    for t in range(1, 8):
        for w in product(range(2), repeat=t):
            assert nfa.accepts(w) == diag_oracle_accepts(d, w) == (w == AB.word("aa"))

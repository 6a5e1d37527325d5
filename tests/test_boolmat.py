"""Boolean matrix semiring: products, powers, orbits, incidence."""

import random

import pytest

from aplang.automata import Alphabet, Dfa
from aplang.boolmat import Matrix, incidence_matrices, matmul, power_orbit, rows_or
from aplang.grammar import _cyk_tables
from aplang.verification import random_dfa, verify_thm1

from conftest import ab_star_dfa, universal_dfa


def naive_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [1 if any(a[i][l] and b[l][j] for l in range(n)) else 0 for j in range(n)]
        for i in range(n)
    ]


def entry(m: Matrix, i: int, j: int) -> int:
    return (m[i] >> j) & 1


def to_lists(m: Matrix) -> list[list[int]]:
    return [[entry(m, i, j) for j in range(len(m))] for i in range(len(m))]


def from_lists(rows: list[list[int]]) -> Matrix:
    return tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows)


def from_entries(n: int, entries) -> Matrix:
    """The n x n matrix with a one at each (row, column) entry."""
    rows = [0] * n
    for i, j in entries:
        rows[i] |= 1 << j
    return tuple(rows)


def identity(n: int) -> Matrix:
    return from_entries(n, [(i, i) for i in range(n)])


def test_identity_is_neutral():
    a = from_lists([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
    i = identity(3)
    assert matmul(a, i) == a
    assert matmul(i, a) == a


def test_permutation_times_inverse_is_identity():
    p = from_entries(3, [(0, 1), (1, 2), (2, 0)])
    p_inv = from_entries(3, [(1, 0), (2, 1), (0, 2)])
    assert matmul(p, p_inv) == identity(3)


def test_nilpotent_chain_square():
    n = from_entries(3, [(0, 1), (1, 2)])
    sq = matmul(n, n)
    assert sq == from_entries(3, [(0, 2)])


def test_unit_vector_picks_row():
    a = from_lists([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert rows_or(a, 1 << 0) == 0b110
    assert rows_or(a, 1 << 1) == 0b001
    # a vector selecting several rows gets their OR; the zero vector gets 0
    assert rows_or(a, 0b011) == 0b111
    assert rows_or(a, 0) == 0


def test_ab_star_round_trip_through_letter_matrices():
    # stepping a then b from the start of (ab)* returns to the start state
    d = ab_star_dfa()
    mats, _ = incidence_matrices(d)
    e0 = 1 << d.start
    assert rows_or(mats[1], rows_or(mats[0], e0)) == e0


def test_power_basics():
    a = from_lists([[0, 1], [1, 1]])
    assert power_orbit(a).power(0) == identity(2)
    p = from_entries(2, [(0, 1), (1, 0)])
    orbit = power_orbit(p)
    assert orbit.power(2) == identity(2)
    assert orbit.power(3) == p
    assert (orbit.reduce(2), orbit.reduce(3)) == (0, 1)
    with pytest.raises(ValueError):
        power_orbit(a).power(-1)
    with pytest.raises(ValueError):
        power_orbit(a).reduce(-1)


def test_orbit_identity():
    orbit = power_orbit(identity(3))
    assert (orbit.index, orbit.period) == (0, 1)


def test_orbit_two_cycle():
    p = from_entries(2, [(0, 1), (1, 0)])
    orbit = power_orbit(p)
    assert (orbit.index, orbit.period) == (0, 2)


def test_orbit_nilpotent():
    n = from_entries(2, [(0, 1)])
    orbit = power_orbit(n)
    # n^2 = 0 and stays there
    assert (orbit.index, orbit.period) == (2, 1)


def test_orbit_reduction_of_large_exponents():
    rng = random.Random(5)
    for _ in range(20):
        d = random_dfa(rng, 4)
        _, m = incidence_matrices(d)
        orbit = power_orbit(m)
        span = orbit.index + orbit.period
        assert orbit.reduce(span + 3) == orbit.index + (span + 3 - orbit.index) % orbit.period
        assert orbit.reduce(10**30 * orbit.period + orbit.index) == orbit.index
        assert [orbit.reduce(k) for k in range(span)] == list(range(span))


def test_mat_pow_matches_repeated_multiplication():
    rng = random.Random(6)
    for _ in range(15):
        d = random_dfa(rng, 4)
        _, m = incidence_matrices(d)
        orbit = power_orbit(m)
        acc = identity(len(m))
        for k in range(orbit.index + orbit.period + 5):
            assert orbit.power(k) == acc
            acc = matmul(acc, m)


def test_orbit_matches_independent_brute_force():
    # list powers with a naive triple-loop product until the first repeat
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        m = from_lists(rows)
        seen: list[list[list[int]]] = []
        cur = to_lists(identity(n))
        while cur not in seen:
            seen.append(cur)
            cur = naive_mul(cur, to_lists(m))
        first = seen.index(cur)
        orbit = power_orbit(m)
        assert orbit.index == first
        assert orbit.period == len(seen) - first
        assert orbit.index + orbit.period == len(seen)
        assert [to_lists(p) for p in orbit.powers] == seen


def test_path_algebra_soundness():
    # (M^k)[i][j] = 1 iff a length-k path exists, by independent set expansion
    rng = random.Random(8)
    for _ in range(20):
        d = random_dfa(rng, 5)
        _, m = incidence_matrices(d)
        orbit = power_orbit(m)
        adj = [set(row) for row in d.delta]
        for i in range(d.size):
            reach = {i}
            for k in range(7):
                mk = orbit.power(k)
                assert {j for j in range(d.size) if entry(mk, i, j)} == reach
                reach = {t for q in reach for t in adj[q]}


def test_incidence_one_hot_rows():
    rng = random.Random(9)
    for _ in range(20):
        d = random_dfa(rng, 5)
        mats, union = incidence_matrices(d)
        # one n-row matrix per letter, every row non-empty and inside the width
        assert len(mats) == len(d.alphabet)
        for mc in (*mats, union):
            assert len(mc) == d.size
            assert all(0 < row < 1 << d.size for row in mc)
        for mc in mats:
            for row in mc:
                assert bin(row).count("1") == 1
        # union is the entrywise OR of the letter matrices
        for q in range(d.size):
            acc = 0
            for mc in mats:
                acc |= mc[q]
            assert acc == union[q]
        # one-hot vectors stay one-hot under a letter matrix
        for q in range(d.size):
            for mc in mats:
                assert bin(rows_or(mc, 1 << q)).count("1") == 1


def test_incidence_universal_dfa():
    d = universal_dfa(Alphabet(("a", "b")))
    mats, union = incidence_matrices(d)
    assert mats == ((1,), (1,))
    assert union == (1,)


def test_incidence_fan_in_example():
    # two letters both send state 0 to state 1
    ab = Alphabet(("a", "b"))
    d = Dfa.build(ab, 2, 0, [1], {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    _, union = incidence_matrices(d)
    assert union[0] == 0b010


def test_process_caches_are_bounded_and_keep_thm1s_reuse():
    for cache in (power_orbit, _cyk_tables):
        assert cache.cache_info().maxsize is not None
    # more automata than the cache holds, each one's orbit computed once:
    # thm1 keeps one FilteredAutomata per automaton for its 20 cells, so
    # each automaton looks its orbit up exactly once
    pool = power_orbit.cache_info().maxsize + 8
    power_orbit.cache_clear()
    assert verify_thm1(pool_size=pool, finiteness_pool=0).outcome == "PASS"
    info = power_orbit.cache_info()
    assert info.misses <= pool
    assert info.hits + info.misses == pool
    assert info.currsize <= info.maxsize

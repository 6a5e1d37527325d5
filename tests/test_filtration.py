"""Word filtering, the filtered-language construction, its oracle, and the
finite atlas of distinct filtered languages."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aplang.verification
from aplang.automata import Alphabet, Dfa
from aplang.boolmat import incidence_matrices, power_orbit
from aplang.diag import build_diag_nfa
from aplang.filtration import (
    ArithFilter,
    FilterFamily,
    FilteredAutomata,
    build_filtered_dfa,
    enumerate_distinct_filtrations,
    enumeration_window,
    filter_word,
    filtered_language_oracle,
    first_disagreements,
)
from aplang.verification import DEFAULT_SEED, random_dfa, verify_thm1

from conftest import (
    AB,
    ZO,
    ab_star_dfa,
    b_ab_star_dfa,
    empty_dfa,
    equivalent,
    hub_chain_dfa,
    padded_copy,
    universal_dfa,
    zeros_then_one_dfa,
)


# --- word-level filtering ---------------------------------------------------


def test_filter_word_examples():
    assert filter_word("theorem", ArithFilter(2, 0)) == "term"
    assert filter_word("theorem", ArithFilter(2, 1)) == "hoe"
    assert filter_word("x", ArithFilter(1, 5)) == ""
    assert filter_word("ab", ArithFilter(3, 5)) == ""


def test_filter_validation():
    with pytest.raises(ValueError):
        ArithFilter(0, 0)
    with pytest.raises(ValueError):
        ArithFilter(1, -1)


@settings(max_examples=200)
@given(st.text(alphabet="abc", max_size=30))
def test_identity_filter_is_identity(w):
    assert filter_word(w, ArithFilter(1, 0)) == w


@settings(max_examples=200)
@given(
    st.text(alphabet="abc", max_size=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=6),
)
def test_filter_word_matches_index_spelling(w, a, b):
    f = ArithFilter(a, b)
    expected = "".join(w[a * i + b] for i in range((len(w) - b + a - 1) // a) if a * i + b < len(w)) if len(w) > b else ""
    assert filter_word(w, f) == expected
    # length formula: number of progression points inside the word
    assert len(filter_word(w, f)) == max(0, -(-(len(w) - b) // a) if len(w) > b else 0)


# --- signatures: the step half and the offset half ---------------------------


def signature(d, f):
    """The filter's (step half, offset half), everything its filtered
    automaton reads."""
    automata = FilteredAutomata(d)
    return automata.step_half(f.step), automata.offset_half(f.offset)


def test_signature_identity_filter(ab_star):
    assert signature(ab_star, ArithFilter(1, 0)) == (
        (0, 1), (1 << ab_star.start, ab_star.start in ab_star.accepting)
    )


def test_signature_distinguishes_steps(ab_star):
    _, m = incidence_matrices(ab_star)
    orbit = power_orbit(m)
    automata = FilteredAutomata(ab_star)
    # the transition-union matrix of the 3-state completion has orbit
    # index 1, period 2, so M^3 and M^5 fold back onto M; from step 3 on
    # the fold holds all three powers, so steps 4 and 6 share a step half
    assert (orbit.index, orbit.period) == (1, 2)
    assert orbit.reduce(3) == orbit.reduce(5) == 1
    assert orbit.power(3) == orbit.power(1)
    assert automata.step_half(4) == automata.step_half(6)
    # step 2 has the same stride but a shorter fold; its language is a* too
    assert signature(ab_star, ArithFilter(2, 0)) == ((1, 2), (1, True))
    assert signature(ab_star, ArithFilter(4, 0)) == ((1, 3), (1, True))
    assert equivalent(
        build_filtered_dfa(ab_star, ArithFilter(4, 0)),
        build_filtered_dfa(ab_star, ArithFilter(2, 0)),
    )
    # consecutive steps do differ: M^2 != M^1
    assert orbit.power(2) != orbit.power(1)
    assert automata.step_half(2) != automata.step_half(3)
    assert automata.step_half(1) != automata.step_half(2)


def test_signature_fold_separates_equal_strides():
    # words of even length: M swaps the two states, so steps 1 and 3 share
    # the stride M^0 = M^2, but step 3 lets one or two trailing letters
    # reach acceptance and so accepts every word; only the fold tells their
    # step halves apart, and equal halves must mean equal languages
    even = Dfa.build(AB, 2, 0, [0], {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    step1, step3 = ArithFilter(1, 0), ArithFilter(3, 0)
    assert build_filtered_dfa(even, step1).minimized() != build_filtered_dfa(
        even, step3
    ).minimized()
    automata = FilteredAutomata(even)
    assert automata.step_half(1) == (0, 1)
    assert automata.step_half(3) == (0, 2)
    assert automata.offset_half(0) == (1, True)


def test_signature_periodic_in_offset():
    rng = random.Random(21)
    for _ in range(10):
        d = random_dfa(rng, 4)
        _, b_bound = enumeration_window(d)
        automata = FilteredAutomata(d)
        period = automata.orbit.period
        for extra in (0, 7, 8):
            big = b_bound + extra
            reduced = b_bound - period + (big - (b_bound - period)) % period
            assert automata.offset_half(big) == automata.offset_half(reduced)


def test_signature_soundness_within_window():
    # equal halves imply equivalent filtered languages
    rng = random.Random(22)
    for _ in range(8):
        d = random_dfa(rng, 4)
        a_max, b_bound = enumeration_window(d)
        automata = FilteredAutomata(d)
        groups: dict = {}
        for f in FilterFamily.STRONG.window_pairs(a_max, b_bound):
            halves = automata.step_half(f.step), automata.offset_half(f.offset)
            groups.setdefault(halves, []).append(f)
        for members in groups.values():
            first = build_filtered_dfa(d, members[0]).minimized()
            for f in members[1:]:
                assert build_filtered_dfa(d, f).minimized() == first


def test_window_holds_every_signature():
    # enumeration_window's docstring proves the window.  Taken from the
    # minimal source, as the atlas takes it (d's own window contains it),
    # a tripled window must add no combination of halves in any family,
    # and the last step is needed: dropping it loses an ordinary pair for
    # every automaton here, so the bound offset_bound + period - 1 is exact
    rng = random.Random(30)
    pool = 200
    tight = 0
    for _ in range(pool):
        automata = FilteredAutomata(random_dfa(rng, 5))
        a_max, b_bound = enumeration_window(automata.source)

        def halves(family, step_max, offset_bound):
            return {
                (automata.step_half(f.step), automata.offset_half(f.offset))
                for f in family.window_pairs(step_max, offset_bound)
            }

        for family in FilterFamily:
            assert halves(family, 3 * a_max, 3 * b_bound) == halves(family, a_max, b_bound)
        ordinary = FilterFamily.ORDINARY
        tight += halves(ordinary, a_max - 1, b_bound) != halves(ordinary, a_max, b_bound)
    assert tight == pool


def test_constructions_ignore_unreachable_and_equivalent_states():
    # the constructions depend on the language alone: a copy padded with
    # duplicates of equivalent states and with unreachable states gives
    # the same atlases, filtered languages and diagonal NFA
    rng = random.Random(33)
    for _ in range(40):
        d = random_dfa(rng, 4)
        padded = padded_copy(d, rng)
        assert padded.minimized() == d.minimized()
        for family in FilterFamily:
            atlas = enumerate_distinct_filtrations(d, family)
            assert enumerate_distinct_filtrations(padded, family) == atlas
        for a, b in ((1, 0), (2, 1), (3, 4), (5, 2)):
            f = ArithFilter(a, b)
            assert build_filtered_dfa(padded, f).minimized() == build_filtered_dfa(
                d, f
            ).minimized()
        assert build_diag_nfa(padded) == build_diag_nfa(d)


# --- construction vs oracle ---------------------------------------------------


def test_filtered_ab_star_examples(ab_star):
    # even positions of (ab)^k spell a^k, odd positions spell b^(k-ish)
    a_star = Dfa.build(AB, 1, 0, [0], {(0, 0): 0})
    built = build_filtered_dfa(ab_star, ArithFilter(2, 0))
    assert equivalent(built, a_star)
    by_oracle = filtered_language_oracle(ab_star, ArithFilter(2, 0), 6)
    assert set(built.enumerate_accepted(6)) == by_oracle
    assert {AB.format(w) for w in by_oracle} == {"a" * k for k in range(7)}

    built_odd = build_filtered_dfa(ab_star, ArithFilter(2, 1))
    assert {AB.format(w) for w in built_odd.enumerate_accepted(6)} == {
        "b" * k for k in range(7)
    }


def test_filtered_identity_equivalence():
    rng = random.Random(23)
    for _ in range(12):
        d = random_dfa(rng, 5)
        assert equivalent(build_filtered_dfa(d, ArithFilter(1, 0)), d)


def test_filtered_zeros_then_one_shift_two(zeros_then_one):
    built = build_filtered_dfa(zeros_then_one, ArithFilter(1, 2))
    got = {zeros_then_one.alphabet.format(w) for w in built.enumerate_accepted(3)}
    want = {
        zeros_then_one.alphabet.format(w)
        for w in filtered_language_oracle(zeros_then_one, ArithFilter(1, 2), 3)
    }
    assert got == want
    assert "" in got  # via the length-1 source inside the offset
    assert "1" in got  # from 001
    assert built.accepts(())


def test_construction_matches_oracle_on_pool():
    rng = random.Random(24)
    for _ in range(12):
        d = random_dfa(rng, 5)
        for a in range(1, 5):
            for b in range(0, 5):
                f = ArithFilter(a, b)
                built = build_filtered_dfa(d, f)
                assert built.size <= (1 << d.size) + 1
                assert set(built.enumerate_accepted(6)) == filtered_language_oracle(d, f, 6)


def test_oracle_matches_literal_enumeration():
    # the oracle equals filtering every accepted source up to a*L + b
    rng = random.Random(25)
    pool = [random_dfa(rng, 4, max_symbols=2) for _ in range(8)]
    pool += [ab_star_dfa(), zeros_then_one_dfa(), empty_dfa(), universal_dfa()]
    for d in pool:
        for a in (1, 2, 3):
            # b = 5 is past every step, so the first gap outgrows the later ones
            for b in (0, 1, 2, 5):
                f = ArithFilter(a, b)
                for max_len in (0, 2, 3):
                    literal = {
                        filter_word(w, f)
                        for w in d.enumerate_accepted(a * max_len + b)
                    }
                    assert filtered_language_oracle(d, f, max_len) == literal


def test_oracle_identity_filter_is_enumeration():
    rng = random.Random(26)
    for _ in range(6):
        d = random_dfa(rng, 5)
        assert filtered_language_oracle(d, ArithFilter(1, 0), 5) == set(
            d.enumerate_accepted(5)
        )


def test_oracle_empty_language():
    assert filtered_language_oracle(empty_dfa(), ArithFilter(3, 2), 5) == set()


# --- the product walk ----------------------------------------------------------


def word_set_difference(d, f, dfa, max_len):
    """The words of length <= max_len that dfa and the oracle disagree on,
    by listing both word sets."""
    return set(dfa.enumerate_accepted(max_len)) ^ filtered_language_oracle(d, f, max_len)


def shortlex_least(words):
    """The shortest, then least, of words, or None if there are none."""
    return min(words, key=lambda w: (len(w), w), default=None)


def build_per_step(d, step, offsets):
    """thm1's multi-start build: node i is the start of offsets[i]."""
    automata = FilteredAutomata(d)
    return automata.build(automata.step_half(step), [automata.offset_half(b) for b in offsets])


def chain_dfa(n):
    """a^k for every k >= n, over {a}: a chain of n + 1 states."""
    delta = tuple((min(q + 1, n),) for q in range(n + 1))
    return Dfa(Alphabet(("a",)), n + 1, 0, frozenset({n}), delta)


def test_first_disagreement_matches_word_sets_on_mutants():
    rng = random.Random(31)
    lengths = set()
    reordered = 0
    for _ in range(400):
        d = random_dfa(rng, 5)
        f = ArithFilter(rng.randint(1, 4), rng.randint(0, 4))
        length = rng.randint(0, 7)
        built = build_filtered_dfa(d, f)
        assert first_disagreements(d, f.step, [f.offset], built)[0] is None
        # every state is reachable, so the flip always changes the language
        mutant = replace(built, accepting=built.accepting ^ {rng.randrange(built.size)})
        got = first_disagreements(d, f.step, [f.offset], mutant)[0]
        diff = word_set_difference(d, f, mutant, max(length, len(got)))
        assert got == shortlex_least(diff)
        lengths.add(len(got))
        reordered += got != min(diff)
    # witnesses of several lengths, and cells where the tuple-least word differs
    assert len(lengths) >= 4
    assert reordered


def test_first_disagreements_match_word_sets_per_start_on_mutants():
    rng = random.Random(37)
    witnesses = set()
    repeated = 0
    for _ in range(300):
        d = random_dfa(rng, 5)
        step = rng.randint(1, 4)
        offsets = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        length = rng.randint(0, 7)
        built = build_per_step(d, step, offsets)
        assert first_disagreements(d, step, offsets, built) == [None] * len(offsets)
        mutant = replace(built, accepting=built.accepting ^ {rng.randrange(built.size)})
        got = first_disagreements(d, step, offsets, mutant)
        want = []
        for i, (b, w) in enumerate(zip(offsets, got)):
            start_i = replace(mutant, start=i)
            diff = word_set_difference(d, ArithFilter(step, b), start_i, max(length, len(w or ())))
            want.append(shortlex_least(diff))
        assert got == want
        witnesses.update(got)
        repeated += len(set(offsets)) < len(offsets)
    # both verdicts occur, witnesses of several lengths, and repeated offsets
    assert None in witnesses
    assert len({len(w) for w in witnesses if w is not None}) >= 4
    assert repeated


def test_first_disagreement_on_dropped_empty_word(zeros_then_one):
    # the criterion-9b mutant: the empty word is filtered in, but not built in
    f = ArithFilter(1, 2)
    built = build_filtered_dfa(zeros_then_one, f)
    assert first_disagreements(zeros_then_one, f.step, [f.offset], built)[0] is None
    mutant = replace(built, accepting=built.accepting - {0})
    assert first_disagreements(zeros_then_one, f.step, [f.offset], mutant)[0] == ()


def test_first_disagreement_past_length_seven():
    # the mutant accepts nothing, so it disagrees on a^9, a^10, ... only
    d = chain_dfa(9)
    f = ArithFilter(1, 0)
    built = build_filtered_dfa(d, f)
    assert first_disagreements(d, f.step, [f.offset], built) == [None]
    assert len(built.accepting) == 1
    mutant = replace(built, accepting=frozenset())
    assert word_set_difference(d, f, mutant, 8) == set()
    assert first_disagreements(d, f.step, [f.offset], mutant) == [(0,) * 9]


def test_first_disagreement_without_a_tuple_least_word(zeros_then_one):
    # against the empty language the disagreements are 0^n 1, which have no
    # tuple-least member: the least to length 7 is 0^6 1, the shortest is 1
    f = ArithFilter(1, 0)
    nothing = replace(build_filtered_dfa(zeros_then_one, f), accepting=frozenset())
    assert min(word_set_difference(zeros_then_one, f, nothing, 7)) == (0,) * 6 + (1,)
    assert first_disagreements(zeros_then_one, f.step, [f.offset], nothing) == [(1,)]


def test_first_disagreement_at_length_2000_needs_no_recursion():
    d = chain_dfa(2000)
    nothing = Dfa(d.alphabet, 1, 0, frozenset(), ((0,),))
    assert first_disagreements(d, 1, [0], nothing) == [(0,) * 2000]


def test_word_oracles_reject_negative_lengths(ab_star):
    with pytest.raises(ValueError):
        filtered_language_oracle(ab_star, ArithFilter(2, 1), -1)


def test_first_disagreements_reject_bad_arguments(ab_star, zeros_then_one):
    built = build_per_step(ab_star, 2, [0, 1])
    assert first_disagreements(ab_star, 2, [0, 1], built) == [None, None]
    # one offset per start node is the most allowed
    assert len(first_disagreements(ab_star, 2, [0] * built.size, built)) == built.size
    assert zeros_then_one.alphabet == ZO != ab_star.alphabet
    bad = [
        (2, [0, 1], build_per_step(zeros_then_one, 2, [0, 1])),  # alphabet mismatch
        (2, [0] * (built.size + 1), built),  # more offsets than start nodes
        (0, [0, 1], built),  # step below 1
        (2, [0, -1], built),  # negative offset
    ]
    for step, offsets, dfa in bad:
        with pytest.raises(ValueError):
            first_disagreements(ab_star, step, offsets, dfa)


def test_thm1_builds_once_per_automaton_and_step(monkeypatch):
    calls = []
    build = FilteredAutomata.build

    def counted(automata, step_half, offset_halves):
        calls.append(len(offset_halves))
        return build(automata, step_half, offset_halves)

    monkeypatch.setattr(FilteredAutomata, "build", counted)
    result = verify_thm1(pool_size=3, finiteness_pool=0)
    assert result.outcome == "PASS"
    assert "60 cells agree exactly" in result.details[0]
    # 3 automata x steps 1..4, each build with a start node per offset 0..4
    assert calls == [5] * 12


def test_thm1_fails_with_the_word_set_witness(monkeypatch):
    # thm1 builds each (automaton, step) through FilteredAutomata.build,
    # with node b the start of offset b; the mutant flips the build's last
    # state, which every start node may reach
    build = FilteredAutomata.build

    def flipped(automata, step_half, offset_halves):
        built = build(automata, step_half, offset_halves)
        return replace(built, accepting=built.accepting ^ {built.size - 1})

    monkeypatch.setattr(FilteredAutomata, "build", flipped)
    result = verify_thm1(finiteness_pool=0)
    monkeypatch.undo()
    assert result.outcome == "FAIL"
    rng = random.Random(DEFAULT_SEED)
    offsets = range(5)

    def cells():
        for i in range(50):
            d = random_dfa(rng, 5)
            for a in range(1, 5):
                built = build_per_step(d, a, offsets)
                mutant = replace(built, accepting=built.accepting ^ {built.size - 1})
                for b in offsets:
                    f = ArithFilter(a, b)
                    diff = word_set_difference(d, f, replace(mutant, start=b), 7)
                    yield i, d, f, shortlex_least(diff)

    # the witness is no longer than 7, so listing to length 7 finds it
    i, d, f, diff = next(cell for cell in cells() if cell[3] is not None)
    assert diff != ()
    assert result.witness == (
        f"automaton {i}, {f}: construction and oracle "
        f"disagree on {d.alphabet.format(diff)!r}"
    )


@pytest.mark.parametrize("family", list(FilterFamily))
def test_thm1_finds_a_language_missing_from_the_atlas(monkeypatch, family):
    # (1, 0) is every family's first pair; from the second family on, its
    # halves' form is already built when the family's atlas is checked
    enumerate_atlas = aplang.verification.enumerate_distinct_filtrations

    def without_first(d, fam):
        atlas = enumerate_atlas(d, fam)
        return replace(atlas, entries=atlas.entries[1:]) if fam is family else atlas

    monkeypatch.setattr(
        aplang.verification, "enumerate_distinct_filtrations", without_first
    )
    result = verify_thm1(pool_size=1, finiteness_pool=2)
    assert result.outcome == "FAIL"
    assert result.witness == (
        f"automaton 0, family {family.value}, (a=1, b=0): "
        f"language missing from the atlas"
    )


@pytest.mark.parametrize("half", ["step", "offset"])
def test_thm1_probes_the_whole_doubled_window(monkeypatch, half):
    # a bogus half for only the doubled window's last step, or last offset,
    # which no atlas builds: a window one step or one offset short misses it
    windows = []

    def recorded(d):
        windows.append(enumeration_window(d))
        return windows[-1]

    step_half, offset_half = FilteredAutomata.step_half, FilteredAutomata.offset_half

    def last_step_half(automata, step):
        # fold 0: no vector state accepts, so the language is {} or {e}
        return (0, 0) if step == 2 * windows[-1][0] + 1 else step_half(automata, step)

    def last_offset_half(automata, offset):
        # the empty row with no empty word: the language is {}
        return (0, False) if offset == 2 * windows[-1][1] - 1 else offset_half(automata, offset)

    monkeypatch.setattr(aplang.verification, "enumeration_window", recorded)
    if half == "step":
        monkeypatch.setattr(FilteredAutomata, "step_half", last_step_half)
    else:
        monkeypatch.setattr(FilteredAutomata, "offset_half", last_offset_half)
    result = verify_thm1(pool_size=0)
    step_max, offset_bound = windows[-1]
    if half == "step":
        pair = f"family weak, (a={2 * step_max + 1}, b=0)"
    else:
        pair = f"family ordinary, (a={2 * offset_bound}, b={2 * offset_bound - 1})"
    assert result.outcome == "FAIL"
    assert result.witness == (
        f"automaton {len(windows) - 1}, {pair}: language missing from the atlas"
    )


def test_thm1_without_a_finiteness_pool():
    result = verify_thm1(pool_size=2, finiteness_pool=0)
    assert result.outcome == "PASS"
    assert result.details[-1].endswith(
        "(max distinct languages: weak <= 0, ordinary <= 0, strong <= 0, shift <= 0)"
    )


def test_huge_parameters_stay_cheap(ab_star):
    f = ArithFilter(10**12 + 1, 10**15)
    built = build_filtered_dfa(ab_star, f)
    assert built.size <= (1 << ab_star.size) + 1
    # offset far beyond every accepted word still admits epsilon via (ab)^k
    assert built.accepts(())


# --- the atlas ---------------------------------------------------------------


def test_vector_states_stay_within_the_subset_bound():
    # every vector state is a non-empty set of source states: a 1-state
    # source reaches exactly 2^1 - 1 = 1 of them, and larger ones reach
    # the bound without passing it
    for one in (universal_dfa(), empty_dfa()):
        automata = FilteredAutomata(one)
        for a in (1, 2, 7):
            halves = [automata.offset_half(b) for b in (0, 3)]
            assert automata.build(automata.step_half(a), halves).size == len(halves) + 1
    rng = random.Random(27)
    exact = 0
    for _ in range(40):
        automata = FilteredAutomata(random_dfa(rng, 4))
        bound = (1 << automata.source.size) - 1
        halves = [automata.offset_half(b) for b in range(5)]
        for a in range(1, 5):
            vectors = automata.build(automata.step_half(a), halves).size - len(halves)
            assert vectors <= bound
            exact += vectors == bound
    assert exact


def test_atlas_universal_single_entry():
    for family in FilterFamily:
        atlas = enumerate_distinct_filtrations(universal_dfa(), family)
        assert len(atlas) == 1


def test_atlas_empty_language_single_entry():
    atlas = enumerate_distinct_filtrations(empty_dfa(), FilterFamily.STRONG)
    assert len(atlas) == 1
    assert atlas.entries[0][1].shortest_word_length() is None


def test_atlas_shift_family_of_ab_star(ab_star):
    atlas = enumerate_distinct_filtrations(ab_star, FilterFamily.SHIFT)
    forms = atlas.canonical_forms()
    plain = ab_star.minimized()
    # dropping one letter gives b(ab)* plus the empty word
    shifted = Dfa.build(
        AB, 3, 0, [0, 1], {(0, 1): 1, (1, 0): 2, (2, 1): 1}
    ).minimized()
    assert plain in forms and shifted in forms
    assert plain != shifted
    assert len(atlas) == 2  # even offsets give (ab)*, odd offsets the other
    # brute-force window sweep agrees with the atlas count
    _, b_bound = enumeration_window(ab_star)
    sweep = {
        build_filtered_dfa(ab_star, ArithFilter(1, b)).minimized()
        for b in range(2 * b_bound + 2)
    }
    assert sweep == forms


def test_atlas_completeness_doubled_window():
    rng = random.Random(27)
    for _ in range(6):
        d = random_dfa(rng, 4)
        for family in FilterFamily:
            atlas = enumerate_distinct_filtrations(d, family)
            forms = atlas.canonical_forms()
            for f in family.window_pairs(
                2 * atlas.step_window + 1, 2 * atlas.offset_window
            ):
                assert build_filtered_dfa(d, f).minimized() in forms


def test_ordinary_atlas_reaches_past_index_plus_period():
    # b(ab)* has orbit index 1 and period 2, but its filtration b* needs an
    # even offset of at least 2 (to keep only b's and admit the empty word)
    # and, to be ordinary, an even step above it: the first such pair is
    # (4, 2), outside steps 1..index+period
    d = b_ab_star_dfa()
    b_star = Dfa.build(AB, 1, 0, [0], {(0, 1): 0}).minimized()
    assert build_filtered_dfa(d, ArithFilter(4, 2)).minimized() == b_star
    atlas = enumerate_distinct_filtrations(d, FilterFamily.ORDINARY)
    assert len(atlas) == 7
    assert b_star in atlas.canonical_forms()
    assert atlas.entries[-1][0] == ArithFilter(4, 2)


def per_pair_atlas(d, family):
    """The atlas by brute force: build and minimize every window pair and
    keep each language's first pair."""
    step_max, offset_bound = enumeration_window(d)
    first: dict = {}
    for f in family.window_pairs(step_max, offset_bound):
        first.setdefault(build_filtered_dfa(d, f).minimized(), f)
    return tuple((f, canon) for canon, f in first.items())


def test_atlas_equals_the_per_pair_reference():
    rng = random.Random(32)
    for _ in range(25):
        d = random_dfa(rng, 5)
        for family in FilterFamily:
            assert enumerate_distinct_filtrations(d, family).entries == per_pair_atlas(d, family)


def test_hub_chain_is_minimal_with_a_long_orbit():
    d = hub_chain_dfa((3, 4, 5))
    orbit = power_orbit(incidence_matrices(d)[1])
    assert d.size == 15
    assert d.minimized().size == 15
    assert (orbit.index, orbit.period) == (3, 60)


def test_hub_chain_atlas_equals_the_per_pair_reference():
    d = hub_chain_dfa((3, 4, 5))
    for family in (FilterFamily.WEAK, FilterFamily.SHIFT):
        assert enumerate_distinct_filtrations(d, family).entries == per_pair_atlas(d, family)


@pytest.mark.parametrize("name, size", [("strong", 96), ("ordinary", 5)])
def test_hub_chain_atlas_closed_under_a_sampled_doubled_window(name, size):
    d = hub_chain_dfa((3, 4, 5))
    family = FilterFamily(name)
    atlas = enumerate_distinct_filtrations(d, family)
    assert len(atlas) == size
    for f, canon in atlas.entries:
        assert build_filtered_dfa(d, f).minimized() == canon
    forms = atlas.canonical_forms()
    rng = random.Random(f"hub-closure/{family.value}")
    for _ in range(60):
        a = rng.randint(1, 2 * atlas.step_window)
        b = rng.randrange(2 * atlas.offset_window)
        f = ArithFilter(a, b % a if family is FilterFamily.ORDINARY else b)
        assert build_filtered_dfa(d, f).minimized() in forms, f


def test_atlas_entries_pairwise_distinct_and_family_consistent():
    rng = random.Random(28)
    for _ in range(8):
        d = random_dfa(rng, 4)
        for family in FilterFamily:
            atlas = enumerate_distinct_filtrations(d, family)
            assert len(atlas.canonical_forms()) == len(atlas)
            for f, _ in atlas.entries:
                assert family.admits(f)


def test_family_inclusions():
    rng = random.Random(29)
    for _ in range(8):
        d = random_dfa(rng, 4)
        strong = enumerate_distinct_filtrations(d, FilterFamily.STRONG).canonical_forms()
        for family in (FilterFamily.WEAK, FilterFamily.ORDINARY, FilterFamily.SHIFT):
            forms = enumerate_distinct_filtrations(d, family).canonical_forms()
            assert forms <= strong


def test_family_membership_rules():
    weak, ordinary, strong, shift = (
        FilterFamily.WEAK,
        FilterFamily.ORDINARY,
        FilterFamily.STRONG,
        FilterFamily.SHIFT,
    )
    f = ArithFilter
    assert weak.admits(f(3, 0)) and not weak.admits(f(3, 1))
    assert ordinary.admits(f(3, 2)) and not ordinary.admits(f(3, 3))
    assert shift.admits(f(1, 9)) and not shift.admits(f(2, 0))
    assert strong.admits(f(7, 9))
    assert list(shift.window_pairs(5, 2)) == [f(1, 0), f(1, 1)]
    assert list(weak.window_pairs(3, 5)) == [f(1, 0), f(2, 0), f(3, 0)]
    assert list(ordinary.window_pairs(3, 2)) == [
        f(1, 0), f(2, 0), f(2, 1), f(3, 0), f(3, 1),
    ]

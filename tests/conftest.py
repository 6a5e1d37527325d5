"""Shared automata used across the suite, and the suite's hypothesis
profile: derandomized with no example database, so every run draws the
same examples."""

import pytest
from hypothesis import settings

from aplang.automata import Alphabet, Dfa

settings.register_profile("aplang", derandomize=True, database=None)
settings.load_profile("aplang")

AB = Alphabet(("a", "b"))
ZO = Alphabet(("0", "1"))
OTT = Alphabet(("1", "2", "3"))


def ab_star_dfa() -> Dfa:
    """(ab)*, as a 3-state complete automaton (2 live states + dead)."""
    return Dfa.build(AB, 2, 0, [0], {(0, 0): 1, (1, 1): 0})


def b_ab_star_dfa() -> Dfa:
    """b(ab)*, as a 3-state complete automaton: start 1, accepting 0, dead 2."""
    return Dfa.build(AB, 2, 1, [0], {(0, 0): 1, (1, 1): 0})


def zeros_then_one_dfa() -> Dfa:
    """0*1 over {0, 1}."""
    return Dfa.build(ZO, 2, 0, [1], {(0, 0): 0, (0, 1): 1})


def universal_dfa(alphabet: Alphabet = AB) -> Dfa:
    return Dfa(alphabet, 1, 0, frozenset({0}), ((0,) * len(alphabet),))


def empty_dfa(alphabet: Alphabet = AB) -> Dfa:
    return Dfa(alphabet, 1, 0, frozenset(), ((0,) * len(alphabet),))


def twos_dfa() -> Dfa:
    """2* over {1, 2, 3}."""
    return Dfa.build(OTT, 1, 0, [0], {(0, 1): 0})


def single_word_dfa(text: str, alphabet: Alphabet) -> Dfa:
    word = alphabet.word(text)
    return Dfa.build(
        alphabet, len(word) + 1, 0, [len(word)],
        {(i, s): i + 1 for i, s in enumerate(word)},
    )


@pytest.fixture
def ab_star() -> Dfa:
    return ab_star_dfa()


@pytest.fixture
def zeros_then_one() -> Dfa:
    return zeros_then_one_dfa()

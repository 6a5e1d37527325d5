"""Shared automata used across the suite, and the suite's hypothesis
profile: derandomized with no example database, so every run draws the
same examples."""

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

import aplang
from aplang.automata import Alphabet, Dfa, Nfa
from aplang.jsonio import obj_to_nfa

settings.register_profile("aplang", derandomize=True, database=None)
settings.load_profile("aplang")

AB = Alphabet(("a", "b"))
ZO = Alphabet(("0", "1"))
OTT = Alphabet(("1", "2", "3"))


def equivalent(x: Dfa, y: Dfa) -> bool:
    """Language equality, as identity of canonical minimized forms."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    return x.minimized() == y.minimized()


def to_nfa(d: Dfa) -> Nfa:
    """The same automaton as an NFA of singleton target sets."""
    rows = tuple(tuple(frozenset((t,)) for t in row) for row in d.delta)
    return Nfa(d.alphabet, d.size, frozenset((d.start,)), d.accepting, rows)


def with_accepting(d: Dfa, accepting) -> Dfa:
    """d with another accepting set."""
    return Dfa(d.alphabet, d.size, d.start, accepting, d.delta)


def with_start(d: Dfa, start: int) -> Dfa:
    """d with another start state."""
    return Dfa(d.alphabet, d.size, start, d.accepting, d.delta)


def fresh_env(**extra):
    """The environment for a fresh interpreter that imports this package."""
    package_root = str(Path(aplang.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def load_nfa(path: str) -> Nfa:
    """Reads back what save_nfa and the diag-nfa command write."""
    with open(path, encoding="utf-8") as fh:
        return obj_to_nfa(json.load(fh))


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


def hub_chain_dfa(cycles: tuple[int, ...], seed: int = 1) -> Dfa:
    """The reachable long-orbit family over {a, b}: hubs h0..h(k-1) are
    states 0..k-1, then the cycles in order.  From hub i, a enters cycle i
    and b goes to hub i+1; from the last hub, b also enters its cycle.
    Both letters step along each cycle, and the start is h0.  Each cycle
    state accepts with probability 1/2, drawn from the seed; a cycle left
    with none or all of its states accepting accepts at its first state
    only.  The union matrix has index k and period lcm(cycles)."""
    rng = random.Random(f"hub/{seed}/{'-'.join(map(str, cycles))}")
    k = len(cycles)
    firsts = [k + sum(cycles[:i]) for i in range(k)]
    delta = [(firsts[i], i + 1 if i + 1 < k else firsts[i]) for i in range(k)]
    accepting: set[int] = set()
    for first, length in zip(firsts, cycles):
        states = range(first, first + length)
        delta.extend((first + (q - first + 1) % length,) * 2 for q in states)
        chosen = [q for q in states if rng.random() < 0.5]
        accepting.update(chosen if 0 < len(chosen) < length else [first])
    return Dfa(AB, len(delta), 0, frozenset(accepting), tuple(delta))


def padded_copy(d: Dfa, rng: random.Random, extra: int = 3) -> Dfa:
    """A DFA for the same language with more states: a duplicate of every
    state, equivalent to it, that transitions reach at random in place of
    the original, then `extra` unreachable states with random transitions
    among themselves and into the rest, and random acceptance."""
    n, k = d.size, len(d.alphabet)

    def target(t: int) -> int:
        return t + n * rng.randrange(2)

    delta = [tuple(target(t) for t in d.delta[q % n]) for q in range(2 * n)]
    delta.extend(
        tuple(rng.randrange(2 * n + extra) for _ in range(k)) for _ in range(extra)
    )
    accepting = {q for q in range(2 * n) if q % n in d.accepting}
    accepting.update(q for q in range(2 * n, 2 * n + extra) if rng.random() < 0.5)
    return Dfa(d.alphabet, 2 * n + extra, target(d.start), frozenset(accepting), tuple(delta))


@pytest.fixture
def ab_star() -> Dfa:
    return ab_star_dfa()


@pytest.fixture
def zeros_then_one() -> Dfa:
    return zeros_then_one_dfa()

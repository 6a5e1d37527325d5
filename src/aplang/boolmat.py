"""Boolean matrix semiring over automaton transition graphs.

Vectors are ints: bit j is state j.  Matrices are tuples of such ints: row
i is an int whose bit j is entry (i, j).  Products OR together rows
selected by set bits, so the inner loops are word-parallel.  Both are
immutable and hashable, which lets the eventually-periodic power orbit of a
matrix be memoized once and reused by every construction that walks matrix
powers.
"""

from __future__ import annotations

from functools import lru_cache

from .automata import Dfa, Record, explore

Matrix = tuple[int, ...]


def rows_or(m: Matrix, bits: int) -> int:
    """Row vector times matrix: the OR of the rows of m selected by bits."""
    acc = 0
    while bits:
        low = bits & -bits
        acc |= m[low.bit_length() - 1]
        bits ^= low
    return acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Boolean (OR of AND) matrix product a b."""
    return tuple(rows_or(b, r) for r in a)


class PowerOrbit(Record):
    """The eventually periodic power sequence of a boolean matrix.

    powers lists A^0 .. A^(index+period-1), which are pairwise distinct;
    A^(index+period) = A^index, so every higher power folds back into the
    listed range.
    """

    __slots__ = ("index", "period", "powers")

    def __init__(self, index: int, period: int, powers: tuple[Matrix, ...]) -> None:
        self._fill(index, period, powers)

    def _key(self) -> tuple:
        return (self.index, self.period, self.powers)

    def reduce(self, k: int) -> int:
        """Position of A^k in powers; k may be arbitrarily large."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k < len(self.powers):
            return k
        return self.index + (k - self.index) % self.period

    def power(self, k: int) -> Matrix:
        return self.powers[self.reduce(k)]


# Callers work through one automaton's matrix at a time, so a small bound
# keeps every reuse while capping the memory of long-lived processes.
@lru_cache(maxsize=32)
def power_orbit(a: Matrix) -> PowerOrbit:
    """Minimal (index, period) with A^(index+period) = A^index, plus all
    distinct powers, found by iterating products until the first repeat:
    the chain I, A, A^2, ... gives each power one successor, so the index
    is the number of the power that the last listed one steps to."""
    identity = tuple(1 << i for i in range(len(a)))
    powers, rows = explore((identity,), lambda p: (matmul(p, a),))
    (index,) = rows[-1]
    return PowerOrbit(index=index, period=len(powers) - index, powers=tuple(powers))


def incidence_matrices(d: Dfa) -> tuple[tuple[Matrix, ...], Matrix]:
    """Per-symbol incidence matrices of a complete DFA plus their entrywise OR.

    Matrix c has a 1 at (i, j) iff the automaton moves from state i to state j
    on symbol c; completeness makes each of these one-hot per row.
    """
    per_symbol = tuple(tuple(1 << row[c] for row in d.delta) for c in range(len(d.alphabet)))
    union = tuple(sum(1 << t for t in set(row)) for row in d.delta)
    return per_symbol, union

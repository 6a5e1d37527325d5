"""Boolean matrix semiring over automaton transition graphs.

Matrices are bit-packed: row i is a single int whose bit j is entry (i, j).
Products OR together rows selected by set bits, so the inner loops are
word-parallel.  All values are immutable and hashable, which lets the
eventually-periodic power orbit of a matrix be memoized once and reused by
every construction that walks matrix powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automata import Dfa, explore


@dataclass(frozen=True)
class BoolMatrix:
    """Square boolean matrix; rows[i] holds row i with bit j = entry (i, j)."""

    size: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.size <= 0:
            raise ValueError("matrix size must be positive")
        if len(self.rows) != self.size:
            raise ValueError("row count does not match size")
        mask = (1 << self.size) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the matrix width")

    @staticmethod
    def identity(n: int) -> "BoolMatrix":
        return BoolMatrix(n, tuple(1 << i for i in range(n)))

    def rows_or(self, bits: int) -> int:
        """Row vector times matrix: the OR of the rows selected by bits."""
        acc = 0
        rows = self.rows
        while bits:
            low = bits & -bits
            acc |= rows[low.bit_length() - 1]
            bits ^= low
        return acc

    def __matmul__(self, other: "BoolMatrix") -> "BoolMatrix":
        """Boolean (OR of AND) matrix product."""
        if other.size != self.size:
            raise ValueError("dimension mismatch")
        return BoolMatrix(self.size, tuple(other.rows_or(r) for r in self.rows))


@dataclass(frozen=True)
class PowerOrbit:
    """The eventually periodic power sequence of a boolean matrix.

    powers lists A^0 .. A^(index+period-1), which are pairwise distinct;
    A^(index+period) = A^index, so every higher power folds back into the
    listed range.
    """

    index: int
    period: int
    powers: tuple[BoolMatrix, ...]

    def reduce(self, k: int) -> int:
        """Position of A^k in powers; k may be arbitrarily large."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k < len(self.powers):
            return k
        return self.index + (k - self.index) % self.period

    def power(self, k: int) -> BoolMatrix:
        return self.powers[self.reduce(k)]


# Callers work through one automaton's matrix at a time, so a small bound
# keeps every reuse while capping the memory of long-lived processes.
@lru_cache(maxsize=32)
def power_orbit(a: BoolMatrix) -> PowerOrbit:
    """Minimal (index, period) with A^(index+period) = A^index, plus all
    distinct powers, found by iterating products until the first repeat:
    the chain I, A, A^2, ... gives each power one successor, so the index
    is the number of the power that the last listed one steps to."""
    powers, rows = explore((BoolMatrix.identity(a.size),), lambda p: (p @ a,))
    (index,) = rows[-1]
    return PowerOrbit(index=index, period=len(powers) - index, powers=tuple(powers))


def incidence_matrices(d: Dfa) -> tuple[tuple[BoolMatrix, ...], BoolMatrix]:
    """Per-symbol incidence matrices of a complete DFA plus their entrywise OR.

    Matrix c has a 1 at (i, j) iff the automaton moves from state i to state j
    on symbol c; completeness makes each of these one-hot per row.
    """
    n = d.size
    per_symbol = []
    union_rows = [0] * n
    for c in range(len(d.alphabet)):
        rows = []
        for q in range(n):
            bit = 1 << d.delta[q][c]
            rows.append(bit)
            union_rows[q] |= bit
        per_symbol.append(BoolMatrix(n, tuple(rows)))
    return tuple(per_symbol), BoolMatrix(n, tuple(union_rows))

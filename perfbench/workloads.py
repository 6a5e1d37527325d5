"""The benchmark's workloads: their inputs, their operations and the answers
their outputs must give.

Shared by run.py, which checks outputs, and by the child
processes (child.py), which make the inputs and run the operations.  Every
input is a pure function of the workload seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("claims", "stress", "thm5-deep")

# The verdicts every claim run must give, in claim order.  thm2 is the documented red check:
# the stated section identity is false, and this member is its witness.
PINNED_VERDICTS = {
    "thm1": "PASS",
    "thm2": "FAIL",
    "thm3": "PASS",
    "thm4": "PASS",
    "thm5": "PASS",
}
THM2_WITNESS = "100200303"
CLAIM_IDS = tuple(PINNED_VERDICTS)

# Coprime cycle lengths of the stress automata.  Their union matrices have
# index 0 and period lcm(cycles): 60, 105 and 210.
ATLAS_CYCLES = ((3, 4, 5), (3, 5, 7))
DIAG_CYCLES = ((3, 4, 5), (3, 5, 7), (2, 3, 5, 7))
FAMILIES = ("weak", "ordinary", "strong", "shift")

# Per-operation time caps, a generous multiple of today's cost.  A capped
# operation is stopped and counted as failed.
CAP_S = {"claims": 40.0, "stress": 40.0, "thm5-deep": 90.0}


@dataclass(frozen=True)
class Op:
    """One user-visible operation, run once per repetition.

    kind "claim": args = (claim id, claim seed, deep);
    kind "cli": args = the argument list of cli.main;
    kind "diag-min": args = (DFA file,): build the diagonal NFA, then
    determinize and minimize it.
    """

    name: str
    kind: str
    args: tuple
    size: str
    cap_s: float
    cycles: tuple[int, ...] = ()
    family: str = ""


def period(cycles: tuple[int, ...]) -> int:
    return math.lcm(*cycles)


def dfa_file(workdir: Path, cycles: tuple[int, ...]) -> Path:
    return workdir / f"stress_{'-'.join(map(str, cycles))}.json"


def stress_dfa(cycles: tuple[int, ...], seed: int):
    """Coprime-cycle stress DFA over {a, b}.

    Disjoint cycles of the given lengths; both letters step one place
    along the cycle; the start state is 0, on the first cycle.  The seed
    only draws the accepting set, at least one state per cycle, so the
    orbit length, and with it the cost, does not depend on the seed.
    """
    from aplang.automata import Alphabet, Dfa

    rng = random.Random(f"stress/{seed}/{'-'.join(map(str, cycles))}")
    delta = []
    accepting = set()
    base = 0
    for length in cycles:
        states = range(base, base + length)
        delta.extend((base + (q - base + 1) % length,) * 2 for q in states)
        chosen = [q for q in states if rng.random() < 0.5]
        accepting.update(chosen or [rng.choice(states)])
        base += length
    return Dfa(Alphabet(("a", "b")), base, 0, frozenset(accepting), tuple(delta))


def all_stress_cycles() -> tuple[tuple[int, ...], ...]:
    return tuple(dict.fromkeys(ATLAS_CYCLES + DIAG_CYCLES))


def ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    cap = CAP_S[workload]
    if workload == "claims":
        return [
            Op(f"verify {c}", "claim", (c, seed, False), f"claim {c}, seed {seed}", cap)
            for c in CLAIM_IDS
        ]
    if workload == "thm5-deep":
        return [Op("verify thm5 --deep", "claim", ("thm5", seed, True), "|y|=169 sweep", cap)]
    if workload != "stress":
        raise ValueError(f"unknown workload {workload!r}")
    out: list[Op] = []
    for cycles in ATLAS_CYCLES:
        path = str(dfa_file(workdir, cycles))
        p = period(cycles)
        for family in FAMILIES:
            out.append(Op(
                f"enumerate-filtrations {family} p{p}", "cli",
                ("enumerate-filtrations", path, family, "--format", "json"),
                f"period {p} (cycles {cycles}), family {family}", cap, cycles, family,
            ))
    for cycles in DIAG_CYCLES:
        p = period(cycles)
        out.append(Op(
            f"diag-nfa p{p}", "cli", ("diag-nfa", str(dfa_file(workdir, cycles))),
            f"period {p} (cycles {cycles})", cap, cycles,
        ))
    for cycles in ATLAS_CYCLES:
        p = period(cycles)
        out.append(Op(
            f"diag-min p{p}", "diag-min", (str(dfa_file(workdir, cycles)),),
            f"period {p} (cycles {cycles})", cap, cycles,
        ))
    return out

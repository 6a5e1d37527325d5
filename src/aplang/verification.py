"""Deterministic desk-scale verification of the five toolkit claims.

Each claim checks a construction against independent brute-force oracles
over seeded random pools or explicit parameter sweeps:

  thm1  filtering a regular language by every arithmetic progression gives
        finitely many distinct languages, and the automaton construction
        matches a word-level oracle exactly.
  thm2  the weak filtrations of the zero-run ladder language
        {1 0^n 2 (0^+ 3)^n} are pairwise distinct (via its 123+ sections).
  thm3  the shifts of {0^n 1^n} are pairwise distinct (via longest all-one
        members).
  thm4  the diagonal-language NFA agrees with a source-walk oracle and
        with literal enumeration; the rejected gap-after-letter stepping is
        shown to diverge.
  thm5  the diagonal of the three-block language meets a b c+ d e f+ g h i+ j
        exactly in the expected staircase words, checked constructively and
        by counting members per diagonal pattern at square total lengths.

All reported content is a pure function of the inputs and the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from .automata import Alphabet, Dfa
from .diag import build_diag_nfa, diag_oracle_accepts, diag_oracle_exhaustive, diag_word
from .filtration import (
    ArithFilter,
    FilterFamily,
    FilteredAutomata,
    enumerate_distinct_filtrations,
    enumeration_window,
    filter_word,
    first_disagreements,
)
from .grammar import (
    THM2_GRAMMAR,
    ZERO_N_ONE_N_GRAMMAR,
    count_thm5_by_length,
    enumerate_cfg_words,
    enumerate_cfg_words_by_length,
    in_0n1n,
    in_thm2,
    in_thm5,
    thm5_witness,
)

DEFAULT_SEED = 1729

CLAIM_IDS = ("thm1", "thm2", "thm3", "thm4", "thm5")

# thm1 checks the filters with steps 1.._THM1_STEP_LIMIT and offsets
# 0.._THM1_OFFSET_LIMIT; thm3 the shifts by _THM3_OFFSETS
_THM1_STEP_LIMIT = 4
_THM1_OFFSET_LIMIT = 4
_THM3_OFFSETS = range(7)


@dataclass
class ClaimResult:
    claim: str
    outcome: str
    details: list[str] = field(default_factory=list)
    witness: Optional[str] = None
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    results: list[ClaimResult]

    @property
    def all_pass(self) -> bool:
        return all(r.outcome != "FAIL" for r in self.results)

    def table_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            lines.append(f"{r.claim}: {r.outcome}")
            for d in r.details:
                lines.append(f"  {d}")
            if r.witness:
                lines.append(f"  counterexample: {r.witness}")
        npass = sum(r.outcome == "PASS" for r in self.results)
        nfail = sum(r.outcome == "FAIL" for r in self.results)
        lines.append(f"result: {npass} pass, {nfail} fail")
        return lines

    def to_json_obj(self) -> dict:
        return {
            "claims": [
                {
                    "claim": r.claim,
                    "outcome": r.outcome,
                    "details": list(r.details),
                    "witness": r.witness,
                }
                for r in self.results
            ],
            "all_pass": self.all_pass,
        }


def random_dfa(
    rng: random.Random,
    max_states: int,
    min_symbols: int = 1,
    max_symbols: int = 3,
) -> Dfa:
    """Uniform complete DFA over a prefix of the letters a, b, c."""
    n = rng.randint(1, max_states)
    k = rng.randint(min_symbols, max_symbols)
    alphabet = Alphabet(tuple("abc"[:k]))
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    start = rng.randrange(n)
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(alphabet, n, start, accepting, delta)


class _Refuted(Exception):
    """A counterexample to a claim, its message the witness; neither a
    ValueError (a CLI usage error) nor a RuntimeError (thm1 catches those)."""


def _timed(claim: str, body: Callable[[ClaimResult], None]) -> ClaimResult:
    result = ClaimResult(claim=claim, outcome="PASS")
    t0 = time.perf_counter()
    try:
        body(result)
    except _Refuted as exc:
        result.outcome = "FAIL"
        result.witness = str(exc)
    result.elapsed = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# thm1: finitely many filtered languages of a regular language


def verify_thm1(
    seed: int = DEFAULT_SEED,
    pool_size: int = 50,
    finiteness_pool: int = 20,
) -> ClaimResult:
    def body(result: ClaimResult) -> None:
        rng = random.Random(seed)
        offsets = range(_THM1_OFFSET_LIMIT + 1)
        cells = 0
        for i in range(pool_size):
            d = random_dfa(rng, 5)
            automata = FilteredAutomata(d)
            offset_halves = [automata.offset_half(b) for b in offsets]
            for a in range(1, _THM1_STEP_LIMIT + 1):
                # one automaton per step, node b the start of offset b
                try:
                    built = automata.build(automata.step_half(a), offset_halves)
                except RuntimeError as exc:
                    first = ArithFilter(a, offsets[0])
                    raise _Refuted(f"automaton {i}, {first}: {exc}") from exc
                diffs = first_disagreements(d, a, offsets, built)
                for b, diff in zip(offsets, diffs):
                    if diff is not None:
                        raise _Refuted(
                            f"automaton {i}, {ArithFilter(a, b)}: construction and oracle "
                            f"disagree on {d.alphabet.format(diff)!r}"
                        )
                cells += len(offsets)
        result.details.append(
            f"construction vs oracle: {pool_size} random automata, steps "
            f"1..{_THM1_STEP_LIMIT}, offsets 0..{_THM1_OFFSET_LIMIT}, every word: "
            f"{cells} cells agree exactly"
        )
        result.details.append(
            "state bound: every construction stayed within 2^n - 1 vector states "
            "beside its start nodes"
        )

        atlas_sizes: dict[str, int] = {}
        for i in range(finiteness_pool):
            d = random_dfa(rng, 5)
            automata = FilteredAutomata(d)
            # d's own window, not the minimal DFA's that the atlas uses
            step_max, offset_bound = enumeration_window(d)
            # build reads only the two halves: one build per pair of halves
            form_of: dict[tuple, Dfa] = {}
            for family in FilterFamily:
                atlas = enumerate_distinct_filtrations(d, family)
                forms = atlas.canonical_forms()
                for f in family.window_pairs(2 * step_max + 1, 2 * offset_bound):
                    halves = automata.step_half(f.step), automata.offset_half(f.offset)
                    if halves not in form_of:
                        form_of[halves] = automata.build(halves[0], [halves[1]]).minimized()
                    if form_of[halves] not in forms:
                        raise _Refuted(
                            f"automaton {i}, family {family.value}, {f}: "
                            f"language missing from the atlas"
                        )
                key = family.value
                atlas_sizes[key] = max(atlas_sizes.get(key, 0), len(atlas))
        summary = ", ".join(
            f"{fam.value} <= {atlas_sizes.get(fam.value, 0)}" for fam in FilterFamily
        )
        result.details.append(
            f"finiteness: {finiteness_pool} random automata, each atlas closed "
            f"under a doubled enumeration window (max distinct languages: {summary})"
        )

    return _timed("thm1", body)


# ---------------------------------------------------------------------------
# thm2: the weak filtrations of {1 0^n 2 (0^+ 3)^n : n >= 1} are distinct


def _thm2_pattern_words(length: int) -> set[str]:
    """The words 1 0^m 2 (0^z 3)^m, m >= 1 and every z >= 1, of exactly the
    given length, grown one 0^z 3 block at a time from 1 0^m 2; the last
    block's zero run takes the letters that are left."""
    out: set[str] = set()
    block = ["0" * z + "3" for z in range(length)]  # block[z] is 0^z 3
    for m in range(1, (length - 2) // 3 + 1):
        level = ["1" + "0" * m + "2"]
        for blocks in range(m - 1, 0, -1):
            # the blocks after this one take at least two letters each
            level = [p + b for p in level for b in block[1 : length - 2 * blocks - len(p)]]
        out.update(p + block[length - len(p) - 1] for p in level)
    return out


def _is_123plus(s: str) -> bool:
    return len(s) > 2 and s.startswith("12") and not s[2:].strip("3")


def verify_thm2(step_range: tuple[int, ...] = (1, 2, 3, 4, 5)) -> ClaimResult:
    """Checks the claimed section identity L_{a,0} meet 123+ = {123^(a-1)}.

    The identity fails for a >= 3: a source may spend fewer than a-1 of its
    threes on kept positions (e.g. 100200303 filtered by (3, 0) keeps
    indices 0, 3, 6 and yields 123), so the true bounded section is
    {123^k : 1 <= k <= a-1}.  The claim is reported exactly as stated and
    therefore FAILs with that witness; the distinctness of the filtered
    languages, which is what the sections are for, is confirmed in the
    details since the sections still differ pairwise in their longest word.

    The sources are walked one exact length at a time, empty lengths
    included; a section word's witness source is recorded when it first appears.
    """

    def body(result: ClaimResult) -> None:
        sections: dict[int, frozenset[str]] = {}
        mismatch: Optional[str] = None
        for a in step_range:
            bound = a * (a + 1)
            f = ArithFilter(a, 0)
            sources: dict[str, str] = {}  # section word -> its least source
            for n, words in enumerate_cfg_words_by_length(THM2_GRAMMAR, bound):
                if not all(map(in_thm2, words)):
                    raise _Refuted(f"a={a}: grammar produced a word outside the pattern")
                if words != _thm2_pattern_words(n):
                    raise _Refuted(f"a={a}: grammar enumeration and pattern enumeration differ")
                for x in filter(_is_123plus, {filter_word(s, f) for s in words} - sources.keys()):
                    sources[x] = min(s for s in words if filter_word(s, f) == x)
            section = frozenset(sources)
            sections[a] = section
            shown = "{}" if not section else "{" + ", ".join(sorted(section)) + "}"
            result.details.append(
                f"a={a}: sources to length {bound}, filtered language meets "
                f"123+ in {shown}"
            )
            expected = frozenset() if a == 1 else frozenset({"12" + "3" * (a - 1)})
            if section != expected and mismatch is None:
                mismatch = f"a={a}: section is not the singleton {{12{'3' * (a - 1)}}}; "
                if section <= expected:
                    mismatch += f"it lacks {min(expected)}"
                else:
                    extra = min(section - expected, key=lambda s: (len(s), s))
                    mismatch += f"source {sources[extra]} filters to {extra}"
        if len(set(sections.values())) != len(sections):
            raise _Refuted("two steps produced the same 123+ section")
        result.details.append(
            f"the {len(sections)} sections are pairwise distinct (each "
            f"caps at 123^(a-1)), so the filtered languages are pairwise "
            f"distinct even though the stated singleton identity fails"
        )
        if mismatch is not None:
            raise _Refuted(mismatch)

    return _timed("thm2", body)


# ---------------------------------------------------------------------------
# thm3: the shifts of {0^n 1^n : n >= 0} are distinct


def verify_thm3() -> ClaimResult:
    def body(result: ClaimResult) -> None:
        languages: dict[int, frozenset[str]] = {}
        for b in _THM3_OFFSETS:
            n_max = 2 * b + 2
            words = enumerate_cfg_words(ZERO_N_ONE_N_GRAMMAR, 2 * n_max)
            if not all(map(in_0n1n, words)):
                raise _Refuted(f"b={b}: grammar produced a word outside 0^n 1^n")
            if len(words) != n_max + 1:
                raise _Refuted(f"b={b}: expected {n_max + 1} sources, got {len(words)}")
            filtered = frozenset(filter_word(w, ArithFilter(1, b)) for w in words)
            all_ones = [w for w in filtered if not w.strip("1")]
            longest = max(all_ones, key=len)
            if longest != "1" * b:
                raise _Refuted(f"b={b}: longest all-one word has length {len(longest)}")
            languages[b] = filtered
            result.details.append(
                f"b={b}: sources 0^n 1^n with n <= {n_max}; longest all-one "
                f"filtered word is 1^{b}"
            )
        offsets = sorted(languages)
        for i, b1 in enumerate(offsets):
            for b2 in offsets[i + 1 :]:
                marker = "1" * b2
                if marker in languages[b1] or marker not in languages[b2]:
                    raise _Refuted(f"1^{b2} fails to separate offsets {b1} and {b2}")
        result.details.append(
            f"each 1^b separates its language from every smaller offset, so "
            f"the {len(offsets)} languages are pairwise distinct"
        )

    return _timed("thm3", body)


# ---------------------------------------------------------------------------
# thm4: the diagonal NFA against both oracles


def verify_thm4(seed: int = DEFAULT_SEED, pool_size: int = 30) -> ClaimResult:
    def body(result: ClaimResult) -> None:
        rng = random.Random(seed)
        ab = Alphabet(("a", "b"))
        abba = Dfa.build(
            ab, 5, 0, [4], {(i, s): i + 1 for i, s in enumerate(ab.word("abba"))}
        )
        pool: list[tuple[str, Dfa]] = [("fixed witness {abba}", abba)]
        pool.extend(
            (f"random {i}", random_dfa(rng, 4, min_symbols=2, max_symbols=2))
            for i in range(pool_size)
        )
        for name, d in pool:
            nfa = build_diag_nfa(d)
            for t in range(1, 5):
                literal = diag_oracle_exhaustive(d, t)
                for w in product(range(len(d.alphabet)), repeat=t):
                    from_nfa = nfa.accepts(w)
                    from_matrix = diag_oracle_accepts(d, w)
                    from_literal = w in literal
                    if not (from_nfa == from_matrix == from_literal):
                        raise _Refuted(
                            f"{name}, word {d.alphabet.format(w)!r}: nfa={from_nfa}, "
                            f"matrix oracle={from_matrix}, literal oracle={from_literal}"
                        )
        result.details.append(
            f"three-way agreement (nfa, matrix oracle, literal enumeration) "
            f"for {len(pool)} automata and every word of length t <= 4"
        )
        variant = build_diag_nfa(abba, gap_after=True)
        divergence = next(
            (
                w
                for t in range(1, 4)
                for w in product(range(len(ab)), repeat=t)
                if variant.accepts(w) != diag_oracle_accepts(abba, w)
            ),
            None,
        )
        if divergence is None:
            raise _Refuted(
                "the gap-after-letter stepping unexpectedly matched the "
                "oracles everywhere"
            )
        result.details.append(
            "info: gap-after-letter stepping diverges on fixed witness {abba}, "
            f"t={len(divergence)}, word {ab.format(divergence)!r}; the "
            "gap-before-letter stepping matches both oracles"
        )

    return _timed("thm4", body)


# ---------------------------------------------------------------------------
# thm5: the diagonal of the three-block language


def _check_member(total_len: int, pattern: str, y: Optional[str]) -> None:
    """Refutes the count behind a diagonal pattern when the member rebuilt
    for it misses the pattern on its diagonal or is outside the language.
    No member (None) refutes nothing."""
    if y is None:
        return
    x = diag_word(y)
    if not all(pc in ("?", xc) for pc, xc in zip(pattern, x)):
        raise _Refuted(
            f"|y|={total_len}: a member enumerated for {pattern} has diagonal {x}"
        )
    if not in_thm5(y):
        raise _Refuted(
            f"|y|={total_len}: the member rebuilt for {pattern} is not in the language"
        )


def verify_thm5(deep: bool = False) -> ClaimResult:
    def body(result: ClaimResult) -> None:
        for t in (1, 2):
            w = thm5_witness(t)
            side = 3 * (t + 2) + 1
            expected = "ab" + "c" * t + "de" + "f" * t + "gh" + "i" * t + "j"
            if not in_thm5(w):
                raise _Refuted(f"t={t}: witness fails the structural predicate")
            if len(w) != side * side or diag_word(w) != expected:
                raise _Refuted(f"t={t}: witness diagonal is {diag_word(w)!r}")
            result.details.append(
                f"t={t}: witness of length {side}^2 is in the language and its "
                f"diagonal is {expected}"
            )

        # every filling of the ?s but abcdefghij breaks the pattern
        # a b c+ d e f+ g h i+ j, so that is the only well-formed diagonal
        # exactly when it is realizable
        members, y = count_thm5_by_length(100, "ab?de?gh?j")
        _, staircase = count_thm5_by_length(100, "abcdefghij")
        _check_member(100, "ab?de?gh?j", y)
        _check_member(100, "abcdefghij", staircase)
        if staircase is None:
            raise _Refuted("|y|=100: well-formed diagonals are []")
        result.details.append(
            f"|y|=100: {members} members match the diagonal pattern "
            f"ab?de?gh?j; the only well-formed diagonal among them is abcdefghij"
        )

        if not deep:
            result.details.append(
                "|y|=169 sweep skipped by default; enable with --deep"
            )
            return
        found: set[str] = set()
        for t1 in range(1, 5):
            for t2 in range(1, 6 - t1):
                t3 = 6 - t1 - t2
                pattern = "ab" + "c" * t1 + "de" + "f" * t2 + "gh" + "i" * t3 + "j"
                _, y = count_thm5_by_length(169, pattern)
                _check_member(169, pattern, y)
                if y is not None:
                    found.add(pattern)
        if found != {"abccdeffghiij"}:
            raise _Refuted(f"|y|=169: realizable diagonal forms are {sorted(found)}")
        result.details.append(
            "|y|=169: among the ten candidate diagonal forms with six run "
            "letters, only abccdeffghiij is realizable (the t=2 staircase)"
        )

    return _timed("thm5", body)


# ---------------------------------------------------------------------------


def run_claims(
    claims: tuple[str, ...] = CLAIM_IDS,
    seed: int = DEFAULT_SEED,
    deep: bool = False,
) -> VerificationReport:
    """Run the requested claims in id order and collect a report; an
    unknown claim id raises ValueError before any claim runs."""
    runs = {
        "thm1": lambda: verify_thm1(seed=seed),
        "thm2": verify_thm2,
        "thm3": verify_thm3,
        "thm4": lambda: verify_thm4(seed=seed),
        "thm5": lambda: verify_thm5(deep=deep),
    }
    for claim in claims:
        if claim not in runs:
            raise ValueError(f"unknown claim {claim!r}")
    return VerificationReport([run() for claim, run in runs.items() if claim in claims])

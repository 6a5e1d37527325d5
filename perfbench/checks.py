"""Checks of each operation's output against a pinned verdict or an
independent oracle.  run.py runs them outside every timed section."""

from __future__ import annotations

import json
import random
from itertools import product

import workloads

# Word lengths up to which outputs are compared with the oracles.  The atlas
# length is the CLI's sample length, so printed samples can be compared too.
ATLAS_CHECK_LEN = 5
ATLAS_SAMPLED_PAIRS = 4
DIAG_NFA_CHECK_LEN = 6
DIAG_MIN_CHECK_LEN = 8


def check(op: workloads.Op, text: str, seed: int) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    if op.kind == "claim":
        return _check_claims(op, text)
    d = workloads.stress_dfa(op.cycles, seed)
    if op.kind == "diag-min":
        return _check_diag_min(d, text)
    if op.args[0] == "diag-nfa":
        return _check_diag_nfa(d, text)
    return _check_atlas(d, op, text, seed)


def _check_claims(op: workloads.Op, text: str) -> list[str]:
    claims = json.loads(text)["claims"]
    if [c["claim"] for c in claims] != [op.args[0]]:
        return [f"report lists claims {[c['claim'] for c in claims]}"]
    problems = []
    for c in claims:
        want = workloads.PINNED_VERDICTS[c["claim"]]
        if c["outcome"] != want:
            problems.append(f"{c['claim']} is {c['outcome']}, pinned {want} ({c['witness']})")
        if c["claim"] == "thm2" and workloads.THM2_WITNESS not in (c["witness"] or ""):
            problems.append(f"thm2 witness {c['witness']!r} lacks {workloads.THM2_WITNESS}")
    return problems


def _check_atlas(d, op: workloads.Op, text: str, seed: int) -> list[str]:
    """Every printed entry's sample must be the oracle's, and the language
    of each sampled (a, b) pair, from a doubled window, must be in the atlas."""
    from aplang.filtration import ArithFilter, FilterFamily, filtered_language_oracle

    obj = json.loads(text)
    family = FilterFamily(op.family)
    if obj["family"] != family.value or obj["distinct"] != len(obj["entries"]):
        return [f"header says family {obj['family']}, {obj['distinct']} distinct"]

    memo: dict[tuple[int, int], frozenset] = {}

    def language(a: int, b: int) -> frozenset:
        if (a, b) not in memo:
            memo[a, b] = frozenset(filtered_language_oracle(d, ArithFilter(a, b), ATLAS_CHECK_LEN))
        return memo[a, b]

    problems = []
    for e in obj["entries"]:
        if not family.admits(ArithFilter(e["a"], e["b"])):
            problems.append(f"entry ({e['a']}, {e['b']}) is outside the family")
            continue
        words = sorted(language(e["a"], e["b"]), key=lambda w: (len(w), w))[:6]
        if e["sample"] != [d.alphabet.format(w) for w in words]:
            problems.append(f"entry ({e['a']}, {e['b']}) sample {e['sample']} disagrees with the oracle")
    languages = {language(e["a"], e["b"]) for e in obj["entries"]}
    rng = random.Random(f"atlas-check/{seed}/{op.name}")
    for _ in range(ATLAS_SAMPLED_PAIRS):
        a = rng.randint(1, 2 * obj["step_window"])
        b = rng.randrange(2 * obj["offset_window"])
        if family.value == "shift":
            a = 1
        elif family.value == "weak":
            b = 0
        elif family.value == "ordinary":
            b %= a
        if language(a, b) not in languages:
            problems.append(f"the language of (a={a}, b={b}) is missing from the atlas")
    return problems


def _check_diag_nfa(d, text: str) -> list[str]:
    from aplang.diag import diag_oracle_accepts
    from aplang.jsonio import obj_to_nfa

    head, _, body = text.partition("\n")
    nfa = obj_to_nfa(json.loads(body))
    if head != f"states: {nfa.size}":
        return [f"first line {head!r} does not match the {nfa.size}-state NFA"]
    for t in range(1, DIAG_NFA_CHECK_LEN + 1):
        for w in product(range(len(d.alphabet)), repeat=t):
            if nfa.accepts(w) != diag_oracle_accepts(d, w):
                return [f"NFA and oracle disagree on {d.alphabet.format(w)!r}"]
    return []


def _check_diag_min(d, text: str) -> list[str]:
    from aplang.diag import diag_oracle_accepts
    from aplang.jsonio import obj_to_dfa

    dfa = obj_to_dfa(json.loads(text))
    if dfa.minimized() != dfa:
        return ["the result is not a canonical minimal DFA"]
    if dfa.accepts(()):
        return ["the result accepts the empty word"]
    for t in range(1, DIAG_MIN_CHECK_LEN + 1):
        for w in product(range(len(d.alphabet)), repeat=t):
            if dfa.accepts(w) != diag_oracle_accepts(d, w):
                return [f"DFA and oracle disagree on {d.alphabet.format(w)!r}"]
    return []

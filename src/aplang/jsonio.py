"""JSON interchange formats for automata.

DFA: {"alphabet": ["a","b"], "states": 3, "start": 0, "accepting": [0],
      "delta": {"0": {"a": 1}, "1": {"b": 0}}}
Transitions omitted from a DFA go to an implicit dead state appended as
state index `states`.  The NFA format is identical except that "initial"
is a list and delta values are lists; omitted NFA transitions are simply
the empty target set.  Every state number must be a JSON integer;
true and false are rejected, although Python counts them as ints.  A
delta key must spell its state in canonical decimal ("3", not "03",
"+3" or "3_0"), so no two keys can name the same state.  The table's
cells, "states" times the alphabet's size, may be at most MAX_CELLS, so
a small file cannot ask for a huge table.
Top-level keys other than the format's are ignored.
Writers always emit complete tables, so a write followed by a read
reproduces the in-memory value exactly.
"""

from __future__ import annotations

import json
from typing import Any

from .automata import Alphabet, Dfa, Nfa

# Above the largest automata the toolkit writes and reads back (the diagonal
# NFA of the minimal period-210 hub chain has 91 800 states over two letters),
# and small enough that a table with this many cells fits in memory.
MAX_CELLS = 1 << 21


def _require(obj: dict, key: str, kind: type) -> Any:
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"field {key!r} must be {kind.__name__}")
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_ints(obj: dict, key: str) -> list[int]:
    values = _require(obj, key, list)
    if not all(_is_int(v) for v in values):
        raise ValueError(f"field {key!r} must list integers")
    return values


def _state_count(obj: dict, alphabet: Alphabet) -> int:
    size = _require(obj, "states", int)
    cells = size * len(alphabet)
    if cells > MAX_CELLS:
        raise ValueError(f"a table of {cells} cells exceeds the limit of {MAX_CELLS}")
    return size


def _state_number(key: str) -> int:
    """A delta key's state number; only the canonical decimal spelling
    str(q) is accepted, so no two keys can name the same state."""
    try:
        q = int(key)
    except ValueError:
        q = None
    if q is None or str(q) != key:
        raise ValueError(f"state key {key!r} is not a canonical decimal integer")
    return q


def _parse_alphabet(obj: dict) -> Alphabet:
    names = _require(obj, "alphabet", list)
    if not all(isinstance(t, str) for t in names):
        raise ValueError("alphabet tokens must be strings")
    return Alphabet(tuple(names))


def dfa_to_obj(d: Dfa) -> dict:
    return {
        "alphabet": list(d.alphabet.names),
        "states": d.size,
        "start": d.start,
        "accepting": sorted(d.accepting),
        "delta": {
            str(q): {d.alphabet.names[c]: d.delta[q][c] for c in range(len(d.alphabet))}
            for q in range(d.size)
        },
    }


def obj_to_dfa(obj: dict) -> Dfa:
    if not isinstance(obj, dict):
        raise ValueError("a DFA must be a JSON object")
    alphabet = _parse_alphabet(obj)
    size = _state_count(obj, alphabet)
    start = _require(obj, "start", int)
    accepting = _require_ints(obj, "accepting")
    delta_obj = _require(obj, "delta", dict)
    transitions: dict[tuple[int, int], int] = {}
    for state_key, row in delta_obj.items():
        q = _state_number(state_key)
        if not isinstance(row, dict):
            raise ValueError("delta rows must be objects")
        for token, target in row.items():
            if not _is_int(target):
                raise ValueError("transition targets must be integers")
            transitions[(q, alphabet.index(token))] = target
    return Dfa.build(alphabet, size, start, accepting, transitions)


def nfa_to_obj(n: Nfa) -> dict:
    return {
        "alphabet": list(n.alphabet.names),
        "states": n.size,
        "initial": sorted(n.initial),
        "accepting": sorted(n.accepting),
        "delta": {
            str(q): {
                n.alphabet.names[c]: sorted(n.delta[q][c])
                for c in range(len(n.alphabet))
            }
            for q in range(n.size)
        },
    }


def obj_to_nfa(obj: dict) -> Nfa:
    if not isinstance(obj, dict):
        raise ValueError("an NFA must be a JSON object")
    alphabet = _parse_alphabet(obj)
    size = _state_count(obj, alphabet)
    initial = _require_ints(obj, "initial")
    accepting = _require_ints(obj, "accepting")
    delta_obj = _require(obj, "delta", dict)
    k = len(alphabet)
    rows = [[frozenset() for _ in range(k)] for _ in range(size)]
    for state_key, row in delta_obj.items():
        q = _state_number(state_key)
        if not 0 <= q < size:
            raise ValueError(f"state {q} out of range")
        if not isinstance(row, dict):
            raise ValueError("delta rows must be objects")
        for token, targets in row.items():
            if not isinstance(targets, list) or not all(_is_int(t) for t in targets):
                raise ValueError("NFA transition targets must be lists of integers")
            rows[q][alphabet.index(token)] = frozenset(targets)
    return Nfa(
        alphabet,
        size,
        frozenset(initial),
        frozenset(accepting),
        tuple(tuple(row) for row in rows),
    )


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_dfa(path: str) -> Dfa:
    return obj_to_dfa(_load_json(path))


def save_dfa(d: Dfa, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dfa_to_obj(d), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_nfa(n: Nfa, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(nfa_to_obj(n), fh, indent=2, sort_keys=True)
        fh.write("\n")


"""JSON interchange formats for automata.

DFA: {"alphabet": ["a","b"], "states": 3, "start": 0, "accepting": [0],
      "delta": {"0": {"a": 1}, "1": {"b": 0}}}
Transitions omitted from a DFA go to an implicit dead state appended as
state index `states`.  The NFA format is identical except that "initial"
is a list and delta values are lists; omitted NFA transitions are simply
the empty target set.  In both formats the delta keys, the transition
targets, "start" or "initial", and "accepting" must name states below
"states", so a file cannot make the dead state accept or name it as a
target.  Every state number must be a JSON integer; true and false are
rejected, although Python counts them as ints.  A delta key must spell
its state in canonical decimal ("3", not "03", "+3" or "3_0"), and no
object in a loaded file may repeat a key, so no two keys can name the
same state.  The table's cells, "states" times the alphabet's size, may
be at most MAX_CELLS, so a small file cannot ask for a huge table.
Top-level keys other than the format's are ignored.
Writers always emit complete tables, so a write followed by a read
reproduces the in-memory value exactly.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator

from .automata import Alphabet, Dfa, Nfa

# Far above the largest automaton the toolkit writes and reads back (the
# diagonal automaton of the period-210 hub chain: 850 states over two
# letters, 1 700 cells), and small enough that a table with this many cells
# fits in memory.
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


def _parse_alphabet(obj: dict) -> Alphabet:
    names = _require(obj, "alphabet", list)
    if not all(isinstance(t, str) for t in names):
        raise ValueError("alphabet tokens must be strings")
    return Alphabet(tuple(names))


def _header(obj: Any, kind: str) -> tuple[Alphabet, int]:
    """The alphabet and state count, the table's cells bounded up front."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} must be a JSON object")
    alphabet = _parse_alphabet(obj)
    size = _require(obj, "states", int)
    cells = size * len(alphabet)
    if cells > MAX_CELLS:
        raise ValueError(f"a table of {cells} cells exceeds the limit of {MAX_CELLS}")
    return alphabet, size


def _cells(obj: dict, alphabet: Alphabet, size: int) -> Iterator[tuple[int, int, Any]]:
    """(state, symbol, value) for each cell the delta object lists.  A key
    must spell a state below size in canonical decimal, str(q), so no two
    keys can name the same state."""
    for key, row in _require(obj, "delta", dict).items():
        try:
            q = int(key)
        except ValueError:
            q = None
        if q is None or str(q) != key:
            raise ValueError(f"state key {key!r} is not a canonical decimal integer")
        if not 0 <= q < size:
            raise ValueError(f"state {q} out of range")
        if not isinstance(row, dict):
            raise ValueError("delta rows must be objects")
        for token, value in row.items():
            yield q, alphabet.index(token), value


def _to_obj(a: Dfa | Nfa, entry: str, first: Any, cell: Callable[[Any], Any]) -> dict:
    """The complete table of a, entry naming its start field."""
    names = a.alphabet.names
    return {
        "alphabet": list(names),
        "states": a.size,
        entry: first,
        "accepting": sorted(a.accepting),
        "delta": {
            str(q): {name: cell(t) for name, t in zip(names, row)}
            for q, row in enumerate(a.delta)
        },
    }


def dfa_to_obj(d: Dfa) -> dict:
    return _to_obj(d, "start", d.start, int)


def obj_to_dfa(obj: dict) -> Dfa:
    alphabet, size = _header(obj, "a DFA")
    start = _require(obj, "start", int)
    accepting = _require_ints(obj, "accepting")
    transitions: dict[tuple[int, int], int] = {}
    for q, c, target in _cells(obj, alphabet, size):
        if not _is_int(target):
            raise ValueError("transition targets must be integers")
        transitions[(q, c)] = target
    return Dfa.build(alphabet, size, start, accepting, transitions)


def nfa_to_obj(n: Nfa) -> dict:
    return _to_obj(n, "initial", sorted(n.initial), sorted)


def obj_to_nfa(obj: dict) -> Nfa:
    alphabet, size = _header(obj, "an NFA")
    initial = _require_ints(obj, "initial")
    accepting = _require_ints(obj, "accepting")
    rows = [[frozenset()] * len(alphabet) for _ in range(size)]
    for q, c, targets in _cells(obj, alphabet, size):
        if not isinstance(targets, list) or not all(_is_int(t) for t in targets):
            raise ValueError("NFA transition targets must be lists of integers")
        rows[q][c] = frozenset(targets)
    return Nfa(alphabet, size, initial, accepting, rows)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object of pairs; a repeated key raises ValueError, where json
    would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {repeated!r} in a JSON object")
    return obj


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_dfa(path: str) -> Dfa:
    return obj_to_dfa(_load_json(path))


def _save(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_dfa(d: Dfa, path: str) -> None:
    _save(dfa_to_obj(d), path)


def save_nfa(n: Nfa, path: str) -> None:
    _save(nfa_to_obj(n), path)

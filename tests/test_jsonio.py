"""JSON interchange: round trips, dead-state completion, error reporting."""

import json

import pytest

from aplang.automata import Alphabet
from aplang.diag import build_diag_nfa
from aplang.jsonio import (
    MAX_CELLS,
    dfa_to_obj,
    load_dfa,
    nfa_to_obj,
    obj_to_dfa,
    obj_to_nfa,
    save_dfa,
)
from aplang.verification import random_dfa

from conftest import ab_star_dfa, to_nfa, universal_dfa, zeros_then_one_dfa


def test_dfa_round_trip_identity():
    import random

    rng = random.Random(41)
    for d in [ab_star_dfa(), zeros_then_one_dfa()] + [random_dfa(rng, 5) for _ in range(10)]:
        assert obj_to_dfa(dfa_to_obj(d)) == d


def test_nfa_round_trip_identity():
    import random

    rng = random.Random(42)
    for _ in range(6):
        d = random_dfa(rng, 4, min_symbols=2, max_symbols=2)
        for n in (to_nfa(d), build_diag_nfa(d)):
            assert obj_to_nfa(nfa_to_obj(n)) == n


def test_partial_dfa_gains_dead_state():
    obj = {
        "alphabet": ["a", "b"],
        "states": 2,
        "start": 0,
        "accepting": [0],
        "delta": {"0": {"a": 1}, "1": {"b": 0}},
    }
    d = obj_to_dfa(obj)
    assert d.size == 3
    assert d.delta[0][1] == 2 and d.delta[1][0] == 2
    assert d.delta[2] == (2, 2)
    assert d.accepts(d.alphabet.word("abab"))
    assert not d.accepts(d.alphabet.word("bb"))


def test_complete_dfa_gains_nothing():
    obj = {
        "alphabet": ["a"],
        "states": 1,
        "start": 0,
        "accepting": [0],
        "delta": {"0": {"a": 0}},
    }
    assert obj_to_dfa(obj).size == 1


def test_nfa_omitted_transitions_are_empty():
    obj = {
        "alphabet": ["a", "b"],
        "states": 2,
        "initial": [0],
        "accepting": [1],
        "delta": {"0": {"a": [0, 1]}},
    }
    n = obj_to_nfa(obj)
    assert n.size == 2
    assert n.delta[0][0] == frozenset({0, 1})
    assert n.delta[0][1] == frozenset()
    assert n.delta[1] == (frozenset(), frozenset())


def test_malformed_objects_rejected():
    good = dfa_to_obj(ab_star_dfa())
    for breakage in (
        lambda o: o.pop("alphabet"),
        lambda o: o.update(states="three"),
        lambda o: o["delta"].update(oops={"a": 0}),
        lambda o: o["delta"]["0"].update(z=1),
        lambda o: o["delta"]["0"].update(a="x"),
        lambda o: o["delta"].update({"0": [0]}),
        # each of these would load without its check: the table is partial,
        # so state 3 is the dead state, and the empty token has no cells
        lambda o: o["delta"].update({"0": {"a": 3}}),
        lambda o: o.update(alphabet=["a", "b", ""]),
    ):
        obj = json.loads(json.dumps(good))
        breakage(obj)
        with pytest.raises(ValueError):
            obj_to_dfa(obj)


@pytest.mark.parametrize("bad", [True, False, "0", 0.0, None])
def test_state_numbers_must_be_integers(bad):
    # bool is an int subclass in Python, so true/false need their own
    # check; one state makes "states": true read as a valid count of 1
    dfa_breakages = (
        lambda o: o.update(states=bad),
        lambda o: o.update(start=bad),
        lambda o: o.update(accepting=[bad]),
        lambda o: o["delta"]["0"].update(a=bad),
    )
    for breakage in dfa_breakages:
        obj = dfa_to_obj(universal_dfa())
        breakage(obj)
        with pytest.raises(ValueError):
            obj_to_dfa(obj)
    nfa_breakages = (
        lambda o: o.update(states=bad),
        lambda o: o.update(initial=[bad]),
        lambda o: o.update(accepting=[bad]),
        lambda o: o["delta"]["0"].update(a=[bad]),
    )
    for breakage in nfa_breakages:
        obj = nfa_to_obj(to_nfa(universal_dfa()))
        breakage(obj)
        with pytest.raises(ValueError):
            obj_to_nfa(obj)


@pytest.mark.parametrize("key", ["00", "01", "+0", "-0", " 0", "0 ", "1_1", "١"])
def test_state_keys_must_be_canonical(key):
    # int() reads every one of these as a state number, so a second
    # spelling would silently override or alias a state
    dfa = {
        "alphabet": ["a"],
        "states": 12,
        "start": 0,
        "accepting": [0],
        "delta": {"0": {"a": 1}, key: {"a": 0}},
    }
    with pytest.raises(ValueError, match="canonical decimal"):
        obj_to_dfa(dfa)
    nfa = {
        "alphabet": ["a"],
        "states": 12,
        "initial": [0],
        "accepting": [0],
        "delta": {"0": {"a": [1]}, key: {"a": [0]}},
    }
    with pytest.raises(ValueError, match="canonical decimal"):
        obj_to_nfa(nfa)


@pytest.mark.parametrize(
    "obj, load",
    [(dfa_to_obj(universal_dfa()), obj_to_dfa), (nfa_to_obj(to_nfa(universal_dfa())), obj_to_nfa)],
    ids=["dfa", "nfa"],
)
def test_delta_keys_must_name_states(obj, load):
    # an empty row names no cell, but its key must still be a state
    obj = {**obj, "delta": {**obj["delta"], "99": {}}}
    with pytest.raises(ValueError, match="state 99 out of range"):
        load(obj)


def test_state_count_is_bounded():
    # the cells are counted before any table is built, so nothing is allocated
    dfa = dfa_to_obj(universal_dfa())
    nfa = nfa_to_obj(to_nfa(universal_dfa()))
    for obj, load in ((dfa, obj_to_dfa), (nfa, obj_to_nfa)):
        obj["states"] = MAX_CELLS // 2 + 1
        with pytest.raises(ValueError, match="exceeds the limit"):
            load(obj)


def test_table_cells_are_bounded_for_wide_alphabets(tmp_path):
    # 2^20 rows load over two letters, but over three they make 3 * 2^20 cells
    wide = Alphabet(("a", "b", "c"))
    dfa = {**dfa_to_obj(universal_dfa(wide)), "states": 1 << 20}
    nfa = {**nfa_to_obj(to_nfa(universal_dfa(wide))), "states": 1 << 20}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dfa))
    with pytest.raises(ValueError, match="exceeds the limit"):
        load_dfa(str(path))
    with pytest.raises(ValueError, match="exceeds the limit"):
        obj_to_nfa(nfa)


def test_unknown_top_level_keys_are_ignored():
    d = ab_star_dfa()
    n = build_diag_nfa(d)
    extra = {"comment": "made by hand", "version": [1, 2], "start ": None}
    assert obj_to_dfa({**dfa_to_obj(d), **extra}) == d
    assert obj_to_nfa({**nfa_to_obj(n), **extra}) == n


def test_file_round_trip(tmp_path):
    d = ab_star_dfa()
    path = tmp_path / "m.json"
    save_dfa(d, str(path))
    assert load_dfa(str(path)) == d
    raw = json.loads(path.read_text())
    assert raw["states"] == 3

"""The immutable value types: frozen fields, equality and hashing by
field, the dataclass-style repr, and pickling."""

import copy
import pickle

import pytest

from aplang.automata import Alphabet, Dfa, Nfa
from aplang.boolmat import PowerOrbit
from aplang.filtration import ArithFilter, FilterFamily, FiltrationAtlas
from aplang.grammar import Cfg

from conftest import AB

XY = Alphabet(("x", "y"))


def _fields(cls, seq) -> dict:
    """Constructor arguments of one instance of cls, with every sequence
    built by seq (list or tuple); types that store their fields as given
    take tuples either way."""
    one = Dfa(AB, 1, 0, [0], [[0, 0]])
    return {
        Alphabet: dict(names=seq(["a", "b"])),
        Dfa: dict(
            alphabet=AB, size=2, start=0, accepting=seq([1]), delta=seq([seq([1, 0]), seq([0, 1])])
        ),
        Nfa: dict(
            alphabet=AB,
            size=2,
            initial=seq([0]),
            accepting=seq([1]),
            delta=seq([seq([seq([1]), seq([])]), seq([seq([0, 1]), seq([1])])]),
        ),
        PowerOrbit: dict(index=0, period=2, powers=((1, 2), (2, 1))),
        ArithFilter: dict(step=2, offset=1),
        FiltrationAtlas: dict(
            family=FilterFamily.WEAK,
            entries=((ArithFilter(1, 0), one),),
            step_window=2,
            offset_window=1,
        ),
        Cfg: dict(
            terminals=Alphabet(("a",)),
            nonterminals=seq(["S", "T"]),
            start="S",
            productions=seq([("S", seq(["a", "T"])), ("T", seq([]))]),
        ),
    }[cls]


# another valid value for each field that can change alone (the size of a
# DFA or NFA is fixed by its table)
OTHER = {
    Alphabet: dict(names=("a", "c")),
    Dfa: dict(alphabet=XY, start=1, accepting=(0,), delta=((1, 1), (0, 1))),
    Nfa: dict(alphabet=XY, initial=(1,), accepting=(0,), delta=(((1,), ()), ((0,), (1,)))),
    PowerOrbit: dict(index=1, period=1, powers=((1, 2), (2, 2))),
    ArithFilter: dict(step=3, offset=0),
    FiltrationAtlas: dict(family=FilterFamily.STRONG, entries=(), step_window=3, offset_window=2),
    Cfg: dict(terminals=AB, nonterminals=("T", "S"), start="T", productions=()),
}
TYPES = list(OTHER)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    value = cls(**_fields(cls, tuple))
    for name in _fields(cls, tuple):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**_fields(cls, tuple))


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    value = cls(**_fields(cls, tuple))
    same = cls(**_fields(cls, list))
    assert value == same and hash(value) == hash(same)
    assert value is not same
    for name, other in OTHER[cls].items():
        changed = cls(**{**_fields(cls, tuple), name: other})
        assert value != changed, name
    # another type, even the tuple of the same field values, is never equal
    assert (value == tuple(getattr(value, name) for name in _fields(cls, tuple))) is False
    assert (value == object()) is False


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_give_equal_values(cls):
    value = cls(**_fields(cls, tuple))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and hash(back) == hash(value)
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def test_repr_names_every_field_in_order():
    d = Dfa(AB, 1, 0, [0], [[0, 0]])
    assert repr(d) == (
        "Dfa(alphabet=Alphabet(names=('a', 'b')), size=1, start=0, "
        "accepting=frozenset({0}), delta=((0, 0),))"
    )
    assert repr(ArithFilter(step=2, offset=0)) == "ArithFilter(step=2, offset=0)"

"""Fuzzing the JSON loaders and the command line with random JSON-ish
objects and files: malformed input must be refused with a ValueError
(exit code 2), never a traceback or an internal error.  The examples are
drawn under the suite's derandomized hypothesis profile."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aplang.cli import main
from aplang.jsonio import dfa_to_obj, nfa_to_obj, obj_to_dfa, obj_to_nfa

# small ints reach the loaders' range checks; the large ones their bounds
ints = st.integers(-2, 7) | st.sampled_from([(1 << 20) + 1, 1 << 64, -(1 << 64)])
scalars = (
    st.none()
    | st.booleans()
    | ints
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
small = st.integers(0, 3)
tokens = st.sampled_from(["a", "b", "c"])
FIELDS = ("alphabet", "states", "start", "initial", "accepting", "delta")


@st.composite
def automaton_like(draw):
    """A DFA- and NFA-shaped object, often well formed: states, keys and
    targets below 4, some of them out of range; then, half the time, one
    field deleted or replaced by any JSON-ish value."""
    obj = {
        "alphabet": draw(st.lists(tokens, min_size=1, max_size=3, unique=True)),
        "states": draw(st.integers(1, 4)),
        "start": draw(small),
        "initial": draw(st.lists(small, max_size=3)),
        "accepting": draw(st.lists(small, max_size=3)),
        "delta": draw(
            st.dictionaries(
                small.map(str),
                st.dictionaries(tokens, small | st.lists(small, max_size=3), max_size=3),
                max_size=4,
            )
        ),
    }
    field = draw(st.sampled_from(FIELDS + (None,) * len(FIELDS)))
    if field is not None:
        if draw(st.booleans()):
            del obj[field]
        else:
            obj[field] = draw(json_values)
    return obj


@st.composite
def documents(draw):
    """A JSON document: anything JSON-ish, or, twice as often, an
    automaton-shaped object; objects may carry unknown extra keys, which
    the loaders ignore."""
    obj = draw(json_values | automaton_like() | automaton_like())
    if isinstance(obj, dict) and draw(st.booleans()):
        extra = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=2))
        obj = {**extra, **obj}
    return obj


@settings(max_examples=400, deadline=None)
@given(documents())
def test_loaders_accept_or_raise_value_error(obj):
    for load, dump in ((obj_to_dfa, dfa_to_obj), (obj_to_nfa, nfa_to_obj)):
        try:
            automaton = load(obj)
        except ValueError:
            continue
        assert load(dump(automaton)) == automaton


files = (
    documents().map(json.dumps)
    | st.text(alphabet='{}[]":,0123456789abtrue nul', max_size=40)
).map(lambda text: text.encode()) | st.binary(max_size=20)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(files)
def test_cli_refuses_malformed_files_with_exit_2(tmp_path, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    for argv in (
        ["filter-lang", str(path), "2", "1"],
        ["enumerate-filtrations", str(path), "strong", "--max-len", "3"],
        ["diag-nfa", str(path)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, content, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and not out.getvalue()


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["diag-nfa", str(path)]) == 2
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"

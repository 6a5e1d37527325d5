"""The README's library tour and command lines run against the package as it is."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from aplang.cli import parse_args

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library tour"
    return match.group(1)


def test_library_tour_runs_and_shows_what_it_says():
    source = tour_source()
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(source, str(README), "exec"), namespace)
    assert "thm3: PASS" in out.getvalue()
    assert len(namespace["atlas"]) == 2
    # the walk is a bare expression in the tour: evaluate it where it stands
    walks = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "first_disagreements"
    ]
    assert len(walks) == 1
    assert eval(compile(ast.Expression(walks[0]), str(README), "eval"), namespace) == [None]


def test_command_line_examples_parse():
    # a flag the parser dropped cannot linger in the documented commands
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "no sh block under ## Command line"
    commands = [
        shlex.split(line, comments=True)
        for line in match.group(1).splitlines()
        if line.startswith("aplang ")
    ]
    assert len(commands) == 10
    for argv in commands:
        parse_args(argv[1:])

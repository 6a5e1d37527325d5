"""Rules the package source keeps."""

import ast
from pathlib import Path

import aplang

SRC = Path(aplang.__file__).parent


def test_no_assert_in_src():
    # python -O strips assert statements, so checks must be real branches
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_word_oracles_share_nothing_with_the_construction():
    # an oracle only checks the construction while it stays independent of it
    oracles = {"_SourceWalk", "filtered_language_oracle", "first_disagreement"}
    construction = {
        "BoolMatrix",
        "FilteredAutomata",
        "build_filtered_dfa",
        "incidence_matrices",
        "offset_half",
        "power_orbit",
        "step_half",
    }
    tree = ast.parse((SRC / "filtration.py").read_text(encoding="utf-8"))
    defs = [node for node in tree.body if getattr(node, "name", None) in oracles]
    assert {node.name for node in defs} == oracles
    used = {
        (node.name, name)
        for node in defs
        for sub in ast.walk(node)
        for name in (getattr(sub, "id", None), getattr(sub, "attr", None))
        if name in construction
    }
    assert used == set()

"""Rules the package source keeps."""

import ast
import subprocess
import sys
from pathlib import Path

import aplang
from aplang.jsonio import save_dfa

from conftest import ab_star_dfa, fresh_env

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


# the names each module's word oracles may not touch: the matrix layer and
# the construction built on it
ORACLE_GUARDS = {
    "filtration.py": (
        {"_SourceWalk", "filtered_language_oracle", "first_disagreements"},
        {
            "FilteredAutomata",
            "_first",
            "build_filtered_dfa",
            "explore",
            "incidence_matrices",
            "mats",
            "matmul",
            "near",
            "offset_half",
            "orbit",
            "power_orbit",
            "rows_or",
            "step_half",
        },
    ),
    "diag.py": (
        {"diag_oracle_accepts", "diag_oracle_exhaustive", "diag_oracle_words"},
        {
            "FilteredAutomata",
            "build",
            "build_diag_nfa",
            "explore",
            "incidence_matrices",
            "matmul",
            "orbit",
            "power_orbit",
            "rows_or",
        },
    ),
}


def _construction_uses(source: str, oracles: set[str], construction: set[str]) -> set:
    """(oracle, name) for every construction name an oracle's body names."""
    tree = ast.parse(source)
    defs = [node for node in tree.body if getattr(node, "name", None) in oracles]
    assert {node.name for node in defs} == oracles
    return {
        (node.name, name)
        for node in defs
        for sub in ast.walk(node)
        for name in (getattr(sub, "id", None), getattr(sub, "attr", None))
        if name in construction
    }


def test_word_oracles_share_nothing_with_the_construction():
    # an oracle only checks the construction while it stays independent of it
    for module, (oracles, construction) in ORACLE_GUARDS.items():
        source = (SRC / module).read_text(encoding="utf-8")
        assert _construction_uses(source, oracles, construction) == set(), module


def test_oracle_guard_catches_a_matrix_product():
    # the guard itself: in a scratch module whose last oracle steps its
    # state set by rows_or, that one oracle is caught
    for oracles, construction in ORACLE_GUARDS.values():
        *clean, caught = sorted(oracles)
        scratch = "".join(f"def {name}(d, w):\n    return w\n" for name in clean)
        scratch += f"def {caught}(m, v):\n    return rows_or(m, v)\n"
        assert _construction_uses(scratch, oracles, construction) == {(caught, "rows_or")}


def test_oracles_walk_the_source_as_given():
    # the constructions run on the minimal DFA; the oracles must not, so
    # every claim also checks the minimization
    quotient = {"minimized", "forms", "equivalent"}
    for module, (names, _) in ORACLE_GUARDS.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        defs = [node for node in tree.body if getattr(node, "name", None) in names]
        assert {node.name for node in defs} == names
        used = {
            (node.name, sub.attr)
            for node in defs
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr in quotient
        }
        assert used == set()


def test_package_exports_match_all():
    # a name imported but left out of __all__, or listed but not imported,
    # breaks the star import the README's library tour uses
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(aplang.__all__)
    namespace: dict = {}
    exec("from aplang import *", namespace)
    assert set(aplang.__all__) <= namespace.keys()


def test_thm5_counter_and_enumerator_share_no_functions():
    # the enumerator is the counter's oracle: both read the checked pins
    # of _thm5_pins, and neither names a function of the other
    tree = ast.parse((SRC / "grammar.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def defined(fn: str) -> set[str]:
        return {n.name for n in ast.walk(defs[fn]) if isinstance(n, ast.FunctionDef)}

    def named(fn: str) -> set[str]:
        return {n.id for n in ast.walk(defs[fn]) if isinstance(n, ast.Name)}

    counter = defined("count_thm5_by_length")
    enumerator = defined("enumerate_thm5_by_length") | {"_thm5_units"}
    assert "_thm5_units" in named("enumerate_thm5_by_length")
    assert named("count_thm5_by_length") & enumerator == set()
    assert named("enumerate_thm5_by_length") & counter == set()
    # the counter reads the pins and their stretches, not per-position tables
    assert named("count_thm5_by_length") & {"pinned", "zero_end"} == set()


def _reached(module: str, fn: str) -> tuple[set[str], set[str]]:
    """The module functions fn calls, transitively (fn included), and
    every name or attribute they name."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, named = set(), [fn], set()
    while todo:
        fn = todo.pop()
        reached.add(fn)
        names = {
            name
            for sub in ast.walk(defs[fn])
            for name in (getattr(sub, "id", None), getattr(sub, "attr", None))
            if name
        }
        named |= names
        todo.extend(names & defs.keys() - reached)
    return reached, named


def test_thm2_oracles_do_not_use_the_grammar():
    # verify thm2 checks the grammar's words against these oracles, so
    # neither they nor the module functions they call may name the
    # enumerator or the grammar
    construction = {"enumerate_cfg_words", "enumerate_cfg_words_by_length", "THM2_GRAMMAR"}
    for module, oracle, helpers in (
        ("grammar.py", "in_thm2", set()),
        ("verification.py", "_thm2_pattern_words", set()),
    ):
        reached, named = _reached(module, oracle)
        assert reached == {oracle} | helpers
        assert named & construction == set(), oracle


def test_pattern_oracles_do_not_use_the_grammar_or_the_thm5_sweep():
    # verify thm3 and thm5 check grammar words and swept members against
    # these oracles, so neither may call a module function or name the
    # grammar, its enumerators or the thm5 enumerator and counter
    construction = {
        "ZERO_N_ONE_N_GRAMMAR",
        "enumerate_cfg_words",
        "enumerate_cfg_words_by_length",
        "count_thm5_by_length",
        "enumerate_thm5_by_length",
        "_thm5_units",
        "_thm5_pins",
    }
    for oracle in ("in_thm5", "in_0n1n"):
        reached, named = _reached("grammar.py", oracle)
        assert reached == {oracle}
        assert named & construction == set(), oracle


def test_enumerator_does_not_use_cyk():
    # CYK is the enumerator's oracle on random grammars, so the enumerator
    # and the module functions it calls may not name it, its tables or the
    # explore that closes its unit steps
    reached, named = _reached("grammar.py", "enumerate_cfg_words")
    assert reached == {"enumerate_cfg_words", "enumerate_cfg_words_by_length", "_splits"}
    assert named & {"cyk_accepts", "_cyk_tables", "explore"} == set()


def test_cyk_does_not_use_the_enumerator():
    # the reverse guard: CYK keeps its own nullable fixpoint
    reached, named = _reached("grammar.py", "cyk_accepts")
    assert reached == {"cyk_accepts", "_cyk_tables"}
    assert named & {"enumerate_cfg_words", "enumerate_cfg_words_by_length", "_splits"} == set()


def test_only_timed_reports_a_counterexample():
    # a claim refutes by raising; _timed alone turns that into FAIL and
    # its witness, so every refutation branch shares one reporting path
    tree = ast.parse((SRC / "verification.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            targets = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [(t.attr, node.value) for t in targets if isinstance(t, ast.Attribute)]
            elif isinstance(node, ast.keyword):
                targets = [(node.arg, node.value)]
            for attr, value in targets:
                fail = isinstance(value, ast.Constant) and value.value == "FAIL"
                if attr == "witness" or (attr == "outcome" and fail):
                    found.append((top.name, attr))
    assert found == [("_timed", "outcome"), ("_timed", "witness")]


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # start-up is most of what a short command costs; the value types are
    # plain slotted classes and the command line parses argv from its own
    # table, so neither importing the package nor running each command
    # pulls in these modules
    dfa = tmp_path / "ab_star.json"
    save_dfa(ab_star_dfa(), str(dfa))
    script = f"""
import sys, aplang, aplang.cli
HEAVY = {{'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}}
print(sorted(HEAVY & sys.modules.keys()))
dfa = {str(dfa)!r}
codes = [aplang.cli.main(argv) for argv in (
    ['filter-word', 'theorem', '2', '0'], ['filter-lang', dfa, '2', '0'],
    ['enumerate-filtrations', dfa, 'strong'], ['diag', 'absorbent'],
    ['diag-nfa', dfa], ['verify', 'thm3'],
)]
print(codes, sorted(HEAVY & sys.modules.keys()))
"""
    run = subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(), capture_output=True, text=True, check=True
    )
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[0, 0, 0, 0, 0, 0] []")

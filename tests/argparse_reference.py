"""The command line's argparse parser as it stood before the one-table
parser replaced it: the reference the differential fuzz in test_fuzz.py
holds ``aplang.cli.parse_args`` to.  Test-only; nothing in the package
imports it."""

from __future__ import annotations

import argparse
import functools

from aplang.filtration import FilterFamily
from aplang.verification import CLAIM_IDS, DEFAULT_SEED


def _int_at_least(name: str, low: int, message: str):
    """An argparse type for ints of at least low; argparse names it in its
    "invalid <name> value" error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = name
    return parse


_step = _int_at_least("step", 1, "step a must be at least 1")
_offset = _int_at_least("offset", 0, "offset b must be non-negative")
_length = _int_at_least("max-len", 0, "max-len must be non-negative")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The aplang parser, built on the first call and shared by every later
    caller in the process: parse with it, but do not add to it."""
    parser = argparse.ArgumentParser(
        prog="aplang",
        description=(
            "Filter formal languages along arithmetic progressions, take "
            "square diagonals, and verify the toolkit's claims against "
            "brute-force oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "filter-word", help="keep the letters at indices b, a+b, 2a+b, ..."
    )
    p.add_argument("word", help="word of single-character symbols")
    p.add_argument("a", type=_step, help="progression step (>= 1)")
    p.add_argument("b", type=_offset, help="progression offset (>= 0)")

    p = sub.add_parser(
        "filter-lang", help="build the filtered language of a DFA (minimized)"
    )
    p.add_argument("dfa_file", help="DFA in JSON form")
    p.add_argument("a", type=_step)
    p.add_argument("b", type=_offset)
    p.add_argument("--out", help="write the result here instead of stdout")

    p = sub.add_parser(
        "enumerate-filtrations",
        help="list every distinct filtered language of one filter family",
    )
    p.add_argument("dfa_file")
    p.add_argument("family", choices=[f.value for f in FilterFamily])
    p.add_argument(
        "--max-len", type=_length, default=5, help="sample word length (default 5)"
    )
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("diag", help="diagonal of a word of square length")
    p.add_argument("word")

    p = sub.add_parser(
        "diag-nfa",
        help="build the automaton for the diagonal language of a DFA, "
        "written as an NFA with one target per transition",
    )
    p.add_argument("dfa_file")
    p.add_argument("--out", help="write the NFA here instead of stdout")

    p = sub.add_parser("verify", help="run the claim verification suites")
    p.add_argument("claim", choices=CLAIM_IDS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--deep", action="store_true", help="include the |y|=169 sweep")
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser

"""Command-line front end.

Subcommands: filter-word, filter-lang, enumerate-filtrations, diag,
diag-nfa, verify.  Exit codes: 0 success / all claims pass, 1 verification
failure, 2 usage or parse error, 3 file I/O error, 4 internal error.
Standard output is byte-deterministic for fixed flags and seed; timing goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diag import build_diag_nfa, diag_word
from .filtration import (
    ArithFilter,
    FilterFamily,
    build_filtered_dfa,
    enumerate_distinct_filtrations,
    filter_word,
)
from .jsonio import dfa_to_obj, load_dfa, nfa_to_obj, save_dfa, save_nfa
from .verification import CLAIM_IDS, DEFAULT_SEED, run_claims


def _step(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("step a must be at least 1")
    return value


def _offset(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("offset b must be non-negative")
    return value


def _length(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("max-len must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
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
        "diag-nfa", help="build the NFA for the diagonal language of a DFA"
    )
    p.add_argument("dfa_file")
    p.add_argument("--out", help="write the NFA here instead of stdout")

    p = sub.add_parser("verify", help="run the claim verification suites")
    p.add_argument("claim", choices=CLAIM_IDS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--deep", action="store_true", help="include the |y|=169 sweep")
    p.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def _cmd_filter_word(args: argparse.Namespace) -> int:
    result = filter_word(args.word, ArithFilter(args.a, args.b))
    print(result if result else "(empty)")
    return 0


def _cmd_filter_lang(args: argparse.Namespace) -> int:
    d = load_dfa(args.dfa_file)
    built = build_filtered_dfa(d, ArithFilter(args.a, args.b))
    minimized = built.minimized()
    print(f"states before minimization: {built.size}")
    print(f"states after minimization: {minimized.size}")
    if args.out:
        save_dfa(minimized, args.out)
    else:
        print(json.dumps(dfa_to_obj(minimized), indent=2, sort_keys=True))
    return 0


SAMPLE_WORDS = 6


def _samples(dfa, max_len: int) -> list[str]:
    """The first SAMPLE_WORDS accepted words, spelled out; "" is the empty word."""
    return [dfa.alphabet.format(w) for w in dfa.enumerate_accepted(max_len, SAMPLE_WORDS)]


def _cmd_enumerate_filtrations(args: argparse.Namespace) -> int:
    d = load_dfa(args.dfa_file)
    atlas = enumerate_distinct_filtrations(d, FilterFamily(args.family))
    if args.format == "json":
        obj = {
            "family": atlas.family.value,
            "step_window": atlas.step_window,
            "offset_window": atlas.offset_window,
            "entries": [
                {
                    "a": f.step,
                    "b": f.offset,
                    "states": dfa.size,
                    "sample": _samples(dfa, args.max_len),
                }
                for f, dfa in atlas.entries
            ],
            "distinct": len(atlas),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(
            f"family {atlas.family.value}: steps 1..{atlas.step_window}, "
            f"offsets 0..{atlas.offset_window - 1}"
        )
        for f, dfa in atlas.entries:
            words = " ".join(w or "(empty)" for w in _samples(dfa, args.max_len))
            print(f"  (a={f.step}, b={f.offset})  states={dfa.size}  sample: {words or '(none)'}")
        print(f"DISTINCT LANGUAGES: {len(atlas)}")
    return 0


def _cmd_diag(args: argparse.Namespace) -> int:
    print(diag_word(args.word))
    return 0


def _cmd_diag_nfa(args: argparse.Namespace) -> int:
    d = load_dfa(args.dfa_file)
    nfa = build_diag_nfa(d)
    print(f"states: {nfa.size}")
    if args.out:
        save_nfa(nfa, args.out)
    else:
        # streamed: the NFA's JSON text is never held whole in memory
        json.dump(nfa_to_obj(nfa), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = CLAIM_IDS if args.claim == "all" else (args.claim,)
    report = run_claims(claims, seed=args.seed, deep=args.deep)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True))
    else:
        for line in report.table_lines():
            print(line)
    total = sum(r.elapsed for r in report.results)
    print(f"elapsed: {total:.2f} s", file=sys.stderr)
    return 0 if report.all_pass else 1


_DISPATCH = {
    "filter-word": _cmd_filter_word,
    "filter-lang": _cmd_filter_lang,
    "enumerate-filtrations": _cmd_enumerate_filtrations,
    "diag": _cmd_diag,
    "diag-nfa": _cmd_diag_nfa,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

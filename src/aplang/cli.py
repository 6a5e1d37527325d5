"""Command-line front end.

Exit codes: 0 success / all claims pass, 1 verification failure, 2 usage
or parse error, 3 file I/O error, 4 internal error.  Standard output is
byte-deterministic for fixed flags and seed; timing goes to stderr.
``parse_args`` reads argv in one pass against the table ``COMMANDS``,
with argparse's rules and messages.  ``main(argv)`` may be called many
times in one process; the power-orbit memo (``boolmat.power_orbit``'s
``lru_cache``) persists between calls, and output does not depend on it.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .diag import build_diag_nfa, diag_word
from .filtration import (
    ArithFilter,
    FilterFamily,
    build_filtered_dfa,
    enumerate_atlases,
    filter_word,
)
from .jsonio import dfa_to_obj, load_dfa, nfa_to_obj, save_dfa, save_nfa
from .verification import CLAIM_IDS, DEFAULT_SEED, run_claims


def _int(name: str, low: int | None = None, message: str = ""):
    """A converter to ints of at least low; a ValueError names the problem."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid {name} value: {text!r}") from None
        if low is not None and value < low:
            raise ValueError(message)
        return value
    return convert


def _cmd_filter_word(args: SimpleNamespace) -> int:
    result = filter_word(args.word, ArithFilter(args.a, args.b))
    print(result if result else "(empty)")
    return 0


def _cmd_filter_lang(args: SimpleNamespace) -> int:
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


def _cmd_enumerate_filtrations(args: SimpleNamespace) -> int:
    d = load_dfa(args.dfa_file)
    (atlas,) = enumerate_atlases(d, [FilterFamily(args.family)])
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


def _cmd_diag(args: SimpleNamespace) -> int:
    print(diag_word(args.word))
    return 0


def _cmd_diag_nfa(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
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


FLAG = None  # the converter of an option that takes no value
_DFA = ("dfa_file", str, "DFA in JSON form")
_STEP = ("a", _int("step", 1, "step a must be at least 1"), "progression step (>= 1)")
_OFFSET = ("b", _int("offset", 0, "offset b must be non-negative"), "progression offset (>= 0)")
_OUT = (str, None, "write the automaton here instead of stdout")
_FORMAT = (("table", "json"), "table", "output format")
_HELP = {"--help": (FLAG, None, "show this help and exit")}

# command: (help, handler, positionals as (name, converter, help), long
# options as {name: (converter or FLAG, default, help)}); a converter is a
# function that raises ValueError with its message, or a tuple of choices
COMMANDS = {
    "filter-word": ("keep the letters at indices b, a+b, 2a+b, ...", _cmd_filter_word,
                    (("word", str, "word of single-character symbols"), _STEP, _OFFSET), {}),
    "filter-lang": ("build the filtered language of a DFA (minimized)", _cmd_filter_lang,
                    (_DFA, _STEP, _OFFSET), {"--out": _OUT}),
    "enumerate-filtrations": (
        "list every distinct filtered language of one filter family", _cmd_enumerate_filtrations,
        (_DFA, ("family", tuple(f.value for f in FilterFamily), "filter family")),
        {"--max-len": (_int("max-len", 0, "max-len must be non-negative"), 5, "sample word length"),
         "--format": _FORMAT}),
    "diag": ("diagonal of a word of square length", _cmd_diag, (("word", str, "the word"),), {}),
    "diag-nfa": ("build the automaton for the diagonal language of a DFA, written as an NFA "
                 "with one target per transition", _cmd_diag_nfa, (_DFA,), {"--out": _OUT}),
    "verify": ("run the claim verification suites", _cmd_verify,
               (("claim", CLAIM_IDS + ("all",), "one claim, or all of them"),),
               {"--seed": (_int("int"), DEFAULT_SEED, "seed of the random automata"),
                "--deep": (FLAG, False, "include the |y|=169 sweep"), "--format": _FORMAT}),
}

_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # argparse reads these as values, not options


def _shown(name: str, convert) -> str:
    """An argument as usage and help show it."""
    if name[0] == "-":
        return name if convert is FLAG else f"{name} {_shown(name[2:].upper(), convert)}"
    return "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else name


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: aplang [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [f"[{_shown(n, c)}]" for n, (c, _, _) in options.items()]
    words += [_shown(n, c) for n, c, _ in positionals]
    return " ".join(["usage: aplang", command, "[-h]", *words])


def _help(command: str | None):
    """Print the help of aplang or of one command, and exit 0."""
    if command is None:
        lines = ["commands:", *(f"  {n:<23}{row[0]}" for n, row in COMMANDS.items())]
    else:
        text, _, positionals, options = COMMANDS[command]
        lines = [text, "", "positional arguments:", *(f"  {n:<23}{h}" for n, _, h in positionals)]
        lines += ["", "options:"] + [
            f"  {_shown(n, c):<23}{h}" + ("" if c is FLAG or d is None else f" (default {d})")
            for n, (c, d, h) in {**_HELP, **options}.items()]
    print("\n".join([_usage(command), "", *lines]))
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    """Report a usage error as argparse does, and exit 2."""
    prog = "aplang" if command is None else f"aplang {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _convert(command: str | None, name: str, convert, text: str):
    """text through convert, or a usage error that names the argument."""
    try:
        if not isinstance(convert, tuple):
            return convert(text)
        if text in convert:
            return text
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, convert))})")
    except ValueError as exc:
        _fail(command, f"argument {name}: {exc}")


def _option(command: str, names, token: str):
    """(name, inline value or None) for -h or a long option, named in full or
    by a unique prefix; (None, None) for an unknown option; None for a value."""
    key, eq, inline = ("--help", "", "") if token == "-h" else token.partition("=")
    if key[:2] == "--":
        hits = [n for n in names if n == key] or [n for n in names if n.startswith(key)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], inline if eq else None
    values = token[:1] != "-" or token == "-" or " " in token or _NUMBER.match(token)
    return None if values else (None, None)


def parse_args(argv) -> SimpleNamespace:
    """The command and its fields, read from argv in one pass against
    COMMANDS; a usage error prints to stderr and raises SystemExit(2)."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *tokens = argv
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        _help(None)
    _convert(None, "command", tuple(COMMANDS), command)
    _, _, positionals, options = COMMANDS[command]
    known = {**_HELP, **options}
    fields = {"command": command, **{n[2:].replace("-", "_"): o[1] for n, o in options.items()}}
    extras, filled, took, i, ended = [], 0, False, 0, False
    while i < len(tokens):
        token, i = tokens[i], i + 1
        if token == "--" and not ended:
            # as in argparse, the positional just taken, or else the next, absorbs it
            ended = True
            if not (took or filled < len(positionals) and i < len(tokens)):
                extras.append(token)
            continue
        hit = None if ended else _option(command, known, token)
        took = hit is None and filled < len(positionals)
        if took:
            name, convert, _ = positionals[filled]
            fields[name] = _convert(command, name, convert, token)
            filled += 1
        elif hit is None or hit[0] is None:
            extras.append(token)
        else:
            name, inline = hit
            convert = known[name][0]
            if convert is FLAG and inline is not None:
                _fail(command, f"argument {name}: ignored explicit argument {inline!r}")
            if name == "--help":
                _help(command)
            if convert is not FLAG and inline is None:
                if i == len(tokens) or tokens[i] == "--" or _option(command, known, tokens[i]):
                    _fail(command, f"argument {name}: expected one argument")
                inline, i = tokens[i], i + 1
            dest = name[2:].replace("-", "_")
            fields[dest] = True if convert is FLAG else _convert(command, name, convert, inline)
    if filled < len(positionals):
        missing = ", ".join(name for name, _, _ in positionals[filled:])
        _fail(command, f"the following arguments are required: {missing}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][1](args)
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

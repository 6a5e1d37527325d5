"""Command-line behavior: outputs, exit codes, determinism."""

import json
import subprocess
import sys
import tracemalloc

import pytest

import aplang
import aplang.cli
import aplang.verification
from aplang.automata import Alphabet
from aplang.cli import main
from aplang.diag import build_diag_nfa, diag_oracle_accepts
from aplang.jsonio import (
    dfa_to_obj,
    load_dfa,
    nfa_to_obj,
    obj_to_dfa,
    save_dfa,
)
from aplang.verification import (
    run_claims,
    verify_thm2,
    verify_thm3,
    verify_thm4,
    verify_thm5,
)

from conftest import (
    AB,
    ab_star_dfa,
    b_ab_star_dfa,
    equivalent,
    fresh_env,
    load_nfa,
    single_word_dfa,
    universal_dfa,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- filter-word -------------------------------------------------------------


def test_filter_word_worked_examples(capsys):
    code, out, _ = run_cli(capsys, "filter-word", "theorem", "2", "0")
    assert (code, out) == (0, "term\n")
    code, out, _ = run_cli(capsys, "filter-word", "theorem", "2", "1")
    assert (code, out) == (0, "hoe\n")
    code, out, _ = run_cli(capsys, "filter-word", "x", "1", "5")
    assert (code, out) == (0, "(empty)\n")


def test_filter_word_usage_errors(capsys):
    for argv in (
        ["filter-word", "w", "zero", "0"],
        ["filter-word", "w", "0", "0"],   # step must be >= 1
        ["filter-word", "w", "2", "-1"],
        ["no-such-command"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# --- filter-lang --------------------------------------------------------------


def test_filter_lang_even_positions_of_ab_star(tmp_path, capsys):
    src = tmp_path / "ab_star.json"
    save_dfa(ab_star_dfa(), str(src))
    out_file = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "filter-lang", str(src), "2", "0", "--out", str(out_file)
    )
    assert code == 0
    assert "states before minimization:" in out
    assert "states after minimization:" in out
    result = load_dfa(str(out_file))
    a_star = obj_to_dfa(
        {
            "alphabet": ["a", "b"],
            "states": 1,
            "start": 0,
            "accepting": [0],
            "delta": {"0": {"a": 0}},
        }
    )
    assert equivalent(result, a_star)


def test_filter_lang_identity_is_minimized_copy(tmp_path, capsys):
    src = tmp_path / "m.json"
    d = ab_star_dfa()
    save_dfa(d, str(src))
    code, out, _ = run_cli(capsys, "filter-lang", str(src), "1", "0")
    assert code == 0
    payload = out.split("\n", 2)[2]
    assert obj_to_dfa(json.loads(payload)) == d.minimized()


def test_filter_lang_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "filter-lang", str(bad), "2", "0")
    assert code == 2
    assert "line" in err and "column" in err  # position diagnostic


@pytest.mark.parametrize(
    "field, value",
    [
        ("accepting", ["0"]),
        ("states", True),
        ("delta", {"0": [0]}),
        ("delta", {"0": {"a": 1}}),  # target 1 is the dead state of the partial table
        ("alphabet", ["a", "b", ""]),
    ],
)
def test_filter_lang_wrongly_typed_field_exits_2(tmp_path, capsys, field, value):
    obj = dfa_to_obj(universal_dfa())  # one state, so true would read as 1
    obj[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "filter-lang", str(bad), "2", "0")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"x"'])
@pytest.mark.parametrize(
    "command", [["filter-lang", "2", "0"], ["diag-nfa"]], ids=["filter-lang", "diag-nfa"]
)
def test_non_object_json_exits_2(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run_cli(capsys, command[0], str(bad), *command[1:])
    assert code == 2
    assert err.startswith("error:") and "must be a JSON object" in err
    assert "Traceback" not in err


def test_huge_state_count_exits_2(tmp_path, capsys):
    obj = dfa_to_obj(universal_dfa())
    obj["states"] = 100_000_000
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "filter-lang", str(bad), "2", "0")
    assert code == 2
    assert err.startswith("error:") and "exceeds the limit" in err


def test_aliased_state_keys_exit_2(tmp_path, capsys):
    obj = dfa_to_obj(universal_dfa())
    obj["delta"]["00"] = {"a": 0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "filter-lang", str(bad), "2", "0")
    assert code == 2
    assert err == "error: state key '00' is not a canonical decimal integer\n"


@pytest.mark.parametrize(
    "text, key",
    [
        # a repeated state key: json alone would keep the later, empty row
        ('"delta": {"0": {"a": 0}, "0": {}}', "0"),
        # a repeated token in one row
        ('"delta": {"0": {"a": 0, "a": 1}}', "a"),
        # a repeated top-level field
        ('"delta": {"0": {"a": 0}}, "start": 0', "start"),
    ],
)
def test_repeated_json_keys_exit_2(tmp_path, capsys, text, key):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"alphabet": ["a"], "states": 2, "start": 0, "accepting": [0], ' + text + "}"
    )
    code, out, err = run_cli(capsys, "filter-lang", str(bad), "1", "0")
    assert (code, out) == (2, "")
    assert err == f"error: repeated key {key!r} in a JSON object\n"


def test_accepting_dead_state_exits_2(tmp_path, capsys):
    # index 1 is the dead state the partial table gains, which must not accept
    obj = {"alphabet": ["a", "b"], "states": 1, "start": 0, "accepting": [1],
           "delta": {"0": {"a": 0}}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "filter-lang", str(bad), "1", "0")
    assert (code, out) == (2, "")
    assert err == "error: start or accepting state out of range\n"


def test_filter_lang_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "filter-lang", str(tmp_path / "nope.json"), "2", "0")
    assert code == 3
    assert "error" in err


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(d, f):
        raise RuntimeError("boom")

    monkeypatch.setattr(aplang.cli, "build_filtered_dfa", broken)
    src = tmp_path / "u.json"
    save_dfa(universal_dfa(), src)
    code, out, err = run_cli(capsys, "filter-lang", str(src), "2", "0")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"
    assert "Traceback" not in err


# --- enumerate-filtrations ------------------------------------------------------


def test_enumerate_filtrations_universal(tmp_path, capsys):
    src = tmp_path / "u.json"
    save_dfa(universal_dfa(), str(src))
    code, out, _ = run_cli(capsys, "enumerate-filtrations", str(src), "strong")
    assert code == 0
    assert out.strip().endswith("DISTINCT LANGUAGES: 1")


def test_enumerate_filtrations_shift_of_ab_star(tmp_path, capsys):
    src = tmp_path / "ab.json"
    save_dfa(ab_star_dfa(), str(src))
    code, out, _ = run_cli(capsys, "enumerate-filtrations", str(src), "shift")
    assert code == 0
    assert "DISTINCT LANGUAGES: 2" in out
    assert "(a=1, b=0)" in out and "(a=1, b=1)" in out
    assert "(empty)" in out  # epsilon shows up in the samples


def test_enumerate_filtrations_json_format(tmp_path, capsys):
    src = tmp_path / "ab.json"
    save_dfa(ab_star_dfa(), str(src))
    code, out, _ = run_cli(
        capsys, "enumerate-filtrations", str(src), "weak", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "weak"
    assert obj["distinct"] == len(obj["entries"])
    assert all(e["b"] == 0 for e in obj["entries"])


def test_enumerate_filtrations_samples_stay_cheap_at_long_lengths(tmp_path, capsys):
    # six sample words of (a|b)*, not every one of its 2^61 - 1 words up to 60
    src = tmp_path / "u.json"
    save_dfa(universal_dfa(), str(src))
    code, out, _ = run_cli(
        capsys, "enumerate-filtrations", str(src), "weak", "--max-len", "60"
    )
    assert code == 0
    assert "sample: (empty) a b aa ab ba\n" in out


def test_enumerate_filtrations_unknown_family(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-filtrations", "x.json", "prime"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- diag -----------------------------------------------------------------------


def test_diag_word_command(capsys):
    code, out, _ = run_cli(capsys, "diag", "absorbent")
    assert (code, out) == (0, "art\n")
    code, out, _ = run_cli(capsys, "diag", "abcd")
    assert (code, out) == (0, "ad\n")


def test_diag_non_square_exits_2(capsys):
    code, _, err = run_cli(capsys, "diag", "abc")
    assert code == 2
    assert "length is not a perfect square" in err


def test_diag_nfa_command(tmp_path, capsys):
    src = tmp_path / "ab.json"
    save_dfa(ab_star_dfa(), str(src))
    out_file = tmp_path / "diag.json"
    code, out, _ = run_cli(capsys, "diag-nfa", str(src), "--out", str(out_file))
    assert code == 0
    assert out.startswith("states: ")
    nfa = load_nfa(str(out_file))
    assert nfa.accepts(AB.word("ab"))
    assert not nfa.accepts(AB.word("aa"))
    assert not nfa.accepts(())


def test_diag_nfa_stdout_is_the_json_dump(tmp_path, capsys):
    src = tmp_path / "b_ab.json"
    save_dfa(b_ab_star_dfa(), str(src))
    code, out, _ = run_cli(capsys, "diag-nfa", str(src))
    assert code == 0
    nfa = build_diag_nfa(load_dfa(str(src)))
    dump = json.dumps(nfa_to_obj(nfa), indent=2, sort_keys=True)
    assert out == f"states: {nfa.size}\n{dump}\n"


# --- verify ----------------------------------------------------------------------


def test_verify_thm3_passes_and_is_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "thm3")
    code2, out2, err2 = run_cli(capsys, "verify", "thm3")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical stdout
    assert "thm3: PASS" in out1
    assert "elapsed" in err1 and "elapsed" in err2


def test_verify_thm2_reports_the_known_failure(capsys):
    # the singleton section identity does not hold; the claim fails honestly
    code, out, _ = run_cli(capsys, "verify", "thm2")
    assert code == 1
    assert "thm2: FAIL" in out
    assert "100200303" in out
    assert "pairwise distinct" in out  # the distinctness conclusion holds


THM2_DETAILS = [
    "a=1: sources to length 2, filtered language meets 123+ in {}",
    "a=2: sources to length 6, filtered language meets 123+ in {123}",
    "a=3: sources to length 12, filtered language meets 123+ in {123, 1233}",
    "a=4: sources to length 20, filtered language meets 123+ in {123, 1233, 12333}",
    "a=5: sources to length 30, filtered language meets 123+ in "
    "{123, 1233, 12333, 123333}",
    "the 5 sections are pairwise distinct (each caps at 123^(a-1)), so the "
    "filtered languages are pairwise distinct even though the stated "
    "singleton identity fails",
]


@pytest.mark.parametrize(
    "seed, atlas_sizes",
    [
        (1729, "weak <= 4, ordinary <= 6, strong <= 10, shift <= 5"),
        (1, "weak <= 3, ordinary <= 4, strong <= 8, shift <= 5"),
    ],
)
def test_thm1_and_thm2_reports_are_pinned(seed, atlas_sizes):
    thm1, thm2 = run_claims(("thm1", "thm2"), seed=seed).results
    assert (thm1.claim, thm1.outcome, thm1.witness) == ("thm1", "PASS", None)
    assert thm1.details == [
        "construction vs oracle: 50 random automata, steps 1..4, offsets "
        "0..4, every word: 1000 cells agree exactly",
        "state bound: every construction stayed within 2^n - 1 vector states "
        "beside its start nodes",
        "finiteness: 20 random automata, each atlas closed under a doubled "
        f"enumeration window (max distinct languages: {atlas_sizes})",
    ]
    assert (thm2.claim, thm2.outcome) == ("thm2", "FAIL")
    assert thm2.witness == (
        "a=3: section is not the singleton {1233}; source 100200303 filters to 123"
    )
    assert thm2.details == THM2_DETAILS


def test_verify_thm2_holds_one_length_of_sources_at_a_time():
    # a=5 lists 27200 sources to length 30, at most 8641 of one length;
    # holding them all, with the pattern's copy, peaked near 7.7 MB
    tracemalloc.start()
    try:
        assert verify_thm2().outcome == "FAIL"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_thm3_report_is_pinned():
    result = verify_thm3()
    assert (result.claim, result.outcome, result.witness) == ("thm3", "PASS", None)
    assert result.details == [
        "b=0: sources 0^n 1^n with n <= 2; longest all-one filtered word is 1^0",
        "b=1: sources 0^n 1^n with n <= 4; longest all-one filtered word is 1^1",
        "b=2: sources 0^n 1^n with n <= 6; longest all-one filtered word is 1^2",
        "b=3: sources 0^n 1^n with n <= 8; longest all-one filtered word is 1^3",
        "b=4: sources 0^n 1^n with n <= 10; longest all-one filtered word is 1^4",
        "b=5: sources 0^n 1^n with n <= 12; longest all-one filtered word is 1^5",
        "b=6: sources 0^n 1^n with n <= 14; longest all-one filtered word is 1^6",
        "each 1^b separates its language from every smaller offset, so the "
        "7 languages are pairwise distinct",
    ]


def test_thm2_and_thm3_do_not_format_words(monkeypatch):
    # the enumerator returns strings, so neither claim converts a word
    def refuse(alphabet, word):
        raise AssertionError("Alphabet.format called")

    monkeypatch.setattr(Alphabet, "format", refuse)
    thm2 = verify_thm2()
    assert (thm2.outcome, thm2.details) == ("FAIL", THM2_DETAILS)
    assert thm2.witness == (
        "a=3: section is not the singleton {1233}; source 100200303 filters to 123"
    )
    assert verify_thm3().outcome == "PASS"


def thm4_details(automata):
    return [
        f"three-way agreement (nfa, walk oracle, literal enumeration) for "
        f"{automata} automata and every word of length t <= 4",
        "info: gap-after-letter stepping diverges on fixed witness {abba}, t=2, "
        "word 'aa'; the gap-before-letter stepping matches both oracles",
    ]


@pytest.mark.parametrize(
    "kwargs, automata",
    [
        pytest.param({"seed": 1729}, 31, id="1729"),
        pytest.param({"seed": 1}, 31, id="1"),
        # the fixed witness alone names the same lengths and divergence
        pytest.param({"pool_size": 0}, 1, id="pool-0"),
    ],
)
def test_thm4_report_is_pinned(kwargs, automata):
    result = verify_thm4(**kwargs)
    assert (result.claim, result.outcome, result.witness) == ("thm4", "PASS", None)
    assert result.details == thm4_details(automata)


def test_thm4_consults_the_gap_after_mutant_only_on_the_fixed_witness(monkeypatch):
    real = aplang.verification._gap_after_accepts
    sources = []

    def recording(d, w):
        sources.append(d)
        return real(d, w)

    monkeypatch.setattr(aplang.verification, "_gap_after_accepts", recording)
    assert verify_thm4().outcome == "PASS"
    assert sources and all(d == single_word_dfa("abba", AB) for d in sources)


@pytest.mark.parametrize(
    "deep, last",
    [
        (False, "|y|=169 sweep skipped by default; enable with --deep"),
        (
            True,
            "|y|=169: among the ten candidate diagonal forms with six run "
            "letters, only abccdeffghiij is realizable (the t=2 staircase)",
        ),
    ],
)
def test_thm5_report_is_pinned(deep, last):
    result = verify_thm5(deep=deep)
    assert (result.claim, result.outcome, result.witness) == ("thm5", "PASS", None)
    assert result.details == [
        "t=1: witness of length 10^2 is in the language and its diagonal is abcdefghij",
        "t=2: witness of length 13^2 is in the language and its diagonal is "
        "abccdeffghiij",
        "|y|=100: 6859 members match the diagonal pattern ab?de?gh?j; the only "
        "well-formed diagonal among them is abcdefghij",
        last,
    ]


def _member_off_the_language(length, pattern):
    # the pattern's letters on the diagonal of a square of zeros
    side = len(pattern)
    return 1, "".join(
        "0" if i % (side + 1) else pattern[i // (side + 1)] for i in range(length)
    )


REFUTATIONS = [
    pytest.param(
        verify_thm2, {}, {"in_thm2": lambda real: lambda s: False},
        "a=2: grammar produced a word outside the pattern",
        id="thm2-word-outside-pattern",
    ),
    pytest.param(
        verify_thm2, {}, {"_thm2_pattern_words": lambda real: lambda n: set()},
        "a=2: grammar enumeration and pattern enumeration differ",
        id="thm2-enumerations-differ",
    ),
    pytest.param(
        # the grammar has no word of length 4, so only a walk that compares
        # the empty lengths too sees the extra pattern word
        verify_thm2, {},
        {"_thm2_pattern_words": lambda real: lambda n: [*real(n), *["1023"] * (n == 4)]},
        "a=2: grammar enumeration and pattern enumeration differ",
        id="thm2-enumerations-differ-at-an-empty-length",
    ),
    pytest.param(
        # a=3 also misses its singleton; the collision witness wins
        verify_thm2, {}, {"_is_123plus": lambda real: lambda s: s == "123"},
        "two steps produced the same 123+ section",
        id="thm2-sections-collide",
    ),
    pytest.param(
        # the section lacks its singleton and has no extra word
        verify_thm2, {"step_range": (2,)}, {"_is_123plus": lambda real: lambda s: False},
        "a=2: section is not the singleton {123}; it lacks 123",
        id="thm2-section-lacks-singleton",
    ),
    pytest.param(
        verify_thm3, {}, {"in_0n1n": lambda real: lambda s: False},
        "b=0: grammar produced a word outside 0^n 1^n",
        id="thm3-word-outside-language",
    ),
    pytest.param(
        verify_thm3, {}, {"enumerate_cfg_words": lambda real: lambda g, n: real(g, n) - {""}},
        "b=0: expected 3 sources, got 2",
        id="thm3-source-count",
    ),
    pytest.param(
        verify_thm3, {}, {"filter_word": lambda real: lambda w, f: w},
        "b=1: longest all-one word has length 0",
        id="thm3-longest-all-one",
    ),
    pytest.param(
        verify_thm4, {}, {"diag_oracle_words": lambda real: lambda d, t: set()},
        "fixed witness {abba}, word 'aa': nfa=True, walk oracle=False, "
        "literal oracle=True",
        id="thm4-three-way",
    ),
    pytest.param(
        # every word disagrees at t = 1; the least one is named, the word a
        # loop over the words in order meets first
        verify_thm4, {},
        {"diag_oracle_words": lambda real: lambda d, t: {(c,) * t for c in range(len(d.alphabet))}},
        "fixed witness {abba}, word 'a': nfa=False, walk oracle=True, "
        "literal oracle=False",
        id="thm4-least-witness",
    ),
    pytest.param(
        verify_thm4, {},
        {"_gap_after_accepts": lambda real: diag_oracle_accepts},
        "the gap-after-letter stepping unexpectedly matched the oracles everywhere",
        id="thm4-no-divergence",
    ),
    pytest.param(
        verify_thm5, {}, {"in_thm5": lambda real: lambda s: False},
        "t=1: witness fails the structural predicate",
        id="thm5-witness-outside-language",
    ),
    pytest.param(
        verify_thm5, {}, {"diag_word": lambda real: lambda w: "x"},
        "t=1: witness diagonal is 'x'",
        id="thm5-witness-diagonal",
    ),
    pytest.param(
        # both members at 100 are wrong; the pattern's member is checked first
        verify_thm5, {}, {"count_thm5_by_length": lambda real: lambda n, p: (1, "a" * n)},
        "|y|=100: a member enumerated for ab?de?gh?j has diagonal aaaaaaaaaa",
        id="thm5-member-diagonal",
    ),
    pytest.param(
        verify_thm5, {}, {"count_thm5_by_length": lambda real: _member_off_the_language},
        "|y|=100: the member rebuilt for ab?de?gh?j is not in the language",
        id="thm5-member-outside-language",
    ),
    pytest.param(
        verify_thm5, {},
        {
            "count_thm5_by_length": lambda real: lambda n, p: (
                (1, "a" * n) if p == "abcdefghij" else real(n, p)
            )
        },
        "|y|=100: a member enumerated for abcdefghij has diagonal aaaaaaaaaa",
        id="thm5-staircase-diagonal",
    ),
    pytest.param(
        verify_thm5, {},
        {
            "count_thm5_by_length": lambda real: lambda n, p: (
                (0, None) if p == "abcdefghij" else real(n, p)
            )
        },
        "|y|=100: well-formed diagonals are []",
        id="thm5-no-staircase",
    ),
    pytest.param(
        verify_thm5, {"deep": True},
        {
            "count_thm5_by_length": lambda real: lambda n, p: (
                (0, None) if n == 169 else real(n, p)
            )
        },
        "|y|=169: realizable diagonal forms are []",
        id="thm5-nothing-realizable",
    ),
]


@pytest.mark.parametrize("verify, kwargs, patches, witness", REFUTATIONS)
def test_each_refutation_branch_reports_its_witness(
    monkeypatch, verify, kwargs, patches, witness
):
    # one broken collaborator, as bound in aplang.verification, per branch
    for name, wrap in patches.items():
        real = getattr(aplang.verification, name)
        monkeypatch.setattr(aplang.verification, name, wrap(real))
    result = verify(**kwargs)
    assert (result.outcome, result.witness) == ("FAIL", witness)


def test_thm4_compares_the_literal_oracle_at_4(monkeypatch):
    real = aplang.verification.diag_oracle_exhaustive

    def extra_word_at_4(d, t):
        literal = real(d, t)
        return literal | {(0, 0, 0, 0)} if t == 4 else literal

    monkeypatch.setattr(aplang.verification, "diag_oracle_exhaustive", extra_word_at_4)
    result = verify_thm4(pool_size=0)
    assert (result.outcome, result.witness) == (
        "FAIL",
        "fixed witness {abba}, word 'aaaa': nfa=False, walk oracle=False, "
        "literal oracle=True",
    )


def test_unknown_claim_is_rejected_before_any_claim_runs(monkeypatch):
    def refuse():
        raise AssertionError("verify_thm2 ran")

    monkeypatch.setattr(aplang.verification, "verify_thm2", refuse)
    with pytest.raises(ValueError, match="unknown claim 'thm9'"):
        run_claims(("thm2", "thm9"))


@pytest.mark.parametrize(
    "claim, code", [("thm1", 0), ("thm2", 1), ("thm3", 0), ("thm4", 0), ("thm5", 0)]
)
def test_verify_runs_without_asserts(claim, code):
    # python -O strips assert statements; the verdicts must not change
    run = subprocess.run(
        [sys.executable, "-O", "-m", "aplang", "verify", claim],
        env=fresh_env(),
        capture_output=True,
        text=True,
    )
    assert run.returncode == code
    assert f"{claim}: {'PASS' if code == 0 else 'FAIL'}" in run.stdout
    if claim == "thm2":
        assert "source 100200303 filters to 123" in run.stdout


def test_verify_all_ends_with_four_passes_and_the_thm2_fail(capsys):
    # the result line README promises; thm2's documented FAIL is the one fail
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out.splitlines()[-1] == "result: 4 pass, 1 fail"


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert obj["claims"][0]["claim"] == "thm3"
    assert obj["claims"][0]["outcome"] == "PASS"


def test_negative_max_len_is_a_usage_error(capsys):
    # rejected while parsing, before any file is read
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-filtrations", "no-such.json", "strong", "--max-len", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --max-len: max-len must be non-negative" in err


def test_int_argument_errors_name_the_argument(capsys):
    for argv, message in (
        (["filter-word", "abc", "x", "1"], "argument a: invalid step value: 'x'"),
        (["filter-word", "abc", "0", "1"], "argument a: step a must be at least 1"),
        (["filter-word", "abc", "1", "y"], "argument b: invalid offset value: 'y'"),
        (["filter-word", "abc", "1", "-1"], "argument b: offset b must be non-negative"),
        (
            ["enumerate-filtrations", "no-such.json", "weak", "--max-len", "z"],
            "argument --max-len: invalid max-len value: 'z'",
        ),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n"), argv


def test_verify_takes_no_max_len(capsys):
    # thm1 checks every word, so verify has no length to set
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-len", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --max-len 3" in err


def test_verify_thm4_seed_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm4", "--seed", "7")
    assert code == 0
    assert "thm4: PASS" in out
    assert "gap-after-letter stepping diverges" in out


# --- usage errors ----------------------------------------------------------------

FAMILIES = "'weak', 'ordinary', 'strong', 'shift'"
COMMAND_CHOICES = (
    "'filter-word', 'filter-lang', 'enumerate-filtrations', 'diag', 'diag-nfa', 'verify'"
)
CLAIMS = "'thm1', 'thm2', 'thm3', 'thm4', 'thm5', 'all'"

# (argv, the command the error names or None for aplang itself, message);
# each fails with exit code 2
USAGE_ERRORS = [
    ([], None, "the following arguments are required: command"),
    (["no-such-command"], None,
     f"argument command: invalid choice: 'no-such-command' (choose from {COMMAND_CHOICES})"),
    ([""], None, f"argument command: invalid choice: '' (choose from {COMMAND_CHOICES})"),
    (["filter-word", "w", "zero", "0"], "filter-word", "argument a: invalid step value: 'zero'"),
    (["filter-word", "w", "0", "0"], "filter-word", "argument a: step a must be at least 1"),
    (["filter-word", "w", "1", "-1"], "filter-word", "argument b: offset b must be non-negative"),
    (["filter-word", "w", "1", "y"], "filter-word", "argument b: invalid offset value: 'y'"),
    (["filter-word", "w"], "filter-word", "the following arguments are required: a, b"),
    (["filter-word"], "filter-word", "the following arguments are required: word, a, b"),
    (["filter-word", "w", "1", "0", "extra"], None, "unrecognized arguments: extra"),
    (["filter-word", "w", "x", "1", "--bogus"], "filter-word",
     "argument a: invalid step value: 'x'"),
    (["filter-word", "w", "--bogus"], "filter-word", "the following arguments are required: a, b"),
    (["filter-word", "w", "1", "2", "--", "x"], None, "unrecognized arguments: x"),
    (["filter-lang", "f.json", "1"], "filter-lang", "the following arguments are required: b"),
    (["filter-lang", "f.json", "2", "1", "--out=", "--o"], "filter-lang",
     "argument --out: expected one argument"),
    (["enumerate-filtrations", "x.json", "prime"], "enumerate-filtrations",
     f"argument family: invalid choice: 'prime' (choose from {FAMILIES})"),
    (["enumerate-filtrations", "x.json", "weak", "--max-len", "z"], "enumerate-filtrations",
     "argument --max-len: invalid max-len value: 'z'"),
    (["enumerate-filtrations", "x.json", "weak", "--max-len", "-1"], "enumerate-filtrations",
     "argument --max-len: max-len must be non-negative"),
    (["enumerate-filtrations", "x.json", "weak", "--max", "0", "--max-len=-3"],
     "enumerate-filtrations", "argument --max-len: max-len must be non-negative"),
    (["enumerate-filtrations", "x.json", "weak", "--format=xml"], "enumerate-filtrations",
     "argument --format: invalid choice: 'xml' (choose from 'table', 'json')"),
    (["enumerate-filtrations", "x.json", "weak", "--form", "xml"], "enumerate-filtrations",
     "argument --format: invalid choice: 'xml' (choose from 'table', 'json')"),
    (["diag"], "diag", "the following arguments are required: word"),
    (["diag", "x", "--", "--"], None, "unrecognized arguments: --"),
    (["diag-nfa"], "diag-nfa", "the following arguments are required: dfa_file"),
    (["diag-nfa", "f.json", "--out"], "diag-nfa", "argument --out: expected one argument"),
    (["verify", "thm9"], "verify",
     f"argument claim: invalid choice: 'thm9' (choose from {CLAIMS})"),
    (["verify", "all", "--fo", "json", "--s", "x"], "verify",
     "argument --seed: invalid int value: 'x'"),
    (["verify", "--seed", "x"], "verify", "argument --seed: invalid int value: 'x'"),
    (["verify", "all", "--seed"], "verify", "argument --seed: expected one argument"),
    (["verify", "thm3", "--seed", "--deep"], "verify", "argument --seed: expected one argument"),
    (["verify", "thm3", "--seed", "--"], "verify", "argument --seed: expected one argument"),
    (["verify", "thm3", "--seed", "-x"], "verify", "argument --seed: expected one argument"),
    (["verify", "thm3", "--seed", "-1e5"], "verify", "argument --seed: expected one argument"),
    (["verify", "thm3", "--seed", "-"], "verify", "argument --seed: invalid int value: '-'"),
    (["verify", "thm3", "--seed", "--x y"], "verify",
     "argument --seed: invalid int value: '--x y'"),
    (["verify", "--x y"], "verify",
     f"argument claim: invalid choice: '--x y' (choose from {CLAIMS})"),
    (["verify", "all", "--deep=1"], "verify", "argument --deep: ignored explicit argument '1'"),
    (["verify", "all", "--deep="], "verify", "argument --deep: ignored explicit argument ''"),
    (["verify", "all", "--help=1"], "verify", "argument -h/--help: ignored explicit argument '1'"),
    (["filter-word", "w", "1", "0", "--h=x"], "filter-word",
     "argument -h/--help: ignored explicit argument 'x'"),
    (["diag", "abcd", "--=x"], "diag", "argument -h/--help: ignored explicit argument 'x'"),
    (["verify", "all", "--=x"], "verify",
     "ambiguous option: --=x could match --help, --seed, --deep, --format"),
    (["enumerate-filtrations", "f.json", "weak", "--=1"], "enumerate-filtrations",
     "ambiguous option: --=1 could match --help, --max-len, --format"),
    (["filter-lang", "f.json", "1", "0", "--=x"], "filter-lang",
     "ambiguous option: --=x could match --help, --out"),
    # an ambiguous option before the first -- goes before any other error
    (["filter-lang", "f.json", "x", "0", "--=x"], "filter-lang",
     "ambiguous option: --=x could match --help, --out"),
    (["verify", "all", "--deep=1", "--=x"], "verify",
     "ambiguous option: --=x could match --help, --seed, --deep, --format"),
    (["verify", "all", "--max-len", "3"], None, "unrecognized arguments: --max-len 3"),
    (["verify", "all", "--format", "table", "--format", "xml"], "verify",
     "argument --format: invalid choice: 'xml' (choose from 'table', 'json')"),
    (["verify", "thm3", "--format=json=x"], "verify",
     "argument --format: invalid choice: 'json=x' (choose from 'table', 'json')"),
    (["verify", "thm3", "extra", "--bogus"], None, "unrecognized arguments: extra --bogus"),
    (["verify", "thm3", "--", "--deep"], None, "unrecognized arguments: --deep"),
    (["verify", "thm3", "--deep", "--"], None, "unrecognized arguments: --"),
    (["verify", "thm3", "--bogus", "--"], None, "unrecognized arguments: --bogus --"),
    (["verify", "--", "--"], "verify",
     f"argument claim: invalid choice: '--' (choose from {CLAIMS})"),
]


@pytest.mark.parametrize(
    "argv, command, message",
    USAGE_ERRORS,
    ids=[" ".join(argv) or "(none)" for argv, _, _ in USAGE_ERRORS],
)
def test_usage_errors_are_pinned(capsys, argv, command, message):
    # an ambiguous option, then the first bad token in argv order, then missing
    # positionals, then unrecognized arguments; every message as argparse gave it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: aplang")
    prog = "aplang" if command is None else f"aplang {command}"
    assert err.splitlines()[-1] == f"{prog}: error: {message}"


def test_a_second_double_dash_is_a_value(capsys):
    # argparse (3.10 to 3.13) handed a positional whose only token was a
    # second -- an empty list, which reached the handler as an internal
    # error (exit 4)
    with pytest.raises(SystemExit) as exc:
        main(["filter-word", "--", "w", "--", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument a: invalid step value: '--'\n")


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (
            ["verify", "thm4", "--seed=7", "--format=json"],
            ["verify", "thm4", "--seed", "7", "--format", "json"],
        ),
        (
            ["verify", "thm3", "--se=-2", "--s", "3", "--fo=json"],
            ["verify", "thm3", "--seed", "3", "--format", "json"],
        ),
        (["verify", "--deep", "--", "thm3"], ["verify", "thm3", "--deep"]),
        (["verify", "thm3", "--seed", "-5"], ["verify", "thm3"]),
        (["filter-word", "--", "w", "1", "0"], ["filter-word", "w", "1", "0"]),
        (["filter-word", "w", "1", "--", "0"], ["filter-word", "w", "1", "0"]),
        (["filter-word", "w", "1", "0", "--"], ["filter-word", "w", "1", "0"]),
    ],
)
def test_option_spellings_give_the_same_output(capsys, argv, same_as):
    # --name=value, a unique prefix and -- read as the full spelling does
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == run_cli(capsys, *same_as)[:2]
    assert code == 0 and out


# --- determinism ------------------------------------------------------------------


def test_stdout_does_not_depend_on_hash_seed(tmp_path):
    src = tmp_path / "b_ab_star.json"
    save_dfa(b_ab_star_dfa(), str(src))
    for argv, code in (
        (["enumerate-filtrations", str(src), "strong", "--format", "json"], 0),
        (["diag-nfa", str(src)], 0),
        (["verify", "all", "--format", "json"], 1),  # the documented thm2 FAIL
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "aplang", *argv],
                env=fresh_env(PYTHONHASHSEED=seed),
                capture_output=True,
            )
            for seed in ("0", "1")
        ]
        assert [r.returncode for r in runs] == [code, code], argv
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout, argv


# --- help and repeated calls ---------------------------------------------------


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: aplang ")
    assert all(name in out for name in aplang.cli.COMMANDS)


@pytest.mark.parametrize("command", list(aplang.cli.COMMANDS))
def test_command_help_names_its_arguments(capsys, command):
    # every positional, option and choice, as the command table gives them
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: aplang {command} ")
    _, _, positionals, options = aplang.cli.COMMANDS[command]
    converters = [c for _, c, _ in positionals] + [c for c, _, _ in options.values()]
    words = [name for name, _, _ in positionals] + list(options)
    words += [choice for c in converters if isinstance(c, tuple) for choice in c]
    assert [word for word in words if word not in out] == []


def test_main_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # each flag is set in one call and left out of the next; the in-process
    # sequence must read exactly like one fresh process per command
    # usage lines do not wrap at the terminal width, so a narrower one in the
    # fresh processes changes nothing
    monkeypatch.setenv("COLUMNS", "80")
    dfa, out = str(tmp_path / "ab_star.json"), str(tmp_path / "out.json")
    save_dfa(ab_star_dfa(), dfa)
    sequence = [
        ["verify", "thm4", "--seed", "7"],
        ["verify", "thm4"],
        ["verify", "thm1", "--seed", "7"],  # thm1's report shows its seed
        ["verify", "thm1"],
        ["verify", "thm3", "--format", "json"],
        ["verify", "thm3"],
        ["filter-word", "w", "0", "0"],  # usage error
        ["enumerate-filtrations", dfa, "strong", "--max-len", "2"],
        ["enumerate-filtrations", dfa, "strong"],
        ["no-such-command"],
        ["filter-lang", dfa, "2", "0", "--out", out],
        ["filter-lang", dfa, "2", "0"],
        ["verify", "thm5", "--deep"],
        ["verify", "thm5"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        # stderr is compared for usage errors only: verify times itself there
        in_process.append((code, captured.out, captured.err if code == 2 else None))
    fresh = []
    for argv in sequence:
        run = subprocess.run(
            [sys.executable, "-m", "aplang", *argv],
            env=fresh_env(COLUMNS="20"),
            capture_output=True,
            text=True,
        )
        fresh.append((run.returncode, run.stdout, run.stderr if run.returncode == 2 else None))
    assert [c for c, _, _ in in_process] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0]
    for argv, got, expected in zip(sequence, in_process, fresh):
        assert got == expected, argv

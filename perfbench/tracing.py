"""Per-layer tracing from outside the package.

Each traced public function is replaced, at every binding a caller looks
it up through (module globals of every aplang module, or the class for a
method), by one wrapper that records a span around the call.  A span's
self time is its duration minus the time of the spans it encloses.  Spans
are folded into per-name totals as they close; counts of the work done
(states built, words enumerated, ...) are read off arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name).  Two targets may share a span name.
TARGETS = (
    ("aplang.boolmat", "power_orbit", "boolmat.power_orbit"),
    ("aplang.filtration", "signature", "filtration.signature"),
    ("aplang.filtration", "build_filtered_dfa", "filtration.build_filtered_dfa"),
    ("aplang.filtration", "enumerate_distinct_filtrations", "filtration.atlas"),
    ("aplang.filtration", "filtered_language_oracle", "filtration.oracle"),
    ("aplang.automata", "Dfa.minimized", "automata.minimized"),
    ("aplang.automata", "Nfa.determinize", "automata.determinize"),
    ("aplang.automata", "Dfa.enumerate_accepted", "automata.enumerate_accepted"),
    ("aplang.automata", "Nfa.accepts", "automata.nfa_accepts"),
    ("aplang.diag", "build_diag_nfa", "diag.build_diag_nfa"),
    ("aplang.diag", "diag_oracle_accepts", "diag.oracle"),
    ("aplang.diag", "diag_oracle_exhaustive", "diag.oracle"),
    ("aplang.grammar", "enumerate_thm5_by_length", "grammar.enumerate_thm5_by_length"),
    ("aplang.grammar", "enumerate_cfg_words", "grammar.enumerate_cfg_words"),
    ("aplang.jsonio", "load_dfa", "jsonio.load_dfa"),
    ("aplang.jsonio", "nfa_to_obj", "jsonio.nfa_to_obj"),
    ("aplang.cli", "main", "cli.main"),
)

# Generators are timed over every resume, so the span covers their whole
# consumption but not the consumer's work between items.
GENERATORS = {"grammar.enumerate_thm5_by_length"}

COUNTS = (
    "boolmat.orbit_len",
    "filtration.build_filtered_dfa.states",
    "filtration.atlas.built",
    "filtration.atlas.languages",
    "automata.minimized.states_in",
    "automata.minimized.states_out",
    "automata.determinize.states",
    "diag.build_diag_nfa.states",
    "grammar.enumerate_thm5_by_length.members",
    "grammar.enumerate_cfg_words.words",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.atlases: list[tuple] = []
        self._names: list[str] = [""]
        self._child_s: list[float] = [0.0]

    def call(self, name, fn, args, kwargs):
        self._names.append(name)
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._names.pop()
            child = self._child_s.pop()
            self._child_s[-1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - child

    def caller(self) -> str:
        """Name of the innermost open span (after the current one closed)."""
        return self._names[-1]

    def observe(self, name, args, result) -> None:
        c = self.counts
        if name == "boolmat.power_orbit":
            c["boolmat.orbit_len"] = max(c["boolmat.orbit_len"], result.index + result.period)
        elif name == "filtration.build_filtered_dfa":
            c["filtration.build_filtered_dfa.states"] += result.size
            if self.caller() == "filtration.atlas":
                c["filtration.atlas.built"] += 1
        elif name == "filtration.atlas":
            c["filtration.atlas.languages"] += len(result)
            self.atlases.append((result.family, result.step_window, result.offset_window))
        elif name == "automata.minimized":
            c["automata.minimized.states_in"] += args[0].size
            c["automata.minimized.states_out"] += result.size
        elif name == "automata.determinize":
            c["automata.determinize.states"] += result.size
        elif name == "diag.build_diag_nfa":
            c["diag.build_diag_nfa.states"] += result.size
        elif name == "grammar.enumerate_cfg_words":
            c["grammar.enumerate_cfg_words.words"] += len(result)

    def wrap(self, name, fn):
        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                it = iter(self.call(name, fn, args, kwargs))
                try:
                    while True:
                        try:
                            item = self.call(name, next, (it,), {})
                        except StopIteration:
                            return
                        self.counts[name + ".members"] += 1
                        yield item
                finally:
                    close = getattr(it, "close", None)
                    if close is not None:
                        close()

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            self.observe(name, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every binding of every target that exists.  A target the
        package no longer has is skipped and its metrics read zero."""
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "aplang" or mod_name.startswith("aplang.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layers(self) -> dict[str, float]:
        """Per-layer totals of one traced repetition, keyed by metric name."""
        out: dict[str, float] = {}
        for name in {n for _, _, n in TARGETS}:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        out["filtration.atlas.pairs"] = sum(
            sum(1 for _ in family.window_pairs(steps, offsets))
            for family, steps, offsets in self.atlases
        )
        return out

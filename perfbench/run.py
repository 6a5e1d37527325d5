"""Benchmark of the aplang toolkit, end to end and per layer.

    python3 perfbench/run.py --workload claims|stress|thm5-deep --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it needs only the standard
library and the package under src/.  Each repetition of a workload runs in
a fresh interpreter, one after another (a closed loop with one caller), so
the package's process-wide caches start cold each time, as they do for a
command-line user.

Workloads (see BENCHMARK.json for why each was chosen):
  claims     run_claims for the five claims at claim seed SEED, not deep.
  stress     cli.main enumerate-filtrations (four families) and diag-nfa on
             coprime-cycle stress DFAs, plus diag NFA -> determinize ->
             minimize through the library.  SEED draws the accepting sets.
  thm5-deep  run_claims(("thm5",), deep=True).  It has no inputs to draw;
             SEED is accepted and recorded.

--trace 0 times repetitions until about SECONDS have passed and reports
the end-to-end metrics: wall_s (median over repetitions of the summed
operation times), setup_s (median time to start an interpreter, import
aplang and write the inputs) and peak_rss_mb (median peak resident memory
of a repetition's process).  Each time in wall_s and setup_s is scaled to
the host speed at which a fixed reference kernel, timed just before and
just after it, takes reference.NOMINAL_S seconds; the unscaled medians are
printed above the result.
--trace 1 runs one plain and two traced repetitions, checks that every
work count repeats exactly between the traced two, and reports the
per-layer metrics: self times and counts of each traced function, the
claims' own elapsed times, source line counts and the tracing overhead.

Every operation has a time cap.  Its output is checked, outside the timed
section, against a pinned verdict or an independent oracle, and must be
byte-identical to the output of any earlier repetition with the same
inputs.  An operation that raised, was capped or gave a wrong or differing
output counts as failed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAYERS = ("boolmat", "automata", "filtration", "diag", "grammar", "verification", "jsonio", "cli")
SETUPS_PER_REP = 2
MIN_SETUPS = 6
# Every run must end within 180 s; no repetition starts that would not
# finish by this many seconds after the run began, at today's speed.
RUN_LIMIT_S = 150.0
# A child process is killed this long after the run's limit, should an
# operation ignore its cap (a cap cannot interrupt a long native call).
KILL_GRACE_S = 15.0


def _median(values):
    return statistics.median(values) if values else 0.0


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.time() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failures: list[str] = []  # one per failed operation
        self.selftest: list[str] = []  # counts or outputs that did not repeat
        # (operation, its inputs) -> digest of its first output, problems found
        self.outputs: dict[tuple[str, tuple], tuple[str, list[str]]] = {}

    def _spawn(self, args: list[str]) -> float:
        """Run child.py to completion; return its lifetime in seconds."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, self.deadline + KILL_GRACE_S - time.time()),
        )
        lifetime = time.perf_counter() - t0
        if proc.returncode != 0:
            raise ChildFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return lifetime

    def setup_once(self) -> float:
        return self._spawn(["setup", self.workload, str(self.seed), str(self.workdir)])

    def setup_between_refs(self, refs: list[float]) -> float:
        """Time one set-up, and the reference kernel in this process just
        before and just after it (appended to refs)."""
        refs.append(reference.timed_kernel())
        lifetime = self.setup_once()
        refs.append(reference.timed_kernel())
        return lifetime

    def repetition(self, rep: int, trace: bool) -> tuple[dict, float]:
        """Run the operations once in a fresh process and check them.
        Returns the child's result and its lifetime."""
        ops = workloads.ops(self.workload, self.seed, self.workdir)
        args = ["run", self.workload, str(self.seed), str(rep), str(self.workdir),
                repr(self.deadline), "1" if trace else "0"]
        t0 = time.perf_counter()
        try:
            self._spawn(args)
            result = json.loads((self.workdir / f"result_{rep}.json").read_text(encoding="utf-8"))
        except (ChildFailed, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            reason = f"repetition process failed: {exc}".splitlines()[0]
            result = {"ops": [{"name": op.name, "size": op.size, "status": "error",
                               "error": reason, "elapsed": 0.0} for op in ops],
                      "refs": [], "peak_rss_mb": 0.0}
        lifetime = time.perf_counter() - t0
        for op, rec in zip(ops, result["ops"]):
            self.attempted += 1
            problems = self._problems(op, rec)
            if problems:
                self.failures.append(f"{op.name} [{op.size}]: {'; '.join(problems)}")
        return result, lifetime

    def _problems(self, op: workloads.Op, rec: dict) -> list[str]:
        if rec["status"] != "ok":
            return [f"{rec['status']}: {rec.get('error', '')}"]
        if op.kind == "cli" and rec.get("rc") != 0:
            return [f"exit code {rec.get('rc')}"]
        if "out" not in rec:
            return ["no output"]
        out = self.workdir / rec["out"]
        data = out.read_bytes()
        out.unlink()
        digest = hashlib.sha256(data).hexdigest()
        earlier = self.outputs.get((op.name, op.args))
        if earlier is not None:
            if earlier[0] != digest:
                return ["output differs from an earlier repetition with the same inputs"]
            return earlier[1]
        try:
            problems = checks.check(op, data.decode("utf-8"), self.seed)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problems = [f"output could not be read: {type(exc).__name__}: {exc}"]
        self.outputs[op.name, op.args] = (digest, problems)
        return problems


def _wall(result: dict) -> float:
    return sum(rec["elapsed"] for rec in result["ops"])


def _scaled_wall(result: dict) -> float:
    """Operation times summed, each scaled by the reference kernel timed
    just before and just after it (see reference.py)."""
    refs = result["refs"]
    return sum(rec["elapsed"] * reference.NOMINAL_S * 2 / (refs[i] + refs[i + 1])
               for i, rec in enumerate(result["ops"]) if rec["elapsed"])


def measure(bench: Bench) -> tuple[dict, list[str]]:
    """Timed repetitions for about SECONDS: the end-to-end metrics.

    Set-up is timed before every repetition, so that its samples, like the
    repetitions', spread over the whole run.  Times are scaled by the
    reference kernel, which takes out most of the shared host's drift in
    speed (see reference.py): each operation by the kernel timed just
    before and after it, and the median set-up by the median kernel time
    around set-ups, as a set-up is too short for its own pair to track it.
    """
    setups, setup_refs, walls, peaks, lifetimes = [], [], [], [], []
    t_start = time.perf_counter()
    rep = 0
    while True:
        setups.extend(bench.setup_between_refs(setup_refs) for _ in range(SETUPS_PER_REP))
        result, lifetime = bench.repetition(rep, trace=False)
        walls.append((_wall(result), _scaled_wall(result)))
        peaks.append(result["peak_rss_mb"])
        lifetimes.append(lifetime)
        rep += 1
        # stop where the run ends closest to SECONDS, and within the limit
        est = _median(lifetimes)
        if time.perf_counter() - t_start + est / 2 >= bench.seconds or time.time() + est > bench.deadline:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup_between_refs(setup_refs))
    values = {
        "wall_s": _median([w[1] for w in walls]),
        "setup_s": _median(setups) * reference.NOMINAL_S / _median(setup_refs),
        "peak_rss_mb": _median(peaks),
    }
    notes = []
    for name, raw in (("wall_s", [w[0] for w in walls]), ("setup_s", setups)):
        notes.append(f"{name}: {len(raw)} samples, unscaled median {_median(raw):.4f} s,"
                     f" min {min(raw):.4f} s, max {max(raw):.4f} s")
    return values, notes


def trace(bench: Bench) -> tuple[dict, list[str]]:
    """One plain and two traced repetitions of the same inputs: the
    per-layer metrics, with a self-test that work counts repeat exactly."""
    runs = [bench.repetition(rep, trace=rep > 0)[0] for rep in range(3)]
    plain, traced = runs[0], runs[1:]
    layers = [r.get("layers") for r in traced]
    if None in layers:
        bench.selftest.append("a traced repetition produced no per-layer totals")
        layers = [lay or {} for lay in layers]
    values: dict[str, float] = {}
    for key in sorted(set(layers[0]) | set(layers[1])):
        a, b = layers[0].get(key, 0), layers[1].get(key, 0)
        if key.endswith(".s"):
            values[key] = _median([a, b])
        else:
            values[key] = a
            if a != b:
                bench.selftest.append(f"{key} is {a} then {b} on the same inputs")
    built = values.get("filtration.atlas.built", 0)
    values["filtration.atlas.useful_ratio"] = (
        values.get("filtration.atlas.languages", 0) / built if built else 0.0
    )
    bytes_seen = [sum(rec.get("stdout_bytes", 0) for rec in r["ops"]) for r in traced]
    if bytes_seen[0] != bytes_seen[1]:
        bench.selftest.append(f"CLI stdout is {bytes_seen[0]} then {bytes_seen[1]} bytes")
    values["cli.stdout_bytes"] = bytes_seen[0]
    for claim in workloads.CLAIM_IDS:
        values[f"verification.{claim}.s"] = _median(
            [rec["claims"][claim] for r in traced for rec in r["ops"] if claim in rec.get("claims", {})]
        )
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
             for p in (SRC / "aplang").glob("*.py")}
    for layer in LAYERS:
        values[f"src.lines.{layer}"] = lines.get(layer, 0)
    values["src.lines.total"] = sum(lines.values())
    plain_wall = _scaled_wall(plain)
    traced_wall = _median([_scaled_wall(r) for r in traced])
    values["trace.overhead_s"] = traced_wall - plain_wall
    notes = [f"wall_s (scaled) untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s"]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "aplang" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'aplang'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        try:
            bench.setup_once()  # writes the inputs and byte-compiles the package
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        values, notes = (trace if args.trace else measure)(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(bench.failures)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"fail_frac {failed / bench.attempted:.4f} ({failed} of {bench.attempted} operations failed)")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for problem in bench.selftest:
        print(f"SELF-TEST FAILED {problem}")
    correct = failed == 0 and not bench.selftest
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

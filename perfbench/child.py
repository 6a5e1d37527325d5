"""One benchmark process, started fresh so that the package's process-wide
caches start cold, as they do for a command-line user.

    child.py setup WORKLOAD SEED WORKDIR
        import aplang and make the workload's inputs (the stress DFA files),
        then exit.  run.py times the whole process as set-up.

    child.py run WORKLOAD SEED REP WORKDIR DEADLINE TRACE
        run the workload's operations once, each under its time cap and
        none after DEADLINE (a time.time() value), and write
        WORKDIR/result_REP.json.  The reference kernel is timed before the
        first operation and after each one, for run.py to scale operation I
        by the times at I and I+1.  Operation outputs go to
        WORKDIR/out_REP_I; run.py checks them.  TRACE=1 wraps the
        package's public functions and adds per-layer totals to the result.
"""

from __future__ import annotations

import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import reference
import workloads


class Capped(BaseException):
    """Raised by the alarm when an operation reaches its cap.  A
    BaseException, so no handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise Capped()


def setup(workload: str, seed: int, workdir: Path) -> None:
    import aplang  # noqa: F401  (import cost is part of set-up)
    import aplang.cli  # noqa: F401
    from aplang.jsonio import save_dfa

    if workload == "stress":
        for cycles in workloads.all_stress_cycles():
            save_dfa(workloads.stress_dfa(cycles, seed), str(workloads.dfa_file(workdir, cycles)))


def _run_op(op: workloads.Op, out_path: Path, rec: dict):
    """Run one operation inside the timed section; return what must be
    written to its output file after the timer stops (None for CLI
    operations, which write their own standard output there)."""
    import aplang

    if op.kind == "claim":
        claim, seed, deep = op.args
        report = aplang.run_claims((claim,), seed=seed, deep=deep)
        rec["claims"] = {r.claim: r.elapsed for r in report.results}
        return report.to_json_obj()
    if op.kind == "cli":
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rec["rc"] = aplang.cli.main(list(op.args))
        return None
    if op.kind == "diag-min":
        d = aplang.jsonio.load_dfa(op.args[0])
        return aplang.diag.build_diag_nfa(d).determinize().minimized()
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    VmHWM, not getrusage's ru_maxrss: on Linux the latter also counts the
    parent's memory at the fork that started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: str, seed: int, rep: int, workdir: Path, deadline: float, trace: bool
) -> None:
    import aplang
    import aplang.cli
    import aplang.jsonio

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    refs = [reference.timed_kernel()]
    for i, op in enumerate(workloads.ops(workload, seed, workdir)):
        out_path = workdir / f"out_{rep}_{i}"
        rec = {"name": op.name, "size": op.size, "status": "ok", "elapsed": 0.0}
        records.append(rec)
        cap = min(op.cap_s, deadline - time.time())
        if cap <= 0:
            rec["status"] = "skipped"
            rec["error"] = "not started: the run's deadline had passed"
            refs.append(refs[-1])
            continue
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, cap)
                output = _run_op(op, out_path, rec)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Capped:
            rec["status"] = "capped"
            rec["error"] = f"stopped at its cap of {cap:.1f} s"
            output = None
        except Exception as exc:  # a raising operation is a failed one
            rec["status"] = "error"
            rec["error"] = f"{type(exc).__name__}: {exc}"
            output = None
        rec["elapsed"] = time.perf_counter() - t0
        if output is not None:
            if isinstance(output, aplang.Dfa):
                output = aplang.jsonio.dfa_to_obj(output)
            out_path.write_text(json.dumps(output, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if out_path.exists():
            rec["out"] = out_path.name
            if op.kind == "cli":
                rec["stdout_bytes"] = out_path.stat().st_size
        refs.append(reference.timed_kernel())
    result = {"ops": records, "refs": refs, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.layers()
    (workdir / f"result_{rep}.json").write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(workload, seed, Path(argv[3]))
    elif mode == "run":
        rep, workdir, deadline = int(argv[3]), Path(argv[4]), float(argv[5])
        run(workload, seed, rep, workdir, deadline, argv[6] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

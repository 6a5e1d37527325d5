"""A fixed reference kernel that measures how fast the host runs Python
right now.

The benchmark's host is a shared machine whose speed drifts by up to 2x
over minutes, as other tenants come and go.  The benchmark scales each
timing by NOMINAL_S / (time of this kernel beside it), so that a run in a
slow spell and a run in a fast one report about the same figure.  The
kernel imports nothing from the package, so a change to the package never
moves it: a program that gets faster still reads faster.

Its work is the mix the package's constructions are made of: tuples and
frozensets built and hashed, dict and set lookups, a sort with a key, and
bit operations on integers a few hundred bits wide.  run.py times it just
before and just after each timed step, and scales the step by the mean of
the two: the host's speed drifts within seconds, so only a neighbouring
sample tracks it.
"""

from __future__ import annotations

import random
import time

# The kernel's median time on the machine the benchmark was defined on
# (a 2-vCPU Xeon VM, Python 3.11).  It only sets the scale of the
# reported figures: scaled seconds read as seconds on that machine.
NOMINAL_S = 0.06


def kernel() -> int:
    """About NOMINAL_S of work that holds little memory at any one time, so
    that timing it never raises a process's peak resident memory."""
    rng = random.Random(20111)
    counts: dict[int, int] = {}
    for _ in range(9000):
        key = frozenset(tuple(rng.randrange(48) for _ in range(8)))
        slot = hash(key) & 1023
        counts[slot] = counts.get(slot, 0) + len(key)
    order = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    mask = (1 << 256) - 1
    acc = 1
    seen = set()
    for i in range(90000):
        acc = ((acc << 3) ^ (acc >> 5) ^ i) & mask
        seen.add(acc & 1023)
    return len(order) + len(seen) + acc.bit_count()


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""A fixed pure-Python job whose time stands for the machine's current speed.

On a shared machine the same certificate can take 1.8 times longer in one
ten-second stretch than in the next, with process CPU time moving as much
as wall time. The benchmark therefore times this job between
certifications and reports every time at the reference speed: a measured
time is multiplied by ``REFERENCE_S`` over the job's time around it.

The job does the kind of work posetglue does, with none of its code: it
closes and reduces a fixed 48-node relation with sets and frozensets, then
asks an order-query method about every pair. It lives in the benchmark, so a
change to the program cannot change it.
"""

from __future__ import annotations

import gc
import random
import time

_N = 48
_rng = random.Random(20220606)
_EDGES = tuple((a, b) for a in range(_N) for b in range(a + 1, _N) if _rng.random() < 0.12)
del _rng

# seconds one sample takes at the reference speed (this job on a 2-core
# x86-64 container running Python 3.11.7, in a quiet stretch)
REFERENCE_S = 0.001


class _Order:
    __slots__ = ("up",)

    def __init__(self, up):
        self.up = up

    def _check(self, x):
        if x not in self.up:
            raise KeyError(x)

    def leq(self, a, b):
        self._check(a)
        self._check(b)
        return b in self.up[a]


def _job() -> int:
    succ = {x: set() for x in range(_N)}
    for a, b in _EDGES:
        succ[a].add(b)
    strict_up = {}
    for x in reversed(range(_N)):
        acc = set()
        for b in succ[x]:
            acc.add(b)
            acc |= strict_up[b]
        strict_up[x] = frozenset(acc)
    covers = frozenset(
        (a, b)
        for a in range(_N)
        for b in strict_up[a]
        if not any(b in strict_up[c] for c in strict_up[a] if c != b)
    )
    order = _Order({x: strict_up[x] | {x} for x in range(_N)})
    related = sum(1 for a in range(_N) for b in range(_N) if order.leq(a, b))
    return len(sorted(covers)) + related


def sample() -> float:
    """Seconds the job takes now: the least of a few runs, with the collector off.

    The least run drops an interrupt or a collection of the program's garbage
    that would otherwise land on a single 1 ms run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _job()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()

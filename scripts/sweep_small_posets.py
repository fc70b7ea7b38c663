#!/usr/bin/env python3
"""Exhaustive soundness sweep over all posets on up to N nodes.

Usage: python scripts/sweep_small_posets.py [N]

Enumerates every poset up to isomorphism, decomposes each to a point,
replays the script, and verifies the certificate. It prints the SHA-256
over the emitted scripts, in sweep order, as `script sha256: <hex>`, so a
change in the bytes `decompose` emits shows as a changed digest. N, a
positive integer, defaults to 6 (405 posets, about 1 s); N=7 covers 2450
posets in about 5 s, of which 0.2 s is enumeration and the rest decompose
and replay; N=8 covers 19449 posets in about 52 s (enumeration about 3 s).
Each level is enumerated once and streamed: "enumerate" times the level's
rows, and each poset is built as the sweep reaches it, so one poset is held
at a time. Timings are Python 3.11 on one core of a shared 2-core machine.

Exit status: 0 when every certificate verifies, 1 when one fails, 2 on a
bad argument (one usage line on stderr).
"""

from __future__ import annotations

import hashlib
import sys
import time

from posetglue import (
    PosetMap,
    VerificationFailure,
    decompose_to_point,
    is_saturated_embedding,
    replay,
)
from posetglue.documents import emit_script
from posetglue.generate import iter_posets_upto_iso


USAGE = "usage: sweep_small_posets.py [N]  (N a positive integer, default 6)"


def main() -> int:
    """Exit status 0 when every certificate verifies, 1 otherwise, 2 on a bad argument."""
    args = sys.argv[1:]
    if len(args) > 1 or (args and not (args[0].isdecimal() and int(args[0]) >= 1)):
        print(USAGE, file=sys.stderr)
        return 2
    n_max = int(args[0]) if args else 6
    grand_total = 0
    failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        t0 = time.perf_counter()
        reps = iter_posets_upto_iso(n)
        t1 = time.perf_counter()
        count = 0
        for P in reps:
            count += 1
            script = decompose_to_point(P)
            digest.update(emit_script(script).encode("utf-8"))
            try:
                final, _ = replay(script)
            except VerificationFailure as exc:
                print(f"certificate failed: {P!r}: {exc}", file=sys.stderr)
                failed += 1
                continue
            if not is_saturated_embedding(PosetMap(P, final, script.embedding)):
                print(f"certificate failed: {P!r}", file=sys.stderr)
                failed += 1
        t2 = time.perf_counter()
        grand_total += count
        print(
            f"n={n}: {count:4d} posets  "
            f"(enumerate {t1 - t0:5.1f}s, decompose+replay {t2 - t1:5.1f}s)"
        )
    elapsed = time.perf_counter() - start
    print(f"script sha256: {digest.hexdigest()}")
    if failed:
        print(f"total: {grand_total} posets, {failed} certificates FAILED ({elapsed:.1f}s)")
        return 1
    print(f"total: {grand_total} posets, all certificates verified ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Decompose a poset to a point and replay the certificate.

Usage: python scripts/demo_decompose.py [poset-file]

Defaults to the bundled 9-node noncatenary example. Prints the script's
step summary, the replay report, and where the original nodes landed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from posetglue import (
    PosetMap,
    VerificationFailure,
    decompose_to_point,
    is_saturated_embedding,
    replay,
)
from posetglue.documents import emit_script, parse_poset

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    """Exit status 0 when the certificate verifies, 1 otherwise."""
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "fixtures" / "x9.poset"
    X = parse_poset(path.read_text())
    print(f"input: {path.name} ({len(X.nodes)} nodes, dim {X.dim()})")

    script = decompose_to_point(X)
    print(f"script: {len(script.steps)} steps, final has {len(script.final.nodes)} nodes")
    try:
        final, report = replay(script)
    except VerificationFailure as exc:
        print(f"certificate failed: {X!r}: {exc}", file=sys.stderr)
        return 1
    print()
    print(report)
    print()
    if not is_saturated_embedding(PosetMap(X, final, script.embedding)):
        print(f"certificate failed: {X!r}", file=sys.stderr)
        return 1
    print("node placement in the reconstruction:")
    for x in sorted(script.embedding):
        print(f"  {x} -> {script.embedding[x]}")
    out = ROOT / "out"
    out.mkdir(exist_ok=True)
    (out / f"{path.stem}.script").write_text(emit_script(script))
    print(f"\nscript written to out/{path.stem}.script")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the certify benchmark.

Every input is drawn with the workload seed or relabeled with it. Node ids
are replaced by a seeded permutation of fixed-width ids, so script sizes do
not depend on the seed while ``decompose_to_point``, which breaks ties by id
order, still sees a different pivot and split order on every seed.

``make_inputs`` takes the imported ``posetglue`` package as an argument, so
set-up can re-import the package and time the import with the generation.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

WORKLOADS = ("wide", "deep", "sweep")

# wide: ladders give 2..32 maximal chains. Decompose time grows with the
# number of maximal chains and with the chain-sum size (the sum of their
# lengths): one 20-node draw at p=0.3 has 25 to 68 chains and takes 2 s to
# 16 s. So the random draws are kept to a band of both, with denser draws on
# fewer nodes. Even in that band one draw's time varies by half its mean, and
# with draws made from the benchmark seed the per-input median moved by 19%
# from seed to seed; so the draws come from a fixed stream, the same on every
# seed, and the benchmark seed relabels them.
LADDER_RUNGS = (1, 2, 3, 4, 5)
WIDE_SLOTS = ((12, 0.3), (14, 0.3), (16, 0.25), (18, 0.2), (20, 0.2))
WIDE_DRAWS_PER_SLOT = 5
WIDE_CHAIN_BAND = (8, 16)
WIDE_CHAIN_SUM_MAX = 48
WIDE_DRAW_STREAM = "wide-draws"

# deep: long chains and padded fixtures need many G-extension steps and
# almost no splits.
DEEP_CHAIN_LENGTHS = (20, 30, 40, 50, 60)
DEEP_MIN_HEIGHTS = (3, 6, 9)

SWEEP_MAX_NODES = 6


class Input(NamedTuple):
    """One poset to certify, with the options ``decompose_to_point`` gets."""

    label: str
    poset: Any
    options: Any = None


def relabel(pg, P, rng: random.Random):
    """P with its ids replaced by a seeded permutation of ``v<i>`` ids."""
    old = list(P.nodes)
    width = len(str(max(len(old) - 1, 0)))
    new = [f"v{i:0{width}d}" for i in range(len(old))]
    rng.shuffle(new)
    name = dict(zip(old, new))
    Q = pg.build(new, [(name[a], name[b]) for a, b in P.covers])
    if pg.find_isomorphism(P, Q) is None:
        raise RuntimeError(f"relabeling changed the poset ({len(old)} nodes)")
    return Q


def diamond_ladder(pg, rungs: int):
    """A bottom, then ``rungs`` diamonds stacked top-to-bottom: 2**rungs chains."""
    nodes = ["b"]
    covers = []
    below = "b"
    for i in range(rungs):
        left, right, join = f"l{i}", f"r{i}", f"j{i}"
        nodes += [left, right, join]
        covers += [(below, left), (below, right), (left, join), (right, join)]
        below = join
    return pg.build(nodes, covers)


def _banded_draw(pg, rng: random.Random, n: int, p: float):
    lo, hi = WIDE_CHAIN_BAND
    while True:
        P = pg.random_poset(rng.randrange(1 << 31), n, p)
        chains = P.maximal_chains()
        if lo <= len(chains) <= hi and sum(map(len, chains)) <= WIDE_CHAIN_SUM_MAX:
            return P


def wide_inputs(pg, seed: int) -> list[Input]:
    rng = random.Random(f"wide:{seed}")
    draws = random.Random(WIDE_DRAW_STREAM)
    out = [
        Input(f"ladder-{k}", relabel(pg, diamond_ladder(pg, k), rng))
        for k in LADDER_RUNGS
    ]
    for n, p in WIDE_SLOTS:
        for i in range(WIDE_DRAWS_PER_SLOT):
            P = _banded_draw(pg, draws, n, p)
            out.append(Input(f"random-{n}-{p}-{i}", relabel(pg, P, rng)))
    return out


def deep_inputs(pg, seed: int) -> list[Input]:
    rng = random.Random(f"deep:{seed}")
    out = []
    for n in DEEP_CHAIN_LENGTHS:
        # at edge probability 1 every pair is related: the n-node chain
        chain = pg.random_poset(seed, n, 1.0)
        out.append(Input(f"chain-{n}", relabel(pg, chain, rng)))
    for path in sorted(FIXTURES.glob("*.poset")):
        X = pg.parse_poset(path.read_text(encoding="utf-8"))
        for h in DEEP_MIN_HEIGHTS:
            out.append(
                Input(f"{path.stem}-h{h}", relabel(pg, X, rng), pg.WrapOptions(min_height=h))
            )
    return out


def sweep_inputs(pg, seed: int) -> list[Input]:
    rng = random.Random(f"sweep:{seed}")
    out = []
    for n in range(1, SWEEP_MAX_NODES + 1):
        for i, P in enumerate(pg.all_posets_upto_iso(n)):
            out.append(Input(f"n{n}-{i}", relabel(pg, P, rng)))
    return out


def make_inputs(pg, workload: str, seed: int) -> list[Input]:
    if workload == "wide":
        return wide_inputs(pg, seed)
    if workload == "deep":
        return deep_inputs(pg, seed)
    if workload == "sweep":
        return sweep_inputs(pg, seed)
    raise ValueError(f"unknown workload {workload!r}")

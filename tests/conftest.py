"""Shared fixtures and independent oracles.

The oracle functions deliberately avoid the library's own precomputed
tables: reachability by BFS over the cover edges, longest paths by explicit
enumeration, maximal chains by inclusion-maximality over all chains of the
order relation. Frozen expected values in the tests were produced by these.
"""

from __future__ import annotations

import importlib.util
from itertools import combinations
from pathlib import Path

import pytest

import posetglue
from posetglue import ConstructionScript, ElevateStep, GlueStep, Poset, build
from posetglue.documents import parse_poset
from posetglue.generate import random_poset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Poset:
    return parse_poset((FIXTURES / name).read_text())


def benchmark_inputs(workload: str, seed: int) -> list:
    """The inputs of a workload of the benchmark in ``perfbench/``, each a
    (label, poset, wrap options) tuple."""
    path = FIXTURES.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_inputs(posetglue, workload, seed)


@pytest.fixture
def x9() -> Poset:
    return load_fixture("x9.poset")


@pytest.fixture
def diamond() -> Poset:
    return load_fixture("diamond.poset")


@pytest.fixture
def diamond_split() -> Poset:
    return load_fixture("diamond-split.poset")


@pytest.fixture
def gext_f1() -> Poset:
    return load_fixture("gext-f1.poset")


@pytest.fixture
def gext_z() -> Poset:
    return load_fixture("gext-z.poset")


@pytest.fixture
def gext_f2() -> Poset:
    return load_fixture("gext-f2.poset")


@pytest.fixture
def vee() -> Poset:
    return build(["a", "b", "t"], [("a", "t"), ("b", "t")])


def diamond_ladder(rungs: int) -> Poset:
    """A bottom "b" under `rungs` stacked diamonds: 3 * rungs + 1 nodes and
    2**rungs maximal chains."""
    nodes, covers, below = ["b"], [], "b"
    for i in range(rungs):
        nodes += [f"l{i}", f"r{i}", f"j{i}"]
        covers += [(below, f"l{i}"), (below, f"r{i}"), (f"l{i}", f"j{i}"), (f"r{i}", f"j{i}")]
        below = f"j{i}"
    return build(nodes, covers)


def fence(n: int) -> Poset:
    """The zigzag f0 < f1 > f2 < f3 ... on n nodes: even nodes are minimal,
    and n - 1 maximal chains."""
    ids = [f"f{i:03d}" for i in range(n)]
    covers = [(ids[i], ids[j]) for i in range(0, n, 2) for j in (i - 1, i + 1) if 0 <= j < n]
    return build(ids, covers)


def complete_bipartite(k: int) -> Poset:
    """K(k,k): each of k minima is covered by each of k maxima."""
    bottoms = [f"b{i:02d}" for i in range(k)]
    tops = [f"t{i:02d}" for i in range(k)]
    return build(bottoms + tops, [(b, t) for b in bottoms for t in tops])


# One input per scale family, past the exhaustive sweeps' sizes; their
# script digests are pinned in test_documents.py.
SCALE_FAMILIES = {
    "diamond_ladder(40)": lambda: diamond_ladder(40),
    "fence(200)": lambda: fence(200),
    "complete_bipartite(20)": lambda: complete_bipartite(20),
    "random_poset(4,240,0.03)": lambda: random_poset(4, 240, 0.03),
    "random_poset(1,400,1.0)": lambda: random_poset(1, 400, 1.0),
}


def three_minima_script(*partition):
    """A script that grows minima a, b, c under the point p0, then glues
    along the given parts (id lists); its final poset glues a with b."""
    return ConstructionScript(
        start=build(["p0"], []),
        steps=(
            ElevateStep(target="p0", fresh_ids=("a", "b", "c")),
            GlueStep(partition=tuple(frozenset(part) for part in partition)),
        ),
        final=build(["a", "c", "p0"], [("a", "p0"), ("c", "p0")]),
        embedding={"p0": "p0"},
    )


def oracle_reachable(P: Poset, a: str, b: str) -> bool:
    """BFS over cover edges; a <= b."""
    if a == b:
        return True
    frontier = {a}
    seen = {a}
    while frontier:
        nxt = set()
        for x in frontier:
            for (lo, hi) in P.covers:
                if lo == x and hi not in seen:
                    nxt.add(hi)
                    seen.add(hi)
        if b in seen:
            return True
        frontier = nxt
    return False


def oracle_longest_path(P: Poset) -> int:
    """Longest cover-path edge count, by memoized recursion over edges."""
    memo: dict[str, int] = {}

    def down(x: str) -> int:
        if x not in memo:
            memo[x] = max((down(lo) + 1 for (lo, hi) in P.covers if hi == x), default=0)
        return memo[x]

    return max(down(x) for x in P.nodes)


def oracle_height(P: Poset, x: str) -> int:
    memo: dict[str, int] = {}

    def down(v: str) -> int:
        if v not in memo:
            memo[v] = max((down(lo) + 1 for (lo, hi) in P.covers if hi == v), default=0)
        return memo[v]

    return down(x)


def oracle_maximal_chains(P: Poset) -> set[tuple[str, ...]]:
    """All chains of the order relation, filtered to inclusion-maximal ones."""
    nodes = list(P.nodes)
    chains: list[tuple[str, ...]] = []

    def grow(chain: list[str], rest: list[str]) -> None:
        chains.append(tuple(chain))
        for i, x in enumerate(rest):
            if not chain or oracle_reachable(P, chain[-1], x):
                grow(chain + [x], rest[i + 1 :])

    # nodes in a linear extension so chains come out bottom-up
    ordered = sorted(nodes, key=lambda x: (oracle_height(P, x), x))
    grow([], ordered)
    nonempty = [c for c in chains if c]
    sets = [frozenset(c) for c in nonempty]
    maximal = set()
    for i, c in enumerate(nonempty):
        if not any(sets[i] < sets[j] for j in range(len(nonempty)) if j != i):
            maximal.add(c)
    return maximal


def oracle_transitive_reduction(P: Poset) -> set[tuple[str, str]]:
    """Covers recomputed from scratch: a < b with empty open interval."""
    out = set()
    for a in P.nodes:
        for b in P.nodes:
            if a == b or not oracle_reachable(P, a, b):
                continue
            if any(
                z not in (a, b) and oracle_reachable(P, a, z) and oracle_reachable(P, z, b)
                for z in P.nodes
            ):
                continue
            out.add((a, b))
    return out


def complete_closure(P: Poset, S: frozenset[str]) -> frozenset[str]:
    """Smallest interval-closed superset of S."""
    S = set(S)
    changed = True
    while changed:
        changed = False
        for y in P.nodes:
            if y in S:
                continue
            if any(P.leq(u, y) for u in S) and any(P.leq(y, v) for v in S):
                S.add(y)
                changed = True
    return frozenset(S)


def all_nonempty_subsets(items):
    items = sorted(items)
    for r in range(1, len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


@pytest.fixture(scope="session")
def small_posets() -> list[Poset]:
    """Every poset on 1 to 6 nodes, one per isomorphism class."""
    from posetglue.generate import all_posets_upto_iso

    return [P for n in range(1, 7) for P in all_posets_upto_iso(n)]

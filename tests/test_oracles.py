"""Fast paths against the slow constructions they replaced.

``split_for_cover`` builds the split poset straight from the covers,
``glue_along_complete`` quotients the cover image, and ``build`` reads the
covers off the successor sets. Each is compared with the construction it
replaced, kept here as an oracle: the chain-sum gluing, the pairwise class
relation, and ``networkx.transitive_reduction``.

The order kernel is checked the same way: ``build`` against ``networkx``
(above) and against a relation with a cycle past a DAG part, heights, depths and chain counts
against the maximal-chain listing, down-sets and completeness against their
definitions, and the up-set verifiers of ``morphism`` against the double
loops of checked ``leq`` calls they replaced.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from posetglue import (
    CycleDetected,
    NotPosetMap,
    PosetMap,
    build,
    chain_decomposition,
    embedding_violation,
    poset_map_violation,
    saturated_subset_violation,
    split_for_cover,
    verify_gluing,
)
from posetglue.gluing import glue_along_complete, normalize_collection
from posetglue.generate import random_poset

RANDOM_SEEDS = range(40)
RANDOM_NODES = 12
RANDOM_P = 0.3


def sweep_posets(small_posets):
    """Every poset on up to 6 nodes, then 40 seeded 12-node posets."""
    return list(small_posets) + [random_poset(s, RANDOM_NODES, RANDOM_P) for s in RANDOM_SEEDS]


def pairwise_glue(X, S):
    """The class order spelled out pair by pair: [x] <= [y] iff x <= y, or
    x lies below some member of S and y above some member."""
    S = frozenset(S)
    name_of = {x: min(S) if x in S else x for x in X.nodes}
    below_S = {x for x in X.nodes if any(X.leq(x, s) for s in S)}
    above_S = {x for x in X.nodes if any(X.leq(s, x) for s in S)}
    relation = {
        (name_of[x], name_of[y])
        for x in X.nodes
        for y in X.nodes
        if (X.leq(x, y) or (x in below_S and y in above_S)) and name_of[x] != name_of[y]
    }
    return build(set(name_of.values()), relation), name_of


def chain_sum_split(X, u1):
    """Glue the chain sum along every fiber but u1's, with u1's copies merged
    per cover. Returns (F, t_F assignment, f_F assignment, glued members),
    or None when u1 has a single cover and nothing splits."""
    cd = chain_decomposition(X)
    u1_fiber = cd.fiber_of(u1)
    groups: dict[str, set[str]] = {}
    for chain in cd.chains:
        if chain[0] in u1_fiber:
            groups.setdefault(cd.phi(chain[1]), set()).add(chain[0])
    if len(groups) == 1:
        return None
    collection = [E for E in cd.fibers() if E != u1_fiber]
    collection.extend(frozenset(g) for g in groups.values() if len(g) >= 2)
    members = normalize_collection(cd.D, collection)
    F = cd.D
    t = {d: d for d in cd.D.nodes}
    for C in members:
        F, step = pairwise_glue(F, {t[d] for d in C})
        t = {d: step[v] for d, v in t.items()}
    f = {t[d]: cd.phi(d) for d in cd.D.nodes}
    return cd, F, t, f, members


def complete_subsets(X):
    """Intervals with two or more nodes, down-sets, up-sets, minima, maxima."""
    sets = {frozenset(X.up_set(a) & X.down_set(b)) for a in X.nodes for b in X.up_set(a)}
    sets |= {X.down_set(x) for x in X.nodes} | {X.up_set(x) for x in X.nodes}
    sets |= {X.min_nodes(), X.max_nodes()}
    return sorted((S for S in sets if len(S) >= 2), key=sorted)


def test_direct_split_equals_chain_sum_gluing(small_posets):
    cases = 0
    for X in sweep_posets(small_posets):
        for u1 in sorted(X.min_nodes()):
            for u2 in sorted(X.upper_covers(u1)):
                cases += 1
                result = split_for_cover(X, u1, u2)
                oracle = chain_sum_split(X, u1)
                if oracle is None:
                    assert result.F == X
                    assert result.f_F.assignment == {x: x for x in X.nodes}
                    continue
                cd, F, t, f, members = oracle
                assert result.F == F
                assert result.t_F.assignment == t
                assert result.f_F.assignment == f
                assert verify_gluing(cd.D, result.F, result.t_F, members)
    assert cases == 1468


def test_glue_along_complete_equals_pairwise_relation(small_posets):
    for X in sweep_posets(small_posets):
        for S in complete_subsets(X):
            witness = glue_along_complete(X, S)
            Y, name_of = pairwise_glue(X, S)
            assert witness.target == Y
            assert witness.map.assignment == name_of


@pytest.mark.parametrize("seed", range(60))
def test_build_covers_equal_networkx_transitive_reduction(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    ids = [f"v{i}" for i in range(n)]
    order = rng.sample(ids, n)
    p = rng.choice((0.05, 0.15, 0.3, 0.6))
    relation = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    relation += [(x, x) for x in rng.sample(ids, n // 4)]
    P = build(ids, relation)
    G = nx.DiGraph()
    G.add_nodes_from(ids)
    G.add_edges_from((a, b) for a, b in relation if a != b)
    assert P.covers == frozenset(nx.transitive_reduction(G).edges())
    for x in ids:
        assert P.up_set(x) == frozenset(nx.descendants(G, x)) | {x}


def kernel_posets(small_posets):
    """Every poset on up to 6 nodes, then 60 seeded 16-node posets."""
    return list(small_posets) + [random_poset(s, 16, 0.25) for s in range(60)]


def linear_extension(P):
    return sorted(P.nodes, key=lambda x: (P.height(x), x))


@pytest.mark.parametrize("seed", range(30))
def test_build_raises_cycle_detected_past_a_dag_part(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 20)
    ids = [f"v{i}" for i in range(n)]
    order = rng.sample(ids, n)
    relation = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    loop = rng.sample(ids, rng.randint(2, min(n, 5)))
    relation += list(zip(loop, loop[1:] + loop[:1]))
    with pytest.raises(CycleDetected) as raised:
        build(ids, relation)
    # graphlib's witness lists the cycle against the direction of the pairs
    cycle = raised.value.__cause__.args[1]
    assert cycle[0] == cycle[-1]
    assert all((b, a) in relation for a, b in zip(cycle, cycle[1:]))


def test_heights_depths_and_chain_count_match_the_chain_listing(small_posets):
    for P in kernel_posets(small_posets):
        chains = P.maximal_chains()
        heights = dict.fromkeys(P.nodes, 0)
        depths = dict.fromkeys(P.nodes, 0)
        for c in chains:
            for i, x in enumerate(c):
                heights[x] = max(heights[x], i)
                depths[x] = max(depths[x], len(c) - 1 - i)
        assert P._height_table() == heights
        assert P._depth_table() == depths
        assert P.maximal_chain_count() == len(chains)


def is_interval_closed(P, S):
    return all(
        y in S for u in S for v in S for y in P.nodes if P.leq(u, y) and P.leq(y, v)
    )


def test_down_sets_and_completeness_match_their_definitions(small_posets):
    rng = random.Random(0)
    for P in kernel_posets(small_posets):
        for x in P.nodes:
            assert P.down_set(x) == frozenset(u for u in P.nodes if P.leq(u, x))
        subsets = complete_subsets(P)
        subsets += [frozenset(rng.sample(P.nodes, rng.randint(0, len(P)))) for _ in range(12)]
        for S in subsets:
            assert P.is_complete_subset(S) == is_interval_closed(P, S)


def loop_poset_map_violation(f):
    for a, b in sorted(f.source.covers):
        if not f.target.leq(f(a), f(b)):
            return (a, b)
    return None


def loop_embedding_violation(f):
    for x in f.source.nodes:
        for y in f.source.nodes:
            if f.target.leq(f(x), f(y)) and not f.source.leq(x, y):
                return (x, y)
    return None


def loop_saturated_subset_violation(P, Z):
    for u in sorted(Z):
        for v in sorted(Z):
            if not P.lt(u, v):
                continue
            if any(P.lt(u, w) and P.lt(w, v) for w in Z):
                continue
            if not P.is_cover(u, v):
                return (u, v)
    return None


def chain_poset(length):
    ids = [f"c{i:02d}" for i in range(length)]
    return build(ids, list(zip(ids, ids[1:]))), ids


def random_maps(P, rng):
    """Maps out of P, order-preserving or not, injective or not."""
    nodes = list(P.nodes)
    ext = linear_extension(P)
    yield PosetMap(P, P, {x: rng.choice(nodes) for x in nodes})
    yield PosetMap(P, P, dict(zip(nodes, rng.sample(nodes, len(nodes)))))
    # onto a chain: by height (collapsing), then along a linear extension
    C, ids = chain_poset(P.dim() + 1)
    yield PosetMap(P, C, {x: ids[P.height(x)] for x in nodes})
    C, ids = chain_poset(len(nodes))
    yield PosetMap(P, C, {x: ids[i] for i, x in enumerate(ext)})
    # the identity into P with extra relations, and into P with covers dropped
    extra = [(ext[i], ext[j]) for i in range(len(ext)) for j in range(i + 1, len(ext))]
    more = build(nodes, [*P.covers, *rng.sample(extra, min(len(extra), 2))])
    yield PosetMap(P, more, {x: x for x in nodes})
    fewer = build(nodes, [c for c in sorted(P.covers) if rng.random() < 0.7])
    yield PosetMap(P, fewer, {x: x for x in nodes})
    # an induced inclusion and a gluing quotient
    S = rng.sample(nodes, rng.randint(1, len(nodes)))
    yield PosetMap(P.induced(S), P, {x: x for x in S})
    for T in complete_subsets(P)[:2]:
        yield glue_along_complete(P, T).map


def test_verifiers_return_the_double_loop_witness(small_posets):
    rng = random.Random(1)
    outcomes = set()
    for P in kernel_posets(small_posets):
        for f in random_maps(P, rng):
            witness = loop_poset_map_violation(f)
            assert poset_map_violation(f) == witness
            if witness is not None:
                outcomes.add("not a poset map")
                with pytest.raises(NotPosetMap):
                    embedding_violation(f)
                continue
            witness = loop_embedding_violation(f)
            assert embedding_violation(f) == witness
            outcomes.add("embedding" if witness is None else "not an embedding")
        subsets = [frozenset(P.nodes)]
        subsets += [frozenset(rng.sample(P.nodes, rng.randint(1, len(P)))) for _ in range(8)]
        for Z in subsets:
            witness = loop_saturated_subset_violation(P, Z)
            assert saturated_subset_violation(P, Z) == witness
            outcomes.add("saturated" if witness is None else "not saturated")
    # the maps and subsets reach every verdict
    assert len(outcomes) == 5

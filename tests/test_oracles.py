"""Fast paths against the slow constructions they replaced.

``split_for_cover`` builds the split poset straight from the covers,
``glue_along_complete`` quotients the cover image, and ``build`` reads the
covers off the successor sets. Each is compared with the construction it
replaced, kept here as an oracle: the chain-sum gluing, the pairwise class
relation, and ``networkx.transitive_reduction``.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from posetglue import build, chain_decomposition, split_for_cover, verify_gluing
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

"""Fast paths against the slow constructions they replaced.

The split behind ``split_for_cover`` (``_split_by_rank``) renames X into the
split poset (``core._split``) and names its nodes by chain rank,
``glue_along_complete`` quotients the cover image, and ``build`` reads the
covers off the successor sets. Each is compared with the construction it
replaced, kept here as an oracle: the chain-sum gluing, the pairwise class
relation, and ``networkx.transitive_reduction``. The chain-rank names come
from one pass per digit count (``chains._least_ranks``); they are checked
against the descent per node and digit count that they replaced, kept here
with ``build`` on the named covers, on ladders, fences and K(k,k) as well.
``gext._shared_minima`` reads the covers in one pass and is checked against
the per-minimum scan, and ``random_poset`` hands ``build`` only its covers
and is checked against ``build`` on every pair it drew.

``glue_D_along_subcollection`` glues the chain sum along its fibers in one
``gluing._quotient`` call; it is checked against the fiber-by-fiber
fold it replaced, kept here with the pairwise relation as each step.
``normalize_collection`` merges overlapping members in one pass; it is
checked against the loop it replaced, which restarted its pairwise scan
after every merge, on overlapping, repeated and chained members.

``glue_along_collection`` makes the quotient in one pass and
``verify_gluing`` compares covers; both are checked against the stagewise
fold they replaced (one ``glue_along_complete`` per member, composed maps,
and an inverse comparison map), kept here as an oracle, on collections that
reach both of its paths. When every member is a down-set the quotient is
derived from the source's up-sets (``core._glued``); on retraction down-sets,
principal down-sets, the minima and partitions of them it is checked against
``build`` on the image of the covers, which it replaced there. The step
loop's glue steps are certified by ``_verify_height_zero_quotient`` against
the closed form of a height-zero quotient, in place of ``verify_gluing`` and
``check_dim_min_preservation``; on every partition of the minima of every
poset with n <= 6 it accepts what they accept, and it rejects, as
``verify_gluing`` does, each variant with a cover dropped or added or an
up-set changed, and each with a cover from an untouched node into a class or
a class's kept exit dropped, up-sets matching: faults that the minima and
dimension checks it dropped also caught. It also rejects a class node
dropped, a class named by a member other than its least, and an extra node,
which no map from the source reaches.

The order kernel is checked the same way: ``build`` against ``networkx``
(above) and against a relation with a cycle past a DAG part, heights, depths and chain counts
against the maximal-chain listing, down-sets and completeness against their
definitions, and the up-set verifiers of ``morphism`` against the double
loops of checked ``leq`` calls they replaced.

``elevate`` and ``retract`` derive their result from their input's up-sets
(``core._elevated``, and ``core._glued`` on the one down-set); they are
checked against ``build`` and ``glue_along_complete``, which they replaced.
``gextension_step`` does not validate its retractions (the step loop
validates the elevations that undo them), so every retraction it makes on
the n <= 6 sweep and the fixtures is validated here. A witness derives its
maps r and e from (Z, z, X); on those retractions, and on every elevation and
retraction of the posets with n <= 5 and of the fixtures, they equal the maps
``elevate`` and the retraction built and stored before, kept here as oracles.
``validate`` checks two facts that imply the rest, the shape of z's
down-set and the gluing; it is checked against the eight checks it
replaced, kept here as an oracle and fed the derived maps, on every
elevation and retraction of the posets with n <= 5 and nine kinds of
tampered (Z, z, X), three of which fail the shape alone, and ``retract``'s
unique-cover fault against the per-node ``upper_covers`` loop it replaced.
``retract`` does not validate its witness; on every node of the posets with
n <= 6 and of the fixtures it returns one exactly when the collapse of that
node's down-set validates.
``_pivot`` reads the height and depth tables and is checked against the
per-node scan it replaced; ``verify_gluing`` reads its comparison map off two assignments
and is checked against the stagewise oracle also on targets with fresh ids.

The embedding test and the saturated-subset test make one pass each,
clearing a node by set algebra and naming the witness at the first node not
cleared, and ``PosetMap``'s totality check decides by set algebra and scans
only to name a fault; each is checked against its per-node scan, kept here
as an oracle, down to the witness and the exception message. ``find_isomorphism`` backtracks with an explicit
stack and is checked against the recursive search it replaced.

``all_posets_upto_iso`` generates each class's least-mask natural labelling
directly; it is checked against the scan of all 2^C(n,2) relations it
replaced, kept here as an oracle, and by brute force over every linear
extension. Its levels are cached as integer rows, so a test counts that a
level is generated once and that every call returns fresh values.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from functools import partial
from itertools import combinations, islice, permutations

import networkx as nx
import pytest

from posetglue import (
    CycleDetected,
    ElevationWitness,
    GluingReport,
    GluingWitness,
    InputError,
    InternalInvariantError,
    NotComplete,
    NotHeightOne,
    NotPosetMap,
    NotUniqueCover,
    PosetError,
    PosetMap,
    UnknownNode,
    WrapOptions,
    build,
    chain_decomposition,
    compose,
    elevate,
    embedding_violation,
    find_isomorphism,
    gextension_step,
    glue_D_along_subcollection,
    identity_map,
    inclusion_map,
    is_embedding,
    is_saturated_subset,
    poset_map_violation,
    retract,
    saturated_subset_violation,
    split_for_cover,
    verify_gluing,
    wrap,
)
from posetglue.chains import _first_in_block, _split_by_rank
from posetglue.gext import _pivot, _shared_minima
from posetglue.core import Poset, _glued
from posetglue.gluing import (
    _verify_height_zero_quotient,
    check_dim_min_preservation,
    fiber_collection,
    glue_along_collection,
    glue_along_complete,
    normalize_collection,
)
from posetglue import generate, gluing
from posetglue.generate import (
    _as_poset,
    _closed_relations,
    all_posets_upto_iso,
    iter_posets_upto_iso,
    random_poset,
)

from conftest import (
    FIXTURES,
    benchmark_inputs,
    complete_bipartite,
    diamond_ladder,
    fence,
    load_fixture,
)

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


def chain_sum_collection(X, u1):
    """The chain decomposition of X and the collection F glues it along:
    every fiber but u1's, and u1's chain copies grouped by the cover their
    chain climbs through. None when u1 has a single cover and nothing splits."""
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
    return cd, collection


def chain_sum_split(X, u1):
    """Glue the chain sum member by member with the pairwise relation.
    Returns (F, t_F assignment, f_F assignment, glued members), or None when
    u1 has a single cover and nothing splits."""
    found = chain_sum_collection(X, u1)
    if found is None:
        return None
    cd, collection = found
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


def chain_sum_gluing(X, u1):
    """F and the f_F assignment of the chain sum glued in one pass, or None
    when u1 has a single cover."""
    found = chain_sum_collection(X, u1)
    if found is None:
        return None
    cd, collection = found
    w = glue_along_collection(cd.D, collection)
    return w.target, {w.map(d): cd.phi(d) for d in cd.D.nodes}


def rank_split_posets(small_posets):
    """Every poset on up to 6 nodes, 48 seeded 16- and 24-node posets (up to
    104 maximal chains, so three-digit ranks), and ladders of 1 to 11 rungs
    (up to 2,048 chains)."""
    out = list(small_posets)
    out += [random_poset(s, n, 0.3) for n in (16, 24) for s in range(24)]
    out += [diamond_ladder(k) for k in range(1, 12)]
    return out


def test_rank_split_equals_the_chain_sum_gluing(small_posets):
    cases = 0
    for X in rank_split_posets(small_posets):
        for u1 in sorted(X.min_nodes()):
            covers = sorted(X.upper_covers(u1))
            if not covers:
                continue
            cases += 1
            F, f_F = _split_by_rank(X, u1, covers[0])
            oracle = chain_sum_gluing(X, u1)
            if oracle is None:
                assert F is X
                assert f_F.assignment == {x: x for x in X.nodes}
            else:
                assert F == oracle[0]
                assert f_F.assignment == oracle[1]
    assert cases == 952


def first_chain_through(x, roots, succ, count, up, floor):
    """(rank, position of x) of the first maximal chain through x with rank
    >= floor, or None.

    The chains extending a prefix that ends at v fill a block of count[v]
    consecutive ranks. The descent skips blocks that end below floor and
    prefixes whose last node is not below x; once x is on the prefix, every
    chain of the block runs through it. An explicit stack keeps tall posets
    clear of the recursion limit.
    """
    frames = [[roots, 0, 0]]  # candidates, index of the next one, its first rank
    while frames:
        frame = frames[-1]
        children, i, base = frame
        if i == len(children):
            frames.pop()
            continue
        c = children[i]
        frame[1] = i + 1
        frame[2] = base + count[c]
        if base + count[c] <= floor or x not in up[c]:
            continue
        if c == x:
            return max(base, floor), len(frames) - 1
        frames.append([succ[c], 0, base])
    return None


def least_id_by_descent(first_from):
    """The string-least "a{r}.{j}", where first_from(floor) gives the least
    rank r >= floor with its position j, or None when there is none."""
    best = None
    floor = 0
    while (found := first_from(floor)) is not None:
        r, j = found
        candidate = f"a{r}.{j}"
        if best is None or candidate < best:
            best = candidate
        floor = 10 ** len(str(r))  # the least rank with one more digit
    return best


def descent_split(X, u1):
    """F and the f_F assignment of the split of u1 (with two or more
    covers), every node named by one descent per digit count and F made by
    ``build``: the construction ``_split_by_rank`` replaced."""
    succ = {x: sorted(above) for x, above in X._cover_lists(upper=True).items()}
    count = {}
    for x in X._by_up_size(lowest_first=False):
        count[x] = sum(count[c] for c in succ[x]) if succ[x] else 1
    roots = sorted(X.min_nodes())
    name = {
        x: least_id_by_descent(partial(first_chain_through, x, roots, succ, count, X._up))
        for x in X.nodes
        if x != u1
    }
    copy = {}
    lo = sum(count[m] for m in roots if m < u1)
    for c in succ[u1]:
        copy[c] = least_id_by_descent(partial(_first_in_block, lo, lo + count[c]))
        lo += count[c]
    covers = [(name[a], name[b]) for a, b in X.covers if a != u1]
    covers += [(v, name[c]) for c, v in copy.items()]
    F = build([*name.values(), *copy.values()], covers)
    return F, {**{v: x for x, v in name.items()}, **{v: u1 for v in copy.values()}}


def one_pass_split_posets(small_posets):
    """Every poset on up to 6 nodes, ladders of 1 to 12 and 40 rungs (2**40
    chains, so 13-digit ranks), fences of 3 to 40, 63, 64, 101, 128 and 201
    nodes, K(k,k) for k <= 12 and 48 seeded 16- and 24-node posets."""
    out = list(small_posets)
    out += [diamond_ladder(k) for k in (*range(1, 13), 40)]
    out += [fence(n) for n in (*range(3, 41), 63, 64, 101, 128, 201)]
    out += [complete_bipartite(k) for k in range(1, 13)]
    out += [random_poset(s, n, 0.3) for n in (16, 24) for s in range(24)]
    return out


def test_one_pass_names_equal_the_descent(small_posets):
    cases = 0
    for X in one_pass_split_posets(small_posets):
        for u1 in sorted(X.min_nodes()):
            covers = sorted(X.upper_covers(u1))
            if len(covers) < 2:
                continue
            F_oracle, f_oracle = descent_split(X, u1)
            for u2 in covers:
                cases += 1
                F, f_F = _split_by_rank(X, u1, u2)
                assert F == F_oracle
                assert f_F.assignment == f_oracle
    assert cases == 3060


def test_renamed_split_has_the_up_sets_build_gives(small_posets):
    cases = 0
    for X in one_pass_split_posets(small_posets):
        for u1 in sorted(X.min_nodes()):
            covers = sorted(X.upper_covers(u1))
            if len(covers) >= 2:
                cases += 1
                F, _ = _split_by_rank(X, u1, covers[0])
                assert F._up == build(F.nodes, F.covers)._up
    assert cases == 1210


def scanned_shared_minima(F, x):
    """The minima m_count counts, by checked calls per minimum."""
    return sorted(u for u in F.min_nodes() if F.lt(u, x) and F.upper_covers(u) != {x})


def test_shared_minima_equal_the_per_minimum_scan(small_posets):
    posets = list(small_posets) + [random_poset(s, n, 0.3) for n in (12, 20) for s in range(20)]
    posets += [fence(9), complete_bipartite(4), diamond_ladder(3)]
    cases = 0
    for F in posets:
        for x in F.nodes:
            assert _shared_minima(F, x) == scanned_shared_minima(F, x)
            cases += 1
    assert cases == 2974


def drawn_pairs(seed, n, p):
    """The pairs ``random_poset`` draws, in its order."""
    rng = random.Random(f"{seed}:{n}:{p}")
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def test_random_poset_equals_build_on_the_drawn_pairs():
    cases = 0
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        ids = [f"n{i:0{len(str(n - 1))}d}" for i in range(n)]
        for p in (0.0, 0.05, 0.2, 0.3, 0.5, 1.0):
            for seed in range(12):
                P = random_poset(seed, n, p)
                Q = build(ids, [(ids[i], ids[j]) for i, j in drawn_pairs(seed, n, p)])
                assert P == Q
                assert P._up == Q._up
                cases += 1
    assert cases == 576


def fold_glue_D(cd, chosen):
    """The chain sum glued one fiber at a time with the pairwise relation, in
    ascending order of the node of X each fiber collapses to. Returns (F,
    t_F assignment, f_F assignment)."""
    F = cd.D
    t = {d: d for d in cd.D.nodes}
    for E in sorted(chosen, key=lambda E: cd.phi(min(E))):
        F, step = pairwise_glue(F, {t[d] for d in E})
        t = {d: step[v] for d, v in t.items()}
    return F, t, {t[d]: cd.phi(d) for d in cd.D.nodes}


def test_one_pass_chain_sum_gluing_equals_the_fiber_fold(small_posets):
    rng = random.Random(8)
    cases = 0
    for X in small_posets:
        cd = chain_decomposition(X)
        fibers = list(cd.fibers())
        subcollections = [[], fibers]
        subcollections += [rng.sample(fibers, len(fibers) // 2) for _ in range(3)]
        for chosen in subcollections:
            result = glue_D_along_subcollection(cd, chosen)
            F, t, f = fold_glue_D(cd, chosen)
            assert result.F == F
            assert result.t_F.assignment == t
            assert result.f_F.assignment == f
            cases += 1
    assert cases == 5 * len(small_posets)


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


def stagewise_glue(X, collection):
    """The collection gluing as a fold: one complete-set gluing per member,
    each composed onto the map so far."""
    for C in collection:
        C = frozenset(C)
        if C and not X.is_complete_subset(C):
            raise NotComplete(f"member {sorted(C)!r} is not interval-closed in the source")
    members = normalize_collection(X, collection)
    current = X
    g = identity_map(X)
    for C in members:
        image = frozenset(g(x) for x in C)
        if not current.is_complete_subset(image):
            raise NotComplete(
                f"image {sorted(image)!r} of member {sorted(C)!r} is not interval-closed at its stage"
            )
        step = glue_along_complete(current, image)
        g = compose(g, step.map)
        current = step.target
    return GluingWitness(X, current, g, members)


def stagewise_verify_gluing(X, Y, g, collection):
    """verify_gluing on the fold: the same pointwise checks, then the
    stagewise quotient, the comparison map read off fiber minima, and its
    inverse checked as a poset map."""
    if not isinstance(g, PosetMap):
        g = PosetMap(X, Y, g)
    if g.source != X or g.target != Y:
        return GluingReport(False, "map endpoints do not match the claimed posets")
    if poset_map_violation(g) is not None:
        return GluingReport(False, "not a poset map", poset_map_violation(g))
    if not g.is_surjective():
        return GluingReport(False, "gluing map must be surjective")
    raw = [frozenset(C) for C in collection]
    for C in raw:
        if len({g(x) for x in C}) > 1:
            return GluingReport(False, f"map is not constant on member {sorted(C)!r}")
    try:
        members = normalize_collection(X, raw)
    except UnknownNode:
        return GluingReport(False, "collection references unknown nodes")
    for C in fiber_collection(g):
        xs = sorted(C)
        for x in xs[1:]:
            if not any(xs[0] in M and x in M for M in members):
                return GluingReport(
                    False, "distinct nodes collapse outside every collection member", (xs[0], x)
                )
    try:
        canonical = stagewise_glue(X, members)
    except NotComplete as exc:
        return GluingReport(False, f"no gluing exists along this collection: {exc}")
    if fiber_collection(canonical.map) != fiber_collection(g):
        return GluingReport(False, "fibers differ from the canonical quotient's")
    Q = canonical.target
    phi = {y: g(min(canonical.map.fiber(y))) for y in Q.nodes}
    if set(phi.values()) != set(Y.nodes) or len(Q.nodes) != len(Y.nodes):
        return GluingReport(False, "comparison map is not bijective")
    inverse = PosetMap(Y, Q, {v: k for k, v in phi.items()})
    if poset_map_violation(inverse) is not None:
        return GluingReport(
            False, "comparison map is not an isomorphism", poset_map_violation(inverse)
        )
    return GluingReport(True)


def gluing_posets(small_posets):
    """Every poset on up to 6 nodes, then 60 seeded 10-node posets."""
    return list(small_posets) + [random_poset(s, 10, 0.3) for s in range(60)]


def seeded_collections(X, rng):
    """Raw collections (any subsets, overlapping or not, complete or not, one
    with an unknown id) and collections of interval-closed members."""
    nodes = list(X.nodes)
    closed = complete_subsets(X)
    yield []
    yield [["no-such-node", nodes[0]]]
    for _ in range(3):
        yield [
            rng.sample(nodes, rng.randint(1, min(3, len(nodes))))
            for _ in range(rng.randint(1, 3))
        ]
    for _ in range(3):
        if closed:
            yield rng.sample(closed, rng.randint(1, min(3, len(closed))))


def outcome(glue, X, collection):
    try:
        w = glue(X, collection)
    except Exception as exc:
        return type(exc), str(exc)
    return w.target, w.map.assignment, w.collection


def outcome_kind(result):
    if not isinstance(result[0], type):
        return "glued"
    if result[0] is NotComplete:
        return "in the source" if result[1].endswith("in the source") else "at its stage"
    return result[0].__name__


def is_down_set(X, S):
    return all(X.down_set(x) <= S for x in S)


def test_one_pass_gluing_equals_the_stagewise_fold(small_posets):
    rng = random.Random(5)
    kinds = set()
    paths = set()
    for X in gluing_posets(small_posets):
        for collection in seeded_collections(X, rng):
            got = outcome(glue_along_collection, X, collection)
            assert got == outcome(stagewise_glue, X, collection)
            kinds.add(outcome_kind(got))
            if outcome_kind(got) == "glued":
                local = all(is_down_set(X, C) for C in got[2])
                paths.add("down-sets" if local else "build")
    assert kinds == {"glued", "UnknownNode", "in the source", "at its stage"}
    # the glued collections reach both the local quotient and build
    assert paths == {"down-sets", "build"}


def bad_targets(Y, g, rng):
    """Y with one or two extra covers, Y with a dropped cover, and g with two
    classes swapped, each paired with the map into it."""
    nodes = list(Y.nodes)
    # incomparable pairs oriented along a linear extension, so adding any of
    # them keeps the relation acyclic
    ext = linear_extension(Y)
    unordered = [
        (a, b) for i, a in enumerate(ext) for b in ext[i + 1 :] if not Y.leq(a, b)
    ]
    if unordered:
        extra = rng.sample(unordered, min(len(unordered), rng.randint(1, 2)))
        more = build(nodes, [*Y.covers, *extra])
        yield more, PosetMap(g.source, more, g.assignment)
    if Y.covers:
        dropped = rng.choice(sorted(Y.covers))
        fewer = build(nodes, Y.covers - {dropped})
        yield fewer, PosetMap(g.source, fewer, g.assignment)
    if len(nodes) >= 2:
        y1, y2 = rng.sample(nodes, 2)
        swap = {y1: y2, y2: y1}
        yield Y, PosetMap(g.source, Y, {x: swap.get(y, y) for x, y in g.assignment.items()})


def renamed_target(Y, g, rng):
    """Y with shuffled fresh ids, and g followed by the renaming: the ids no
    longer agree with the canonical quotient's, nor sort like them."""
    ids = [f"v{i}" for i in range(len(Y))]
    rng.shuffle(ids)
    name = dict(zip(Y.nodes, ids))
    renamed = build(ids, [(name[a], name[b]) for a, b in Y.covers])
    return renamed, PosetMap(g.source, renamed, {x: name[y] for x, y in g.assignment.items()})


def test_verify_gluing_matches_the_stagewise_verdict(small_posets):
    # each target also comes with fresh ids, so the comparison map, read off
    # the two assignments, meets ids that differ from the canonical names;
    # that side draws from its own stream, so the collections stay the same
    rng, rename_rng = random.Random(6), random.Random(7)
    reasons = {"canonical ids": set(), "fresh ids": set()}
    for X in gluing_posets(small_posets):
        for collection in seeded_collections(X, rng):
            try:
                w = glue_along_collection(X, collection)
            except (NotComplete, UnknownNode):
                continue
            sides = [
                ("canonical ids", w.target, w.map, rng),
                ("fresh ids", *renamed_target(w.target, w.map, rename_rng), rename_rng),
            ]
            for side, Y, g, side_rng in sides:
                for Z, f in [(Y, g), *bad_targets(Y, g, side_rng)]:
                    report = verify_gluing(X, Z, f, collection)
                    assert report == stagewise_verify_gluing(X, Z, f, collection)
                    reasons[side].add(report.reason)
                assert verify_gluing(X, Y, g, collection)
    for seen in reasons.values():
        assert {"ok", "not a poset map", "comparison map is not an isomorphism"} <= seen


def restart_normalize_collection(X, collection):
    """The merge loop ``normalize_collection`` replaced: after each merge the
    pairwise scan starts again from the first member. Ids are checked in
    sorted order, so an unknown one named is the least of its member."""
    members = []
    for C in collection:
        C = frozenset(C)
        for x in sorted(C):
            if x not in X:
                raise UnknownNode(f"collection references unknown node {x!r}")
        if len(C) >= 1:
            members.append(set(C))
    merged = True
    while merged:
        merged = False
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if members[i] & members[j]:
                    members[i] |= members[j]
                    del members[j]
                    merged = True
                    break
            if merged:
                break
    out = [frozenset(m) for m in members if len(m) >= 2]
    return tuple(sorted(out, key=min))


def overlapping_collections(X, rng):
    """Members of up to four ids drawn from a few of X's nodes, so they
    overlap, repeat and chain together; empty members and singletons too.
    Then one member with two unknown ids."""
    nodes = list(X.nodes)
    pool = rng.sample(nodes, min(len(nodes), rng.randint(2, 6)))
    for _ in range(4):
        yield [
            rng.sample(pool, rng.randint(0, min(4, len(pool))))
            for _ in range(rng.randint(1, 8))
        ]
    yield [[nodes[0]], ["zz", nodes[-1], "no-such-node"]]


def test_one_pass_normalization_equals_the_restart_loop(small_posets):
    def result(normalize, X, collection):
        try:
            return normalize(X, collection)
        except UnknownNode as exc:
            return str(exc)

    rng = random.Random(12)
    tally = {"unknown": 0, "merged": 0, "chained": 0}
    for X in gluing_posets(small_posets):
        for collection in overlapping_collections(X, rng):
            got = result(normalize_collection, X, collection)
            assert got == result(restart_normalize_collection, X, collection)
            if isinstance(got, str):
                tally["unknown"] += 1
                continue
            sets = [frozenset(C) for C in collection]
            if any(a & b for a, b in combinations(sets, 2)):
                tally["merged"] += 1
            # a union of three or more distinct members
            if any(sum(1 for C in set(sets) if C and C <= U) >= 3 for U in got):
                tally["chained"] += 1
    assert tally == {"unknown": 465, "merged": 1402, "chained": 907}


def elevation_posets(small_posets):
    """Every poset on up to 6 nodes, 40 seeded 16-node posets, and the
    benchmark's `deep` seed-1 inputs, both as given and padded as
    ``decompose_to_point`` pads them."""
    out = list(small_posets) + [random_poset(s, 16, 0.3) for s in RANDOM_SEEDS]
    for inp in benchmark_inputs("deep", 1):
        out.append(inp.poset)
        out.append(wrap(inp.poset, inp.options or WrapOptions())[0])
    return out


def same_order(P, Q):
    return P.nodes == Q.nodes and P.covers == Q.covers and P._up == Q._up


def retractable(P, z):
    """z has height one and is the only cover of everything below it."""
    return P.height(z) == 1 and all(
        P.upper_covers(w) == {z} for w in P.down_set(z) - {z}
    )


def assert_retract_equals_the_gluing(Z, z):
    w = retract(Z, z)
    glued = glue_along_complete(Z, Z.down_set(z))
    assert same_order(w.X, glued.target)
    assert w.r == glued.map


def test_local_elevation_and_retraction_equal_build_and_the_gluing(small_posets):
    elevations = retractions = 0
    for X in elevation_posets(small_posets):
        for p in sorted(X.min_nodes()):
            for n in (1, 2, 3):
                Z = elevate(X, p, n).Z
                rebuilt = build(Z.nodes, Z.covers)
                assert same_order(Z, rebuilt)
                # retract a poset that build made, so each constructor is
                # checked on its own
                assert_retract_equals_the_gluing(rebuilt, p)
                elevations += 1
        for z in X.nodes:
            if retractable(X, z):
                assert_retract_equals_the_gluing(X, z)
                retractions += 1
    assert (elevations, retractions) == (3534, 296)


def stored_elevation_maps(X, p, Z):
    """r and e as ``elevate`` built and stored them before the witness
    derived its maps from (Z, z, X), kept here as the oracle."""
    fresh_ids = [q for q in Z.nodes if q not in X]
    r = PosetMap(Z, X, {**{x: x for x in X.nodes}, **{q: p for q in fresh_ids}})
    return r, inclusion_map(X, Z)


def stored_retraction_maps(Z, z, X):
    """r and e as the backward pass's retraction built and stored them
    before the witness derived its maps, kept here as the oracle."""
    down = Z.down_set(z)
    c = min(down)
    r = PosetMap(Z, X, {w: c if w in down else w for w in Z.nodes})
    e_assignment = {w: w for w in Z.nodes if w not in down}
    e_assignment[c] = z
    return r, PosetMap(X, Z, e_assignment)


def test_derived_maps_equal_the_stored_ones(small_posets):
    fixtures = [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.poset"))]
    elevations = retractions = 0
    for X in [*(P for P in small_posets if len(P) <= 5), *fixtures]:
        for p in sorted(X.min_nodes()):
            for n in (1, 2):
                w = elevate(X, p, n)
                assert (w.r, w.e) == stored_elevation_maps(X, p, w.Z)
                elevations += 1
        for z in X.nodes:
            if retractable(X, z):
                w = retract(X, z)
                assert (w.r, w.e) == stored_retraction_maps(X, z, w.X)
                retractions += 1
    assert (elevations, retractions) == (400, 55)


def backward_retractions(K):
    """The retraction of every G-extension step from K down to dimension
    zero, as ``decompose_to_point`` makes them."""
    while K.dim() > 0:
        step = gextension_step(K)
        assert step.retraction.Z is step.Z and step.retraction.z == step.pivot
        yield step.retraction
        K = step.f2


def test_every_backward_retraction_validates(small_posets):
    # gextension_step skips validate; the step loop validates the elevation
    # that undoes each retraction, renamed, and this keeps the raw one honest
    padded = [wrap(P, WrapOptions())[0] for P in [*small_posets, load_fixture("x9.poset")]]
    padded += [
        wrap(load_fixture(path.name), WrapOptions(min_height=3))[0]
        for path in sorted(FIXTURES.glob("*.poset"))
    ]
    checked = 0
    for K in padded:
        for retraction in backward_retractions(K):
            retraction.validate()
            Z, z, X = retraction.Z, retraction.z, retraction.X
            assert (retraction.r, retraction.e) == stored_retraction_maps(Z, z, X)
            checked += 1
    # one per elevate step of the 415 scripts
    assert (len(padded), checked) == (415, 1902)


def eight_check_validate(w):
    """``ElevationWitness.validate`` as it was before it checked only the
    facts that imply the rest, kept here as the oracle: it also checked
    r . e, the pivot fix, that e is an embedding, that Z is the down-set and
    e's image, and Z's minima, and it found unique covers per node."""
    Z, z, X, r, e = w.Z, w.z, w.X, w.r, w.e
    if Z.height(z) != 1:
        raise InternalInvariantError(f"pivot {z!r} does not have height one")
    down = Z.down_set(z)
    for x in sorted(down - {z}):
        if Z.upper_covers(x) != {z}:
            raise InternalInvariantError(f"{z!r} is not the only cover of {x!r}")
    report = verify_gluing(Z, X, r, (down,))
    if not report:
        raise InternalInvariantError(f"r is not a gluing along the down-set: {report.reason}")
    if any(r(e(x)) != x for x in X.nodes):
        raise InternalInvariantError("r . e is not the identity")
    if e(r(z)) != z:
        raise InternalInvariantError("section does not fix the pivot")
    if not is_embedding(e):
        raise InternalInvariantError("elevation map is not an embedding")
    if frozenset(Z.nodes) != down | e.image():
        raise InternalInvariantError("Z is not the union of the down-set and the section image")
    fresh = down - {z}
    expected_min = fresh | frozenset(e(x) for x in X.min_nodes() if x != r(z))
    if Z.min_nodes() != expected_min:
        raise InternalInvariantError("minima of Z do not decompose as expected")


def other_orders(P):
    """P with one cover dropped, and P with one cover added between two
    incomparable nodes, each built on P's ids."""
    for cover in sorted(P.covers):
        yield "dropped", build(P.nodes, P.covers - {cover})
    for a, b in permutations(P.nodes, 2):
        if not P.leq(a, b) and not P.leq(b, a):
            yield "added", build(P.nodes, P.covers | {(a, b)})


def tampered_witnesses(w):
    """w itself, then w with one fault in (Z, z, X): X with a cover dropped or
    added, X missing a node, X with an extra node, X with a second node inside
    z's down-set, or z moved to another node of Z. The last three kinds fail
    the shape of z's down-set alone, with X still the collapse of that
    down-set: z moved to a minimum of Z, with X = Z; a fresh chain r < q < z
    under z, with X unchanged; and a fresh node over a minimum below z, with X
    the collapse of the grown Z."""
    Z, z, X = w.Z, w.z, w.X
    yield "none", w
    for how, X2 in other_orders(X):
        yield f"X cover {how}", replace(w, X=X2)
    for x in X.nodes:
        yield "X node missing", replace(w, X=X.induced(set(X.nodes) - {x}))
    yield "X node extra", replace(w, X=build([*X.nodes, "extra"], X.covers))
    for v in sorted(Z.down_set(z) - set(X.nodes)):
        yield "two X nodes in the down-set", replace(w, X=build([*X.nodes, v], X.covers))
    for v in Z.nodes:
        if v != z:
            yield "z moved", replace(w, z=v)
    for m in sorted(Z.min_nodes()):
        yield "z minimal", replace(w, z=m, X=Z)
    chained = build([*Z.nodes, "t.q", "t.r"], [*Z.covers, ("t.r", "t.q"), ("t.q", z)])
    yield "chain under z", replace(w, Z=chained)
    for q in sorted(Z.down_set(z) - {z}):
        grown = build([*Z.nodes, "t.y"], [*Z.covers, (q, "t.y")])
        yield "second cover of a minimum", replace(w, Z=grown, X=_glued(grown, (grown.down_set(z),)))


def validate_verdict(check, w):
    try:
        check(w)
    except PosetError as exc:
        return type(exc)
    return None


def test_two_fact_validate_rejects_what_the_eight_checks_reject(small_posets):
    # the eight checks read the derived r and e, which raise for an X that is
    # not Z with the down-set collapsed to one node
    witnesses = []
    for X in small_posets:
        if len(X) > 5:
            continue
        witnesses += [elevate(X, p, n) for p in sorted(X.min_nodes()) for n in (1, 2)]
        witnesses += [retract(X, z) for z in X.nodes if retractable(X, z)]
    tally: dict[str, list[int]] = {}
    for w in witnesses:
        for kind, bad in tampered_witnesses(w):
            old = validate_verdict(eight_check_validate, bad)
            new = validate_verdict(ElevationWitness.validate, bad)
            assert old in (None, InternalInvariantError), (kind, old)
            assert new == old, (kind, old, new)
            counts = tally.setdefault(kind, [0, 0])
            counts[0] += 1
            counts[1] += new is not None
    # (cases, rejected by the eight checks and by the two facts)
    assert len(witnesses) == 409
    assert {kind: tuple(counts) for kind, counts in tally.items()} == {
        "none": (409, 0),
        "X cover dropped": (1236, 1236),
        "X cover added": (3502, 3502),
        "X node missing": (1835, 1835),
        "X node extra": (409, 409),
        "two X nodes in the down-set": (608, 608),
        "z moved": (2034, 2034),
        "z minimal": (1185, 1185),
        "chain under z": (409, 409),
        "second cover of a minimum": (608, 608),
    }


def per_node_unique_cover_fault(Z, z):
    """``retract``'s unique-cover fault as its per-node ``upper_covers``
    loop found it, kept here as the oracle: the message and node, or None."""
    for w in sorted(Z.down_set(z) - {z}):
        if Z.upper_covers(w) != {z}:
            return f"{w!r} below {z!r} has covers {sorted(Z.upper_covers(w))!r}", w
    return None


def test_unique_cover_fault_is_the_per_node_scans(small_posets):
    faults = retracted = 0
    for Z in small_posets:
        for z in Z.nodes:
            if Z.height(z) != 1:
                continue
            expected = per_node_unique_cover_fault(Z, z)
            if expected is None:
                retract(Z, z)
                retracted += 1
                continue
            with pytest.raises(NotUniqueCover) as err:
                retract(Z, z)
            assert (str(err.value), err.value.node) == expected
            faults += 1
    assert (faults, retracted) == (611, 188)


def test_retract_succeeds_exactly_when_its_witness_validates(small_posets):
    """``retract`` does not validate its witness: its height and unique-cover
    checks are the witness's shape fact, and its X is the ``_glued`` gluing
    the other fact rebuilds. So on every node of the posets with n <= 6 and
    of the fixtures, it returns a witness exactly when the collapse of that
    node's down-set validates, and the witness it returns validates."""
    fixtures = [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.poset"))]
    retracted = refused = 0
    for Z in [*small_posets, *fixtures]:
        for z in Z.nodes:
            collapse = ElevationWitness(Z, z, _glued(Z, (Z.down_set(z),)))
            try:
                w = retract(Z, z)
            except (NotHeightOne, NotUniqueCover):
                with pytest.raises(InternalInvariantError, match="not a height-one node"):
                    collapse.validate()
                refused += 1
                continue
            assert w == collapse
            w.validate()
            retracted += 1
    assert (retracted, refused) == (196, 2160)


def scanned_pivot(F):
    """The pivot as ``_pivot`` found it before it read the height and depth
    tables: checked ``height`` and ``on_maximal_length_chain`` per node."""
    return min(x for x in F.nodes if F.height(x) == 1 and F.on_maximal_length_chain(x))


def test_pivot_from_the_tables_equals_the_per_node_scan(small_posets):
    posets = [*small_posets, *(random_poset(s, RANDOM_NODES, RANDOM_P) for s in RANDOM_SEEDS)]
    posets = [P for P in posets if P.dim() > 0]
    assert len(posets) > 400
    for P in posets:
        assert _pivot(P) == scanned_pivot(P)


def built_quotient(X, collection):
    """The quotient as the one-pass gluing built it for every collection:
    each node named by its member's least id, then ``build`` on the image of
    X's covers."""
    name_of = {x: x for x in X.nodes}
    for C in normalize_collection(X, collection):
        least = min(C)
        for x in C:
            name_of[x] = least
    relation = {(name_of[a], name_of[b]) for a, b in X.covers if name_of[a] != name_of[b]}
    return build(set(name_of.values()), relation), name_of


def down_set_collections(X, rng):
    """The down-set of every retractable node, alone and beside the other
    minima; the down-set of every node; all minima as one member; and three
    seeded partitions of the minima."""
    mins = sorted(X.min_nodes())
    for z in X.nodes:
        if retractable(X, z):
            yield [X.down_set(z)]
            yield [X.down_set(z), X.min_nodes() - X.down_set(z)]
    for x in X.nodes:
        yield [X.down_set(x)]
    yield [mins]
    for _ in range(3):
        shuffled = rng.sample(mins, len(mins))
        cuts = sorted(rng.sample(range(1, len(mins)), rng.randint(0, len(mins) - 1)))
        yield [shuffled[i:j] for i, j in zip([0, *cuts], [*cuts, len(mins)])]


def test_gluing_along_down_sets_equals_the_built_quotient(small_posets, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a gluing along down-sets called build")

    rng = random.Random(11)
    glued = 0
    for X in elevation_posets(small_posets):
        for collection in down_set_collections(X, rng):
            Y, name_of = built_quotient(X, collection)
            with monkeypatch.context() as patched:
                patched.setattr(gluing, "build", refuse)
                w = glue_along_collection(X, collection)
            assert same_order(w.target, Y)
            assert w.map.assignment == name_of
            glued += 1
    assert glued == 6643


def minima_partitions(X):
    """Every partition of X's minima into parts of two or more ids, the rest
    left untouched, as the step loop's glue steps give them; not the empty
    one."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in partitions(rest):
            yield [[first], *p]
            for i in range(len(p)):
                yield [*p[:i], [first, *p[i]], *p[i + 1 :]]

    for p in partitions(sorted(X.min_nodes())):
        parts = tuple(frozenset(part) for part in p if len(part) >= 2)
        if parts:
            yield parts


def wrong_quotients(Y, partition):
    """Y with one cover dropped, with one cover added between two distinct
    nodes, or with one upper cover missing from its lower node's up-set;
    then, with the up-sets to match, a cover from an untouched node into a
    class, or a class with one of its kept exits dropped. Each is made
    directly, as a faulty constructor would, not through ``build``."""
    for cover in sorted(Y.covers):
        yield Poset(Y.nodes, Y.covers - {cover}, Y._up)
    for a, b in permutations(Y.nodes, 2):
        if (a, b) not in Y.covers:
            yield Poset(Y.nodes, Y.covers | {(a, b)}, Y._up)
    for a, b in sorted(Y.covers):
        yield Poset(Y.nodes, Y.covers, {**Y._up, a: Y._up[a] - {b}})
    classes = sorted(min(C) for C in partition)
    for c in classes:
        for x in Y.nodes:
            if x not in classes and x not in Y._up[c]:
                yield Poset(Y.nodes, Y.covers | {(x, c)}, {**Y._up, x: Y._up[x] | Y._up[c]})
        exits = sorted(b for a, b in Y.covers if a == c)
        for b in exits:
            up_c = frozenset({c}).union(*(Y._up[k] for k in exits if k != b))
            yield Poset(Y.nodes, Y.covers - {(c, b)}, {**Y._up, c: up_c})


def test_closed_form_check_agrees_with_verify_gluing(small_posets):
    glued = rejected = 0
    for X in small_posets:
        for partition in minima_partitions(X):
            Y = _glued(X, partition)
            built, name_of = built_quotient(X, partition)
            assert same_order(Y, built)
            g = PosetMap(X, Y, name_of)
            assert _verify_height_zero_quotient(X, Y, partition)
            assert verify_gluing(X, Y, g, partition)
            check_dim_min_preservation(GluingWitness(X, Y, g, partition))
            glued += 1
            for bad in wrong_quotients(Y, partition):
                assert not _verify_height_zero_quotient(X, bad, partition)
                assert not verify_gluing(X, bad, name_of, partition)
                rejected += 1
    assert (glued, rejected) == (1555, 29610)


def node_set_faults(Y, partition):
    """Y with a class node dropped, with a class named by a member other than
    its least, or with an extra node. No map from the source reaches all of
    these, so ``verify_gluing`` cannot be asked about them."""
    for C in partition:
        c, other = min(C), max(C)
        yield "class dropped", Y.induced(set(Y.nodes) - {c})
        name = {x: other if x == c else x for x in Y.nodes}
        yield "class misnamed", Poset(
            tuple(sorted(name.values())),
            frozenset((name[a], name[b]) for a, b in Y.covers),
            {name[x]: frozenset(name[u] for u in up) for x, up in Y._up.items()},
        )
    yield "extra node", build([*Y.nodes, "extra"], Y.covers)


def test_closed_form_check_rejects_node_set_faults(small_posets):
    tally: dict[str, int] = {}
    for X in small_posets:
        for partition in minima_partitions(X):
            for kind, bad in node_set_faults(_glued(X, partition), partition):
                report = _verify_height_zero_quotient(X, bad, partition)
                assert report.reason == "nodes are not the untouched nodes plus one class per part"
                tally[kind] = tally.get(kind, 0) + 1
    assert tally == {"class dropped": 1961, "class misnamed": 1961, "extra node": 1555}


def scan_poset_map_fault(source, target, assignment):
    """The three ``PosetMap`` scans, in their order: the exception each
    raises as (type, message), or None."""
    missing = [x for x in source.nodes if x not in assignment]
    if missing:
        return UnknownNode, f"assignment not total; missing {missing[:3]!r}"
    extra = [x for x in assignment if x not in source]
    if extra:
        return UnknownNode, f"assignment defined off the source: {extra[:3]!r}"
    bad = [y for y in assignment.values() if y not in target]
    if bad:
        return UnknownNode, f"assignment lands outside the target: {bad[:3]!r}"
    return None


def scan_embedding_violation(f):
    """The per-node embedding scan: NotPosetMap first, then the first x with
    some y above it in the image but not in the source."""
    pair = loop_poset_map_violation(f)
    if pair is not None:
        raise NotPosetMap(f"not a poset map: cover {pair!r} collapses order")
    return loop_embedding_violation(f)


def scan_saturated_subset_violation(P, Z):
    """The per-node saturated-subset scan, unknown ids rejected first."""
    Z = frozenset(Z)
    for x in Z:
        if x not in P:
            raise UnknownNode(f"unknown node {x!r}")
    return loop_saturated_subset_violation(P, Z)


def verdict(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def verdict_kind(got):
    """None, "pair", or the exception type of a verdict."""
    if got is None:
        return None
    return got[0] if isinstance(got[0], type) else "pair"


def section_maps(P):
    """The identity on P, the e and r maps of every elevation of P (by one
    and by two), of every retraction of P and of each elevation's retraction
    (whose section shares up-sets), and the inclusions of P into two
    paddings."""
    yield identity_map(P)
    for p in sorted(P.min_nodes()):
        for n in (1, 2):
            w = elevate(P, p, n)
            back = retract(w.Z, p)
            yield from (w.e, w.r, back.e, back.r)
    for z in P.nodes:
        if retractable(P, z):
            w = retract(P, z)
            yield from (w.e, w.r)
    for options in (WrapOptions(), WrapOptions(single_min=True, min_height=2)):
        yield wrap(P, options)[1]


def seeded_maps(rng):
    """Arbitrary and injective maps into seeded 8- to 16-node targets, and
    the inclusions of induced subposets, with and without some covers."""
    for seed in range(40):
        T = random_poset(seed, rng.randint(8, 16), rng.choice((0.2, 0.35, 0.5)))
        targets = list(T.nodes)
        P = random_poset(seed, rng.randint(1, 6), 0.4)
        yield PosetMap(P, T, {x: rng.choice(targets) for x in P.nodes})
        yield PosetMap(P, T, dict(zip(P.nodes, rng.sample(targets, len(P)))))
        S = sorted(rng.sample(targets, rng.randint(1, len(targets))))
        sub = T.induced(S)
        yield PosetMap(sub, T, {x: x for x in S})
        weaker = build(S, [c for c in sorted(sub.covers) if rng.random() < 0.6])
        yield PosetMap(weaker, T, {x: x for x in S})


def malformed_assignments(f, rng):
    """f's assignment, then with a node missing, an extra key, and a value
    outside the target."""
    g = dict(f.assignment)
    yield g
    if g:
        x = rng.choice(sorted(g))
        yield {k: v for k, v in g.items() if k != x}
        yield {**g, "no-such-source-node": g[x]}
        yield {**g, x: "no-such-target-node"}


def test_set_algebra_verifiers_return_the_scan_verdicts(small_posets):
    rng = random.Random(8)
    maps = [f for P in small_posets for f in section_maps(P)] + list(seeded_maps(rng))
    kinds = set()
    for f in maps:
        got = verdict(embedding_violation, f)
        assert got == verdict(scan_embedding_violation, f)
        kinds.add(("embedding", verdict_kind(got)))
        image = f.image()
        subsets = [image, frozenset(f.target.nodes), image | {"no-such-node"}]
        subsets.append(frozenset(rng.sample(f.target.nodes, rng.randint(1, len(f.target)))))
        for Z in subsets:
            got = verdict(saturated_subset_violation, f.target, Z)
            assert got == verdict(scan_saturated_subset_violation, f.target, Z)
            kinds.add(("subset", verdict_kind(got)))
        for assignment in malformed_assignments(f, rng):
            got = verdict(PosetMap, f.source, f.target, assignment)
            fault = scan_poset_map_fault(f.source, f.target, assignment)
            if fault is None:
                assert got.assignment == assignment
                kinds.add(("map", None))
            else:
                assert got == fault
                kinds.add(("map", fault[1].split(";")[0].split(":")[0]))
    assert kinds == {
        ("embedding", None),
        ("embedding", "pair"),
        ("embedding", NotPosetMap),
        ("subset", None),
        ("subset", "pair"),
        ("subset", UnknownNode),
        ("map", None),
        ("map", "assignment not total"),
        ("map", "assignment defined off the source"),
        ("map", "assignment lands outside the target"),
    }


def recursive_find_isomorphism(P, Q):
    """find_isomorphism as it was: one recursive call per assigned node, and
    signatures read from per-node cover scans."""

    def signature(R, x):
        return (R.height(x), len(R.lower_covers(x)), len(R.upper_covers(x)))

    if len(P.nodes) != len(Q.nodes) or len(P.covers) != len(Q.covers):
        return None
    if not P.nodes:
        return PosetMap(P, Q, {})
    sig_p = {x: signature(P, x) for x in P.nodes}
    sig_q = {}
    for y in Q.nodes:
        sig_q.setdefault(signature(Q, y), []).append(y)
    if sorted(sig_p.values()) != sorted(s for s, ys in sig_q.items() for _ in ys):
        return None
    order = sorted(P.nodes, key=lambda x: (sig_p[x], x))
    assigned, used = {}, set()

    def extend(i):
        if i == len(order):
            return True
        x = order[i]
        for y in sig_q.get(sig_p[x], []):
            if y in used:
                continue
            if not all(
                P.leq(x, x2) == Q.leq(y, y2) and P.leq(x2, x) == Q.leq(y2, y)
                for x2, y2 in assigned.items()
            ):
                continue
            assigned[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assigned[x]
            used.remove(y)
        return False

    return PosetMap(P, Q, dict(assigned)) if extend(0) else None


def relabeled(P, rng):
    ids = [f"v{i}" for i in range(len(P))]
    rng.shuffle(ids)
    name = dict(zip(P.nodes, ids))
    return build(ids, [(name[a], name[b]) for a, b in P.covers])


def test_iterative_find_isomorphism_returns_the_recursive_map(small_posets):
    calls = {"found": 0, "none": 0}

    def both(P, Q):
        got = find_isomorphism(P, Q)
        assert got == recursive_find_isomorphism(P, Q)
        calls["none" if got is None else "found"] += 1
        return got

    # the scan compares every pair in an invariant bucket; with the
    # recursive search it must give the same classes in the same order
    for n in range(1, 7):
        assert scanned_posets_upto_iso(n, both) == [P for P in small_posets if len(P) == n]
    assert calls == {"found": 4826, "none": 538}
    rng = random.Random(9)
    for P in list(small_posets) + [random_poset(s, 16, 0.25) for s in range(20)]:
        Q = relabeled(P, rng)
        both(P, Q)
        both(P, P)


def scanned_posets_upto_iso(n, isomorphism):
    """all_posets_upto_iso as it was: scan every transitive relation inside
    the natural order in mask order, and keep each one that ``isomorphism``
    matches to no kept poset in its invariant bucket."""
    if n == 0:
        return []
    buckets = {}
    out = []
    for rel in _closed_relations(n):
        P = _as_poset(n, rel)
        key = (
            len(P.covers),
            tuple(sorted((P.height(x), len(P.lower_covers(x)), len(P.upper_covers(x))) for x in P.nodes)),
        )
        bucket = buckets.setdefault(key, [])
        if any(isomorphism(P, Q) is not None for Q in bucket):
            continue
        bucket.append(P)
        out.append(P)
    return out


def labelling_mask(P, label):
    """Mask of P's relation under ``label`` (node -> 0..n-1): bit k is set
    when the k-th pair of combinations(range(n), 2) is related."""
    index = {pair: k for k, pair in enumerate(combinations(range(len(P)), 2))}
    return sum(1 << index[label[a], label[b]] for a in P.nodes for b in P.nodes if P.lt(a, b))


def test_orderly_enumerator_returns_the_scan():
    for n in range(0, 7):
        # Poset equality compares nodes and covers
        assert all_posets_upto_iso(n) == scanned_posets_upto_iso(n, find_isomorphism)


def test_every_representative_is_its_least_linear_extension(small_posets):
    for P in small_posets:
        identity = {x: int(x) for x in P.nodes}
        relation = [(a, b) for a in P.nodes for b in P.nodes if P.lt(a, b)]
        least = min(
            labelling_mask(P, label)
            for perm in permutations(range(len(P)))
            for label in [dict(zip(P.nodes, perm))]
            if all(label[a] < label[b] for a, b in relation)
        )
        assert labelling_mask(P, identity) == least


def test_seven_node_classes_are_fast_distinct_and_naturally_labelled():
    # time the generation, not a lookup of levels an earlier test computed
    generate._level_rows.cache_clear()
    start = time.perf_counter()
    reps = all_posets_upto_iso(7)
    assert time.perf_counter() - start < 5.0
    assert len(reps) == 2045
    buckets = {}
    for P in reps:
        assert P.nodes == tuple(str(i) for i in range(7))
        assert all(int(a) < int(b) for a, b in P.covers)
        key = tuple(sorted((P.height(x), len(P.lower_covers(x)), len(P.upper_covers(x))) for x in P.nodes))
        bucket = buckets.setdefault(key, [])
        assert all(find_isomorphism(P, Q) is None for Q in bucket)
        bucket.append(P)


def test_each_level_is_generated_once_and_returned_fresh(monkeypatch):
    generate._level_rows.cache_clear()
    seven = all_posets_upto_iso(7)
    checked = []
    real = generate._has_smaller_labelling
    monkeypatch.setattr(
        generate, "_has_smaller_labelling", lambda up: checked.append(up) or real(up)
    )
    eight = all_posets_upto_iso(8)
    # only level 8's candidates: one per up-closed subset of each level-7 row
    rows = generate._level_rows(7)
    assert len(checked) == sum(len(generate._up_closed_subsets(up)) for up in rows)
    assert all(len(up) == 8 for up in checked)
    assert len(eight) == 16999
    checked.clear()
    assert all_posets_upto_iso(7) == seven and not checked
    seven.clear()
    eight.pop()
    assert len(all_posets_upto_iso(7)) == 2045
    assert len(all_posets_upto_iso(8)) == 16999


@pytest.mark.parametrize("n", [True, False, 2.5, "3", None])
def test_enumerator_rejects_a_non_integer_node_count(n):
    with pytest.raises(InputError, match="integer"):
        all_posets_upto_iso(n)
    # the stream checks its argument when called, not when first read
    with pytest.raises(InputError, match="integer"):
        iter_posets_upto_iso(n)


@pytest.mark.parametrize("n", [-1, -7])
def test_enumerator_rejects_a_negative_node_count(n):
    for enumerate_posets in (all_posets_upto_iso, iter_posets_upto_iso):
        with pytest.raises(InputError, match="^n must be nonnegative$"):
            enumerate_posets(n)


def test_the_stream_builds_each_poset_when_it_is_reached(monkeypatch):
    built = []
    real = generate._as_poset
    monkeypatch.setattr(generate, "_as_poset", lambda n, rel: built.append(rel) or real(n, rel))
    stream = iter_posets_upto_iso(7)
    assert built == []
    first = list(islice(stream, 3))
    assert len(built) == 3
    assert first + list(stream) == all_posets_upto_iso(7)


def test_saturated_subset_of_a_long_chain_is_fast():
    P, ids = chain_poset(2000)
    start = time.perf_counter()
    assert is_saturated_subset(P, ids)
    assert time.perf_counter() - start < 1.0


def test_find_isomorphism_of_a_long_chain_needs_no_recursion():
    P, ids = chain_poset(1500)
    rng = random.Random(10)
    Q = relabeled(P, rng)
    start = time.perf_counter()
    f = find_isomorphism(P, Q)
    assert time.perf_counter() - start < 10.0
    assert all((f(a), f(b)) in Q.covers for a, b in P.covers)

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from posetglue import (
    CycleDetected,
    DanglingNode,
    EmptyPoset,
    UnknownNode,
    build,
)
from posetglue.chains import _split_by_rank
from posetglue.core import _elevated, _glued
from posetglue.generate import random_poset

from conftest import (
    all_nonempty_subsets,
    oracle_height,
    oracle_longest_path,
    oracle_maximal_chains,
    oracle_reachable,
    oracle_transitive_reduction,
)


def chain(*ids):
    return build(ids, list(zip(ids, ids[1:])))


class TestBuild:
    def test_singleton(self):
        P = build(["a"], [])
        assert P.nodes == ("a",)
        assert P.covers == frozenset()

    def test_transitive_reduction_drops_implied_pair(self):
        P = build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert P.covers == {("a", "b"), ("b", "c")}

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build(["a", "b"], [("a", "b"), ("b", "a")])

    def test_dangling_node(self):
        with pytest.raises(DanglingNode):
            build(["a"], [("a", "b")])

    def test_reflexive_pairs_ignored(self):
        P = build(["a", "b"], [("a", "a"), ("a", "b")])
        assert P.covers == {("a", "b")}

    def test_empty_accepted(self):
        P = build([], [])
        assert P.nodes == ()


class TestOrderQueries:
    def test_leq_transitive(self):
        P = chain("a", "b", "c")
        assert P.leq("a", "c")
        assert not P.leq("c", "a")

    def test_leq_antichain(self):
        P = build(["a", "b"], [])
        assert not P.leq("a", "b")
        assert P.leq("a", "a")

    def test_leq_unknown(self):
        with pytest.raises(UnknownNode):
            chain("a", "b").leq("a", "z")

    def test_is_cover(self):
        P = chain("a", "b", "c")
        assert P.is_cover("a", "b")
        assert not P.is_cover("a", "c")

    def test_x9_cover_6_5(self, x9):
        assert x9.is_cover("6", "5")

    def test_min_max_point(self):
        P = build(["p"], [])
        assert P.min_nodes() == {"p"} == P.max_nodes()

    def test_min_max_diamond_split(self, diamond_split):
        assert diamond_split.min_nodes() == {"6R", "6L"}
        assert diamond_split.max_nodes() == {"1"}

    def test_min_max_vee(self, vee):
        assert vee.min_nodes() == {"a", "b"}
        assert vee.max_nodes() == {"t"}

    def test_min_max_empty(self):
        with pytest.raises(EmptyPoset):
            build([], []).min_nodes()


class TestHeightDim:
    def test_point_dim(self):
        assert build(["p"], []).dim() == 0

    def test_x9_dim_is_6(self, x9):
        # frozen from the longest-path oracle over the cover graph
        assert oracle_longest_path(x9) == 6
        assert x9.dim() == 6

    def test_diamond_heights(self, diamond):
        # frozen from the longest-path oracle
        assert oracle_height(diamond, "2") == 1
        assert oracle_height(diamond, "4") == 2
        assert diamond.height("2") == 1
        assert diamond.height("4") == 2
        assert diamond.dim() == 3

    def test_height_unknown(self, diamond):
        with pytest.raises(UnknownNode):
            diamond.height("zz")


class TestMaximalChains:
    def test_chain_single(self):
        assert chain("a", "b", "c").maximal_chains() == [("a", "b", "c")]

    def test_diamond_two_chains(self, diamond):
        # frozen from the exhaustive inclusion-maximality oracle
        assert oracle_maximal_chains(diamond) == {("6", "2", "1"), ("6", "5", "4", "1")}
        assert diamond.maximal_chains() == [("6", "2", "1"), ("6", "5", "4", "1")]

    def test_x9_four_chains(self, x9):
        chains = x9.maximal_chains()
        assert len(chains) == 4
        assert set(chains) == oracle_maximal_chains(x9)
        # the two drawn long paths and their crossovers at node 6
        assert ("10", "9", "8", "6", "5", "4", "1") in chains
        assert ("10", "7", "6", "2", "1") in chains

    def test_deterministic_order(self, x9):
        assert x9.maximal_chains() == sorted(x9.maximal_chains())

    @pytest.mark.parametrize("seed", range(10))
    def test_random_posets_sorted_and_exhaustive(self, seed):
        P = random_poset(seed, 8, 0.35)
        chains = P.maximal_chains()
        assert chains == sorted(chains)
        assert set(chains) == oracle_maximal_chains(P)

    def test_long_chain_does_not_recurse(self):
        ids = [f"c{i:04d}" for i in range(1200)]
        assert chain(*ids).maximal_chains() == [tuple(ids)]


class TestSubsetPredicates:
    def test_minima_are_antichain(self, x9):
        assert x9.is_antichain(x9.min_nodes())

    def test_chain_pair_not_antichain(self):
        assert not chain("a", "b").is_antichain({"a", "b"})

    def test_empty_antichain(self, x9):
        assert x9.is_antichain(set())

    def test_antichain_is_complete(self, x9):
        assert x9.is_complete_subset(x9.min_nodes())

    def test_down_set_is_complete(self, x9):
        for x in x9.nodes:
            assert x9.is_complete_subset(x9.down_set(x))
            assert x9.is_complete_subset(x9.up_set(x))

    def test_chain_gap_not_complete(self):
        assert not chain("a", "b", "c").is_complete_subset({"a", "c"})

    def test_down_set_minimal(self, diamond):
        assert diamond.down_set("6") == {"6"}

    def test_down_set_gext_z_node5(self, gext_z):
        assert gext_z.down_set("5") == {"5", "6R", "6RR"}

    def test_up_set_top(self, diamond):
        assert diamond.up_set("1") == {"1"}


class TestChainPredicate:
    def test_maximal_chains_validate(self, x9):
        from posetglue import is_chain_in

        for c in x9.maximal_chains():
            assert is_chain_in(x9, c)

    def test_gaps_and_empties_rejected(self, x9):
        from posetglue import is_chain_in

        assert not is_chain_in(x9, ())
        assert not is_chain_in(x9, ("10", "8"))  # skips 9
        assert not is_chain_in(x9, ("10", "zz"))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_covers_are_transitive_reduction(self, seed):
        P = random_poset(seed, 3 + seed % 6, 0.4)
        assert set(P.covers) == oracle_transitive_reduction(P)

    @pytest.mark.parametrize("seed", range(15))
    def test_partial_order_axioms_exhaustive(self, seed):
        P = random_poset(seed, 8, 0.35)
        ns = P.nodes
        for a in ns:
            assert P.leq(a, a)
            for b in ns:
                if P.leq(a, b) and P.leq(b, a):
                    assert a == b
                for c in ns:
                    if P.leq(a, b) and P.leq(b, c):
                        assert P.leq(a, c)

    @pytest.mark.parametrize("seed", range(15))
    def test_cover_three_ways_agree(self, seed):
        P = random_poset(seed, 7, 0.4)
        for a in P.nodes:
            for b in P.nodes:
                stored = (a, b) in P.covers
                brute = (
                    a != b
                    and oracle_reachable(P, a, b)
                    and not any(
                        z not in (a, b)
                        and oracle_reachable(P, a, z)
                        and oracle_reachable(P, z, b)
                        for z in P.nodes
                    )
                )
                assert stored == brute == P.is_cover(a, b)

    @pytest.mark.parametrize("seed", range(15))
    def test_every_node_on_a_maximal_chain_and_dim(self, seed):
        P = random_poset(seed, 7, 0.3)
        chains = P.maximal_chains()
        covered = set().union(*chains)
        assert covered == set(P.nodes)
        assert P.dim() == max(len(c) - 1 for c in chains)

    @pytest.mark.parametrize("seed", range(10))
    def test_intersections_of_complete_subsets_are_complete(self, seed):
        P = random_poset(seed, 6, 0.4)
        completes = [S for S in all_nonempty_subsets(P.nodes) if P.is_complete_subset(S)]
        import random

        rng = random.Random(seed)
        for _ in range(30):
            A = rng.choice(completes)
            B = rng.choice(completes)
            assert P.is_complete_subset(A & B)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_leq_matches_bfs_oracle(self, seed):
        P = random_poset(seed, 6, 0.4)
        for a in P.nodes:
            for b in P.nodes:
                assert P.leq(a, b) == oracle_reachable(P, a, b)


def constructed_posets(X):
    """What each ``Poset`` constructor makes from X: ``build`` on its nodes
    and covers, ``_elevated`` at each minimum with fresh ids that sort before,
    between and after X's, ``_glued`` on each principal down-set and on the
    minima, and ``_split`` (by ``_split_by_rank``) of each minimum under each
    of its covers."""
    yield "build", build(reversed(X.nodes), X.covers)
    mins = sorted(X.min_nodes())
    for p in mins:
        yield "_elevated", _elevated(X, p, ["!", f"{p}.", "~"])
    for x in X.nodes:
        yield "_glued", _glued(X, (X.down_set(x),))
    if len(mins) >= 2:
        yield "_glued", _glued(X, (frozenset(mins),))
    for u1 in mins:
        for u2 in sorted(X.upper_covers(u1)):
            yield "_split", _split_by_rank(X, u1, u2)[0]


def test_every_constructor_sorts_nodes_as_its_up_set_keys(small_posets):
    """``nodes`` is the sorted tuple of the up-set keys for every poset the
    constructors make, so a check that compares up-set keys has read the
    nodes too (``ElevationWitness._collapse`` and ``decompose_to_point``'s
    isomorphism check rely on this)."""
    made = dict.fromkeys(["build", "_elevated", "_glued", "_split"], 0)
    for X in small_posets:
        for constructor, P in constructed_posets(X):
            assert P.nodes == tuple(sorted(P._up)), constructor
            made[constructor] += 1
    assert made == {"build": 405, "_elevated": 915, "_glued": 2624, "_split": 1269}

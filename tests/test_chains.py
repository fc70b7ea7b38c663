from __future__ import annotations

import random

import pytest

from posetglue import (
    EmptyPoset,
    InternalInvariantError,
    NotACover,
    NotASubcollection,
    NotMinimal,
    PosetMap,
    build,
    chain_decomposition,
    find_isomorphism,
    glue_D_along_subcollection,
    is_isomorphism,
    split_for_cover,
    verify_gluing,
    verify_min_max_lifting,
)
from posetglue.chains import SplitResult, _check_split
from posetglue.generate import random_poset


def chain(*ids):
    return build(ids, list(zip(ids, ids[1:])))


class TestChainDecomposition:
    def test_single_chain_bijection(self):
        cd = chain_decomposition(chain("a", "b", "c"))
        assert len(cd.chains) == 1
        assert len(cd.D.nodes) == 3
        assert cd.phi.is_surjective()
        assert len(set(cd.phi.assignment.values())) == 3

    def test_diamond_sizes(self, diamond):
        cd = chain_decomposition(diamond)
        # frozen via the maximal-chains oracle: a 3-chain and a 4-chain
        assert sorted(len(c) for c in cd.chains) == [3, 4]
        assert len(cd.D.nodes) == 7

    def test_x9_sizes(self, x9):
        cd = chain_decomposition(x9)
        assert len(cd.chains) == 4
        assert len(cd.D.nodes) == sum(len(c) for c in x9.maximal_chains()) == 24

    def test_empty_rejected(self):
        with pytest.raises(EmptyPoset):
            chain_decomposition(build([], []))

    def test_fresh_ids_shape(self, diamond):
        cd = chain_decomposition(diamond)
        assert all(d.startswith("a") and "." in d for d in cd.D.nodes)

    @pytest.mark.parametrize("seed", range(20))
    def test_conditions_on_random_posets(self, seed):
        X = random_poset(seed, 8, 0.3)
        cd = chain_decomposition(X)
        maximal = set(X.maximal_chains())
        images = {tuple(cd.phi(d) for d in c) for c in cd.chains}
        assert images == maximal
        for c in cd.chains:
            for a, b in zip(c, c[1:]):
                assert X.is_cover(cd.phi(a), cd.phi(b))
        assert verify_gluing(cd.D, X, cd.phi, cd.fibers())


class TestMinMaxLifting:
    def test_chain_trivial(self):
        cd = chain_decomposition(chain("a", "b"))
        out = verify_min_max_lifting(cd)
        assert len(out["min"]) == 1 and len(out["max"]) == 1

    def test_diamond_bottoms(self, diamond):
        cd = chain_decomposition(diamond)
        bottoms = cd.D.min_nodes()
        assert len(bottoms) == 2
        assert {cd.phi(d) for d in bottoms} == {"6"}
        verify_min_max_lifting(cd)

    def test_vee(self, vee):
        cd = chain_decomposition(vee)
        assert {cd.phi(d) for d in cd.D.min_nodes()} == {"a", "b"}
        verify_min_max_lifting(cd)

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        verify_min_max_lifting(chain_decomposition(random_poset(seed, 7, 0.35)))


class TestGlueAlongSubcollection:
    def test_empty_subcollection_returns_the_chain_sum(self, diamond):
        cd = chain_decomposition(diamond)
        result = glue_D_along_subcollection(cd, [])
        assert result.F == cd.D
        assert result.t_F.assignment == {d: d for d in cd.D.nodes}
        assert result.f_F.assignment == cd.phi.assignment

    def test_full_collection_rebuilds_the_poset(self, diamond):
        cd = chain_decomposition(diamond)
        result = glue_D_along_subcollection(cd, cd.fibers())
        iso = find_isomorphism(result.F, diamond)
        assert iso is not None and is_isomorphism(iso)

    def test_diamond_bottom_fiber_only(self, diamond):
        cd = chain_decomposition(diamond)
        bottom = cd.fiber_of("6")
        result = glue_D_along_subcollection(cd, [bottom])
        # bottoms merge, the top fiber stays split: 6 nodes in two chains
        assert len(result.F.nodes) == 6
        assert len(result.F.min_nodes()) == 1
        assert len(result.F.max_nodes()) == 2

    def test_non_fiber_rejected(self, diamond):
        cd = chain_decomposition(diamond)
        with pytest.raises(NotASubcollection):
            glue_D_along_subcollection(cd, [frozenset(list(cd.D.nodes)[:2])])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_subcollections(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 7, 0.35)
        cd = chain_decomposition(X)
        fibers = list(cd.fibers())
        chosen = [E for E in fibers if rng.random() < 0.5]
        result = glue_D_along_subcollection(cd, chosen)
        for d in cd.D.nodes:
            assert result.f_F(result.t_F(d)) == cd.phi(d)
        assert verify_gluing(cd.D, result.F, result.t_F, chosen)


class TestSplitForCover:
    def test_unique_cover_gives_identity(self):
        P = chain("a", "b", "c")
        result = split_for_cover(P, "a", "b")
        assert result.F == P
        assert result.f_F.assignment == {x: x for x in P.nodes}

    def test_unique_cover_on_several_chains_gives_identity(self):
        # u sits on two maximal chains (a has two covers) but has the single
        # cover a, so there is nothing to split
        P = build(
            ["a", "s", "t", "u"],
            [("u", "a"), ("a", "t"), ("a", "s")],
        )
        result = split_for_cover(P, "u", "a")
        assert result.F == P
        assert result.f_F.assignment == {x: x for x in P.nodes}

    def test_gext_f1_single_split_is_seven_nodes(self, gext_f1):
        result = split_for_cover(gext_f1, "6", "5")
        assert len(result.F.nodes) == 7
        copies = result.f_F.fiber("6")
        assert len(copies) == 2
        # each copy is pinned under exactly one of node 6's former covers
        cover_images = sorted(
            result.f_F(min(result.F.upper_covers(c))) for c in sorted(copies)
        )
        assert cover_images == ["2", "5"]
        # the other shared minimum, 7, is still a single shared node
        assert len(result.f_F.fiber("7")) == 1

    def test_diamond_split_recovers_split_fixture(self, diamond, diamond_split):
        result = split_for_cover(diamond, "6", "2")
        iso = find_isomorphism(result.F, diamond_split)
        assert iso is not None and is_isomorphism(iso)

    def test_t_F_with_swapped_copies_is_rejected(self, diamond):
        # swapping u1's two copies keeps f_F . t_F = phi and every lift; only
        # the order check on t_F sees that a chain now climbs from the wrong copy
        cd = chain_decomposition(diamond)
        result = split_for_cover(diamond, "6", "2")
        a, b = sorted(result.f_F.fiber("6"))
        swap = {a: b, b: a}
        swapped = {d: swap.get(v, v) for d, v in result.t_F.assignment.items()}
        bad = SplitResult(result.F, PosetMap(cd.D, result.F, swapped), result.f_F)
        _check_split(cd, result)
        with pytest.raises(InternalInvariantError, match="t_F is not order-preserving"):
            _check_split(cd, bad)

    def test_not_minimal_rejected(self, diamond):
        with pytest.raises(NotMinimal):
            split_for_cover(diamond, "5", "4")

    def test_not_a_cover_rejected(self, diamond):
        with pytest.raises(NotACover):
            split_for_cover(diamond, "6", "4")

    @pytest.mark.parametrize("seed", range(25))
    def test_contract_on_random_posets(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 7, 0.35)
        mins = sorted(X.min_nodes())
        u1 = rng.choice(mins)
        ups = sorted(X.upper_covers(u1))
        if not ups:
            return
        u2 = rng.choice(ups)
        result = split_for_cover(X, u1, u2)
        pre = result.f_F.fiber(u1)
        assert verify_gluing(result.F, X, result.f_F, (pre,))
        assert pre <= result.F.min_nodes()
        for v1 in pre:
            for v2 in result.f_F.fiber(u2):
                if result.F.leq(v1, v2):
                    assert result.F.upper_covers(v1) == {v2}

from __future__ import annotations

import random
from itertools import combinations

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
    compose,
    identity_map,
    find_isomorphism,
    glue_D_along_subcollection,
    is_isomorphism,
    split_for_cover,
    verify_gluing,
    verify_min_max_lifting,
)
from posetglue import chains
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


def lifted_copy(X, u1, u2, F, f_F):
    """F and f_F with a fresh node "w" put under u1's least copy that is not
    under u2, and sent to u1: that copy is no longer minimal, X is still a
    gluing of the result, and the copy under u2 is untouched."""
    v = min(v for v in f_F.fiber(u1) if f_F(min(F.upper_covers(v))) != u2)
    F2 = build([*F.nodes, "w"], [*F.covers, ("w", v)])
    return v, F2, PosetMap(F2, X, {**f_F.assignment, "w": u1})


class TestSplitChecks:
    """Each check of the split paths fires on a result tampered to fail it
    alone. Two facts are not checked: u1's copies are minimal (the lift of
    the minima implies it, since u1 is minimal in X) and f_F . t_F = phi
    (both paths build t_F so that it holds)."""

    def test_a_copy_of_u1_off_the_minima_fails_the_extrema_check(self, small_posets):
        rejected = 0
        for X in (P for P in small_posets if len(P) <= 5):
            for u1 in sorted(X.min_nodes()):
                if len(X.upper_covers(u1)) < 2:
                    continue
                cd = chain_decomposition(X)
                for u2 in sorted(X.upper_covers(u1)):
                    result = split_for_cover(X, u1, u2)
                    v, F2, f2 = lifted_copy(X, u1, u2, result.F, result.f_F)
                    assert v not in F2.min_nodes()
                    assert verify_gluing(F2, X, f2, (f2.fiber(u1),))
                    bad = SplitResult(F2, PosetMap(cd.D, F2, result.t_F.assignment), f2)
                    with pytest.raises(InternalInvariantError, match="split broke the min/max"):
                        _check_split(cd, bad)
                    rejected += 1
        assert rejected == 119

    def test_split_for_cover_rejects_a_copy_off_the_minima(self, monkeypatch, diamond):
        real = chains._split_by_rank
        monkeypatch.setattr(
            chains, "_split_by_rank", lambda X, u1, u2: lifted_copy(X, u1, u2, *real(X, u1, u2))[1:]
        )
        with pytest.raises(InternalInvariantError, match="split broke the min/max"):
            split_for_cover(diamond, "6", "2")

    def test_a_dropped_cover_fails_the_gluing_check(self):
        # F keeps the chain a < b and leaves c isolated, so t_F and f_F are
        # poset maps and f_F is onto, but the quotient misses the cover (b, c).
        # f_F . t_F is not phi here; with t_F a poset map, the gluing fails
        # only then or when f_F is not a poset map.
        X = chain("a", "b", "c")
        cd = chain_decomposition(X)
        F = build(["x", "y", "z"], [("x", "y")])
        t_F = PosetMap(cd.D, F, dict(zip(cd.chains[0], ["x", "y", "y"])))
        bad = SplitResult(F, t_F, PosetMap(F, X, {"x": "a", "y": "b", "z": "c"}))
        with pytest.raises(InternalInvariantError, match="X is not a gluing of F: comparison"):
            _check_split(cd, bad)

    def test_a_split_that_splits_nothing_fails_the_unique_cover_check(
        self, monkeypatch, diamond
    ):
        monkeypatch.setattr(chains, "_split_by_rank", lambda X, u1, u2: (X, identity_map(X)))
        with pytest.raises(
            InternalInvariantError, match="'2' is not the unique cover of split copy '6'"
        ):
            split_for_cover(diamond, "6", "2")

    def test_f_after_t_is_phi_on_both_split_paths(self, small_posets):
        splits = glues = 0
        for X in small_posets:
            cd = chain_decomposition(X)
            for u1 in sorted(X.min_nodes()):
                for u2 in sorted(X.upper_covers(u1)):
                    result = split_for_cover(X, u1, u2)
                    assert compose(result.t_F, result.f_F).assignment == cd.phi.assignment
                    splits += 1
            fibers = cd.fibers()
            for k in range(len(fibers) + 1):
                for chosen in combinations(fibers, k):
                    result = glue_D_along_subcollection(cd, chosen)
                    assert compose(result.t_F, result.f_F).assignment == cd.phi.assignment
                    glues += 1
        assert (splits, glues) == (1269, 6373)

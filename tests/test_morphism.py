from __future__ import annotations

from itertools import permutations

import pytest

from posetglue import (
    NotEmbedding,
    NotPosetMap,
    PosetMap,
    UnknownNode,
    build,
    compose,
    find_isomorphism,
    identity_map,
    inclusion_map,
    is_embedding,
    is_isomorphism,
    is_poset_map,
    is_saturated_embedding,
    is_saturated_subset,
    poset_map_violation,
    saturation_violation,
    wrap,
    WrapOptions,
)
from posetglue.generate import random_poset


def chain(*ids):
    return build(ids, list(zip(ids, ids[1:])))


def brute_has_isomorphism(P, Q):
    if len(P.nodes) != len(Q.nodes):
        return False
    for perm in permutations(Q.nodes):
        send = dict(zip(P.nodes, perm))
        if all(
            P.leq(a, b) == Q.leq(send[a], send[b]) for a in P.nodes for b in P.nodes
        ):
            return True
    return False


class TestPosetMap:
    def test_totality_enforced(self):
        P = chain("a", "b")
        with pytest.raises(UnknownNode):
            PosetMap(P, P, {"a": "a"})
        with pytest.raises(UnknownNode):
            PosetMap(P, P, {"a": "a", "b": "z"})

    def test_identity_is_poset_map(self, x9):
        assert is_poset_map(identity_map(x9))

    def test_constant_is_poset_map(self, x9):
        point = build(["p"], [])
        assert is_poset_map(PosetMap(x9, point, {x: "p" for x in x9.nodes}))

    def test_swap_two_chain_is_not(self):
        P = chain("a", "b")
        f = PosetMap(P, P, {"a": "b", "b": "a"})
        assert not is_poset_map(f)
        assert poset_map_violation(f) == ("a", "b")


class TestEmbedding:
    def test_identity(self, x9):
        assert is_embedding(identity_map(x9))

    def test_constant_from_antichain_fails(self):
        A = build(["a", "b"], [])
        point = build(["p"], [])
        f = PosetMap(A, point, {"a": "p", "b": "p"})
        assert not is_embedding(f)

    def test_requires_poset_map(self):
        P = chain("a", "b")
        with pytest.raises(NotPosetMap):
            is_embedding(PosetMap(P, P, {"a": "b", "b": "a"}))

    def test_saturated_chain_inclusion_into_x9(self, x9):
        ids = ("10", "9", "8", "6", "5", "4", "1")
        C = x9.induced(ids)
        f = inclusion_map(C, x9)
        # exhaustive pair check, independent of the library predicate
        assert all(
            (not x9.leq(x, y)) or C.leq(x, y) for x in ids for y in ids
        )
        assert is_embedding(f)
        assert is_saturated_embedding(f)


class TestSaturatedEmbedding:
    def test_identity(self, diamond):
        assert is_saturated_embedding(identity_map(diamond))

    def test_skipping_a_level_fails(self):
        two = chain("a", "b")
        three = chain("x", "y", "z")
        f = PosetMap(two, three, {"a": "x", "b": "z"})
        assert not is_saturated_embedding(f)
        assert saturation_violation(f) == ("a", "b")

    def test_inclusion_into_single_top_extension(self, x9):
        K, inclusion = wrap(x9, WrapOptions())
        assert is_saturated_embedding(inclusion)

    def test_requires_embedding(self):
        A = build(["a", "b"], [])
        point = build(["p"], [])
        with pytest.raises(NotEmbedding):
            is_saturated_embedding(PosetMap(A, point, {"a": "p", "b": "p"}))


class TestIsomorphismPredicate:
    def test_identity(self, x9):
        assert is_isomorphism(identity_map(x9))

    def test_proper_inclusion_is_not(self, x9):
        C = x9.induced(("10", "9", "8"))
        assert not is_isomorphism(inclusion_map(C, x9))


class TestSaturatedSubset:
    def test_complete_subset_is_saturated(self, x9):
        for x in x9.nodes:
            assert is_saturated_subset(x9, x9.down_set(x))

    def test_chain_gap_is_not(self):
        assert not is_saturated_subset(chain("a", "b", "c"), {"a", "c"})

    def test_image_of_saturated_embedding(self, x9):
        K, inclusion = wrap(x9, WrapOptions(single_min=True))
        assert is_saturated_subset(K, inclusion.image())


class TestFindIsomorphism:
    def test_identity_case(self, diamond):
        iso = find_isomorphism(diamond, diamond)
        assert iso is not None and is_isomorphism(iso)

    def test_chain_vs_antichain(self):
        assert find_isomorphism(chain("a", "b", "c"), build(["x", "y", "z"], [])) is None

    def test_diamond_relabeled(self, diamond):
        relabeled = build(
            ["p", "q", "r", "s", "t"],
            [("t", "p"), ("s", "t"), ("q", "s"), ("q", "r"), ("r", "p")],
        )
        iso = find_isomorphism(diamond, relabeled)
        assert iso is not None
        assert is_isomorphism(iso)

    def test_deterministic(self, diamond):
        a = find_isomorphism(diamond, diamond)
        b = find_isomorphism(diamond, diamond)
        assert a.assignment == b.assignment

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_brute_force(self, seed):
        n = 5 + seed % 3  # up to 7 nodes, where all bijections stay checkable
        P = random_poset(seed, n, 0.4)
        Q = random_poset(seed + 1000, n, 0.4)
        found = find_isomorphism(P, Q)
        assert (found is not None) == brute_has_isomorphism(P, Q)
        if found is not None:
            assert is_isomorphism(found)

    @pytest.mark.parametrize("seed", range(20))
    def test_finds_relabelings(self, seed):
        import random

        P = random_poset(seed, 6, 0.35)
        rng = random.Random(seed)
        names = [f"m{i}" for i in range(6)]
        rng.shuffle(names)
        send = dict(zip(P.nodes, names))
        Q = build(names, [(send[a], send[b]) for a, b in P.covers])
        iso = find_isomorphism(P, Q)
        assert iso is not None and is_isomorphism(iso)


class TestSaturationBothWays:
    @pytest.mark.parametrize("seed", range(15))
    def test_cover_iff_image_cover(self, seed):
        X = random_poset(seed, 5, 0.4)
        K, f = wrap(X, WrapOptions(min_height=1))
        assert is_saturated_embedding(f)
        for a in X.nodes:
            for b in X.nodes:
                assert X.is_cover(a, b) == K.is_cover(f(a), f(b))

    @pytest.mark.parametrize("seed", range(15))
    def test_image_is_saturated_subset(self, seed):
        X = random_poset(seed, 6, 0.35)
        K, f = wrap(X, WrapOptions(single_min=True))
        assert is_saturated_subset(K, f.image())

    @pytest.mark.parametrize("seed", range(15))
    def test_composition_of_saturated_embeddings(self, seed):
        X = random_poset(seed, 5, 0.4)
        K1, f = wrap(X, WrapOptions())
        K2, g = wrap(K1, WrapOptions(single_min=True, min_height=1))
        h = compose(f, g)
        assert is_saturated_embedding(f)
        assert is_saturated_embedding(g)
        assert is_saturated_embedding(h)


MORPHISM_INPUT_CHECKS = {
    "composition-mismatch": (
        lambda: compose(identity_map(chain("a", "b")), identity_map(chain("x", "y"))),
        UnknownNode,
        "composition mismatch: f.target != g.source",
    ),
    "isomorphism-of-a-non-embedding": (
        lambda: is_isomorphism(
            PosetMap(build(["a", "b"], []), chain("a", "b"), {"a": "a", "b": "b"})
        ),
        NotEmbedding,
        "not an embedding: order reflection fails at ('a', 'b')",
    ),
}


@pytest.mark.parametrize("case", sorted(MORPHISM_INPUT_CHECKS))
def test_morphism_input_checks_fire(case):
    call, error, message = MORPHISM_INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

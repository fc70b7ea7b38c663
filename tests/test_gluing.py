from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue import (
    EmptySet,
    NotAntichainCollection,
    NotACover,
    NotCompatible,
    NotComplete,
    NotHeightZero,
    NotPosetMap,
    OverlappingCollection,
    PosetMap,
    UnknownNode,
    build,
    check_dim_min_preservation,
    elevate,
    find_c_sequence,
    find_isomorphism,
    glue_along_collection,
    glue_along_complete,
    identity_map,
    induced_map,
    is_c_sequence,
    is_height_zero_gluing,
    is_isomorphism,
    is_poset_map,
    lift_cover,
    verify_gluing,
)
from posetglue import gluing
from posetglue.core import Poset
from posetglue.generate import random_poset

from conftest import complete_closure


def chain(*ids):
    return build(ids, list(zip(ids, ids[1:])))


def random_min_partition(P, rng):
    """A random partition of a random subset of the minima, parts of size >= 2."""
    mins = sorted(P.min_nodes())
    rng.shuffle(mins)
    parts = []
    while len(mins) >= 2:
        k = rng.randint(2, len(mins))
        if rng.random() < 0.5:
            parts.append(frozenset(mins[:k]))
        mins = mins[k:]
    return parts


class TestGlueAlongComplete:
    def test_diamond_from_split(self, diamond_split, diamond):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        assert len(w.target.nodes) == 5
        iso = find_isomorphism(w.target, diamond)
        assert iso is not None and is_isomorphism(iso)

    def test_singleton_gives_isomorphism(self, x9):
        w = glue_along_complete(x9, {"6"})
        assert is_isomorphism(w.map)

    def test_antichain_to_point(self):
        A = build(["a", "b"], [])
        w = glue_along_complete(A, {"a", "b"})
        assert len(w.target.nodes) == 1

    def test_not_complete_rejected(self):
        with pytest.raises(NotComplete):
            glue_along_complete(chain("a", "b", "c"), {"a", "c"})

    def test_empty_rejected(self, x9):
        with pytest.raises(EmptySet):
            glue_along_complete(x9, set())

    def test_class_named_least_member(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        assert "6L" in w.target.nodes
        assert w.map("6L") == "6L" == w.map("6R")


class TestGlueAlongCollection:
    def test_empty_collection_identity(self, x9):
        w = glue_along_collection(x9, [])
        assert w.target == x9
        assert is_isomorphism(w.map)
        assert w.collection == ()

    def test_single_member_reduces_to_base_case(self, diamond_split):
        via_collection = glue_along_collection(diamond_split, [diamond_split.min_nodes()])
        via_complete = glue_along_complete(diamond_split, {"6L", "6R"})
        assert via_collection.target == via_complete.target
        assert via_collection.map.assignment == via_complete.map.assignment

    def test_growth_sequence_glue_step(self):
        # six-node stage of the growth sequence: glue the two bottom nodes
        P = build(
            ["1", "4", "5", "2", "6L", "6R"],
            [("4", "1"), ("5", "4"), ("6R", "5"), ("2", "1"), ("6L", "2")],
        )
        w = glue_along_collection(P, [{"6L", "6R"}])
        assert len(w.target.nodes) == 5
        expected = build(
            ["1", "4", "5", "2", "6L"],
            [("4", "1"), ("5", "4"), ("6L", "5"), ("2", "1"), ("6L", "2")],
        )
        assert w.target == expected

    def test_overlapping_members_merge(self):
        A = build(["a", "b", "c", "d"], [])
        w = glue_along_collection(A, [{"a", "b"}, {"b", "c"}])
        assert w.collection == (frozenset({"a", "b", "c"}),)
        assert len(w.target.nodes) == 2

    def test_incomplete_member_rejected(self):
        with pytest.raises(NotComplete):
            glue_along_collection(chain("a", "b", "c"), [{"a", "c"}])

    def test_order_of_members_does_not_change_result(self, x9):
        parts = [{"10", "7"}, {"9"}, {"6"}]
        a = glue_along_collection(x9, parts)
        b = glue_along_collection(x9, list(reversed(parts)))
        assert a.target == b.target
        assert a.map.assignment == b.map.assignment


class TestHeightZero:
    def test_diamond_gluing_is_height_zero(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        assert is_height_zero_gluing(w)

    def test_down_set_gluing_is_not(self, diamond_split):
        w = glue_along_complete(diamond_split, diamond_split.down_set("5"))
        assert not is_height_zero_gluing(w)

    def test_empty_collection_is_height_zero(self, x9):
        assert is_height_zero_gluing(glue_along_collection(x9, []))


class TestInducedMap:
    def test_h_equals_map_gives_identity(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        phi = induced_map(w, w.map)
        assert phi.assignment == {y: y for y in w.target.nodes}

    def test_constant_h_gives_constant(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        point = build(["p"], [])
        h = PosetMap(diamond_split, point, {x: "p" for x in diamond_split.nodes})
        phi = induced_map(w, h)
        assert set(phi.assignment.values()) == {"p"}

    def test_drawn_map_factors_through_quotient(self, diamond_split, diamond):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        drawn = PosetMap(
            diamond_split,
            diamond,
            {"1": "1", "4": "4", "5": "5", "2": "2", "6L": "6", "6R": "6"},
        )
        phi = induced_map(w, drawn)
        assert is_isomorphism(phi)
        assert all(phi(w.map(x)) == drawn(x) for x in diamond_split.nodes)

    def test_incompatible_reports_pair(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        h = identity_map(diamond_split)
        with pytest.raises(NotCompatible) as err:
            induced_map(w, h)
        assert set(err.value.pair) == {"6L", "6R"}

    def test_uniqueness_by_brute_force(self):
        # small instance: every function target -> Z either fails to factor
        # or to preserve order, except the induced one
        X = build(["a", "b", "c"], [("a", "c"), ("b", "c")])
        w = glue_along_complete(X, {"a", "b"})
        Z = chain("z0", "z1")
        h = PosetMap(X, Z, {"a": "z0", "b": "z0", "c": "z1"})
        phi = induced_map(w, h)
        Y = w.target
        candidates = 0
        for values in product(Z.nodes, repeat=len(Y.nodes)):
            cand = dict(zip(Y.nodes, values))
            f = PosetMap(Y, Z, cand)
            if is_poset_map(f) and all(f(w.map(x)) == h(x) for x in X.nodes):
                candidates += 1
                assert cand == phi.assignment
        assert candidates == 1


class TestVerifyGluing:
    def test_canonical_output_verifies(self, x9):
        w = glue_along_collection(x9, [{"10", "7"}, {"9", "8"}])
        assert verify_gluing(x9, w.target, w.map, w.collection)

    def test_non_complete_collapse_fails(self):
        X = chain("a", "b", "c")
        # purported quotient: a and c identified; the relation it forces is
        # not antisymmetric, so no gluing exists
        Y = build(["ac", "b"], [])
        g = PosetMap(X, Y, {"a": "ac", "c": "ac", "b": "b"})
        report = verify_gluing(X, Y, g, [{"a", "c"}])
        assert not report

    def test_diamond_data_verifies(self, diamond_split, diamond):
        g = PosetMap(
            diamond_split,
            diamond,
            {"1": "1", "4": "4", "5": "5", "2": "2", "6L": "6", "6R": "6"},
        )
        assert verify_gluing(diamond_split, diamond, g, [{"6L", "6R"}])

    def test_wrong_collection_fails(self, diamond_split, diamond):
        g = PosetMap(
            diamond_split,
            diamond,
            {"1": "1", "4": "4", "5": "5", "2": "2", "6L": "6", "6R": "6"},
        )
        assert not verify_gluing(diamond_split, diamond, g, [])
        assert not verify_gluing(diamond_split, diamond, g, [{"6L", "6R"}, {"1", "4"}])

    def test_non_surjective_fails(self, diamond_split):
        g = inclusion_map = PosetMap(
            diamond_split,
            diamond_split,
            {x: x for x in diamond_split.nodes},
        )
        assert verify_gluing(diamond_split, diamond_split, g, [])
        bigger = build(list(diamond_split.nodes) + ["extra"], list(diamond_split.covers))
        g2 = PosetMap(diamond_split, bigger, {x: x for x in diamond_split.nodes})
        assert not verify_gluing(diamond_split, bigger, g2, [])

    def test_unknown_id_is_reported_not_raised(self):
        X = build(["a", "b", "c"], [("a", "c"), ("b", "c")])
        w = glue_along_collection(X, [["a", "b"]])
        report = verify_gluing(X, w.target, w.map.assignment, [["a", "b"], ["zz"]])
        assert (report.ok, report.reason) == (False, "collection references unknown nodes")
        # a member listed earlier that the map is not constant on still wins
        report = verify_gluing(X, w.target, w.map.assignment, [["a", "c"], ["zz"]])
        assert report.reason == "map is not constant on member ['a', 'c']"

    def test_map_endpoints_must_be_the_claimed_posets(self, x9):
        w = glue_along_collection(x9, [{"10", "7"}])
        for X, Y in ((w.target, w.target), (x9, x9)):
            report = verify_gluing(X, Y, w.map, w.collection)
            assert (report.ok, report.reason) == (
                False,
                "map endpoints do not match the claimed posets",
            )

    def test_an_elevation_is_certified_without_the_public_checks(self, monkeypatch, x9):
        """The pointwise checks show the members are g's fibers, so the
        quotient is rebuilt with no completeness check, one normalization and
        no public gluing."""
        calls = {"is_complete_subset": 0, "normalize_collection": 0, "glue_along_collection": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        w = elevate(x9, min(x9.min_nodes()), 2)
        down = w.Z.down_set(w.z)
        counted(Poset, "is_complete_subset")
        counted(gluing, "normalize_collection")
        counted(gluing, "glue_along_collection")
        assert verify_gluing(w.Z, w.X, w.r, (down,))
        assert calls == {"is_complete_subset": 0, "normalize_collection": 1, "glue_along_collection": 0}


class TestCSequences:
    def test_direct_comparability(self, x9):
        assert find_c_sequence(x9, [], "10", "6") == ("10", "6")

    def test_split_bottom_jump(self, diamond_split):
        seq = find_c_sequence(diamond_split, [{"6L", "6R"}], "6R", "2")
        assert seq == ("6R", "6L", "2")
        assert is_c_sequence(diamond_split, [{"6L", "6R"}], seq)

    def test_unreachable_absent(self, diamond_split):
        assert find_c_sequence(diamond_split, [], "4", "2") is None

    def test_overlap_rejected(self, diamond_split):
        with pytest.raises(OverlappingCollection):
            find_c_sequence(diamond_split, [{"6L", "6R"}, {"6R", "5"}], "6R", "2")

    def test_same_node(self, x9):
        assert find_c_sequence(x9, [], "6", "6") == ("6",)

    @pytest.mark.parametrize("seed", range(30))
    def test_existence_iff_quotient_comparability(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 7, 0.35)
        parts = random_min_partition(X, rng)
        w = glue_along_collection(X, parts)
        members = w.collection
        for x in X.nodes:
            for y in X.nodes:
                seq = find_c_sequence(X, members, x, y)
                comparable = w.target.leq(w.map(x), w.map(y))
                assert (seq is not None) == comparable
                if seq is not None:
                    assert is_c_sequence(X, members, seq)
                    assert seq[0] == x and seq[-1] == y

    @pytest.mark.parametrize("seed", range(30))
    def test_equivalence_for_general_disjoint_complete_members(self, seed):
        # members are interval closures anywhere in the poset, not just minima;
        # instances whose stagewise gluing does not exist are skipped
        rng = random.Random(seed)
        X = random_poset(seed, 8, 0.3)
        members = []
        taken: set = set()
        for _ in range(3):
            S = complete_closure(X, frozenset(rng.sample(list(X.nodes), 2)))
            if len(S) >= 2 and not (S & taken):
                members.append(S)
                taken |= S
        try:
            w = glue_along_collection(X, members)
        except NotComplete:
            return
        members = w.collection
        for x in X.nodes:
            for y in X.nodes:
                seq = find_c_sequence(X, members, x, y)
                assert (seq is not None) == w.target.leq(w.map(x), w.map(y))
                if seq is not None:
                    assert is_c_sequence(X, members, seq)


class TestLiftCover:
    def test_trivial_gluing_lifts_to_itself(self, x9):
        w = glue_along_collection(x9, [])
        for (a, b) in sorted(x9.covers):
            assert lift_cover(w, a, b) == (a, b)

    def test_diamond_lifts(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        bottom = w.map("6L")
        assert lift_cover(w, bottom, "2") == ("6L", "2")
        assert lift_cover(w, bottom, "5") == ("6R", "5")

    def test_antichain_requirement(self, x9):
        w = glue_along_complete(x9, x9.down_set("6"))
        with pytest.raises(NotAntichainCollection):
            lift_cover(w, w.map("6"), "5")

    def test_not_a_cover_rejected(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        with pytest.raises(NotACover):
            lift_cover(w, w.map("6L"), "1")

    @pytest.mark.parametrize("seed", range(30))
    def test_lifts_validate(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 7, 0.35)
        parts = random_min_partition(X, rng)
        w = glue_along_collection(X, parts)
        for (ga, gb) in sorted(w.target.covers):
            a, b = lift_cover(w, ga, gb)
            assert X.is_cover(a, b)
            assert w.map(a) == ga and w.map(b) == gb


class TestDimMinPreservation:
    def test_diamond_values(self, diamond_split):
        w = glue_along_complete(diamond_split, {"6L", "6R"})
        report = check_dim_min_preservation(w)
        assert report.dim_source == report.dim_target == 3
        assert report.min_preimage == {"6L", "6R"}

    def test_identity_witness(self, x9):
        report = check_dim_min_preservation(glue_along_collection(x9, []))
        assert report.dim_source == report.dim_target == 6

    def test_growth_sequence_final_gluing(self):
        P = build(
            ["1", "4", "5", "2", "6L", "6R"],
            [("4", "1"), ("5", "4"), ("6R", "5"), ("2", "1"), ("6L", "2")],
        )
        w = glue_along_collection(P, [{"6L", "6R"}])
        report = check_dim_min_preservation(w)
        assert report.dim_source == report.dim_target

    def test_not_height_zero_rejected(self, x9):
        w = glue_along_complete(x9, x9.down_set("6"))
        with pytest.raises(NotHeightZero):
            check_dim_min_preservation(w)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_height_zero_gluings(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 8, 0.3)
        parts = random_min_partition(X, rng)
        w = glue_along_collection(X, parts)
        assert is_height_zero_gluing(w)
        check_dim_min_preservation(w)


class TestUniversalPropertyExhaustive:
    def test_all_small_instances_factor_uniquely(self):
        # every poset X on <= 4 nodes, every complete subset, every target Z
        # on <= 3 nodes, every order-preserving h constant on the subset
        from posetglue.generate import all_posets_upto_iso
        from conftest import all_nonempty_subsets

        instances = 0
        for nx in range(1, 5):
            for X in all_posets_upto_iso(nx):
                for S in all_nonempty_subsets(X.nodes):
                    if not X.is_complete_subset(S):
                        continue
                    w = glue_along_complete(X, S)
                    Y = w.target
                    for nz in range(1, 4):
                        for Z in all_posets_upto_iso(nz):
                            free = [x for x in X.nodes if x not in S]
                            for sval in Z.nodes:
                                for rest in product(Z.nodes, repeat=len(free)):
                                    h = {x: sval for x in S}
                                    h.update(zip(free, rest))
                                    if not all(Z.leq(h[a], h[b]) for a, b in X.covers):
                                        continue
                                    phi = induced_map(w, PosetMap(X, Z, h))
                                    assert all(phi(w.map(x)) == h[x] for x in X.nodes)
                                    matches = 0
                                    for values in product(Z.nodes, repeat=len(Y.nodes)):
                                        cand = dict(zip(Y.nodes, values))
                                        if not all(
                                            Z.leq(cand[a], cand[b]) for a, b in Y.covers
                                        ):
                                            continue
                                        if all(cand[w.map(x)] == h[x] for x in X.nodes):
                                            matches += 1
                                            assert cand == phi.assignment
                                    assert matches == 1
                                    instances += 1
        assert instances == 17036  # frozen count of admissible instances


class TestAdversarialClaims:
    @pytest.mark.parametrize("seed", range(15))
    def test_perturbed_targets_fail_verification(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 6, 0.35)
        parts = random_min_partition(X, rng)
        if not parts:
            return
        w = glue_along_collection(X, parts)
        assert verify_gluing(X, w.target, w.map, w.collection)
        covers = sorted(w.target.covers)
        if covers:
            # remove one cover from the claimed target
            smaller = build(w.target.nodes, covers[1:])
            try:
                g = PosetMap(X, smaller, w.map.assignment)
            except Exception:
                return
            assert not verify_gluing(X, smaller, g, w.collection)


class TestQuotientAxiomsExhaustive:
    def test_all_posets_up_to_5_nodes_all_complete_subsets(self):
        from posetglue.generate import all_posets_upto_iso
        from conftest import all_nonempty_subsets

        for n in range(1, 6):
            for P in all_posets_upto_iso(n):
                for S in all_nonempty_subsets(P.nodes):
                    if not P.is_complete_subset(S):
                        continue
                    w = glue_along_complete(P, S)
                    Y = w.target
                    # axioms, exhaustively on the quotient
                    for a in Y.nodes:
                        assert Y.leq(a, a)
                        for b in Y.nodes:
                            if Y.leq(a, b) and Y.leq(b, a):
                                assert a == b
                            for c in Y.nodes:
                                if Y.leq(a, b) and Y.leq(b, c):
                                    assert Y.leq(a, c)


class TestSeededProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_singleton_gluing_is_isomorphism(self, seed):
        X = random_poset(seed, 5, 0.4)
        x = sorted(X.nodes)[seed % 5]
        w = glue_along_complete(X, {x})
        assert is_isomorphism(w.map)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_min_partition_gluings_verify(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 6, 0.35)
        parts = random_min_partition(X, rng)
        w = glue_along_collection(X, parts)
        assert is_height_zero_gluing(w)
        assert verify_gluing(X, w.target, w.map, w.collection)


class TestTwoStageGluing:
    @pytest.mark.parametrize("seed", range(20))
    def test_two_stage_gluing_is_one_gluing_along_merged_collection(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 7, 0.3)
        S = complete_closure(X, frozenset(rng.sample(list(X.nodes), 2)))
        if len(S) == len(X.nodes):
            return
        w1 = glue_along_complete(X, S)
        mins2 = sorted(w1.target.min_nodes())
        if len(mins2) >= 2:
            second = frozenset(mins2[:2])
        else:
            return
        w2 = glue_along_complete(w1.target, second)
        composite = PosetMap(
            X, w2.target, {x: w2.map(w1.map(x)) for x in X.nodes}
        )
        merged = [S, frozenset().union(*(w1.map.fiber(y) for y in second))]
        assert verify_gluing(X, w2.target, composite, merged)


VEE = build(["a", "b", "t"], [("a", "t"), ("b", "t")])
VEE_GLUED = glue_along_complete(VEE, ["a", "b"])

GLUING_INPUT_CHECKS = {
    "h-from-another-source": (
        lambda: induced_map(VEE_GLUED, identity_map(chain("a", "b"))),
        UnknownNode,
        "h must start at the gluing's source",
    ),
    "h-not-order-preserving": (
        lambda: induced_map(
            VEE_GLUED, PosetMap(VEE, chain("x", "y"), {"a": "y", "b": "y", "t": "x"})
        ),
        NotPosetMap,
        "h is not order-preserving at ('a', 't')",
    ),
    "c-sequence-unknown-id": (
        lambda: find_c_sequence(VEE, [["a", "zz"]], "a", "t"),
        UnknownNode,
        "collection references unknown node 'zz'",
    ),
}


@pytest.mark.parametrize("case", sorted(GLUING_INPUT_CHECKS))
def test_gluing_input_checks_fire(case):
    call, error, message = GLUING_INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message

from __future__ import annotations

import random
import re
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue import (
    BrokenEmbedding,
    ConstructionScript,
    ElevateStep,
    ElevationWitness,
    EmptyPoset,
    GlueStep,
    InputError,
    InternalInvariantError,
    NotHeightOne,
    NotMinimal,
    NotUniqueCover,
    PosetMap,
    StepMismatch,
    WrapOptions,
    ZeroDimensional,
    build,
    decompose_to_point,
    elevate,
    find_isomorphism,
    gextension_step,
    identity_map,
    is_embedding,
    is_isomorphism,
    is_poset_map,
    is_saturated_embedding,
    is_saturated_subset,
    m_count,
    reduce_dimension,
    replay,
    retract,
    verify_gluing,
    wrap,
)
from posetglue import chains, core, gext, gluing, morphism
from posetglue.cli import main
from posetglue.core import Poset
from posetglue.documents import emit_poset, emit_script, parse_script
from posetglue.gluing import fiber_collection, is_height_zero_gluing
from posetglue.generate import random_poset

from conftest import FIXTURES, benchmark_inputs, diamond_ladder, load_fixture, three_minima_script


def chain(*ids):
    return build(ids, list(zip(ids, ids[1:])))


def eta(P):
    d = P.dim()
    return sum(1 for c in P.maximal_chains() if len(c) - 1 == d)


class TestRetract:
    def test_inverted_vee_to_point(self):
        Z = build(["z", "q1", "q2"], [("q1", "z"), ("q2", "z")])
        w = retract(Z, "z")
        assert len(w.X.nodes) == 1

    def test_gext_z_retract_at_5_gives_f2_exactly(self, gext_z, gext_f2):
        w = retract(gext_z, "5")
        assert w.X == gext_f2

    def test_three_node_vee_retracts_to_point(self, gext_f1):
        V = build(["1", "2", "4"], [("4", "1"), ("2", "1")])
        w = retract(V, "1")
        assert len(w.X.nodes) == 1

    def test_height_requirement(self, diamond):
        with pytest.raises(NotHeightOne):
            retract(diamond, "4")

    def test_unique_cover_requirement(self, gext_f1):
        # 6 < 5 but 6 is also covered by 2
        with pytest.raises(NotUniqueCover) as err:
            retract(gext_f1, "5")
        assert err.value.node in {"6", "7"}

    def test_witness_invariants(self, gext_z):
        w = retract(gext_z, "5")
        assert all(w.r(w.e(x)) == x for x in w.X.nodes)
        assert w.e(w.r("5")) == "5"
        assert is_embedding(w.e)
        assert frozenset(w.Z.nodes) == w.Z.down_set("5") | w.e.image()

    def test_shares_the_up_sets_outside_the_down_set(self, gext_z, x9):
        # at "10" the class takes the fresh id "0", not the pivot's own
        for Z, z in [(gext_z, "5"), (elevate(x9, "10", 2, fresh_ids=["0", "00"]).Z, "10")]:
            down = Z.down_set(z)
            w = retract(Z, z)
            kept = [x for x in Z.nodes if x not in down]
            assert kept and all(w.X._up[x] is Z._up[x] for x in kept)


class TestLocalConstructorsValidate:
    def test_every_returned_witness_is_validated(self, monkeypatch, x9):
        """``elevate`` validates its witness; ``retract``'s witness is not
        validated on return, yet validates when asked."""
        validated = []
        original = ElevationWitness.validate

        def recording(self):
            original(self)
            validated.append(self)

        monkeypatch.setattr(ElevationWitness, "validate", recording)
        grown = elevate(x9, "10", 2)
        back = retract(grown.Z, "10")
        assert validated == [grown]
        back.validate()
        assert validated == [grown, back]

    def test_retract_makes_no_validate_call(self, monkeypatch, gext_z):
        """retract's input checks are the witness's shape fact, and its X is
        the gluing the other fact would rebuild, so it validates nothing."""
        calls = []
        original = ElevationWitness.validate

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(ElevationWitness, "validate", counted)
        retract(gext_z, "5")
        assert calls == []

    def test_validate_reads_neither_heights_nor_shared_minima(self, monkeypatch):
        """The shape of z's down-set is read in one pass over the covers, so
        an elevation builds no height table and lists no shared minima."""
        calls = {"_height_table": 0, "_shared_minima": 0}
        for owner, name in ((Poset, "_height_table"), (gext, "_shared_minima")):

            def counted(*args, _name=name, _real=getattr(owner, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, name, counted)
        X = build(["a", "b", "c"], [("a", "c"), ("b", "c")])
        elevate(X, "a", 2)
        assert calls == {"_height_table": 0, "_shared_minima": 0}


class TestMalformedWitness:
    """A witness stores only (Z, z, X), so a bad section cannot be built. An X
    that is not Z with z's down-set collapsed to one node makes ``validate``,
    ``r`` and ``e`` raise an internal invariant, never a lookup error."""

    @pytest.mark.parametrize("use", ["validate", "r", "e"])
    def test_malformed_x_is_an_invariant_error(self, gext_z, use):
        w = retract(gext_z, "5")
        assert w.Z.down_set("5") == {"5", "6R", "6RR"}
        malformed = [
            w.X.induced([x for x in w.X.nodes if x != "6L"]),  # a node missing
            w.X.induced([x for x in w.X.nodes if x != "5"]),  # the class missing
            build([*w.X.nodes, "new"], w.X.covers),  # an extra node
            build([*w.X.nodes, "6R"], w.X.covers),  # two nodes in the down-set
        ]
        for X in malformed:
            bad = ElevationWitness(w.Z, w.z, X)
            with pytest.raises(InternalInvariantError, match="collapsed to one node"):
                bad.validate() if use == "validate" else getattr(bad, use)


class TestElevate:
    def test_shares_every_up_set_of_x(self, x9):
        for p in sorted(x9.min_nodes()):
            w = elevate(x9, p, 2)
            assert all(w.Z._up[x] is x9._up[x] for x in x9.nodes)

    def test_point_by_two_gives_vee(self):
        P = build(["p"], [])
        w = elevate(P, "p", 2)
        assert len(w.Z.nodes) == 3
        assert w.Z.min_nodes() == frozenset(w.Z.nodes) - {"p"}
        assert w.Z.max_nodes() == {"p"}

    def test_growth_sequence_first_step(self):
        # the first growth move: one point sprouts two minima
        P = build(["1"], [])
        w = elevate(P, "1", 2, fresh_ids=["2", "4"])
        expected = build(["1", "2", "4"], [("2", "1"), ("4", "1")])
        assert w.Z == expected

    def test_roundtrip_retract_elevate(self, diamond):
        w = elevate(diamond, "6", 3)
        back = retract(w.Z, "6")
        iso = find_isomorphism(back.X, diamond)
        assert iso is not None and is_isomorphism(iso)

    def test_min_decomposition(self, diamond_split):
        w = elevate(diamond_split, "6L", 2)
        fresh = frozenset(w.Z.nodes) - frozenset(diamond_split.nodes)
        assert w.Z.min_nodes() == fresh | (diamond_split.min_nodes() - {"6L"})

    def test_not_minimal_rejected(self, diamond):
        with pytest.raises(NotMinimal):
            elevate(diamond, "5", 1)

    def test_fresh_id_collision_rejected(self, diamond):
        with pytest.raises(InputError):
            elevate(diamond, "6", 1, fresh_ids=["5"])

    @pytest.mark.parametrize("seed", range(15))
    def test_dim_relation(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 6, 0.35)
        p = rng.choice(sorted(X.min_nodes()))
        w = elevate(X, p, rng.randint(1, 3))
        up_depth = max(len(c) - 1 - c.index(p) for c in X.maximal_chains() if p in c)
        assert w.Z.dim() == max(X.dim(), up_depth + 1)


class TestElevationUniqueness:
    @pytest.mark.parametrize("seed", range(20))
    def test_section_unique_among_candidates(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 5, 0.4)
        p = rng.choice(sorted(X.min_nodes()))
        w = elevate(X, p, rng.randint(1, 3))
        fibers = [sorted(w.r.fiber(x)) for x in w.X.nodes]
        count = 0
        for choice in product(*fibers):
            cand = PosetMap(w.X, w.Z, dict(zip(w.X.nodes, choice)))
            if not is_poset_map(cand):
                continue
            if cand(w.r(w.z)) != w.z:
                continue
            count += 1
            assert cand.assignment == w.e.assignment
        assert count == 1


class TestMCount:
    def test_vee_apex(self, vee):
        assert m_count(vee, "t") == 0

    def test_gext_f1_node5(self, gext_f1):
        assert m_count(gext_f1, "5") == 2

    def test_gext_z_node5(self, gext_z):
        assert m_count(gext_z, "5") == 0

    def test_unknown_node_rejected(self, gext_f1):
        from posetglue import UnknownNode

        with pytest.raises(UnknownNode):
            m_count(gext_f1, "zz")

    def test_matches_direct_enumeration(self, gext_f1):
        expected = sum(
            1
            for u in gext_f1.min_nodes()
            if gext_f1.lt(u, "5") and gext_f1.upper_covers(u) != {"5"}
        )
        assert m_count(gext_f1, "5") == expected == 2


class TestGExtensionStep:
    def test_vee_direct(self, vee):
        gx = gextension_step(vee)
        assert len(gx.f2.nodes) == 1
        assert gx.Z == vee
        assert gx.h.assignment == {x: x for x in vee.nodes}

    def test_gext_f1_matches_figures(self, gext_f1, gext_z, gext_f2):
        gx = gextension_step(gext_f1)
        assert find_isomorphism(gx.Z, gext_z) is not None
        assert find_isomorphism(gx.f2, gext_f2) is not None
        witness = gx.gluing_witness()
        assert is_height_zero_gluing(witness)
        assert verify_gluing(gx.Z, gext_f1, gx.h, witness.collection)
        assert is_embedding(gx.e)

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ZeroDimensional):
            gextension_step(build(["a", "b"], []))

    @pytest.mark.parametrize("seed", range(25))
    def test_verified_g_extension_on_random_posets(self, seed):
        X = random_poset(seed, 7, 0.35)
        if X.dim() == 0:
            return
        gx = gextension_step(X)
        # elevation half
        assert gx.retraction.Z == gx.Z
        assert gx.retraction.X == gx.f2
        # gluing half
        assert is_height_zero_gluing(gx.gluing_witness())
        assert verify_gluing(gx.Z, X, gx.h, fiber_collection(gx.h))


class TestReduceDimension:
    def test_vee(self, vee):
        seq = reduce_dimension(vee)
        assert len(seq) == 2
        assert seq[0] == vee
        assert len(seq[1].nodes) == 1

    def test_gext_f1_drops_within_eta_plus_one_steps(self, gext_f1):
        assert gext_f1.dim() == 3
        assert eta(gext_f1) == 2
        seq = reduce_dimension(gext_f1)
        assert seq[-1].dim() < 3
        assert len(seq) - 1 <= eta(gext_f1) + 1

    def test_chain_single_step(self):
        P = chain("a", "b", "c", "d")
        seq = reduce_dimension(P)
        assert len(seq) == 2
        assert seq[1].dim() == P.dim() - 1

    def test_zero_dimensional_rejected(self):
        with pytest.raises(ZeroDimensional):
            reduce_dimension(build(["a"], []))

    @pytest.mark.parametrize("seed", range(20))
    def test_lex_decrease_every_step(self, seed):
        X = random_poset(seed, 7, 0.3)
        if X.dim() == 0:
            return
        gx = gextension_step(X)
        assert (gx.f2.dim(), eta(gx.f2)) < (X.dim(), eta(X))


class TestWrap:
    def test_point_single_max(self):
        P = build(["p"], [])
        K, f = wrap(P, WrapOptions())
        assert len(K.nodes) == 2
        assert K.dim() == 1

    def test_single_max_adds_exactly_one_node_even_if_present(self, diamond):
        # diamond already has one maximal node; the fresh top is still added
        K, f = wrap(diamond, WrapOptions())
        assert len(K.nodes) == len(diamond.nodes) + 1
        assert len(K.max_nodes()) == 1

    def test_x9_full_padding(self, x9):
        K, f = wrap(
            x9,
            WrapOptions(single_min=True, min_height=2, min_dim=3),
        )
        assert len(K.nodes) >= 12
        assert len(K.max_nodes()) == 1
        assert len(K.min_nodes()) == 1
        assert K.dim() >= 3
        assert all(K.height(x) >= 2 for x in x9.nodes)
        assert is_saturated_embedding(f)
        assert is_saturated_subset(K, f.image())

    def test_min_dim_padding(self):
        P = build(["p"], [])
        K, f = wrap(P, WrapOptions(min_dim=4))
        assert K.dim() >= 4

    # wrap checks nothing at runtime, so these cases carry its guarantees.
    # Without single_min, the least minimum need not start a longest chain:
    # seeds 3, 4, 5, 9 and 14 fell short of min_dim=8 when the dimension
    # chain hung under it.
    @pytest.mark.parametrize(
        "seed, options",
        [
            pytest.param(seed, WrapOptions(single_min=True, min_height=2, min_dim=3), id=str(seed))
            for seed in range(15)
        ]
        + [
            pytest.param(seed, WrapOptions(min_height=2, min_dim=8), id=f"min-dim-8-{seed}")
            for seed in range(15)
        ],
    )
    def test_inclusion_saturated_on_random_posets(self, seed, options):
        X = random_poset(seed, 6, 0.35)
        K, f = wrap(X, options)
        padded = X.dim() + options.min_height + options.single_min + 1
        assert K.dim() == max(padded, options.min_dim)
        assert all(K.height(x) >= options.min_height for x in X.nodes)
        assert is_saturated_embedding(f)
        assert is_saturated_subset(K, f.image())

    @pytest.mark.parametrize(
        "options",
        [dict(min_height=-3), dict(min_height="2"), dict(min_dim=2.5), dict(min_dim=True)],
    )
    def test_bad_counts_are_input_errors(self, x9, options):
        with pytest.raises(InputError, match="non-negative integer"):
            decompose_to_point(x9, WrapOptions(**options))


class TestDecomposeToPoint:
    def test_point(self):
        P = build(["p"], [])
        script = decompose_to_point(P)
        # the wrap adds a top, so one elevate step rebuilds the 2-chain
        assert len(script.steps) == 1
        assert isinstance(script.steps[0], ElevateStep)
        final, report = replay(script)
        assert len(final.nodes) == 2

    def test_two_antichain(self):
        P = build(["a", "b"], [])
        script = decompose_to_point(P)
        assert len(script.steps) == 1
        assert len(script.steps[0].fresh_ids) == 2
        final, _ = replay(script)
        assert len(final.nodes) == 3

    def test_x9_certificate(self, x9):
        script = decompose_to_point(x9)
        final, report = replay(script)
        assert final == script.final
        image = set(script.embedding.values())
        assert is_saturated_subset(final, image)
        tracked = PosetMap(x9, final, script.embedding)
        assert is_saturated_embedding(tracked)

    def test_adversarial_input_ids(self):
        # input ids shaped like the generated ones must not collide
        P = build(["p0", "q1.0", "w.0"], [("q1.0", "p0"), ("w.0", "p0")])
        script = decompose_to_point(P)
        final, _ = replay(script)
        tracked = PosetMap(P, final, script.embedding)
        assert is_saturated_embedding(tracked)

    def test_lost_tracked_ids_fail_the_isomorphism_check(self, monkeypatch, x9):
        """With every gluing's fibers dropped, the tracked ids no longer name
        the padded poset's nodes, and the isomorphism check's first clause
        catches it."""
        monkeypatch.setattr(gext, "fiber_collection", lambda h: ())
        with pytest.raises(
            InternalInvariantError, match="forward run is not isomorphic to the padded poset"
        ):
            decompose_to_point(x9)

    def test_lost_tracked_ids_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(gext, "fiber_collection", lambda h: ())
        code = main(["decompose", str(FIXTURES / "x9.poset")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "internal invariant violated: forward run is not isomorphic to the padded poset\n"
        )


@pytest.fixture(scope="module")
def wide_seed_one():
    """The posets of the benchmark's `wide` workload at seed 1 (drawing them
    lists chains, so module scope sets them up before any patching)."""
    return [inp.poset for inp in benchmark_inputs("wide", 1)]


def certify(X):
    """decompose -> emit -> parse -> replay; the tracked map must be a
    saturated embedding of X."""
    script = decompose_to_point(X)
    parsed = parse_script(emit_script(script))
    final, _ = replay(parsed)
    assert parsed.source == X
    assert is_saturated_embedding(PosetMap(X, final, parsed.embedding))


class TestPolynomialSplit:
    @pytest.fixture
    def no_chain_listing(self, monkeypatch):
        """Listing maximal chains raises, so a regression fails at once
        instead of enumerating 2**30 chains."""

        def refuse(*args, **kwargs):
            raise AssertionError("maximal chains were listed")

        monkeypatch.setattr(Poset, "maximal_chains", refuse)
        monkeypatch.setattr(chains, "chain_decomposition", refuse)

    def test_decompose_and_replay_never_list_chains(self, wide_seed_one, no_chain_listing):
        for X in [diamond_ladder(12), *wide_seed_one]:
            certify(X)

    def test_thirty_rung_ladder_certifies_within_budget(self, no_chain_listing):
        X = diamond_ladder(30)  # 91 nodes, 2**30 maximal chains
        start = time.perf_counter()
        certify(X)
        assert time.perf_counter() - start < 10.0


def counted_calls(monkeypatch, module, name):
    """A list that grows by one per call of ``module.name``, counted through
    every posetglue module that binds it."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "posetglue" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def build_calls(monkeypatch):
    """A list that grows by one per ``core.build`` call."""
    return counted_calls(monkeypatch, core, "build")


class TestLocalQuotients:
    """Retractions and height-zero gluings are quotients along down-sets,
    which ``core._glued`` derives without ``build``, so certifying a chain
    builds only the padded input and the one-point start."""

    def test_certifying_a_chain_builds_twice_and_replaying_it_never(self, build_calls):
        X = random_poset(1, 60, 1.0)
        build_calls.clear()
        script = decompose_to_point(X)
        # the padded input and the one-point start
        assert len(build_calls) == 2
        build_calls.clear()
        replay(script)
        assert build_calls == []

    def test_replaying_x9_never_builds(self, x9, build_calls):
        script = decompose_to_point(x9)
        assert any(isinstance(step, GlueStep) for step in script.steps)
        build_calls.clear()
        replay(script)
        assert build_calls == []


class TestOneForwardPath:
    """decompose_to_point translates its backward run into recipes and runs
    them through replay's step loop: the forward path exists once, and its
    elevations are verified there."""

    @pytest.mark.parametrize(
        "which,expected",
        [("chain-60", 60), ("x9", 9), ("ladder-3", 10)],
        ids=["chain-60", "x9", "ladder-3"],
    )
    def test_verify_gluing_calls_per_decompose(self, monkeypatch, x9, which, expected):
        X = {"chain-60": random_poset(1, 60, 1.0), "x9": x9, "ladder-3": diamond_ladder(3)}[which]
        calls = counted_calls(monkeypatch, gext, "verify_gluing")
        script = decompose_to_point(X)
        # one per elevation, in its validate; glue steps are not checked,
        # as replay compares the covers they reach with the final
        assert len(calls) == expected
        assert expected == sum(isinstance(step, ElevateStep) for step in script.steps)

    @pytest.mark.parametrize(
        "which,expected", [("chain-60", 60), ("x9", 9)], ids=["chain-60", "x9"]
    )
    def test_each_elevation_is_validated_once(self, monkeypatch, x9, which, expected):
        X = random_poset(1, 60, 1.0) if which == "chain-60" else x9
        validated = []
        original = ElevationWitness.validate

        def recording(self):
            original(self)
            validated.append(self)

        monkeypatch.setattr(ElevationWitness, "validate", recording)
        script = decompose_to_point(X)
        # by the step loop's elevate, never by the backward pass's retraction
        assert len(validated) == expected
        assert expected == sum(isinstance(step, ElevateStep) for step in script.steps)

    def test_replaying_x9_builds_no_quotient(self, monkeypatch):
        # each elevation's gluing is decided by a node count and the
        # canonical quotient's covers alone, read in one ``_glued_covers``
        # call; g's fibers are read and a quotient poset is built only to
        # name a fault
        script = parse_script(X9_SCRIPT.read_text())
        checks = counted_calls(monkeypatch, gext, "verify_gluing")
        quotients = counted_calls(monkeypatch, gluing, "_quotient")
        fibers = counted_calls(monkeypatch, gluing, "fiber_collection")
        # gluing's binding only: glue steps reach the rule through core._glued
        covers = []
        real_covers = gluing._glued_covers
        monkeypatch.setattr(gluing, "_glued_covers", lambda *a: covers.append(a) or real_covers(*a))
        replay(script)
        assert len(checks) == sum(isinstance(step, ElevateStep) for step in script.steps) == 9
        assert quotients == [] and fibers == []
        assert len(covers) == 9

    @pytest.mark.parametrize("seed", range(4))
    def test_each_step_is_executed_once(self, monkeypatch, x9, seed):
        X = x9 if seed == 0 else random_poset(seed, 30, 0.15)
        # gext's own bindings; _glued is counted only on glue steps, whose
        # parts are minima: gextension_step's down-set collapse calls it
        # too, on a down-set that holds its height-one pivot
        calls = {"_run_steps": 0, "elevate": 0, "_glued": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(gext, name)):
                if _name != "_glued" or all(C <= args[0].min_nodes() for C in args[1]):
                    calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gext, name, counted)
        script = decompose_to_point(X)
        kinds = [type(step) for step in script.steps]
        assert kinds.count(GlueStep) > 0
        assert calls == {
            "_run_steps": 1,
            "elevate": kinds.count(ElevateStep),
            "_glued": kinds.count(GlueStep),
        }

    def test_decompose_does_not_certify_its_embedding(self, monkeypatch, x9):
        # the embedding is sigma on X, which wrap makes a saturated subset
        # of K; replay certifies it
        calls = counted_calls(monkeypatch, gext, "_verify_certificate")
        script = decompose_to_point(x9)
        assert calls == []
        replay(script)
        assert calls == [(script,)]

    @pytest.fixture
    def corrupt_embedding(self, monkeypatch):
        """decompose's script carries x9's embedding with two values swapped."""
        real = gext.ConstructionScript

        def corrupted(**fields):
            bad = dict(fields["embedding"])
            ks = sorted(bad)
            bad[ks[0]], bad[ks[1]] = bad[ks[1]], bad[ks[0]]
            return real(**{**fields, "embedding": bad})

        monkeypatch.setattr(gext, "ConstructionScript", corrupted)

    def test_own_broken_embedding_fails_replay(self, x9, corrupt_embedding):
        # decompose does not certify its embedding; replay does
        script = decompose_to_point(x9)
        with pytest.raises(BrokenEmbedding, match="tracked map"):
            replay(script)

    def test_own_broken_embedding_replay_exits_1(self, capsys, tmp_path, corrupt_embedding):
        assert main(["decompose", str(FIXTURES / "x9.poset")]) == 0
        path = tmp_path / "x9.script"
        path.write_text(capsys.readouterr().out)
        code = main(["replay", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: tracked map")
        assert captured.err.count("\n") == 1

    @pytest.fixture
    def merging_sigma(self, monkeypatch):
        """Two 2-chains, 0 < 3 and 1 < 2, whose first backward step reports
        one extra fiber {0, 1}: two minima with distinct, incomparable
        upper covers, which its gluing h keeps apart. No step of this
        descent splits, and only a step that split has its fibers read, so
        the first step also claims a split, with the identity as h. The last
        forward step glues them, so sigma sends both to one id, and the
        final poset has one node fewer than the padded poset but as many
        covers, each the image of one of the padded poset's."""
        real_step = gext.gextension_step
        steps = []

        def reporting_a_split(F):
            gx = real_step(F)
            steps.append(gx)
            assert gx.split_gluing is None
            return replace(gx, split_gluing=identity_map(gx.Z)) if len(steps) == 1 else gx

        monkeypatch.setattr(gext, "gextension_step", reporting_a_split)
        real = gext.fiber_collection
        calls = []

        def extra_fiber(g):
            calls.append(g)
            fibers = real(g)
            if len(calls) != 1:
                return fibers
            assert {"0", "1"} <= g.source.min_nodes() and g("0") != g("1")
            return tuple(sorted((*fibers, frozenset({"0", "1"})), key=min))

        monkeypatch.setattr(gext, "fiber_collection", extra_fiber)
        yield build(["0", "1", "2", "3"], [("0", "3"), ("1", "2")])
        assert len(steps) == 3 and len(calls) == 1

    def test_merging_sigma_fails_the_isomorphism_check(self, merging_sigma):
        with pytest.raises(
            InternalInvariantError, match="^forward run is not isomorphic to the padded poset$"
        ):
            decompose_to_point(merging_sigma)

    def test_merging_sigma_exits_3(self, capsys, tmp_path, merging_sigma):
        path = tmp_path / "two-chains.poset"
        path.write_text(emit_poset(merging_sigma))
        code = main(["decompose", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "internal invariant violated: forward run is not isomorphic to the padded poset\n"
        )

    @pytest.fixture
    def corrupt_retraction(self, monkeypatch):
        """The first G-extension step whose f2 has a cover from a node with
        two upper covers returns f2 without the least such cover, which leaves
        f2 connected, so the backward pass still reaches a point. The
        corrupted steps are collected."""
        real = gext.gextension_step
        corrupted = []

        def corrupting(F1):
            gx = real(F1)
            uppers = gx.f2._cover_lists(upper=True)
            shared = sorted((a, b) for a, b in gx.f2.covers if len(uppers[a]) > 1)
            if corrupted or not shared:
                return gx
            bad = replace(gx, f2=build(gx.f2.nodes, gx.f2.covers - {shared[0]}))
            corrupted.append(bad)
            return bad

        monkeypatch.setattr(gext, "gextension_step", corrupting)
        return corrupted

    def test_corrupted_retraction_is_an_internal_error(self, x9, corrupt_retraction):
        # gextension_step does not validate its retractions; decompose's
        # forward certification catches the bad one, which validate rejects
        with pytest.raises(InternalInvariantError, match="not isomorphic to the padded poset"):
            decompose_to_point(x9)
        [bad] = corrupt_retraction
        with pytest.raises(InternalInvariantError):
            bad.retraction.validate()

    def test_corrupted_retraction_exits_3(self, capsys, corrupt_retraction):
        code = main(["decompose", str(FIXTURES / "x9.poset")])
        captured = capsys.readouterr()
        assert len(corrupt_retraction) == 1
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal invariant violated: ")
        assert captured.err.count("\n") == 1

    def test_own_step_mismatch_is_an_internal_error(self, monkeypatch, x9):
        # fresh ids that repeat the target, already taken, make the first
        # elevation fail
        class RepeatingTarget(gext.ElevateStep):
            def __init__(self, target, fresh_ids):
                super().__init__(target, (target,) * len(fresh_ids))

        monkeypatch.setattr(gext, "ElevateStep", RepeatingTarget)
        with pytest.raises(InternalInvariantError, match="step 1: elevate failed") as info:
            decompose_to_point(x9)
        assert isinstance(info.value.__cause__, StepMismatch)


class TestDescentInvariant:
    """``_descend`` requires each step to lower ``(dim, eta)``; a step that
    returns its input is a bug, whoever runs the descent."""

    @pytest.fixture
    def stalled_step(self, monkeypatch):
        real = gext.gextension_step
        monkeypatch.setattr(gext, "gextension_step", lambda F: replace(real(F), f2=F))

    def test_decompose_raises(self, x9, stalled_step):
        with pytest.raises(InternalInvariantError, match=r"\(dim, eta\) failed to decrease"):
            decompose_to_point(x9)

    def test_reduce_dimension_raises(self, x9, stalled_step):
        with pytest.raises(InternalInvariantError, match=r"\(dim, eta\) failed to decrease"):
            reduce_dimension(x9)

    def test_cli_decompose_exits_3(self, capsys, stalled_step):
        code = main(["decompose", str(FIXTURES / "x9.poset")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal invariant violated: (dim, eta) failed")
        assert captured.err.count("\n") == 1


class TestDescentWork:
    """Every poset the descent visits builds its upward table once, and dim,
    eta and the pivot are read off it. A step that splits nothing builds no
    map: h is derived only when asked for."""

    @pytest.fixture
    def work(self, monkeypatch):
        """The posets whose upward table was built, in order, the steps of
        the descent, and the calls of the three map builders through gext's
        own bindings: the step loop's elevations read fibers too, inside
        ``verify_gluing``, but that is the forward path, not the descent."""
        built, steps = [], []
        real_table, real_step = Poset._upward_table, gext.gextension_step

        def recording_table(P):
            if P._upward is None:
                built.append(P)
            return real_table(P)

        def recording_step(F):
            steps.append(real_step(F))
            return steps[-1]

        monkeypatch.setattr(Poset, "_upward_table", recording_table)
        monkeypatch.setattr(gext, "gextension_step", recording_step)
        maps = {}
        for name in ("identity_map", "compose", "fiber_collection"):
            calls = maps[name] = []

            def counted(*args, _calls=calls, _real=getattr(gext, name)):
                _calls.append(args)
                return _real(*args)

            monkeypatch.setattr(gext, name, counted)
        return built, steps, maps

    @pytest.mark.parametrize(
        "make",
        [lambda: random_poset(1, 60, 1.0), lambda: load_fixture("x9.poset"), lambda: diamond_ladder(3)],
        ids=["chain-60", "x9", "ladder-3"],
    )
    def test_one_upward_table_per_visited_poset(self, work, make):
        built, steps, _ = work
        decompose_to_point(make())
        visited = [steps[0].f1, *(gx.f2 for gx in steps)]
        assert [id(P) for P in built] == [id(P) for P in visited]

    def test_chain_builds_no_maps(self, work):
        _, steps, maps = work
        decompose_to_point(random_poset(1, 60, 1.0))
        assert len(steps) == 60
        assert all(gx.split_gluing is None for gx in steps)
        assert {name: len(calls) for name, calls in maps.items()} == {
            "identity_map": 0,
            "compose": 0,
            "fiber_collection": 0,
        }

    def test_maps_only_on_steps_that_split(self, work):
        _, steps, maps = work
        decompose_to_point(load_fixture("x9.poset"))
        splitting = [gx for gx in steps if gx.split_gluing is not None]
        assert 0 < len(splitting) < len(steps)
        assert [args[0] for args in maps["fiber_collection"]] == [
            gx.split_gluing for gx in splitting
        ]
        assert maps["identity_map"] == []

    def test_h_is_derived_when_nothing_was_split(self, vee):
        gx = gextension_step(vee)
        assert gx.split_gluing is None
        assert gx.f1 is gx.Z is vee
        assert gx.h.assignment == {x: x for x in vee.nodes}
        assert gx.h is gx.h
        assert gx.down == vee.down_set(gx.pivot)


class TestDecomposeMemory:
    """``decompose_to_point`` keeps a small record per step, not the step's
    posets, so its traced peak stays within a small multiple of the peak of
    ``replay`` on the same script, which holds one poset at a time. Both
    peaks are taken in one run, so the ratio does not depend on the Python
    version's allocation sizes."""

    @staticmethod
    def traced_peak(f, *args):
        tracemalloc.start()
        try:
            result = f(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_poset(1, 200, 1.0),
            lambda: random_poset(4, 80, 0.08),
            lambda: diamond_ladder(20),
        ],
        ids=["chain-200", "random-80", "ladder-20"],
    )
    def test_decompose_peak_is_at_most_four_replays(self, make):
        X = make()
        script, decompose_peak = self.traced_peak(decompose_to_point, X)
        _, replay_peak = self.traced_peak(replay, script)
        assert decompose_peak <= 4 * replay_peak, (decompose_peak, replay_peak)


class TestUncheckedSplits:
    """``_split_by_rank`` does not check its result; on the decompose path a
    wrong split is caught by the backward pass's termination checks, the
    step loop or the final isomorphism check, and is a bug (exit 3)."""

    @pytest.fixture(params=["drop-cover", "add-cover"])
    def corrupt_split(self, request, monkeypatch):
        """Every split returns F with one of u1's copies, the least not under
        u2, corrupted: its cover dropped, or a cover added to the least
        non-minimal node incomparable with it. The corrupted splits are
        counted."""
        real = gext._split_by_rank
        corrupted = []

        def corrupting(X, u1, u2):
            F, f_F = real(X, u1, u2)
            v = min(w for w in f_F.fiber(u1) if f_F(min(F.upper_covers(w))) != u2)
            if request.param == "drop-cover":
                covers = F.covers - {(v, c) for c in F.upper_covers(v)}
            else:
                mins = F.min_nodes()
                far = min(w for w in F.nodes if w not in mins and w not in F.up_set(v))
                covers = F.covers | {(v, far)}
            bad = build(F.nodes, covers)
            corrupted.append(bad)
            return bad, PosetMap(bad, X, f_F.assignment)

        monkeypatch.setattr(gext, "_split_by_rank", corrupting)
        return corrupted

    @pytest.mark.parametrize("seed", [None, *range(20)], ids=["x9", *map(str, range(20))])
    def test_corrupted_split_is_an_internal_error(self, x9, corrupt_split, seed):
        X = x9 if seed is None else random_poset(seed, 12, 0.3)
        with pytest.raises(InternalInvariantError):
            decompose_to_point(X)
        assert corrupt_split

    def test_corrupted_split_exits_3(self, capsys, corrupt_split):
        code = main(["decompose", str(FIXTURES / "x9.poset")])
        captured = capsys.readouterr()
        assert corrupt_split
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal invariant violated: ")
        assert captured.err.count("\n") == 1


X9_SCRIPT = Path(__file__).resolve().parent / "golden" / "x9.script"


class TestCorruptedGlue:
    """Glue steps are made by ``_glued`` unchecked: replay reads the poset
    the steps reach only through its nodes and covers, which it compares
    with the parsed final, and certifies the parsed final itself. So a
    dropped cover fails that comparison (exit 1), and a wrong up-set
    changes no verdict. An implied cover kept on the class glued at step 6
    is found first by step 7, which elevates that class: its witness's
    gluing check re-glues the class's down-set, and an elevation whose
    check fails is a bug (exit 3), named by its step. ``_glued`` is checked against ``build``
    on every glue step of the sweeps in ``test_oracles.py``."""

    @pytest.fixture(params=["drop-cover", "add-to-up-set", "implied-cover"])
    def corrupt_glued(self, request, monkeypatch):
        """``gext._glued`` corrupts the least class of its result whenever
        every member lies in the source's minima, so retractions, which
        collapse a down-set with its pivot, are untouched. The class loses
        its least cover, gains an id that is no node in its up-set, or keeps
        a cover implied by one of its covers. The kind and the list of
        corrupted results are returned."""
        real = gext._glued
        corrupted = []

        def corrupting(X, members):
            Y = real(X, members)
            mins = X.min_nodes()
            if not all(C <= mins for C in members):
                return Y
            c = min(min(C) for C in members)
            uppers = {b for a, b in Y.covers if a == c}
            covers, up = Y.covers, Y._up
            if request.param == "drop-cover":
                covers = covers - {(c, min(uppers))}
            elif request.param == "add-to-up-set":
                up = {**up, c: up[c] | {"unrelated"}}
            else:
                covers = covers | {(c, min(up[c] - {c} - uppers))}
            corrupted.append(Y)
            return Poset(Y.nodes, covers, up)

        monkeypatch.setattr(gext, "_glued", corrupting)
        return request.param, corrupted

    def test_replay_reads_the_parsed_final(self, corrupt_glued):
        kind, corrupted = corrupt_glued
        script = parse_script(X9_SCRIPT.read_text())
        if kind == "add-to-up-set":
            final, _ = replay(script)
            assert final is script.final
        elif kind == "drop-cover":
            with pytest.raises(StepMismatch, match="^final poset differs from the recorded one$"):
                replay(script)
        else:
            with pytest.raises(
                InternalInvariantError, match="^step 7: r is not a gluing along the down-set"
            ):
                replay(script)
        assert corrupted

    @pytest.mark.parametrize("corrupt_glued", ["drop-cover"], indirect=True)
    def test_replay_exits_1(self, capsys, corrupt_glued):
        code = main(["replay", str(X9_SCRIPT)])
        captured = capsys.readouterr()
        assert corrupt_glued[1]
        assert code == 1
        assert captured.out == ""
        assert captured.err == "verification failed: final poset differs from the recorded one\n"

    @pytest.mark.parametrize("corrupt_glued", ["add-to-up-set"], indirect=True)
    def test_up_set_fault_replays_with_exit_0(self, capsys, corrupt_glued):
        code = main(["replay", str(X9_SCRIPT)])
        captured = capsys.readouterr()
        assert corrupt_glued[1]
        assert code == 0
        assert captured.err == ""
        assert captured.out.endswith("saturated embedding of the source verified\n")

    @pytest.mark.parametrize("corrupt_glued", ["implied-cover"], indirect=True)
    def test_implied_cover_exits_3(self, capsys, corrupt_glued):
        code = main(["replay", str(X9_SCRIPT)])
        captured = capsys.readouterr()
        assert corrupt_glued[1]
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(
            "internal invariant violated: step 7: r is not a gluing along "
        )
        assert captured.err.count("\n") == 1


class TestReplay:
    def test_unknown_step_kind_is_a_step_mismatch(self):
        start = build(["p0"], [])
        script = ConstructionScript(start=start, steps=("grow",), final=start, embedding={"p0": "p0"})
        with pytest.raises(StepMismatch, match=r"^step 1: unknown step kind$"):
            replay(script)

    def test_replay_returns_the_scripts_final(self, x9):
        # the certificate is checked on script.final, never on the poset
        # the step loop reached
        for script in (decompose_to_point(x9), parse_script(X9_SCRIPT.read_text())):
            final, _ = replay(script)
            assert final is script.final

    def test_decompose_scripts_replay(self, diamond):
        script = decompose_to_point(diamond)
        final, report = replay(script)
        assert "saturated subset verified" in str(report)

    def test_handwritten_script_rebuilds_x9_exactly(self, x9):
        from posetglue.documents import parse_script
        from conftest import FIXTURES

        script = parse_script((FIXTURES / "x9-build.script").read_text())
        final, report = replay(script)
        assert final == x9

    def test_corrupted_final_detected(self, diamond):
        script = decompose_to_point(diamond)
        for cover in sorted(script.final.covers):
            doctored = ConstructionScript(
                start=script.start,
                steps=script.steps,
                final=build(script.final.nodes, script.final.covers - {cover}),
                embedding=script.embedding,
                source=script.source,
            )
            with pytest.raises(StepMismatch, match="final poset differs"):
                replay(doctored)

    @pytest.mark.parametrize("glue_no,extra", [(0, "non-minimal"), (1, "unknown")])
    def test_tampered_glue_partition_detected(self, x9, glue_no, extra):
        script = decompose_to_point(x9)
        steps = list(script.steps)
        i = [k for k, step in enumerate(steps) if isinstance(step, GlueStep)][glue_no]
        # the node the previous step elevated is no longer minimal
        added = steps[i - 1].target if extra == "non-minimal" else "no-such-node"
        first, *rest = steps[i].partition
        steps[i] = GlueStep(partition=(first | {added}, *rest))
        doctored = ConstructionScript(
            start=script.start,
            steps=tuple(steps),
            final=script.final,
            embedding=script.embedding,
            source=script.source,
        )
        with pytest.raises(StepMismatch, match=f"step {i + 1}: glue partition is not height zero"):
            replay(doctored)

    def test_overlapping_glue_parts_detected(self, x9):
        script = decompose_to_point(x9)
        steps = list(script.steps)
        i = next(k for k, step in enumerate(steps) if isinstance(step, GlueStep))
        # glue_along_collection would merge the repeated part into its twin
        # and reach the recorded final poset
        steps[i] = GlueStep(partition=(*steps[i].partition, steps[i].partition[0]))
        first = min(steps[i].partition[0])
        with pytest.raises(
            StepMismatch, match=f"step {i + 1}: glue partition parts overlap at '{first}'"
        ):
            replay(replace(script, steps=tuple(steps)))

    @pytest.mark.parametrize(
        "last,message",
        [
            # glue_along_collection would drop the one-id part and reach the
            # recorded final poset
            ("c", r"part \['c'\] has fewer than two ids"),
            ("bc", "parts overlap at 'b'"),
        ],
        ids=["one-id part", "overlapping parts"],
    )
    def test_glue_partition_that_needs_repair_detected(self, last, message):
        replay(three_minima_script("ab"))
        with pytest.raises(StepMismatch, match=f"step 2: glue partition {message}"):
            replay(three_minima_script("ab", last))

    def test_bad_elevate_target_detected(self, diamond):
        script = decompose_to_point(diamond)
        steps = list(script.steps)
        step = steps[0]
        steps[0] = ElevateStep(target="missing", fresh_ids=step.fresh_ids)
        doctored = ConstructionScript(
            start=script.start,
            steps=tuple(steps),
            final=script.final,
            embedding=script.embedding,
            source=script.source,
        )
        with pytest.raises(StepMismatch):
            replay(doctored)

    def test_broken_embedding_detected(self, x9):
        script = decompose_to_point(x9)
        bad = dict(script.embedding)
        ks = sorted(bad)
        bad[ks[0]], bad[ks[1]] = bad[ks[1]], bad[ks[0]]
        doctored = ConstructionScript(
            start=script.start,
            steps=script.steps,
            final=script.final,
            embedding=bad,
            source=script.source,
        )
        with pytest.raises(BrokenEmbedding):
            replay(doctored)

    # The 2-chain a < b decomposes to the chain q2.0 < q1.0 < p0, with a at
    # q2.0 and b at q1.0. Each doctored script fails one certificate branch.
    @pytest.mark.parametrize(
        "source, embedding, message, pair",
        [
            (
                "chain",
                {"a": "q2.0", "b": "zz"},
                "embedding lands outside the final poset: ['zz']",
                None,
            ),
            (
                "chain",
                {"a": "q2.0", "c": "q1.0"},
                "embedding keys are not the source nodes: missing ['b'], extra ['c']",
                None,
            ),
            ("chain", {"a": "q1.0", "b": "q2.0"}, "tracked map does not preserve order", ("a", "b")),
            ("antichain", {"a": "q2.0", "b": "q1.0"}, "tracked map does not reflect order", ("a", "b")),
            ("chain", {"a": "q2.0", "b": "p0"}, "tracked map drops a cover", ("a", "b")),
            (None, {"a": "q2.0", "b": "p0"}, "embedded image is not saturated", ("q2.0", "p0")),
        ],
        ids=["outside", "keys", "order", "reflection", "cover", "saturated"],
    )
    def test_each_certificate_branch_is_pinned(self, source, embedding, message, pair):
        script = decompose_to_point(chain("a", "b"))
        sources = {"chain": script.source, "antichain": build(["a", "b"], []), None: None}
        doctored = replace(script, embedding=embedding, source=sources[source])
        with pytest.raises(BrokenEmbedding) as info:
            replay(doctored)
        assert str(info.value) == message
        assert info.value.pair == pair

    def test_certificate_scans_each_rung_once(self, x9, monkeypatch):
        script = decompose_to_point(x9)
        tracked = PosetMap(x9, script.final, script.embedding)
        calls = {}
        scans = ("poset_map_violation", "_reflection_violation", "_cover_violation")
        for name in scans + ("saturated_subset_violation",):
            def counted(*args, _name=name, _scan=getattr(morphism, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _scan(*args)

            monkeypatch.setattr(morphism, name, counted)
        # with a source, the saturated embedding implies the saturated image
        for check in (
            lambda: gext._verify_certificate(script),
            lambda: morphism.saturation_violation(tracked),
        ):
            calls.clear()
            check()
            assert calls == dict.fromkeys(scans, 1)
        calls.clear()
        gext._verify_certificate(replace(script, source=None))
        assert calls == {"saturated_subset_violation": 1}
        calls.clear()
        assert morphism.embedding_violation(tracked) is None
        assert calls == dict.fromkeys(scans[:2], 1)


def crown(n):
    nodes = [f"b{i}" for i in range(n)] + [f"t{i}" for i in range(n)]
    rel = [(f"b{i}", f"t{j}") for i in range(n) for j in range(n) if i != j]
    return build(nodes, rel)


def fence(n):
    nodes = [f"f{i}" for i in range(n)]
    rel = [
        (f"f{i}", f"f{i + 1}") if i % 2 == 0 else (f"f{i + 1}", f"f{i}")
        for i in range(n - 1)
    ]
    return build(nodes, rel)


class TestStructuredFamilies:
    # crowns maximize shared minima per cover; a crown plus a bottom node is
    # the family where a finer per-chain split stalls the (dim, eta) descent

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_crowns_certify(self, n):
        X = crown(n)
        script = decompose_to_point(X)
        final, _ = replay(script)
        assert is_saturated_embedding(PosetMap(X, final, script.embedding))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_fences_certify(self, n):
        X = fence(n)
        script = decompose_to_point(X)
        final, _ = replay(script)
        assert is_saturated_embedding(PosetMap(X, final, script.embedding))

    def test_bipartite_stack_certifies(self):
        nodes = [f"x{i}" for i in range(3)] + [f"y{i}" for i in range(3)] + [f"z{i}" for i in range(3)]
        rel = [(f"x{i}", f"y{j}") for i in range(3) for j in range(3)]
        rel += [(f"y{i}", f"z{j}") for i in range(3) for j in range(3)]
        X = build(nodes, rel)
        script = decompose_to_point(X)
        final, _ = replay(script)
        assert is_saturated_embedding(PosetMap(X, final, script.embedding))

    def test_crowned_bottom_strict_descent(self):
        # bottom node under every crown minimum: dim 3 wrapped, the measure
        # must still fall strictly at every extension step
        X = crown(2)
        nodes = list(X.nodes) + ["bot"]
        rel = list(X.covers) + [("bot", b) for b in X.min_nodes()]
        P = build(nodes, rel)
        seq = [P]
        while seq[-1].dim() > 0:
            gx = gextension_step(seq[-1])
            assert (gx.f2.dim(), eta(gx.f2)) < (seq[-1].dim(), eta(seq[-1]))
            seq.append(gx.f2)
        assert len(seq[-1].nodes) >= 1


class TestSeededRoundTrips:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_elevate_retract_round_trip(self, seed):
        rng = random.Random(seed)
        X = random_poset(seed, 5, 0.4)
        p = rng.choice(sorted(X.min_nodes()))
        w = elevate(X, p, rng.randint(1, 3))
        back = retract(w.Z, p)
        assert find_isomorphism(back.X, X) is not None


class TestEndToEndSmall:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_posets_up_to_four_nodes(self, n):
        from posetglue.generate import all_posets_upto_iso

        for P in all_posets_upto_iso(n):
            script = decompose_to_point(P)
            final, _ = replay(script)
            tracked = PosetMap(P, final, script.embedding)
            assert is_saturated_embedding(tracked)


def posets_on_seven_nodes(small_posets):
    """Every poset on 7 nodes, some more than once: a new top over each
    down-set of each 6-node poset (removing a maximal node gives one)."""
    for P in small_posets:
        if len(P) != 6:
            continue
        for mask in range(1 << 6):
            S = {x for i, x in enumerate(P.nodes) if mask >> i & 1}
            if all(P.down_set(x) <= S for x in S):
                yield build([*P.nodes, "top"], [*P.covers, *((x, "top") for x in S)])


class TestPivotAndEtaByDP:
    def test_match_the_chain_enumeration(self, small_posets):
        from posetglue.gext import _eta, _pivot

        posets = list(small_posets)
        posets += posets_on_seven_nodes(small_posets)
        posets += [random_poset(seed, 16, 0.25) for seed in range(60)]
        for P in posets:
            d = P.dim()
            longest = [c for c in P.maximal_chains() if len(c) - 1 == d]
            assert _eta(P) == len(longest)
            if d > 0:
                assert _pivot(P) == min(c[1] for c in longest)


EMPTY = build([], [])

EMPTY_POSET_CHECKS = {
    "gextension_step": (lambda: gextension_step(EMPTY), "cannot extend the empty poset"),
    "reduce_dimension": (lambda: reduce_dimension(EMPTY), "cannot reduce the empty poset"),
    "wrap": (lambda: wrap(EMPTY, WrapOptions()), "cannot wrap the empty poset"),
    "decompose_to_point": (lambda: decompose_to_point(EMPTY), "cannot decompose the empty poset"),
}


class TestInputChecks:
    @pytest.mark.parametrize("name", sorted(EMPTY_POSET_CHECKS))
    def test_the_empty_poset_is_refused(self, name):
        call, message = EMPTY_POSET_CHECKS[name]
        with pytest.raises(EmptyPoset, match=f"^{message}$"):
            call()

    def test_decompose_of_the_empty_poset_exits_2_on_one_line(self, capsys, tmp_path):
        path = tmp_path / "empty.poset"
        path.write_text('{"version": 1, "nodes": [], "covers": []}')
        code = main(["decompose", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: cannot decompose the empty poset\n"

    def test_a_taken_fresh_id_is_extended(self):
        # "q.0" is taken, so the first fresh id grows an "x"; "q.1" is free
        w = elevate(build(["q.0"], []), "q.0", 2)
        assert w.Z.nodes == ("q.0", "q.0x", "q.1")
        assert w.Z.min_nodes() == {"q.0x", "q.1"}

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from posetglue import (
    CycleDetected,
    ParseError,
    build,
    decompose_to_point,
    replay,
)
from posetglue.documents import (
    emit_dot,
    emit_map,
    emit_poset,
    emit_script,
    parse_map,
    parse_poset,
    parse_script,
)
from posetglue.cli import main
from posetglue.generate import random_poset

from conftest import FIXTURES, SCALE_FAMILIES, check_contract

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestPosetDocuments:
    def test_single_point(self):
        P = parse_poset('{"version": 1, "nodes": ["a"], "covers": []}')
        assert P.nodes == ("a",)

    def test_x9_fixture(self, x9):
        assert len(x9.nodes) == 9
        assert len(x9.covers) == 10
        assert x9.dim() == 6

    def test_cycle_propagates(self):
        doc = '{"version": 1, "nodes": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}'
        with pytest.raises(CycleDetected):
            parse_poset(doc)

    def test_parse_emit_identity_on_canonical(self):
        for name in sorted(p.name for p in FIXTURES.iterdir() if p.suffix == ".poset"):
            text = (FIXTURES / name).read_text()
            P = parse_poset(text)
            # note fields are not round-tripped; compare canonical forms
            assert parse_poset(emit_poset(P)) == P
            assert emit_poset(parse_poset(emit_poset(P))) == emit_poset(P)

    def test_emit_canonicalizes(self):
        scrambled = json.dumps(
            {
                "covers": [["b", "c"], ["a", "b"], ["a", "c"]],
                "nodes": ["c", "b", "a"],
                "version": 1,
            }
        )
        P = parse_poset(scrambled)
        out = emit_poset(P)
        obj = json.loads(out)
        assert obj["nodes"] == ["a", "b", "c"]
        assert obj["covers"] == [["a", "b"], ["b", "c"]]

    def test_missing_version(self):
        with pytest.raises(ParseError):
            parse_poset('{"nodes": ["a"], "covers": []}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_poset("{nodes}")

    def test_duplicate_nodes(self):
        with pytest.raises(ParseError):
            parse_poset('{"version": 1, "nodes": ["a", "a"], "covers": []}')

    def test_non_string_ids(self):
        with pytest.raises(ParseError):
            parse_poset('{"version": 1, "nodes": [1], "covers": []}')

    def test_labels_round_trip(self):
        from posetglue.documents import emit_poset_document, parse_poset_document

        text = (
            '{"version": 1, "nodes": ["a", "b"], "covers": [["a", "b"]],'
            ' "labels": {"a": "bottom", "b": "top"}}'
        )
        doc = parse_poset_document(text)
        assert doc.labels == {"a": "bottom", "b": "top"}
        again = parse_poset_document(emit_poset_document(doc))
        assert again.labels == doc.labels
        assert emit_poset_document(again) == emit_poset_document(doc)

    def test_many_labels_parse_in_linear_time(self):
        from posetglue.documents import parse_poset_document

        nodes = [f"n{i}" for i in range(20000)]
        text = json.dumps(
            {"version": 1, "nodes": nodes, "covers": [], "labels": {x: x.upper() for x in nodes}}
        )
        start = time.perf_counter()
        doc = parse_poset_document(text)
        assert time.perf_counter() - start < 1.0
        assert len(doc.labels) == 20000

    def test_label_for_unknown_node(self):
        from posetglue.documents import parse_poset_document

        with pytest.raises(ParseError):
            parse_poset_document(
                '{"version": 1, "nodes": ["a"], "covers": [], "labels": {"z": "x"}}'
            )

    def test_empty_poset_queries_rejected(self):
        from posetglue import EmptyPoset

        P = parse_poset('{"version": 1, "nodes": [], "covers": []}')
        with pytest.raises(EmptyPoset):
            P.dim()
        with pytest.raises(EmptyPoset):
            P.maximal_chains()


class TestMapDocuments:
    def test_round_trip(self):
        assignment = {"a": "x", "b": "y"}
        assert parse_map(emit_map(assignment)) == assignment

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_map('{"version": 1, "map": {"a": 3}}')


class TestScriptDocuments:
    def test_round_trip_byte_identical(self, x9):
        script = decompose_to_point(x9)
        text = emit_script(script)
        reparsed = parse_script(text)
        assert emit_script(reparsed) == text

    def test_reparsed_script_replays(self, diamond):
        script = decompose_to_point(diamond)
        reparsed = parse_script(emit_script(script))
        final, report = replay(reparsed)
        assert final == script.final

    def test_fixture_script_parses(self):
        script = parse_script((FIXTURES / "x9-build.script").read_text())
        assert len(script.steps) == 10
        assert script.source is not None

    def test_unknown_step_kind(self):
        doc = {
            "version": 1,
            "start": {"version": 1, "nodes": ["a"], "covers": []},
            "steps": [{"kind": "warp", "target": "a"}],
            "final": {"version": 1, "nodes": ["a"], "covers": []},
            "embedding": {},
        }
        with pytest.raises(ParseError):
            parse_script(json.dumps(doc))

    @pytest.mark.parametrize("where", ["version", "count"])
    def test_boolean_is_not_an_integer(self, diamond, where):
        obj = json.loads(emit_script(decompose_to_point(diamond)))
        if where == "version":
            obj["version"] = True
        else:
            step = next(s for s in obj["steps"] if s["kind"] == "elevate" and s["count"] == 1)
            step["count"] = True
        with pytest.raises(ParseError, match=f"field '{where}' has the wrong type"):
            parse_script(json.dumps(obj))

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_script("[" * 100000 + "]" * 100000)

    def test_fresh_ids_count_mismatch(self):
        doc = {
            "version": 1,
            "start": {"version": 1, "nodes": ["a"], "covers": []},
            "steps": [{"kind": "elevate", "target": "a", "count": 2, "fresh_ids": ["q"]}],
            "final": {"version": 1, "nodes": ["a"], "covers": []},
            "embedding": {},
        }
        with pytest.raises(ParseError):
            parse_script(json.dumps(doc))


class TestDot:
    def test_single_node(self):
        out = emit_dot(build(["p"], []))
        assert '"p"' in out
        assert "->" not in out

    def test_highlight_styles_two_nodes(self, diamond_split):
        out = emit_dot(diamond_split, ["6L", "6R"])
        assert out.count("fillcolor=lightblue") == 2

    def test_edge_count_matches_covers(self, x9):
        out = emit_dot(x9)
        assert out.count("->") == len(x9.covers)

    def test_empty_poset_renders(self):
        out = emit_dot(build([], []))
        assert out.startswith("digraph") and "->" not in out

    def test_quote_and_backslash_in_ids_are_escaped(self):
        out = emit_dot(build(['a"b', "c\\"], [('a"b', "c\\")]), ['a"b'])
        assert '    "a\\"b" [style=filled, fillcolor=lightblue];' in out.splitlines()
        assert '    "c\\\\";' in out.splitlines()
        assert '  "a\\"b" -> "c\\\\";' in out.splitlines()

    @pytest.mark.parametrize(
        "golden_name,fixture,highlight",
        [
            ("x9.dot", "x9.poset", []),
            ("diamond.dot", "diamond.poset", []),
            ("diamond-split-highlight.dot", "diamond-split.poset", ["6L", "6R"]),
            ("gext-f1-highlight.dot", "gext-f1.poset", ["5"]),
            ("gext-z.dot", "gext-z.poset", ["5"]),
            ("gext-f2.dot", "gext-f2.poset", ["4"]),
            ("gext-f3.dot", "gext-f3.poset", ["2"]),
            ("gext-f4.dot", "gext-f4.poset", ["1"]),
            ("point.dot", "point.poset", []),
        ],
    )
    def test_golden_files(self, golden_name, fixture, highlight):
        P = parse_poset((FIXTURES / fixture).read_text())
        assert emit_dot(P, highlight) == (GOLDEN / golden_name).read_text()


class TestCanonicalizationOnRandomDocuments:
    @pytest.mark.parametrize("seed", range(20))
    def test_parse_emit_parse_is_parse(self, seed):
        P = random_poset(seed, 7, 0.35)
        text = emit_poset(P)
        assert parse_poset(text) == P
        assert emit_poset(parse_poset(text)) == text

    @pytest.mark.parametrize("seed", range(10))
    def test_redundant_relations_canonicalize(self, seed):
        # a document may carry the full order relation; emission reduces it
        P = random_poset(seed, 6, 0.4)
        full = [[a, b] for a in P.nodes for b in P.nodes if a != b and P.leq(a, b)]
        doc = json.dumps({"version": 1, "nodes": list(P.nodes), "covers": full})
        assert parse_poset(doc) == P
        assert emit_poset(parse_poset(doc)) == emit_poset(P)


class TestRandomPoset:
    def test_point(self):
        assert len(random_poset(7, 1, 0.5).nodes) == 1

    def test_zero_probability_gives_antichain(self):
        P = random_poset(3, 6, 0.0)
        assert not P.covers

    def test_determinism(self):
        assert random_poset(42, 8, 0.4) == random_poset(42, 8, 0.4)

    def test_distinct_seeds_differ_somewhere(self):
        outputs = {random_poset(s, 8, 0.4).covers for s in range(10)}
        assert len(outputs) > 1


def x9_script_with(tamper):
    """The golden x9 script as JSON text, after tamper(obj)."""
    obj = json.loads((GOLDEN / "x9.script").read_text())
    tamper(obj)
    return json.dumps(obj)


def first_glue(obj):
    return next(step for step in obj["steps"] if step["kind"] == "glue")


# An integer literal past Python's cap on the digits it converts from text
# (4,300 by default). Without the cap the same document parses, and its
# version check refuses it.
LONG_INTEGER = "1" * 5000
DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def long_integer_message(where):
    if 0 < DIGIT_CAP < len(LONG_INTEGER):
        return f"JSON integer literal has more than {DIGIT_CAP} digits"
    return f"{where}: unsupported version {LONG_INTEGER}"


UNFIRED_DOCUMENT_CHECKS = {
    "not-an-object": ("info", "[]", "poset: expected an object"),
    "long-integer-poset": (
        "info",
        f'{{"version": {LONG_INTEGER}, "nodes": [], "covers": []}}',
        long_integer_message("poset"),
    ),
    "long-integer-script": (
        "replay",
        f'{{"version": {LONG_INTEGER}}}',
        long_integer_message("script"),
    ),
    "one-element-cover": (
        "info",
        '{"version": 1, "nodes": ["a"], "covers": [["a"]]}',
        "poset: cover entries must be [lower, upper] string pairs",
    ),
    "numeric-label": (
        "info",
        '{"version": 1, "nodes": ["a"], "covers": [], "labels": {"a": 1}}',
        "poset: labels must map node ids to strings",
    ),
    "numeric-note": (
        "info",
        '{"version": 1, "note": 3, "nodes": ["a"], "covers": []}',
        "poset: note must be a string",
    ),
    "empty-partition-part": (
        "replay",
        x9_script_with(lambda obj: first_glue(obj)["partition"].append([])),
        "script.steps[6]: partition parts must be nonempty string lists",
    ),
    "numeric-embedding-value": (
        "replay",
        x9_script_with(lambda obj: obj["embedding"].update({"1": 1})),
        "script.embedding entries must be string -> string",
    ),
}


@pytest.mark.parametrize("case", sorted(UNFIRED_DOCUMENT_CHECKS))
def test_malformed_document_exits_2_on_one_line(capsys, tmp_path, case):
    command, text, message = UNFIRED_DOCUMENT_CHECKS[case]
    path = tmp_path / "document"
    path.write_text(text)
    check_contract(main([command, str(path)]), *capsys.readouterr(), 2, f"input error: {message}\n")


# The first 16 hex digits of the SHA-256 of each emitted script: inputs past
# the exhaustive sweeps' sizes, where a change in the emitted bytes would
# otherwise show only in the benchmark's per-seed digests. Each script must
# also parse and certify.
SCALE_PINS = {
    "diamond_ladder(40)": "8ace51813eeda134",
    "fence(200)": "7e5f2bf83df2f322",
    "complete_bipartite(20)": "48a0bd613258b0e2",
    "random_poset(4,240,0.03)": "35410d4477776442",
    "random_poset(1,400,1.0)": "b84528c9f821ddc4",
}


@pytest.mark.parametrize("family", list(SCALE_PINS))
def test_scale_family_script_bytes_are_pinned(family):
    text = emit_script(decompose_to_point(SCALE_FAMILIES[family]()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == SCALE_PINS[family]
    _, report = replay(parse_script(text))
    assert str(report).endswith("saturated embedding of the source verified")

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetglue import InputError, build, find_isomorphism
from posetglue.cli import main
from posetglue.documents import emit_map, emit_poset, emit_script, parse_poset, parse_script

from conftest import FIXTURES, diamond_ladder, three_minima_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def fx(name):
    return str(FIXTURES / name)


def ladder_file(tmp_path, rungs):
    path = tmp_path / f"ladder-{rungs}.poset"
    path.write_text(emit_poset(diamond_ladder(rungs)))
    return path


class TestInfo:
    def test_x9(self, capsys):
        code, out = run(capsys, "info", fx("x9.poset"))
        assert code == 0
        assert "nodes: 9" in out
        assert "dim: 6" in out
        assert "maximal chains: 4" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(capsys, "info", "no-such-file.poset")
        assert code == 2

    def test_fixture_output_is_byte_identical_to_the_pin(self, capsys):
        out = ""
        for path in sorted(FIXTURES.glob("*.poset")):
            code, text = run(capsys, "info", str(path))
            assert code == 0
            out += f"## {path.name}\n{text}"
        assert out.encode("utf-8") == (GOLDEN / "info.txt").read_bytes()

    def test_ladder_chains_are_counted_not_listed(self, capsys, tmp_path):
        path = ladder_file(tmp_path, 40)  # 2**40 maximal chains
        start = time.perf_counter()
        code, out = run(capsys, "info", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert "maximal chains: 1099511627776" in out


class TestVerifyEmbedding:
    def test_saturated_inclusion(self, capsys, tmp_path, diamond):
        sub = diamond.induced(("6", "5", "4", "1"))
        from posetglue.documents import emit_map, emit_poset

        src = tmp_path / "sub.poset"
        src.write_text(emit_poset(sub))
        mp = tmp_path / "inc.map"
        mp.write_text(emit_map({x: x for x in sub.nodes}))
        code, out = run(capsys, "verify-embedding", str(src), fx("diamond.poset"), str(mp))
        assert code == 0
        assert "saturated embedding: yes" in out

    def test_gap_is_verification_failure(self, capsys, tmp_path, diamond):
        sub = diamond.induced(("6", "4"))
        from posetglue.documents import emit_map, emit_poset

        src = tmp_path / "sub.poset"
        src.write_text(emit_poset(sub))
        mp = tmp_path / "inc.map"
        mp.write_text(emit_map({x: x for x in sub.nodes}))
        code, out = run(capsys, "verify-embedding", str(src), fx("diamond.poset"), str(mp))
        assert code == 1
        assert "saturated embedding: no" in out

    # the report stops at the first rung that fails; stdout is pinned byte for byte
    @pytest.mark.parametrize(
        "covers, assignment, expected",
        [
            (
                [("a", "b")],
                {"a": "1", "b": "6"},
                "poset map: no (violating cover ('a', 'b'))\n",
            ),
            (
                [],
                {"a": "6", "b": "1"},
                "poset map: yes\nembedding: no (violating pair ('a', 'b'))\n",
            ),
            (
                [("a", "b")],
                {"a": "6", "b": "4"},
                "poset map: yes\nembedding: yes\n"
                "saturated embedding: no (violating cover ('a', 'b'))\n",
            ),
            (
                [("a", "b")],
                {"a": "6", "b": "5"},
                "poset map: yes\nembedding: yes\nsaturated embedding: yes\nisomorphism: no\n",
            ),
            (
                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "e"), ("d", "e")],
                {"a": "6", "b": "5", "c": "2", "d": "4", "e": "1"},
                "poset map: yes\nembedding: yes\nsaturated embedding: yes\nisomorphism: yes\n",
            ),
        ],
        ids=["poset-map", "embedding", "saturated", "not-iso", "iso"],
    )
    def test_report_is_pinned(self, capsys, tmp_path, covers, assignment, expected):
        from posetglue.documents import emit_map

        src = tmp_path / "src.poset"
        src.write_text(emit_poset(build(sorted(assignment), covers)))
        mp = tmp_path / "f.map"
        mp.write_text(emit_map(assignment))
        code = main(["verify-embedding", str(src), fx("diamond.poset"), str(mp)])
        captured = capsys.readouterr()
        assert captured.out == expected
        assert code == (1 if ": no (" in expected else 0)
        # a failed rung is repeated as the one stderr line; a pass prints none
        last = expected.splitlines()[-1]
        assert captured.err == (f"verification failed: {last}\n" if code else "")


class TestGlue:
    def test_diamond_reproduction(self, capsys, diamond):
        code, out = run(capsys, "glue", fx("diamond-split.poset"), "--along", "6L,6R")
        assert code == 0
        obj = json.loads(out)
        target = parse_poset(json.dumps(obj["target"]))
        assert find_isomorphism(target, diamond) is not None
        assert obj["height_zero"] is True

    def test_incomplete_set_is_input_error(self, capsys):
        code, _ = run(capsys, "glue", fx("diamond.poset"), "--along", "6,4")
        assert code == 2


class TestSplitElevateRetract:
    def test_split(self, capsys, diamond_split):
        code, out = run(capsys, "split", fx("diamond.poset"), "--min", "6", "--cover", "2")
        assert code == 0
        obj = json.loads(out)
        F = parse_poset(json.dumps(obj["f"]))
        assert find_isomorphism(F, diamond_split) is not None

    def test_split_fixture_outputs_are_byte_identical_to_the_pin(self, capsys):
        out = ""
        for path in sorted(FIXTURES.glob("*.poset")):
            X = parse_poset(path.read_text())
            for u1 in sorted(X.min_nodes()):
                for u2 in sorted(X.upper_covers(u1)):
                    code, text = run(capsys, "split", str(path), "--min", u1, "--cover", u2)
                    assert code == 0
                    out += f"## {path.name} --min {u1} --cover {u2}\n{text}"
        assert out.encode("utf-8") == (GOLDEN / "split.txt").read_bytes()

    def test_split_refuses_too_many_chains_without_listing_them(self, capsys, tmp_path):
        path = ladder_file(tmp_path, 40)
        start = time.perf_counter()
        code = main(["split", str(path), "--min", "b", "--cover", "l0"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "1099511627776" in captured.err

    def test_elevate_then_retract(self, capsys, tmp_path):
        code, out = run(capsys, "elevate", fx("point.poset"), "--at", "p", "--count", "2")
        assert code == 0
        obj = json.loads(out)
        z = tmp_path / "z.poset"
        z.write_text(json.dumps(obj["z"]) + "\n")
        code, out = run(capsys, "retract", str(z), "--at", "p")
        assert code == 0
        assert len(json.loads(out)["x"]["nodes"]) == 1

    def test_retract_precondition_is_input_error(self, capsys):
        code, _ = run(capsys, "retract", fx("gext-f1.poset"), "--at", "5")
        assert code == 2


class TestDecomposeReplay:
    def test_pipeline(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", fx("x9.poset"))
        assert code == 0
        script = tmp_path / "x9.script"
        script.write_text(out)
        code, out = run(capsys, "replay", str(script))
        assert code == 0
        assert "saturated embedding of the source verified" in out

    def test_wrap_options(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "decompose",
            fx("diamond.poset"),
            "--wrap",
            "single-max,single-min,min-height=2,min-dim=3",
        )
        assert code == 0
        script = parse_script(out)
        assert script.final.dim() >= 3

    # the dimension chain hangs under a minimum that starts a longest chain;
    # under the least minimum these fell short and exited 3
    @pytest.mark.parametrize(
        "name, dim", [("gext-f3.poset", 4), ("diamond-split.poset", 6), ("gext-z.poset", 6)]
    )
    def test_wrap_min_dim_reaches_the_dimension(self, capsys, tmp_path, name, dim):
        code, out = run(capsys, "decompose", fx(name), "--wrap", f"min-dim={dim}")
        assert code == 0
        assert parse_script(out).final.dim() == dim
        script = tmp_path / "padded.script"
        script.write_text(out)
        code, _ = run(capsys, "replay", str(script))
        assert code == 0

    def test_wrap_single_max_changes_nothing(self, capsys):
        # the fresh top is always added; the token stays accepted
        plain = run(capsys, "decompose", fx("x9.poset"))
        assert run(capsys, "decompose", fx("x9.poset"), "--wrap", "single-max") == plain
        assert plain[0] == 0

    def test_fixture_script_replays(self, capsys, x9):
        code, out = run(capsys, "replay", fx("x9-build.script"))
        assert code == 0

    def test_corrupted_script_fails_verification(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", fx("diamond.poset"))
        obj = json.loads(out)
        obj["final"]["covers"] = obj["final"]["covers"][1:]
        bad = tmp_path / "bad.script"
        bad.write_text(json.dumps(obj))
        code, _ = run(capsys, "replay", str(bad))
        assert code == 1

    @pytest.mark.parametrize("tamper", ["outside the final poset", "missing key", "extra key"])
    def test_tampered_embedding_fails_verification(self, capsys, tmp_path, tamper):
        obj = json.loads((GOLDEN / "x9.script").read_text())
        embedding = obj["embedding"]
        if tamper == "outside the final poset":
            embedding["1"] = "no-such-node"
        elif tamper == "missing key":
            del embedding["1"]
        else:
            embedding["no-such-source-node"] = embedding["1"]
        bad = tmp_path / "bad.script"
        bad.write_text(json.dumps(obj))
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("glue_no,extra", [(0, "non-minimal"), (1, "unknown")])
    def test_tampered_glue_partition_fails_verification(self, capsys, tmp_path, glue_no, extra):
        obj = json.loads((GOLDEN / "x9.script").read_text())
        steps = obj["steps"]
        i = [k for k, step in enumerate(steps) if step["kind"] == "glue"][glue_no]
        # the node the previous step elevated is no longer minimal
        steps[i]["partition"][0].append(
            steps[i - 1]["target"] if extra == "non-minimal" else "no-such-node"
        )
        bad = tmp_path / "bad.script"
        bad.write_text(json.dumps(obj))
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"verification failed: step {i + 1}: glue partition is not height zero\n"
        )

    @pytest.mark.parametrize(
        "tamper,message",
        [
            ("x9 repeated part", "step 6: glue partition parts overlap at 'q4.0'"),
            ("overlapping parts", "step 2: glue partition parts overlap at 'b'"),
            ("one-id part", "step 2: glue partition part ['c'] has fewer than two ids"),
        ],
        ids=["x9 repeated part", "overlapping parts", "one-id part"],
    )
    def test_glue_partition_that_needs_repair_fails_verification(
        self, capsys, tmp_path, tamper, message
    ):
        if tamper == "x9 repeated part":
            obj = json.loads((GOLDEN / "x9.script").read_text())
            partition = next(step for step in obj["steps"] if step["kind"] == "glue")["partition"]
            partition.append(list(partition[0]))
            text = json.dumps(obj)
        else:
            last = "bc" if tamper == "overlapping parts" else "c"
            text = emit_script(three_minima_script("ab", last))
        bad = tmp_path / "bad.script"
        bad.write_text(text)
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"verification failed: {message}\n"

    def test_repeated_fresh_ids_fail_verification(self, capsys, tmp_path):
        # the script parses, since each fresh id is a string, so the repeat
        # is the step loop's to refuse
        obj = json.loads((GOLDEN / "x9.script").read_text())
        step = obj["steps"][1]
        step["fresh_ids"] = ["q2.0"] * step["count"]
        bad = tmp_path / "bad.script"
        bad.write_text(json.dumps(obj))
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "verification failed: step 2: elevate failed: fresh_ids must be n distinct ids\n"
        )

    @pytest.mark.parametrize("start", ["source", "empty"])
    def test_start_that_is_not_one_point_fails_verification(self, capsys, tmp_path, start):
        # with no steps, a start equal to the final would certify any poset
        # as grown from itself; an empty one used to reach an empty final
        if start == "source":
            x9 = json.loads((FIXTURES / "x9.poset").read_text())
            obj = {"source": x9, "final": x9, "embedding": {x: x for x in x9["nodes"]}}
        else:
            obj = {"final": {"version": 1, "nodes": [], "covers": []}, "embedding": {}}
        obj = {"version": 1, **obj, "start": obj["final"], "steps": []}
        bad = tmp_path / "bad.script"
        bad.write_text(json.dumps(obj))
        code = main(["replay", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "verification failed: start is not a one-point poset\n"

    def test_stdin_stdout_pipe(self):
        decompose = subprocess.run(
            [sys.executable, "-m", "posetglue.cli", "decompose", fx("x9.poset")],
            capture_output=True,
            text=True,
        )
        assert decompose.returncode == 0
        replayed = subprocess.run(
            [sys.executable, "-m", "posetglue.cli", "replay", "-"],
            input=decompose.stdout,
            capture_output=True,
            text=True,
        )
        assert replayed.returncode == 0


class TestRenderRandom:
    def test_render_highlight(self, capsys):
        code, out = run(capsys, "render", fx("diamond-split.poset"), "--highlight", "6L,6R")
        assert code == 0
        assert out.count("fillcolor=lightblue") == 2

    def test_random_document(self, capsys):
        code, out = run(capsys, "random", "--seed", "3", "--nodes", "5", "--p", "0.4")
        assert code == 0
        P = parse_poset(out)
        assert len(P.nodes) == 5


class TestExitCodes:
    def test_internal_invariant_maps_to_exit_3(self, capsys, monkeypatch):
        import posetglue.cli as cli
        from posetglue.errors import InternalInvariantError

        def boom(*args, **kwargs):
            raise InternalInvariantError("synthetic")

        monkeypatch.setattr(cli, "decompose_to_point", boom)
        code = cli.main(["decompose", fx("point.poset")])
        capsys.readouterr()
        assert code == 3


class TestInputErrors:
    @pytest.mark.parametrize(
        "wrap",
        ["min-height=abc", "min-dim=", "min-height=-1", "single-max,min-dim=-2"],
    )
    def test_bad_wrap_value_is_input_error(self, capsys, wrap):
        code = main(["decompose", fx("x9.poset"), "--wrap", wrap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-negative integer" in captured.err

    def test_info_on_a_long_chain(self, capsys, tmp_path):
        from posetglue import build
        from posetglue.documents import emit_poset

        ids = [f"c{i:04d}" for i in range(1200)]
        path = tmp_path / "chain.poset"
        path.write_text(emit_poset(build(ids, list(zip(ids, ids[1:])))))
        code, out = run(capsys, "info", str(path))
        assert code == 0
        assert "dim: 1199" in out
        assert "maximal chains: 1" in out


    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.poset"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main(["info", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: JSON nests too deeply\n"

    @pytest.mark.parametrize("command", ["info", "render"])
    def test_lone_surrogate_id_is_input_error(self, capsys, tmp_path, command):
        # the JSON escape parses to a str that UTF-8 cannot encode; the
        # failure is found where the output is written, before any of it is
        path = tmp_path / "surrogate.poset"
        path.write_text('{"version": 1, "nodes": ["\\ud800", "b"], "covers": [["\\ud800", "b"]]}')
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: cannot write '\\ud800' as utf-8: surrogates not allowed\n"
        # a script escapes every id, so the same poset still decomposes
        code, out = run(capsys, "decompose", str(path))
        assert code == 0 and "\\ud800" in out

    @pytest.mark.parametrize("command", ["info", "replay"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_invalid_utf8_is_input_error(self, capsys, monkeypatch, tmp_path, command, source):
        data = b"\xff\xfe{}"
        if source == "file":
            path = tmp_path / "bad.poset"
            path.write_bytes(data)
            arg = str(path)
        else:
            # a strict stdin decoder, as under PYTHONIOENCODING=utf-8:strict
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
            monkeypatch.setattr("sys.stdin", stdin)
            arg = "-"
        code = main([command, arg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert "not valid UTF-8" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["info"],
            ["info", "point.poset", "extra"],
            ["elevate", "point.poset"],
            ["elevate", "point.poset", "--at", "p", "--nope"],
            ["glue", "diamond.poset"],
            ["random", "--seed", "1", "--nodes", "3"],
        ],
    )
    def test_usage_error_is_a_one_line_input_error(self, capsys, argv):
        code = main([fx(a) if a.endswith(".poset") else a for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: posetglue")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_ill_typed_flag_names_the_flag_on_one_line(self, capsys):
        code = main(["elevate", fx("point.poset"), "--at", "p", "--count", "x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "input error: posetglue elevate: argument --count: invalid int value: 'x'\n"
        )

    @pytest.mark.parametrize("argv", [["--help"], ["elevate", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: posetglue")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, least",
        [
            (["glue", "diamond.poset", "--along", "zz,yy,xx,ww"], "ww"),
            (["render", "diamond.poset", "--highlight", "zz,yy,xx"], "xx"),
        ],
    )
    def test_unknown_ids_name_the_least_under_any_hash_seed(self, argv, least):
        argv = [fx(a) if a.endswith(".poset") else a for a in argv]
        errs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "posetglue.cli", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 2 and proc.stdout == ""
            errs.add(proc.stderr)
        assert errs == {f"input error: unknown node {least!r}\n"}

    @pytest.mark.parametrize("command, code", [("info", 2), ("replay", 1)])
    def test_cycle_and_stray_embedding_messages_do_not_depend_on_the_hash_seed(
        self, tmp_path, command, code
    ):
        # info reads a document with two 3-cycles, of which graphlib names
        # one; replay reads the diamond's script with its five embedding
        # values renamed to ids outside the final poset, of which three are
        # named
        path = tmp_path / "input.json"
        if command == "info":
            cycles = [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]]
            doc = {"version": 1, "nodes": list("abcdef"), "covers": cycles}
        else:
            doc = json.loads((GOLDEN / "diamond.script").read_text())
            doc["embedding"] = {x: f"zz{i}" for i, x in enumerate(sorted(doc["embedding"]))}
        path.write_text(json.dumps(doc))
        errs = set()
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "posetglue.cli", command, str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == code and proc.stdout == ""
            assert proc.stderr.count("\n") == 1
            errs.add(proc.stderr)
        if command == "info":
            assert len(errs) == 1
            assert errs.pop().startswith("input error: relation closure has a cycle: ")
        else:
            assert errs == {
                "verification failed: embedding lands outside the final poset: "
                "['zz0', 'zz1', 'zz2']\n"
            }

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr("posetglue.cli.decompose_to_point", broken)
        code = main(["decompose", fx("x9.poset")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError('boom\\nsecond line')\n"


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGoldenScripts:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("x9.script", ["x9.poset"]),
            ("diamond.script", ["diamond.poset"]),
            (
                "diamond-wrapped.script",
                ["diamond.poset", "--wrap", "single-max,single-min,min-height=2,min-dim=3"],
            ),
        ],
    )
    def test_decompose_is_byte_identical_to_the_pin(self, capsys, golden, argv):
        argv = [fx(a) if a.endswith(".poset") else a for a in argv]
        code, out = run(capsys, "decompose", *argv)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("elevate-point.json", ["elevate", "point.poset", "--at", "p", "--count", "3"]),
            ("retract-gext-z.json", ["retract", "gext-z.poset", "--at", "5"]),
        ],
    )
    def test_witness_maps_are_byte_identical_to_the_pin(self, capsys, golden, argv):
        argv = [fx(a) if a.endswith(".poset") else a for a in argv]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("info", "x9.poset"),
            ("glue", "diamond-split.poset", "--along", "6L,6R"),
            ("split", "diamond.poset", "--min", "6", "--cover", "2"),
            ("elevate", "point.poset", "--at", "p", "--count", "3"),
            ("retract", "gext-z.poset", "--at", "5"),
            ("decompose", "x9.poset"),
            ("replay", "x9-build.script"),
            ("render", "gext-f1.poset", "--highlight", "5"),
            ("random", "--seed", "11", "--nodes", "7", "--p", "0.35"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        argv = [fx(a) if a.endswith((".poset", ".script")) else a for a in argv]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


X9_SCRIPT = json.loads((GOLDEN / "x9.script").read_text())


def mutated_x9_script(data):
    """x9's emitted script with one drawn mutation, as JSON text."""
    obj = copy.deepcopy(X9_SCRIPT)
    steps, final = obj["steps"], obj["final"]
    ids = [*final["nodes"], "no-such-node"]
    index = st.integers(0, len(steps) - 1)
    elevates = [step for step in steps if step["kind"] == "elevate"]
    glues = [step for step in steps if step["kind"] == "glue"]
    kind = data.draw(
        st.sampled_from(
            ["drop", "duplicate", "swap", "retarget", "reuse fresh id", "glue id",
             "embedding value", "add cover", "drop cover", "start"]
        )
    )
    if kind == "drop":
        del steps[data.draw(index)]
    elif kind == "duplicate":
        i = data.draw(index)
        steps.insert(i, copy.deepcopy(steps[i]))
    elif kind == "swap":
        i, j = data.draw(index), data.draw(index)
        steps[i], steps[j] = steps[j], steps[i]
    elif kind == "retarget":
        data.draw(st.sampled_from(elevates))["target"] = data.draw(st.sampled_from(ids))
    elif kind == "reuse fresh id":
        fresh = data.draw(st.sampled_from(elevates))["fresh_ids"]
        fresh[data.draw(st.integers(0, len(fresh) - 1))] = data.draw(st.sampled_from(ids))
    elif kind == "glue id":
        part = data.draw(st.sampled_from(data.draw(st.sampled_from(glues))["partition"]))
        part[data.draw(st.integers(0, len(part) - 1))] = data.draw(st.sampled_from(ids))
    elif kind == "embedding value":
        key = data.draw(st.sampled_from(sorted(obj["embedding"])))
        obj["embedding"][key] = data.draw(st.sampled_from(ids))
    elif kind == "add cover":
        final["covers"].append([data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))])
    elif kind == "drop cover":
        del final["covers"][data.draw(st.integers(0, len(final["covers"]) - 1))]
    else:
        point = {"version": 1, "nodes": [data.draw(st.sampled_from(ids))], "covers": []}
        empty = {"version": 1, "nodes": [], "covers": []}
        obj["start"] = copy.deepcopy(data.draw(st.sampled_from([final, obj["source"], point, empty])))
    return json.dumps(obj)


def broken_documents(text):
    """(name, text) for each broken form of a poset or map document: cut at
    seven offsets, a cover (or map value) naming an unknown id, version 2,
    and each required field missing."""
    for k in (0, 1, 2, len(text) // 4, len(text) // 2, 3 * len(text) // 4, len(text) - 2):
        yield f"cut at {k}", text[:k]
    obj = json.loads(text)
    unknown = copy.deepcopy(obj)
    if "covers" in obj:
        unknown["covers"].append([obj["nodes"][0], "no-such-id"])
    else:
        unknown["map"][min(obj["map"])] = "no-such-id"
    yield "unknown id", json.dumps(unknown)
    yield "version 2", json.dumps({**obj, "version": 2})
    for field in ("version", "nodes", "covers", "map"):
        if field in obj:
            yield f"no {field}", json.dumps({k: v for k, v in obj.items() if k != field})


def identity_map_file(tmp_path):
    from posetglue.documents import emit_map

    path = tmp_path / "identity.map"
    path.write_text(emit_map({x: x for x in ("1", "2", "4", "5", "6")}))  # diamond.poset
    return str(path)


# each command with the documents it reads; the one at BAD is replaced
FUZZ_COMMANDS = [
    ("info", ["x9.poset"]),
    ("glue", ["diamond-split.poset", "--along", "6L,6R"]),
    ("split", ["diamond.poset", "--min", "6", "--cover", "2"]),
    ("elevate", ["point.poset", "--at", "p", "--count", "2"]),
    ("retract", ["gext-z.poset", "--at", "5"]),
    ("decompose", ["x9.poset"]),
    ("render", ["diamond-split.poset", "--highlight", "6L,6R"]),
    ("verify-embedding", ["diamond.poset", "diamond.poset", "MAP"]),
]
FUZZ_CASES = [
    (command, args, slot)
    for command, args in FUZZ_COMMANDS
    for slot, arg in enumerate(args)
    if arg.endswith(".poset") or arg == "MAP"
]


class TestCommandFuzz:
    """A broken document exits 2 with one stderr line from every command
    that reads one, never 1 (a failed check) or 3 (a bug)."""

    @staticmethod
    def argv(tmp_path, args):
        return [
            identity_map_file(tmp_path) if a == "MAP" else fx(a) if a.endswith(".poset") else a
            for a in args
        ]

    @pytest.mark.parametrize(
        "command, args, slot", FUZZ_CASES, ids=[f"{c}-{s}" for c, _, s in FUZZ_CASES]
    )
    def test_broken_document_is_input_error(self, capsys, tmp_path, command, args, slot):
        argv = self.argv(tmp_path, args)
        assert main([command, *argv]) == 0
        capsys.readouterr()
        text = Path(argv[slot]).read_text()
        checked = 0
        for name, broken in broken_documents(text):
            path = tmp_path / "broken"
            path.write_text(broken)
            code = main([command, *argv[:slot], str(path), *argv[slot + 1 :]])
            captured = capsys.readouterr()
            assert code == 2, (name, captured.err)
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), name
            checked += 1
        assert checked == (12 if args[slot].endswith(".poset") else 11)


# fuzzed flag values; every count stays small, since a count of N grows N nodes
FLAG_FUZZ = {
    "elevate": [
        *(
            ["elevate", poset, "--at", at, "--count", str(n)]
            for poset, at in (("point.poset", "p"), ("x9.poset", "10"))
            for n in range(-2, 7)
        ),
        *(["elevate", "x9.poset", "--at", at] for at in ("zz", "", "p0", "1")),
        *(["retract", "gext-z.poset", "--at", at] for at in ("zz", "", "p0", "6R")),
    ],
    "wrap": [
        *(
            ["decompose", "diamond.poset", "--wrap", f"{key}={n}"]
            for key in ("min-height", "min-dim")
            for n in range(-2, 9)
        ),
        *(
            ["decompose", "diamond.poset", "--wrap", token]
            for token in ("min-height", "=1e3", "single-min=1", "min-dim=1e3", ",,", "single-min")
        ),
    ],
    "random": [
        ["random", "--seed", "0", "--nodes", str(n), "--p", p]
        for n in range(-1, 13)
        for p in ("-0.5", "-0.0", "0", "1", "1.5", "nan", "inf")
    ],
    "ill-typed": [
        *(["elevate", "point.poset", "--at", "p", "--count", v] for v in ("x", "1.5", "", "0x1", "-x")),
        *(["random", "--seed", v, "--nodes", "3", "--p", "0.5"] for v in ("x", "1.0")),
        *(["random", "--seed", "0", "--nodes", v, "--p", "0.5"] for v in ("two", "3.0")),
        *(["random", "--seed", "0", "--nodes", "3", "--p", v] for v in ("q", "", "0.5.5")),
    ],
}


class TestFlagFuzz:
    """Fuzzed flag values (ids, counts, ``--wrap`` tokens, ``random`` sizes
    and probabilities, and values of the wrong type) exit 0, or 2 with one
    stderr line and no output."""

    @pytest.mark.parametrize("group", sorted(FLAG_FUZZ))
    def test_fuzzed_flags_keep_the_exit_contract(self, capsys, group):
        codes = []
        for argv in FLAG_FUZZ[group]:
            argv = [fx(a) if a.endswith(".poset") else a for a in argv]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2), (argv, captured.err)
            if code == 2:
                assert captured.out == "", argv
                assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
            else:
                assert captured.err == "", argv
            codes.append(code)
        # (exit 0, exit 2)
        assert (codes.count(0), codes.count(2)) == {
            "elevate": (12, 14),
            "ill-typed": (0, 12),
            "random": (36, 62),
            "wrap": (20, 8),
        }[group]


def main_on_stdin(argv, text):
    """Run the CLI with text on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parses(text):
    try:
        parse_script(text)
    except InputError:
        return False
    return True


class TestReplayFuzz:
    """A mutated script exits 1 only when it is well formed and fails its
    check, and 2 only when it does not parse."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_x9_script_keeps_the_exit_contract(self, data):
        text = mutated_x9_script(data)
        code, out, err = main_on_stdin(["replay", "-"], text)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code:
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""
        if code == 1:
            assert parses(text) and err.startswith("verification failed: "), err
        if code == 2:
            assert not parses(text), err


POSET_FIXTURES = sorted(path.name for path in FIXTURES.glob("*.poset"))


class TestVerifyEmbeddingFuzz:
    """verify-embedding on drawn maps between the fixtures: a total map into
    the target's ids exits 0 or 1, a map that misses a source node or names
    an unknown id exits 2, and every nonzero exit prints one stderr line."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_maps_keep_the_exit_contract(self, data):
        source = data.draw(st.sampled_from(POSET_FIXTURES))
        kind = data.draw(
            st.sampled_from(["identity", "total", "missing", "unknown value", "unknown key"])
        )
        target = source if kind == "identity" else data.draw(st.sampled_from(POSET_FIXTURES))
        X = parse_poset((FIXTURES / source).read_text())
        ids = parse_poset((FIXTURES / target).read_text()).nodes
        if kind == "identity":
            assignment = {x: x for x in X.nodes}
        else:
            assignment = {x: data.draw(st.sampled_from(ids)) for x in X.nodes}
        x = data.draw(st.sampled_from(X.nodes))
        if kind == "missing":
            del assignment[x]
        elif kind == "unknown value":
            assignment[x] = "no-such-id"
        elif kind == "unknown key":
            assignment["no-such-id"] = assignment[x]
        code, out, err = main_on_stdin(
            ["verify-embedding", fx(source), fx(target), "-"], emit_map(assignment)
        )
        assert "Traceback" not in err
        if kind in ("identity", "total"):
            assert code in (0, 1), err
        else:
            assert code == 2 and out == "", err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("verification failed: " if code == 1 else "input error: ")
        else:
            assert err == ""

"""Tests of the certify benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

run.use_sources()


@pytest.fixture
def pg():
    return run.import_fresh()


def fixture_inputs(pg, *names):
    out = []
    for name in names:
        X = pg.parse_poset((workloads.FIXTURES / f"{name}.poset").read_text(encoding="utf-8"))
        out.append(workloads.Input(name, X))
    return out


def traced_pass(pg, inputs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples = run.run_pass(pg, inputs, None, check_roundtrip=False, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(s.problem is None for s in samples)
    return tracer, samples


def test_every_wrapped_layer_counts_on_x9(pg):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        X = pg.parse_poset((workloads.FIXTURES / "x9.poset").read_text(encoding="utf-8"))
        inp = workloads.Input("x9", workloads.relabel(pg, X, random.Random(1)))
        samples = run.run_pass(pg, [inp], None, check_roundtrip=False, tracer=tracer)
        pg.random_poset(1, 5, 0.5)
        pg.all_posets_upto_iso(3)
    finally:
        tracer.uninstall()
    assert samples[0].problem is None
    names = [tracing.layer_name(module, path) for module, path, _ in tracing.LAYERS]
    assert [n for n in names if tracer.calls[n] == 0] == []
    counts = tracer.counts()
    assert counts["core.Poset.maximal_chains.chains"] > 0
    assert counts["chains.chain_decomposition.sum_nodes"] > 0
    assert 0 < tracer.useful_ratio() <= 1
    assert 0 < tracer.split_share() < 1


def test_install_patches_every_binding_and_uninstall_restores_them(pg):
    original = pg.gluing.verify_gluing
    bindings = [pg, pg.gluing, pg.gext, pg.chains]
    assert all(m.verify_gluing is original for m in bindings)
    leq = pg.Poset.leq
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(m.verify_gluing is not original for m in bindings)
        assert len({id(m.verify_gluing) for m in bindings}) == 1
        assert pg.Poset.leq is not leq
    finally:
        tracer.uninstall()
    assert all(m.verify_gluing is original for m in bindings)
    assert pg.Poset.leq is leq


def test_two_traced_runs_count_the_same(pg):
    first, _ = traced_pass(pg, fixture_inputs(pg, "x9", "gext-z", "diamond"))
    second, _ = traced_pass(pg, fixture_inputs(pg, "x9", "gext-z", "diamond"))
    assert first.counts() == second.counts()


def test_traced_and_untraced_scripts_are_byte_identical(pg):
    plain = run.run_pass(pg, fixture_inputs(pg, "x9", "gext-z"), None, check_roundtrip=True)
    _, traced = traced_pass(pg, fixture_inputs(pg, "x9", "gext-z"))
    assert [s.text for s in plain] == [s.text for s in traced]
    assert all(s.problem is None for s in plain)


@pytest.mark.parametrize("workload", ["wide", "sweep"])
def test_seeds_change_the_scripts(pg, workload):
    shas = []
    for seed in (1, 2):
        inputs = workloads.make_inputs(pg, workload, seed)[-4:]
        samples = run.run_pass(pg, inputs, None, check_roundtrip=True)
        assert all(s.problem is None for s in samples)
        shas.append(run.script_sha256(samples))
    assert shas[0] != shas[1]


def test_same_seed_same_inputs(pg):
    a = workloads.make_inputs(pg, "deep", 7)
    b = workloads.make_inputs(pg, "deep", 7)
    assert [(i.label, i.poset, i.options) for i in a] == [(i.label, i.poset, i.options) for i in b]


def test_failed_certificate_is_counted(pg):
    bad = workloads.Input("x9", pg.parse_poset((workloads.FIXTURES / "x9.poset").read_text()))
    reference = ["not the script"]
    samples = run.run_pass(pg, [bad], reference, check_roundtrip=True)
    assert samples[0].problem == "script bytes differ from the first pass"


def test_changed_certificate_bytes_print_a_mismatch(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"script_sha256": {"deep": {"3": "0" * 64}}}))
    monkeypatch.setattr(run, "BASELINE", baseline)
    run.check_baseline_sha("deep", 4, "1" * 64)
    assert capsys.readouterr().out == ""
    run.check_baseline_sha("deep", 3, "1" * 64)
    assert capsys.readouterr().out.startswith("script_sha256 mismatch: deep seed 3")


def test_tail_leaves_ten_samples_beyond():
    values = list(range(405))
    value, percentile = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100 * 395 / 405)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_reports(pg):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tracer, _ = traced_pass(pg, fixture_inputs(pg, "x9"))
    reported = tracing.per_layer_metrics([tracer], 0.5)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }

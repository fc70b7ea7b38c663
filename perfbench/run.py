#!/usr/bin/env python3
"""Certify benchmark: decompose -> emit -> parse -> replay on seeded posets.

    python3 perfbench/run.py --workload {wide,deep,sweep} --seed N --seconds S --trace {0,1}
    for w in wide deep sweep; do python3 perfbench/run.py --workload $w --seed 1 --seconds 36; done

Run from the repository root; the program is imported from ``src/``. One
caller certifies one poset at a time in a closed loop: each poset starts
only after the previous one finishes. A pass certifies every input of the
workload once, and passes repeat while the next one still fits in
``--seconds``. Each poset is timed in two parts:

* decompose: ``decompose_to_point`` + ``emit_script``;
* replay: ``parse_script`` + ``replay`` + the saturated-embedding check.

Every certificate is checked: it replays, ``PosetMap(source, final,
embedding)`` is a saturated embedding, its source is the input, emit ->
parse -> emit gives the same bytes, and every pass emits the bytes of the
first. A failed check or an exception counts as a failed certificate.

Times are reported at the reference speed of ``speed.py``: on a shared
2-core machine the same work ran up to 1.8 times slower for stretches of
seconds, so each time is scaled by ``REFERENCE_S`` over the reference job's
time measured around it (``--trace 0`` also prints the unscaled figures).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a traced cycle (input generation plus one pass) and
reports the per-layer metrics of ``tracing.py``; the counts of every cycle
must agree. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import speed
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

# seconds of certifying between two timings of the reference job
REFERENCE_EVERY_S = 0.05

# set-up (import + input generation) repeats this often; its median is setup_s
SETUP_REPEATS = 3
# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "certs_per_s": "1/s",
    "decompose_ms_p50": "ms",
    "decompose_ms_tail": "ms",
    "replay_ms_p50": "ms",
    "replay_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "script_bytes": "bytes",
    "script_steps": "count",
}
# the end-to-end metrics that are times, reported at the reference speed
TIMES = ("certs_per_s", "decompose_ms_p50", "decompose_ms_tail", "replay_ms_p50", "replay_ms_tail", "setup_s")


@dataclass(slots=True)
class Sample:
    """One certificate attempt: its timings and script, or why it failed."""

    decompose_s: float = 0.0
    replay_s: float = 0.0
    text: str = ""
    steps: int = 0
    problem: Optional[str] = None
    scale: float = 1.0  # reference speed / machine speed while it ran


def use_sources() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "posetglue" / "__init__.py").is_file():
        raise FileNotFoundError(f"posetglue sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def import_fresh():
    """Import posetglue from ``src/`` as a new process would."""
    for name in [n for n in sys.modules if n == "posetglue" or n.startswith("posetglue.")]:
        del sys.modules[name]
    return importlib.import_module("posetglue")


def fresh_copies(pg, inputs):
    """Rebuilt inputs, so no pass profits from tables an earlier pass cached."""
    return [i._replace(poset=pg.build(i.poset.nodes, i.poset.covers)) for i in inputs]


def certify(pg, inp, expected, check_roundtrip: bool) -> Sample:
    clock = time.perf_counter
    t0 = clock()
    script = pg.decompose_to_point(inp.poset, inp.options)
    text = pg.emit_script(script)
    t1 = clock()
    parsed = pg.parse_script(text)
    final, _ = pg.replay(parsed)
    saturated = pg.is_saturated_embedding(pg.PosetMap(inp.poset, final, parsed.embedding))
    t2 = clock()

    problem = None
    if not saturated:
        problem = "tracked map is not a saturated embedding"
    elif parsed.source != inp.poset:
        problem = "script source differs from the input"
    elif check_roundtrip and pg.emit_script(parsed) != text:
        problem = "emit -> parse -> emit changed the bytes"
    elif expected is not None and text != expected:
        problem = "script bytes differ from the first pass"
    return Sample(t1 - t0, t2 - t1, text, len(parsed.steps), problem)


def run_pass(pg, inputs, expected, check_roundtrip: bool, tracer=None) -> list[Sample]:
    """Certify every input once, timing the reference job every REFERENCE_EVERY_S.

    ``expected`` holds the first pass's script of each input, or is None.

    Each sample's scale is REFERENCE_S over the mean of the reference timings
    just before and just after it.
    """
    gc.collect()
    samples: list[Sample] = []
    pending: list[Sample] = []
    before = speed.sample()
    since = time.perf_counter()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.request = i
        try:
            sample = certify(pg, inp, expected[i] if expected else None, check_roundtrip)
        except Exception as exc:  # a failed certificate is counted, never fatal
            traceback.print_exc()
            sample = Sample(problem=f"{type(exc).__name__}: {exc}")
        if sample.problem is not None:
            print(f"FAILED {inp.label}: {sample.problem}", file=sys.stderr)
        samples.append(sample)
        pending.append(sample)
        if time.perf_counter() - since >= REFERENCE_EVERY_S or i == len(inputs) - 1:
            after = speed.sample()
            for s in pending:
                s.scale = speed.REFERENCE_S / ((before + after) / 2)
            pending.clear()
            before = after
            since = time.perf_counter()
    return samples


def pass_seconds(samples: list[Sample]) -> float:
    """Certifying time of a pass at the reference speed."""
    return sum((s.decompose_s + s.replay_s) * s.scale for s in samples if s.problem is None)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def script_sha256(samples: list[Sample]) -> str:
    digest = hashlib.sha256()
    for s in samples:
        digest.update(s.text.encode("utf-8"))
    return digest.hexdigest()


def check_baseline_sha(workload: str, seed: int, sha: str) -> None:
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["script_sha256"]
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is not None and expected != sha:
        print(f"script_sha256 mismatch: {workload} seed {seed}: baseline {expected}, now {sha}")


def end_to_end(inputs, passes: list[list[Sample]], setup_times: list[float], scaled: bool):
    """Per-input medians over passes, then medians and tails over inputs."""
    decompose, replay, total = [], [], []
    for i in range(len(inputs)):
        ok = [p[i] for p in passes if p[i].problem is None]
        if ok:
            decompose.append(statistics.median(s.decompose_s * (s.scale if scaled else 1) for s in ok))
            replay.append(statistics.median(s.replay_s * (s.scale if scaled else 1) for s in ok))
            total.append(decompose[-1] + replay[-1])
    first = passes[0]
    dec_tail, dec_pct = tail(decompose)
    rep_tail, rep_pct = tail(replay)
    values = {
        "certs_per_s": len(total) / sum(total),
        "decompose_ms_p50": 1e3 * statistics.median(decompose),
        "decompose_ms_tail": 1e3 * dec_tail,
        "replay_ms_p50": 1e3 * statistics.median(replay),
        "replay_ms_tail": 1e3 * rep_tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "script_bytes": sum(len(s.text.encode("utf-8")) for s in first),
        "script_steps": sum(s.steps for s in first),
    }
    info = {
        "inputs": len(inputs),
        "passes": len(passes),
        "decompose_tail_percentile": round(dec_pct, 2),
        "replay_tail_percentile": round(rep_pct, 2),
        "tail_samples": len(decompose),
        "setup_repeats": len(setup_times),
    }
    return values, info


def timed_setup(workload: str, seed: int):
    """Import posetglue afresh and make the inputs; returns the time unscaled and scaled."""
    before = speed.sample()
    t0 = time.perf_counter()
    pg = import_fresh()
    inputs = make_inputs(pg, workload, seed)
    elapsed = time.perf_counter() - t0
    after = speed.sample()
    return pg, inputs, elapsed, elapsed * speed.REFERENCE_S / ((before + after) / 2)


def measure(workload: str, seed: int, seconds: float):
    raw_setup, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        pg, inputs, raw, scaled = timed_setup(workload, seed)
        raw_setup.append(raw)
        setup_times.append(scaled)

    passes: list[list[Sample]] = []
    expected = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples = run_pass(pg, fresh_copies(pg, inputs), expected, check_roundtrip=True)
        passes.append(samples)
        if expected is None:
            expected = [s.text if s.problem is None else None for s in samples]
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    values, info = end_to_end(inputs, passes, setup_times, scaled=True)
    unscaled, _ = end_to_end(inputs, passes, raw_setup, scaled=False)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    failed = sum(1 for p in passes for s in p if s.problem is not None)
    attempted = sum(len(p) for p in passes)
    info["failed_frac"] = failed / attempted
    info["script_sha256"] = script_sha256(passes[0])
    info["unscaled"] = {k: unscaled[k] for k in TIMES}
    info["reference_scale_p50"] = statistics.median(s.scale for p in passes for s in p)
    return metrics, attempted, failed, True, info


def measure_traced(workload: str, seed: int, seconds: float):
    pg, inputs, _, _ = timed_setup(workload, seed)

    untraced_s, cycles = [], []
    expected = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples = run_pass(pg, fresh_copies(pg, inputs), expected, check_roundtrip=True)
        if expected is None:
            expected = [s.text if s.problem is None else None for s in samples]
        untraced_s.append(pass_seconds(samples))

        tracer = Tracer()
        tracer.install()
        try:
            tracer.request = "setup"
            traced_inputs = make_inputs(pg, workload, seed)
            traced = run_pass(pg, traced_inputs, expected, check_roundtrip=False, tracer=tracer)
        finally:
            tracer.uninstall()
        cycles.append((tracer, pass_seconds(traced)))
        for batch in (samples, traced):
            attempted += len(batch)
            failed += sum(1 for s in batch if s.problem is not None)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    first = cycles[0][0]
    repeats = all(t.counts() == first.counts() for t, _ in cycles)
    if not repeats:
        print("FAILED traced counts differ between cycles", file=sys.stderr)
    overhead = statistics.median(s for _, s in cycles) / statistics.median(untraced_s) - 1.0
    values = per_layer_metrics([t for t, _ in cycles], overhead)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    spans_path = OUT / f"trace-{workload}-seed{seed}.json"
    first.write_spans(spans_path)
    info = {
        "cycles": len(cycles),
        "spans": len(first.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_frac": failed / attempted,
        "counts": first.counts(),
    }
    return metrics, attempted, failed, repeats, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_sources()
    except FileNotFoundError as exc:
        print(f"{exc}; run from a repository checkout", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, repeats, info = measure_traced(args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed, repeats, info = measure(args.workload, args.seed, args.seconds)
        check_baseline_sha(args.workload, args.seed, info["script_sha256"])

    info.update(workload=args.workload, seed=args.seed, python=platform.python_version())
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for name, value in info.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:48s} {value:>16.6g} {metrics[name]['unit']}")
    print(f"failed_frac {info['failed_frac']:.6g} ({failed} of {attempted})")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

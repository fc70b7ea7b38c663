"""Spans and counters around the public functions of each posetglue module.

The program is not edited: ``Tracer.install`` swaps each listed function
for a wrapper in every ``posetglue`` module namespace that binds it (the
modules use ``from .x import y``, so ``gext.verify_gluing`` and
``chains.verify_gluing`` are separate bindings of ``gluing.verify_gluing``),
and ``Tracer.uninstall`` puts the originals back. While nothing is
installed the program runs its own code, so untraced timings carry no
tracing cost.

A span wrapper records (name, start, end, parent, request) in memory and
adds its duration minus its child spans' durations to the layer's self time.
A counter wrapper only counts calls: ``Poset.leq`` runs millions of times per
pass, and a span on it would cost more than the work it measures. The
counter's own cost lands in its caller's self time, so traced self times
run high; ``trace.overhead_frac`` says by how much in total.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, kind); "span" records a span, "count" only counts.
LAYERS = (
    ("core", "build", "span"),
    ("core", "Poset.leq", "count"),
    ("core", "Poset.maximal_chains", "span"),
    ("morphism", "PosetMap.__post_init__", "count"),
    ("morphism", "embedding_violation", "span"),
    ("morphism", "saturated_subset_violation", "span"),
    ("morphism", "find_isomorphism", "span"),
    ("gluing", "glue_along_complete", "span"),
    ("gluing", "glue_along_collection", "span"),
    ("gluing", "verify_gluing", "span"),
    ("chains", "split_for_cover", "span"),
    ("chains", "chain_decomposition", "span"),
    ("gext", "gextension_step", "span"),
    ("gext", "ElevationWitness.validate", "span"),
    ("gext", "retract", "span"),
    ("gext", "elevate", "span"),
    ("gext", "wrap", "span"),
    ("gext", "decompose_to_point", "span"),
    ("gext", "replay", "span"),
    ("documents", "emit_script", "span"),
    ("documents", "parse_script", "span"),
    ("generate", "all_posets_upto_iso", "span"),
    ("generate", "random_poset", "span"),
)

# Layers whose calls and self time the traced run reports.
CALLS = (
    "core.build",
    "core.Poset.leq",
    "morphism.PosetMap",
    "gluing.glue_along_complete",
    "gluing.glue_along_collection",
    "gluing.verify_gluing",
    "chains.split_for_cover",
    "chains.chain_decomposition",
    "gext.gextension_step",
    "gext.ElevationWitness.validate",
    "gext.retract",
    "gext.elevate",
    "gext.wrap",
    "gext.decompose_to_point",
    "gext.replay",
)
SELF_S = (
    "core.build",
    "core.Poset.maximal_chains",
    "morphism.embedding_violation",
    "morphism.saturated_subset_violation",
    "morphism.find_isomorphism",
    "gluing.glue_along_complete",
    "gluing.glue_along_collection",
    "gluing.verify_gluing",
    "chains.split_for_cover",
    "chains.chain_decomposition",
    "gext.gextension_step",
    "gext.ElevationWitness.validate",
    "gext.retract",
    "gext.elevate",
    "gext.wrap",
    "gext.decompose_to_point",
    "gext.replay",
    "documents.emit_script",
    "documents.parse_script",
)


def layer_name(module: str, path: str) -> str:
    if path == "PosetMap.__post_init__":
        return f"{module}.PosetMap"
    return f"{module}.{path}"


class Tracer:
    """Counts and spans for one traced cycle: install, run, uninstall, read."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.chains_listed = 0
        self.sum_nodes = 0
        self.split_sum_nodes = 0
        self.split_result_nodes = 0
        self.spans: list[tuple[int, int, str, float, float, object]] = []
        self.request: object = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        on_result = self._result_hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                self_s[name] += elapsed - frame[2]
                total_s[name] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                spans.append((frame[1], parent, name, start, end, self.request))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _result_hooks(self):
        def chains_listed(result):
            self.chains_listed += len(result)

        def chain_sum(result):
            size = len(result.D.nodes)
            self.sum_nodes += size
            if any(frame[0] == "chains.split_for_cover" for frame in self._stack):
                self.split_sum_nodes += size

        def split_result(result):
            self.split_result_nodes += len(result.F.nodes)

        return {
            "core.Poset.maximal_chains": chains_listed,
            "chains.chain_decomposition": chain_sum,
            "chains.split_for_cover": split_result,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in LAYERS in the currently imported posetglue."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "posetglue" or name.startswith("posetglue."))
        ]
        for module_name, path, kind in LAYERS:
            module = sys.modules[f"posetglue.{module_name}"]
            name = layer_name(module_name, path)
            wrap = self._counter if kind == "count" else self._span
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, wrap(name, original))
                continue
            original = getattr(module, path)
            wrapped = wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count of the cycle; two cycles over the same inputs must agree."""
        out = {f"{name}.calls": self.calls[name] for name in CALLS}
        out["core.Poset.maximal_chains.chains"] = self.chains_listed
        out["chains.chain_decomposition.sum_nodes"] = self.sum_nodes
        out["chains.split_for_cover.sum_nodes"] = self.split_sum_nodes
        out["chains.split_for_cover.result_nodes"] = self.split_result_nodes
        out["generate.random_poset.calls"] = self.calls["generate.random_poset"]
        out["generate.all_posets_upto_iso.calls"] = self.calls["generate.all_posets_upto_iso"]
        return out

    def self_times(self) -> dict[str, float]:
        out = {f"{name}.self_s": self.self_s[name] for name in SELF_S}
        # one figure for both generators, so that no workload reports a zero
        out["generate.self_s"] = (
            self.self_s["generate.random_poset"] + self.self_s["generate.all_posets_upto_iso"]
        )
        return out

    def useful_ratio(self) -> float:
        """Split result nodes per chain-sum node built inside ``split_for_cover``.

        A split that builds no chain sum wastes nothing, so the ratio is then 1.
        """
        if self.split_sum_nodes == 0:
            return 1.0
        return self.split_result_nodes / self.split_sum_nodes

    def split_share(self) -> float:
        """Time inside ``split_for_cover`` per second inside ``decompose_to_point``."""
        return self.total_s["chains.split_for_cover"] / self.total_s["gext.decompose_to_point"]

    def write_spans(self, path) -> None:
        """Spans as [id, parent id (0: none), name, start_s, end_s, request].

        Times count from the first span's start; request is the input's index
        in the pass, or "setup" for input generation.
        """
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [[i, p, n, a - t0, b - t0, r] for i, p, n, a, b, r in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def per_layer_metrics(tracers: list[Tracer], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit): counts of the first cycle, median self times."""
    first = tracers[0]
    counts = first.counts()
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
    out["core.Poset.maximal_chains.chains"] = (counts["core.Poset.maximal_chains.chains"], "count")
    out["chains.chain_decomposition.sum_nodes"] = (
        counts["chains.chain_decomposition.sum_nodes"], "count"
    )
    out["chains.split_for_cover.useful_ratio"] = (first.useful_ratio(), "ratio")
    out["chains.split_for_cover.decompose_share"] = (
        statistics.median(t.split_share() for t in tracers), "frac"
    )
    times = [t.self_times() for t in tracers]
    for name in times[0]:
        out[name] = (statistics.median(t[name] for t in times), "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out

"""Canonical JSON documents for posets, maps, and construction scripts.

One emission shape per document kind, keys in a fixed order, nodes and cover
pairs sorted, two-space indent, trailing newline: emitting the same value
twice is byte-identical, and parse . emit is the identity on canonical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from .core import NodeId, Poset, build
from .errors import ParseError
from .gext import ConstructionScript, ElevateStep, GlueStep

FORMAT_VERSION = 1


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nests too deeply") from exc


def _expect(obj: Any, field: str, kind, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    if field not in obj:
        raise ParseError(f"{where}: missing field {field!r}")
    value = obj[field]
    # JSON true/false are Python bools, which are also ints
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: field {field!r} has the wrong type")
    return value


def _check_version(obj: Any, where: str) -> None:
    version = _expect(obj, "version", int, where)
    if version != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported version {version}")


@dataclass(frozen=True)
class PosetDocument:
    """A poset plus document-only extras: display labels and a free note."""

    poset: Poset
    labels: dict[str, str]
    note: Optional[str] = None


def poset_to_obj(
    P: Poset, note: Optional[str] = None, labels: Optional[dict[str, str]] = None
) -> dict:
    obj: dict[str, Any] = {"version": FORMAT_VERSION}
    if note:
        obj["note"] = note
    obj["nodes"] = sorted(P.nodes)
    obj["covers"] = sorted([a, b] for a, b in P.covers)
    if labels:
        obj["labels"] = dict(sorted(labels.items()))
    return obj


def poset_document_from_obj(obj: Any, where: str = "poset") -> PosetDocument:
    _check_version(obj, where)
    nodes = _expect(obj, "nodes", list, where)
    covers = _expect(obj, "covers", list, where)
    for x in nodes:
        if not isinstance(x, str):
            raise ParseError(f"{where}: node ids must be strings, got {x!r}")
    if len(set(nodes)) != len(nodes):
        raise ParseError(f"{where}: duplicate node ids")
    pairs = []
    for pair in covers:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)):
            raise ParseError(f"{where}: cover entries must be [lower, upper] string pairs")
        pairs.append((pair[0], pair[1]))
    labels: dict[str, str] = {}
    if isinstance(obj, dict) and "labels" in obj:
        raw = _expect(obj, "labels", dict, where)
        node_set = set(nodes)
        for k, v in raw.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ParseError(f"{where}: labels must map node ids to strings")
            if k not in node_set:
                raise ParseError(f"{where}: label for unknown node {k!r}")
            labels[k] = v
    note = obj.get("note") if isinstance(obj, dict) else None
    if note is not None and not isinstance(note, str):
        raise ParseError(f"{where}: note must be a string")
    return PosetDocument(build(nodes, pairs), labels, note)


def poset_from_obj(obj: Any, where: str = "poset") -> Poset:
    return poset_document_from_obj(obj, where).poset


def emit_poset(
    P: Poset, note: Optional[str] = None, labels: Optional[dict[str, str]] = None
) -> str:
    return json.dumps(poset_to_obj(P, note, labels), indent=2) + "\n"


def emit_poset_document(doc: PosetDocument) -> str:
    return emit_poset(doc.poset, doc.note, doc.labels)


def parse_poset(text: str) -> Poset:
    return poset_from_obj(_load(text))


def parse_poset_document(text: str) -> PosetDocument:
    return poset_document_from_obj(_load(text))


def map_to_obj(assignment: dict[str, str]) -> dict:
    return {"version": FORMAT_VERSION, "map": dict(sorted(assignment.items()))}


def map_from_obj(obj: Any, where: str = "map") -> dict[str, str]:
    _check_version(obj, where)
    mapping = _expect(obj, "map", dict, where)
    for k, v in mapping.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ParseError(f"{where}: map entries must be string -> string")
    return dict(mapping)


def emit_map(assignment: dict[str, str]) -> str:
    return json.dumps(map_to_obj(assignment), indent=2) + "\n"


def parse_map(text: str) -> dict[str, str]:
    return map_from_obj(_load(text))


def script_to_obj(script: ConstructionScript) -> dict:
    steps = []
    for step in script.steps:
        if isinstance(step, ElevateStep):
            steps.append(
                {
                    "kind": "elevate",
                    "target": step.target,
                    "count": len(step.fresh_ids),
                    "fresh_ids": list(step.fresh_ids),
                }
            )
        else:
            steps.append(
                {"kind": "glue", "partition": sorted(sorted(part) for part in step.partition)}
            )
    obj: dict[str, Any] = {"version": FORMAT_VERSION}
    if script.source is not None:
        obj["source"] = poset_to_obj(script.source)
    obj["start"] = poset_to_obj(script.start)
    obj["steps"] = steps
    obj["final"] = poset_to_obj(script.final)
    obj["embedding"] = dict(sorted(script.embedding.items()))
    return obj


def script_from_obj(obj: Any) -> ConstructionScript:
    _check_version(obj, "script")
    source = None
    if isinstance(obj, dict) and "source" in obj:
        source = poset_from_obj(obj["source"], "script.source")
    start = poset_from_obj(_expect(obj, "start", dict, "script"), "script.start")
    final = poset_from_obj(_expect(obj, "final", dict, "script"), "script.final")
    raw_steps = _expect(obj, "steps", list, "script")
    steps: list[ElevateStep | GlueStep] = []
    for i, raw in enumerate(raw_steps, start=1):
        where = f"script.steps[{i}]"
        kind = _expect(raw, "kind", str, where)
        if kind == "elevate":
            target = _expect(raw, "target", str, where)
            count = _expect(raw, "count", int, where)
            fresh = _expect(raw, "fresh_ids", list, where)
            if len(fresh) != count or not all(isinstance(q, str) for q in fresh):
                raise ParseError(f"{where}: fresh_ids must be {count} strings")
            steps.append(ElevateStep(target=target, fresh_ids=tuple(fresh)))
        elif kind == "glue":
            partition = _expect(raw, "partition", list, where)
            parts = []
            for part in partition:
                if not (isinstance(part, list) and part and all(isinstance(p, str) for p in part)):
                    raise ParseError(f"{where}: partition parts must be nonempty string lists")
                parts.append(frozenset(part))
            steps.append(GlueStep(partition=tuple(sorted(parts, key=min))))
        else:
            raise ParseError(f"{where}: unknown step kind {kind!r}")
    embedding = _expect(obj, "embedding", dict, "script")
    for k, v in embedding.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ParseError("script.embedding entries must be string -> string")
    return ConstructionScript(
        start=start,
        steps=tuple(steps),
        final=final,
        embedding=dict(embedding),
        source=source,
    )


def emit_script(script: ConstructionScript) -> str:
    return json.dumps(script_to_obj(script), indent=2) + "\n"


def parse_script(text: str) -> ConstructionScript:
    return script_from_obj(_load(text))


def _dot_id(x: NodeId) -> str:
    """x as a Graphviz quoted string: backslash and double quote escaped."""
    escaped = x.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def emit_dot(P: Poset, highlight=()) -> str:
    """Graphviz text: edges run bottom-to-top, nodes ranked by height."""
    highlight = frozenset(highlight)
    for x in highlight:
        P._check_node(x)
    lines = ["digraph poset {", "  rankdir=BT;", '  node [shape=circle, fontsize=10];']
    by_height: dict[int, list[str]] = {}
    for x in P.nodes:
        by_height.setdefault(P.height(x) if P.nodes else 0, []).append(x)
    for h in sorted(by_height):
        lines.append("  { rank=same;")
        for x in sorted(by_height[h]):
            style = ' [style=filled, fillcolor=lightblue]' if x in highlight else ""
            lines.append(f"    {_dot_id(x)}{style};")
        lines.append("  }")
    for a, b in sorted(P.covers):
        lines.append(f"  {_dot_id(a)} -> {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Maps between posets and the verifier hierarchy.

poset map -> embedding -> saturated embedding -> isomorphism. Each level has
a ``*_violation`` function returning a concrete witness (or None), so failed
certificates can say which pair broke; the ``is_*`` predicates delegate to
those. Each rung's scan (``poset_map_violation``, ``_reflection_violation``,
``_cover_violation``) checks no preconditions: a ``*_violation`` runs the rung
below once and raises from its result, and a verifier walking the ladder
calls the three in turn. They read up-sets directly; ``PosetMap`` checked ids.

Set algebra decides, scans name witnesses. ``PosetMap`` totality, the
embedding test and the saturated-subset test first answer "no violation"
with whole-set operations (key-view comparison, up-set intersections and
differences), which run in C and are exact: each accepts exactly the inputs
the per-node scan accepts. Only when that answer is no does the per-node scan
run, so every witness, exception and message is the scan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .core import NodeId, Poset
from .errors import NotEmbedding, NotPosetMap, UnknownNode


@dataclass(frozen=True)
class PosetMap:
    """Total function between the node sets of two posets."""

    source: Poset
    target: Poset
    assignment: Mapping[NodeId, NodeId]

    def __post_init__(self):
        assignment = self.assignment
        if assignment.keys() != self.source._up.keys() or not self.target._up.keys() >= set(
            assignment.values()
        ):
            missing = [x for x in self.source.nodes if x not in assignment]
            if missing:
                raise UnknownNode(f"assignment not total; missing {missing[:3]!r}")
            extra = [x for x in assignment if x not in self.source]
            if extra:
                raise UnknownNode(f"assignment defined off the source: {extra[:3]!r}")
            bad = [y for y in assignment.values() if y not in self.target]
            raise UnknownNode(f"assignment lands outside the target: {bad[:3]!r}")
        object.__setattr__(self, "assignment", dict(assignment))

    def __call__(self, x: NodeId) -> NodeId:
        return self.assignment[x]

    def image(self) -> frozenset[NodeId]:
        return frozenset(self.assignment.values())

    def fiber(self, y: NodeId) -> frozenset[NodeId]:
        return frozenset(x for x, v in self.assignment.items() if v == y)

    def is_surjective(self) -> bool:
        return self.image() == frozenset(self.target.nodes)

    def __eq__(self, other):
        if not isinstance(other, PosetMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )


def identity_map(P: Poset) -> PosetMap:
    return PosetMap(P, P, {x: x for x in P.nodes})


def inclusion_map(P: Poset, Q: Poset) -> PosetMap:
    """Identity-on-ids inclusion of P into Q; every P node must exist in Q."""
    return PosetMap(P, Q, {x: x for x in P.nodes})


def compose(f: PosetMap, g: PosetMap) -> PosetMap:
    """g after f: the composite X -> Z of f: X -> Y and g: Y -> Z."""
    if f.target != g.source:
        raise UnknownNode("composition mismatch: f.target != g.source")
    return PosetMap(f.source, g.target, {x: g(f(x)) for x in f.source.nodes})


def poset_map_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A source cover whose image is not ordered, or None."""
    up, g = f.target._up, f.assignment
    for a, b in sorted(f.source.covers):
        if g[b] not in up[g[a]]:
            return (a, b)
    return None


def is_poset_map(f: PosetMap) -> bool:
    return poset_map_violation(f) is None


def _reflection_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A pair with f(x) <= f(y) but not x <= y, or None; f must be a poset map."""
    nodes, source_up, target_up, g = f.source.nodes, f.source._up, f.target._up, f.assignment
    # An injective poset map sends up(x) into up(g x) & image; it reflects
    # order iff nothing else lands there, i.e. iff the sizes match. A shared
    # up-set object (the sections elevate and retract build) matches at once.
    image = frozenset(g.values())
    if len(image) == len(nodes) and all(
        target_up[g[x]] is source_up[x] or len(target_up[g[x]] & image) == len(source_up[x])
        for x in nodes
    ):
        return None
    for x in nodes:
        image_up, x_up = target_up[g[x]], source_up[x]
        bad = [y for y in nodes if g[y] in image_up and y not in x_up]
        if bad:
            return (x, bad[0])
    return None


def _cover_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A source cover whose image is not a cover, or None; f must be an embedding."""
    for a, b in sorted(f.source.covers):
        if not f.target.is_cover(f(a), f(b)):
            return (a, b)
    return None


def embedding_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A pair with f(x) <= f(y) but not x <= y, or None. Requires a poset map."""
    pair = poset_map_violation(f)
    if pair is not None:
        raise NotPosetMap(f"not a poset map: cover {pair!r} collapses order")
    return _reflection_violation(f)


def is_embedding(f: PosetMap) -> bool:
    return embedding_violation(f) is None


def saturation_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A source cover whose image is not a cover, or None. Requires an embedding."""
    pair = embedding_violation(f)
    if pair is not None:
        raise NotEmbedding(f"not an embedding: order reflection fails at {pair!r}")
    return _cover_violation(f)


def is_saturated_embedding(f: PosetMap) -> bool:
    return saturation_violation(f) is None


def is_isomorphism(f: PosetMap) -> bool:
    pair = embedding_violation(f)
    if pair is not None:
        raise NotEmbedding(f"not an embedding: order reflection fails at {pair!r}")
    return f.is_surjective()


def saturated_subset_violation(P: Poset, Z: Iterable[NodeId]) -> Optional[tuple[NodeId, NodeId]]:
    """An induced cover of Z that is not a cover of P, or None."""
    Z = frozenset(Z)
    for x in Z:
        if x not in P:
            raise UnknownNode(f"unknown node {x!r}")
    up = P._up
    # Z is saturated iff everything of Z above u lies above an upper cover of
    # u in Z: then each minimal one is such a cover, and conversely.
    upper = P._cover_lists(upper=True)
    if all(
        not (up[u] & Z).difference((u,), *(up[c] for c in upper[u] if c in Z)) for u in Z
    ):
        return None
    for u in sorted(Z):
        above = (up[u] & Z) - {u}
        for v in sorted(above):
            # v covers u inside Z unless another member of `above` lies below it
            if any(v in up[w] for w in above if w != v):
                continue
            if (u, v) not in P.covers:
                return (u, v)
    return None


def is_saturated_subset(P: Poset, Z: Iterable[NodeId]) -> bool:
    return saturated_subset_violation(P, Z) is None


def _signatures(P: Poset) -> dict[NodeId, tuple[int, int, int]]:
    """(height, lower-cover count, upper-cover count) of every node."""
    heights = P._height_table()
    below, above = P._cover_lists(upper=False), P._cover_lists(upper=True)
    return {x: (heights[x], len(below[x]), len(above[x])) for x in P.nodes}


def find_isomorphism(P: Poset, Q: Poset) -> Optional[PosetMap]:
    """An order isomorphism P -> Q, or None; deterministic for fixed inputs.

    Backtracking over (height, in-degree, out-degree)-compatible assignments;
    fine for desk-scale posets. Depth-first with an explicit stack of
    candidate iterators, one per assigned node, so long chains cannot hit the
    recursion limit.
    """
    if len(P.nodes) != len(Q.nodes) or len(P.covers) != len(Q.covers):
        return None
    if not P.nodes:
        return PosetMap(P, Q, {})
    sig_p = _signatures(P)
    sig_q: dict[tuple[int, int, int], list[NodeId]] = {}
    for y, sig in _signatures(Q).items():
        sig_q.setdefault(sig, []).append(y)
    if sorted(sig_p.values()) != sorted(
        s for s, ys in sig_q.items() for _ in ys
    ):
        return None

    order = sorted(P.nodes, key=lambda x: (sig_p[x], x))
    up_p, up_q = P._up, Q._up
    assigned: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def candidates(x: NodeId):
        # read lazily: when a deeper level gives up, `assigned` and `used`
        # are back to what they were when this level began
        for y in sig_q.get(sig_p[x], []):
            if y in used:
                continue
            if all(
                (x2 in up_p[x]) == (y2 in up_q[y]) and (x in up_p[x2]) == (y in up_q[y2])
                for x2, y2 in assigned.items()
            ):
                yield y

    pending = [candidates(order[0])]
    while pending:
        x = order[len(pending) - 1]
        if x in assigned:
            used.remove(assigned.pop(x))
        y = next(pending[-1], None)
        if y is None:
            pending.pop()
            continue
        assigned[x] = y
        used.add(y)
        if len(pending) == len(order):
            return PosetMap(P, Q, dict(assigned))
        pending.append(candidates(order[len(pending)]))
    return None

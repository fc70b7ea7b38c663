"""Maps between posets and the verifier hierarchy.

poset map -> embedding -> saturated embedding -> isomorphism. Each level has
a ``*_violation`` function returning a concrete witness (or None), so failed
certificates can say which pair broke; the ``is_*`` predicates delegate to
those. The verifiers read the posets' up-sets and the assignment directly:
a ``PosetMap`` has already checked every id it holds.
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
        missing = [x for x in self.source.nodes if x not in self.assignment]
        if missing:
            raise UnknownNode(f"assignment not total; missing {missing[:3]!r}")
        extra = [x for x in self.assignment if x not in self.source]
        if extra:
            raise UnknownNode(f"assignment defined off the source: {extra[:3]!r}")
        bad = [y for y in self.assignment.values() if y not in self.target]
        if bad:
            raise UnknownNode(f"assignment lands outside the target: {bad[:3]!r}")
        object.__setattr__(self, "assignment", dict(self.assignment))

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


def embedding_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A pair with f(x) <= f(y) but not x <= y, or None. Requires a poset map."""
    if not is_poset_map(f):
        raise NotPosetMap(f"not a poset map: cover {poset_map_violation(f)!r} collapses order")
    nodes, source_up, target_up, g = f.source.nodes, f.source._up, f.target._up, f.assignment
    for x in nodes:
        image_up, x_up = target_up[g[x]], source_up[x]
        bad = [y for y in nodes if g[y] in image_up and y not in x_up]
        if bad:
            return (x, bad[0])
    return None


def is_embedding(f: PosetMap) -> bool:
    return embedding_violation(f) is None


def saturation_violation(f: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A source cover whose image is not a cover, or None. Requires an embedding."""
    if not is_embedding(f):
        raise NotEmbedding(f"not an embedding: order reflection fails at {embedding_violation(f)!r}")
    for a, b in sorted(f.source.covers):
        if not f.target.is_cover(f(a), f(b)):
            return (a, b)
    return None


def is_saturated_embedding(f: PosetMap) -> bool:
    return saturation_violation(f) is None


def is_isomorphism(f: PosetMap) -> bool:
    if not is_embedding(f):
        raise NotEmbedding(f"not an embedding: order reflection fails at {embedding_violation(f)!r}")
    return f.is_surjective()


def saturated_subset_violation(P: Poset, Z: Iterable[NodeId]) -> Optional[tuple[NodeId, NodeId]]:
    """An induced cover of Z that is not a cover of P, or None."""
    Z = frozenset(Z)
    for x in Z:
        if x not in P:
            raise UnknownNode(f"unknown node {x!r}")
    up = P._up
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


def _signature(P: Poset, x: NodeId) -> tuple[int, int, int]:
    return (P.height(x), len(P.lower_covers(x)), len(P.upper_covers(x)))


def find_isomorphism(P: Poset, Q: Poset) -> Optional[PosetMap]:
    """An order isomorphism P -> Q, or None; deterministic for fixed inputs.

    Backtracking over (height, in-degree, out-degree)-compatible assignments;
    fine for desk-scale posets.
    """
    if len(P.nodes) != len(Q.nodes) or len(P.covers) != len(Q.covers):
        return None
    if not P.nodes:
        return PosetMap(P, Q, {})
    sig_p = {x: _signature(P, x) for x in P.nodes}
    sig_q: dict[tuple[int, int, int], list[NodeId]] = {}
    for y in Q.nodes:
        sig_q.setdefault(_signature(Q, y), []).append(y)
    if sorted(sig_p.values()) != sorted(
        s for s, ys in sig_q.items() for _ in ys
    ):
        return None

    order = sorted(P.nodes, key=lambda x: (sig_p[x], x))
    assigned: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in sig_q.get(sig_p[x], []):
            if y in used:
                continue
            ok = all(
                P.leq(x, x2) == Q.leq(y, y2) and P.leq(x2, x) == Q.leq(y2, y)
                for x2, y2 in assigned.items()
            )
            if not ok:
                continue
            assigned[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assigned[x]
            used.remove(y)
        return False

    if extend(0):
        return PosetMap(P, Q, dict(assigned))
    return None

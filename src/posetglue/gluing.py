"""Gluing calculus: canonical quotients along interval-closed sets.

``glue_along_collection`` is the one quotient constructor. It merges
overlapping members into their unions and names every node by its member's
least id, so outputs are reproducible and quotient maps are readable. When
the members are down-sets (height-zero gluings and retractions) the quotient
is derived from the source's up-sets by ``core._glued``; other complete
members are built once from the image of the cover relation.
``glue_along_complete`` is its one-member case, with its own input checks and
messages. ``verify_gluing`` certifies an arbitrary (X, Y, g, collection)
claim by its pointwise checks, then rebuilds the canonical quotient and
checks that the comparison map carries its covers onto Y's, which pins the
claim up to unique iso.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import morphism
from .core import NodeId, Poset, _glued, build
from .errors import (
    CycleDetected,
    EmptySet,
    InternalInvariantError,
    NotACover,
    NotAntichainCollection,
    NotCompatible,
    NotComplete,
    NotHeightZero,
    NotPosetMap,
    OverlappingCollection,
    UnknownNode,
)
from .morphism import PosetMap

CSequence = tuple[NodeId, ...]


@dataclass(frozen=True)
class GluingWitness:
    """A gluing of ``source`` onto ``target`` along ``collection``."""

    source: Poset
    target: Poset
    map: PosetMap
    collection: tuple[frozenset[NodeId], ...]


@dataclass(frozen=True)
class GluingReport:
    ok: bool
    reason: str = "ok"
    witness_pair: Optional[tuple[NodeId, NodeId]] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class PreservationReport:
    dim_source: int
    dim_target: int
    min_source: frozenset[NodeId]
    min_preimage: frozenset[NodeId]


def normalize_collection(
    X: Poset, collection: Iterable[Iterable[NodeId]]
) -> tuple[frozenset[NodeId], ...]:
    """Merge overlapping members into unions, drop empties and singletons.

    Sorted by least member, so downstream gluing order is deterministic.
    """
    members = []
    for C in collection:
        C = frozenset(C)
        for x in C:
            if x not in X:
                raise UnknownNode(f"collection references unknown node {x!r}")
        if len(C) >= 1:
            members.append(set(C))
    merged = True
    while merged:
        merged = False
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if members[i] & members[j]:
                    members[i] |= members[j]
                    del members[j]
                    merged = True
                    break
            if merged:
                break
    out = [frozenset(m) for m in members if len(m) >= 2]
    return tuple(sorted(out, key=min))


def fiber_collection(g: PosetMap) -> tuple[frozenset[NodeId], ...]:
    """Fibers of g with at least two elements, sorted by least member.

    An injective g has none, which one set of its values shows.
    """
    if len(set(g.assignment.values())) == len(g.assignment):
        return ()
    fibers: dict[NodeId, set[NodeId]] = {}
    for x, y in g.assignment.items():
        fibers.setdefault(y, set()).add(x)
    return tuple(sorted((frozenset(f) for f in fibers.values() if len(f) >= 2), key=min))


def glue_along_complete(X: Poset, S: Iterable[NodeId]) -> GluingWitness:
    """Quotient X by collapsing the complete subset S to one class.

    Class order: [x] <= [y] iff x <= y, or x lies below some member of S and
    y lies above some member. That is the closure of the image of X's covers,
    the quotient ``glue_along_collection`` makes along (S,). The class node
    is named by S's least member.
    """
    S = frozenset(S)
    if not S:
        raise EmptySet("cannot glue along the empty set")
    for x in S:
        if x not in X:
            raise UnknownNode(f"unknown node {x!r}")
    if not X.is_complete_subset(S):
        raise NotComplete(f"set {sorted(S)!r} is not interval-closed")
    w = glue_along_collection(X, (S,))
    return GluingWitness(X, w.target, w.map, (S,))


def glue_along_collection(
    X: Poset, collection: Iterable[Iterable[NodeId]]
) -> GluingWitness:
    """Quotient X along a collection in one pass.

    Every member must be complete in X. Members are normalized (overlaps
    merged) and each node is named by its member's least id. When every
    member is a down-set, as on every height-zero gluing and retraction, the
    quotient is derived from X's up-sets (``core._glued``); one pass over the
    covers decides that, since a member is a down-set iff every cover that
    ends in it starts in it. Otherwise it is built once from the image of X's
    covers. This equals gluing the members one at a time in normalized order:
    the order generated by the image of the covers is the same either way,
    and some member stops being complete at its stage exactly when the
    one-pass relation has a cycle (disjoint down-sets never form one). Only
    then is the stagewise fold run, so NotComplete names the first such
    member.
    """
    collection = [frozenset(C) for C in collection]
    for C in collection:
        if C and not X.is_complete_subset(C):
            raise NotComplete(f"member {sorted(C)!r} is not interval-closed in the source")
    members = normalize_collection(X, collection)
    least_of: dict[NodeId, NodeId] = {}
    for C in members:
        least = min(C)
        for x in C:
            least_of[x] = least
    name_of = {x: least_of.get(x, x) for x in X.nodes}
    if all(least_of.get(a) == least_of[b] for a, b in X.covers if b in least_of):
        Y = _glued(X, members) if members else X
    else:
        relation = {
            (name_of[a], name_of[b]) for a, b in X.covers if name_of[a] != name_of[b]
        }
        try:
            Y = build(set(name_of.values()), relation)
        except CycleDetected:
            _name_incomplete_stage(X, members)
            raise InternalInvariantError(
                "quotient relation has a cycle, yet every stage is complete"
            )
    return GluingWitness(X, Y, PosetMap(X, Y, name_of), members)


def _name_incomplete_stage(X: Poset, members: tuple[frozenset[NodeId], ...]) -> None:
    """Glue the members one at a time; raise NotComplete at the first stage
    whose member is not interval-closed.

    Members are disjoint and earlier classes keep ids from earlier members,
    so each member is its own image at its stage.
    """
    current = X
    for C in members:
        if not current.is_complete_subset(C):
            raise NotComplete(
                f"image {sorted(C)!r} of member {sorted(C)!r} is not interval-closed at its stage"
            )
        current = glue_along_collection(current, (C,)).target


def is_height_zero_gluing(w: GluingWitness) -> bool:
    """Every identified set consists of minimal nodes of the source."""
    if not w.collection:
        return True
    mins = w.source.min_nodes()
    return all(C <= mins for C in w.collection)


def compatibility_violation(g: PosetMap, h: PosetMap) -> Optional[tuple[NodeId, NodeId]]:
    """A pair where g agrees and h disagrees, or None."""
    by_image: dict[NodeId, NodeId] = {}
    for x in sorted(g.source.nodes):
        y = g(x)
        if y in by_image:
            if h(by_image[y]) != h(x):
                return (by_image[y], x)
        else:
            by_image[y] = x
    return None


def induced_map(w: GluingWitness, h: PosetMap) -> PosetMap:
    """The unique map phi with phi . g = h, for h compatible with w.map."""
    if h.source != w.source:
        raise UnknownNode("h must start at the gluing's source")
    if not morphism.is_poset_map(h):
        raise NotPosetMap(
            f"h is not order-preserving at {morphism.poset_map_violation(h)!r}"
        )
    pair = compatibility_violation(w.map, h)
    if pair is not None:
        raise NotCompatible(
            f"map disagrees on a fiber: {pair[0]!r} and {pair[1]!r} glue together "
            f"but map to {h(pair[0])!r} and {h(pair[1])!r}",
            pair=pair,
        )
    # nodes are sorted, so the last write for each class is its least member
    least = {w.map(x): x for x in reversed(w.source.nodes)}
    assignment = {y: h(least[y]) for y in w.target.nodes}
    phi = PosetMap(w.target, h.target, assignment)
    if not morphism.is_poset_map(phi):
        raise InternalInvariantError(
            f"induced map is not order-preserving at {morphism.poset_map_violation(phi)!r}"
        )
    if any(phi(w.map(x)) != h(x) for x in w.source.nodes):
        raise InternalInvariantError("induced map does not factor the given map")
    return phi


def verify_gluing(
    X: Poset,
    Y: Poset,
    g: PosetMap | dict,
    collection: Iterable[Iterable[NodeId]],
) -> GluingReport:
    """Certify that (X, Y, g) is a gluing along the collection.

    Checks the two pointwise conditions directly (constant on members; any
    collapsed pair lies in a common merged member), then rebuilds the
    canonical quotient and requires the comparison map to be an isomorphism:
    the images of the canonical covers must be exactly Y's covers. The
    rebuild is ``core._glued`` whenever the members are down-sets, so it
    costs time linear in the size of X on a chain.
    """
    if not isinstance(g, PosetMap):
        g = PosetMap(X, Y, g)
    if g.source != X or g.target != Y:
        return GluingReport(False, "map endpoints do not match the claimed posets")
    if not morphism.is_poset_map(g):
        return GluingReport(False, "not a poset map", morphism.poset_map_violation(g))
    if not g.is_surjective():
        return GluingReport(False, "gluing map must be surjective")

    raw = [frozenset(C) for C in collection]
    for C in raw:
        images = {g(x) for x in C}
        if len(images) > 1:
            return GluingReport(False, f"map is not constant on member {sorted(C)!r}")
    try:
        members = normalize_collection(X, raw)
    except UnknownNode:
        return GluingReport(False, "collection references unknown nodes")

    member_of: dict[NodeId, frozenset[NodeId]] = {}
    for C in members:
        for x in C:
            member_of[x] = C
    for C in fiber_collection(g):
        xs = sorted(C)
        for x in xs[1:]:
            if member_of.get(xs[0]) is None or member_of.get(x) is not member_of.get(xs[0]):
                return GluingReport(
                    False,
                    "distinct nodes collapse outside every collection member",
                    (xs[0], x),
                )

    # g is constant on each merged member and collapses nothing else, so its
    # fibers are exactly the members. Fibers of a poset map are convex and
    # the relation they induce embeds in Y's order, so the canonical quotient
    # exists; g is surjective, so phi: class of x -> g(x) is a bijection onto
    # Y, order-preserving because g is, and an isomorphism iff it carries the
    # canonical covers onto Y's covers.
    canonical = glue_along_collection(X, members)
    Q = canonical.target
    g_of = g.assignment
    phi = {q: g_of[x] for x, q in canonical.map.assignment.items()}
    if {(phi[a], phi[b]) for a, b in Q.covers} == Y.covers:
        return GluingReport(True)
    # some cover of Y then pulls back to an unordered pair; report the least
    inverse = {y: q for q, y in phi.items()}
    witness = next(
        (a, b) for a, b in sorted(Y.covers) if inverse[b] not in Q._up[inverse[a]]
    )
    return GluingReport(False, "comparison map is not an isomorphism", witness)


def find_c_sequence(
    X: Poset,
    collection: Sequence[Iterable[NodeId]],
    x: NodeId,
    y: NodeId,
) -> Optional[CSequence]:
    """Shortest walk from x to y stepping up in order or jumping inside a member.

    Exists iff the images of x and y are comparable in the gluing along the
    (pairwise disjoint) collection; BFS makes the returned one canonical.
    """
    members = [frozenset(C) for C in collection]
    seen: set[NodeId] = set()
    for C in members:
        for v in C:
            if v not in X:
                raise UnknownNode(f"collection references unknown node {v!r}")
            if v in seen:
                raise OverlappingCollection(f"node {v!r} appears in two members")
        seen |= C
    X._check_node(x)
    X._check_node(y)

    member_of: dict[NodeId, frozenset[NodeId]] = {}
    for C in members:
        for v in C:
            member_of[v] = C

    def neighbors(u: NodeId) -> list[NodeId]:
        ups = set(X.up_set(u)) - {u}
        jumps = set(member_of.get(u, frozenset())) - {u}
        return sorted(ups | jumps)

    if x == y:
        return (x,)
    parent: dict[NodeId, NodeId] = {x: x}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbors(u):
                if v in parent:
                    continue
                parent[v] = u
                if v == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                nxt.append(v)
        frontier = nxt
    return None


def is_c_sequence(
    X: Poset, collection: Sequence[Iterable[NodeId]], seq: Sequence[NodeId]
) -> bool:
    members = [frozenset(C) for C in collection]
    if not seq:
        return False
    for u, v in zip(seq, seq[1:]):
        if X.leq(u, v):
            continue
        if any(u in C and v in C for C in members):
            continue
        return False
    return True


def lift_cover(
    w: GluingWitness, gx: NodeId, gy: NodeId
) -> tuple[NodeId, NodeId]:
    """Least source cover (x', y') mapping onto the target cover (gx, gy).

    Requires every collection member to be an antichain; existence is then
    guaranteed, so failure to find one is an internal error.
    """
    for C in w.collection:
        if not w.source.is_antichain(C):
            raise NotAntichainCollection(f"member {sorted(C)!r} is not an antichain")
    if not w.target.is_cover(gx, gy):
        raise NotACover(f"{gy!r} does not cover {gx!r} in the target")
    for a, b in sorted(w.source.covers):
        if w.map(a) == gx and w.map(b) == gy:
            return (a, b)
    raise InternalInvariantError(
        f"no source cover lifts ({gx!r}, {gy!r}); witness is not a valid gluing"
    )


def check_dim_min_preservation(w: GluingWitness) -> PreservationReport:
    """Height-zero gluings keep dimension and pull minima back exactly."""
    if not is_height_zero_gluing(w):
        raise NotHeightZero("collection members must consist of source minima")
    dim_s = w.source.dim()
    dim_t = w.target.dim()
    min_s = w.source.min_nodes()
    pre = frozenset(x for x in w.source.nodes if w.map(x) in w.target.min_nodes())
    if dim_s != dim_t:
        raise InternalInvariantError(
            f"height-zero gluing changed dimension: {dim_s} -> {dim_t}"
        )
    if min_s != pre:
        raise InternalInvariantError(
            "height-zero gluing broke the minima correspondence: "
            f"{sorted(min_s)!r} vs preimage {sorted(pre)!r}"
        )
    return PreservationReport(dim_s, dim_t, min_s, pre)

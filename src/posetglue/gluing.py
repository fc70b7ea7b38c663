"""Gluing calculus: canonical quotients along interval-closed sets.

``_quotient`` is the one quotient constructor, private and unchecked. It
takes normalized members (disjoint, complete, two or more ids, sorted by
least id) and names every node by its member's least id, so outputs are
reproducible and quotient maps are readable. When the members are down-sets
(height-zero gluings and retractions) the quotient is derived from the
source's up-sets by ``core._glued``; other members are built once from the
image of the cover relation. Each public entry checks its own input once and
then calls it: ``glue_along_collection`` checks that every member is complete
and merges overlapping members (``normalize_collection``);
``glue_along_complete`` is the one-member case, with its own checks and
messages. Callers that have already proved those facts call ``_quotient``
directly: ``_name_incomplete_stage`` after its per-stage check,
``chains.glue_D_along_subcollection`` after its fiber check, and
``verify_gluing`` to name a fault. CLI ``glue`` prints
``glue_along_collection``'s result as built: ``verify_gluing`` would
check it against the same code.
``verify_gluing`` certifies an arbitrary (X, Y, g, collection) claim by its
pointwise checks, the second of them a node count, then checks that the
comparison map carries the canonical quotient's covers onto Y's, which pins
the claim up to unique iso. It first reads covers off
``core._glued_covers``, the rule ``_glued`` builds with: on any disjoint
convex members each pair it returns is ordered in the quotient, so a match
proves the claim, and along down-sets they are exactly the quotient's
covers. It calls ``_quotient`` only when they differ, to decide the claim
or name the witness pair. It checks the gluing claims other code makes:
``chain_decomposition`` (X is a gluing of the chain sum),
``chains._check_split`` (X is a gluing of a split F, on both split paths)
and ``ElevationWitness.validate``. The step loop's glue steps call
``core._glued`` unchecked: ``replay`` compares the nodes and covers the
steps reach with the script's final poset and certifies that poset, so a
glue step's quotient is read only through its covers, and the tests check
``_glued`` against ``build`` on every glue step of the sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import morphism
from .core import NodeId, Poset, _glued, _glued_covers, build
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

    One pass: each member absorbs the unions it meets. Sorted by least
    member, so downstream gluing order is deterministic.
    """
    union_of: dict[NodeId, frozenset[NodeId]] = {}
    for C in collection:
        C = frozenset(C)
        X._check_nodes(C, "collection references unknown node")
        C = C.union(*{union_of[x] for x in C if x in union_of})
        union_of.update(dict.fromkeys(C, C))
    return tuple(sorted((U for U in set(union_of.values()) if len(U) >= 2), key=min))


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
    if not X.is_complete_subset(S):
        raise NotComplete(f"set {sorted(S)!r} is not interval-closed")
    Y, name_of = _quotient(X, (S,) if len(S) >= 2 else ())
    return GluingWitness(X, Y, PosetMap(X, Y, name_of), (S,))


def glue_along_collection(
    X: Poset, collection: Iterable[Iterable[NodeId]]
) -> GluingWitness:
    """Quotient X along a collection in one pass.

    Every member must be complete in X. Members are normalized (overlaps
    merged) and glued by ``_quotient``. This equals gluing the members one
    at a time in normalized order: the order generated by the image of the
    covers is the same either way, and some member stops being complete at
    its stage exactly when the one-pass relation has a cycle (disjoint
    down-sets never form one). Only then is the stagewise fold run, so
    NotComplete names the first such member.
    """
    collection = [frozenset(C) for C in collection]
    for C in collection:
        if C and not X.is_complete_subset(C):
            raise NotComplete(f"member {sorted(C)!r} is not interval-closed in the source")
    members = normalize_collection(X, collection)
    try:
        Y, name_of = _quotient(X, members)
    except CycleDetected:
        _name_incomplete_stage(X, members)
        raise InternalInvariantError(
            "quotient relation has a cycle, yet every stage is complete"
        )
    return GluingWitness(X, Y, PosetMap(X, Y, name_of), members)


def _quotient(
    X: Poset, members: Sequence[frozenset[NodeId]]
) -> tuple[Poset, dict[NodeId, NodeId]]:
    """X glued along normalized members, and each node's class name.

    The caller has checked that the members are disjoint and complete, with
    two or more ids each, sorted by least id. Each class is named by its
    least id. When every member is a down-set the quotient is derived from
    X's up-sets (``core._glued``); one pass over the covers decides that,
    since a member is a down-set iff every cover that ends in it starts in
    it. Otherwise it is built once from the image of X's covers, and
    CycleDetected means some member is not complete at its stage.
    """
    least_of: dict[NodeId, NodeId] = {}
    for C in members:
        least_of.update(dict.fromkeys(C, min(C)))
    name_of = {x: least_of.get(x, x) for x in X.nodes}
    if all(least_of.get(a) == least_of[b] for a, b in X.covers if b in least_of):
        return (_glued(X, members) if members else X), name_of
    relation = {(name_of[a], name_of[b]) for a, b in X.covers if name_of[a] != name_of[b]}
    return build(set(name_of.values()), relation), name_of


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
        current = _quotient(current, (C,))[0]


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
    pair = morphism.poset_map_violation(h)
    if pair is not None:
        raise NotPosetMap(f"h is not order-preserving at {pair!r}")
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
    # h is constant on each fiber of w.map, so phi . w.map = h by construction
    phi = PosetMap(w.target, h.target, assignment)
    pair = morphism.poset_map_violation(phi)
    if pair is not None:
        raise InternalInvariantError(f"induced map is not order-preserving at {pair!r}")
    return phi


def verify_gluing(
    X: Poset,
    Y: Poset,
    g: PosetMap | dict,
    collection: Iterable[Iterable[NodeId]],
) -> GluingReport:
    """Certify that (X, Y, g) is a gluing along the collection.

    Checks the two pointwise conditions directly (constant on members; any
    collapsed pair lies in a common merged member), then requires the
    comparison map to be an isomorphism: the images of the canonical
    quotient's covers must be exactly Y's covers. The second condition is a
    count of classes against Y's nodes, and the fibers of g are read only to
    name the pair when it fails. The covers are first read off
    ``core._glued_covers`` in one pass over X's covers; a match proves the
    claim, and along down-sets those pairs are the quotient's covers, so a
    claim that holds there builds no quotient poset. On a mismatch the
    quotient is built through ``_quotient`` to decide the claim or name its
    witness pair.
    """
    if not isinstance(g, PosetMap):
        g = PosetMap(X, Y, g)
    if g.source != X or g.target != Y:
        return GluingReport(False, "map endpoints do not match the claimed posets")
    pair = morphism.poset_map_violation(g)
    if pair is not None:
        return GluingReport(False, "not a poset map", pair)
    if not g.is_surjective():
        return GluingReport(False, "gluing map must be surjective")

    # a member's ids are checked before g is read on it, so an unknown id is
    # reported, and a member listed earlier that g is not constant on wins
    raw = [frozenset(C) for C in collection]
    for C in raw:
        if not X._up.keys() >= C:
            return GluingReport(False, "collection references unknown nodes")
        if len({g(x) for x in C}) > 1:
            return GluingReport(False, f"map is not constant on member {sorted(C)!r}")
    members = normalize_collection(X, raw)

    # g is surjective and constant on each merged member, so it collapses
    # nothing else iff it has one value per class; the fibers name the pair
    # only when it does not
    if len(X.nodes) - sum(len(C) - 1 for C in members) != len(Y.nodes):
        member_of = {x: C for C in members for x in C}
        for C in fiber_collection(g):
            xs = sorted(C)
            for x in xs[1:]:
                if member_of.get(xs[0]) is None or member_of.get(x) is not member_of.get(xs[0]):
                    return GluingReport(
                        False,
                        "distinct nodes collapse outside every collection member",
                        (xs[0], x),
                    )

    # the fibers of g are exactly the members. Fibers of a poset map are
    # convex and the relation they induce embeds in Y's order, so the
    # canonical quotient exists; g is surjective, so phi: class of x -> g(x)
    # is a bijection onto Y, order-preserving because g is. A class is named
    # by its least id, so phi is g on the class names. Each pair
    # ``_glued_covers`` returns is ordered in the quotient, so when phi
    # carries them onto Y's covers, phi's inverse is order-preserving too
    # and phi is an isomorphism. Otherwise the quotient decides.
    g_of = g.assignment
    if {(g_of[a], g_of[b]) for a, b in _glued_covers(X, members)[0]} == Y.covers:
        return GluingReport(True)
    try:
        Q, name_of = _quotient(X, members)
    except CycleDetected as exc:
        raise InternalInvariantError(f"the fibers of a poset map glue into a cycle: {exc}") from exc
    phi = {q: g_of[x] for x, q in name_of.items()}
    images = {(phi[a], phi[b]) for a, b in Q.covers}
    if images == Y.covers:
        return GluingReport(True)
    # when Y's covers generate its up-sets, some cover of Y then pulls back
    # to an unordered pair; report the least. A Y whose covers and up-sets
    # disagree may have none, and then the least pair in one cover set only
    # is reported.
    inverse = {y: q for q, y in phi.items()}
    witness = next(
        ((a, b) for a, b in sorted(Y.covers) if inverse[b] not in Q._up[inverse[a]]),
        None,
    )
    if witness is None:
        witness = min(images ^ Y.covers)
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
        for v in sorted(C):
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

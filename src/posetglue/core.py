"""Finite posets as Hasse diagrams.

A ``Poset`` stores a sorted node tuple and the transitively reduced cover
relation; the full order is kept as precomputed up-sets only. Down-sets are
computed per call from the up-sets, and linear extensions come from
up-set sizes (``a < b`` implies ``|up(a)| > |up(b)|``), so no topological sort
is stored or repeated. Values are created only here, by ``build`` or by the
three local constructors ``_elevated`` (fresh minima under a minimal node),
``_glued`` (disjoint down-sets collapsed to points, which covers retractions
and height-zero gluings) and ``_split`` (a minimal node split into one copy
per cover, every other node renamed). ``_glued`` takes its covers from
``_glued_covers``, which ``gluing.verify_gluing`` also reads, on convex
members of any kind, when it needs the covers and not the poset. None of
them re-closes the order: the values are immutable and safe to share, so
the first two reuse their input's up-set objects, and ``_split`` renames
them. Derived tables (heights, the upward table, minima, maxima) are
computed on first use and cached; the three local constructors also derive
their result's minima from their input's cached ones, and ``_glued`` and
``_split`` its upward table, by local rules, so a run of constructors
builds the table once. Every operation here is a pure function of its
inputs.
All iteration is over sorted ids so results are reproducible byte-for-byte.
"""

from __future__ import annotations

import graphlib
from typing import Iterable, Mapping, Sequence

from .errors import CycleDetected, DanglingNode, EmptyPoset, UnknownNode

NodeId = str
Chain = tuple[NodeId, ...]


class Poset:
    """Finite poset, normalized to its Hasse diagram at construction.

    Do not instantiate directly; go through :func:`build`, which validates,
    closes, and reduces the input relation, or one of the three local
    constructors ``_elevated``, ``_glued`` and ``_split``, which derive an
    elevation's result, a quotient along down-sets or a split from its
    input. ``_up`` maps each node to its up-set (the node included); it is
    the only stored form of the order, and internal callers read it directly
    once their ids are known to be valid. Up-set values may be shared between posets. Heights,
    the upward table (dimension, depths and longest-chain counts), minima
    and maxima are computed on first use and cached. ``_elevated``,
    ``_glued`` and ``_split`` may instead hand their result its minima, and
    the last two its upward table, derived from their input's cached ones.
    """

    __slots__ = ("nodes", "covers", "_up", "_heights", "_upward", "_min", "_max")

    nodes: tuple[NodeId, ...]
    covers: frozenset[tuple[NodeId, NodeId]]

    def __init__(self, nodes, covers, up, upward=None, mins=None):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_heights", None)
        object.__setattr__(self, "_upward", upward)
        object.__setattr__(self, "_min", mins)
        object.__setattr__(self, "_max", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poset values are immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self.nodes == other.nodes and self.covers == other.covers

    def __hash__(self):
        return hash((self.nodes, self.covers))

    def __len__(self):
        return len(self.nodes)

    def __contains__(self, x):
        return x in self._up

    def __repr__(self):
        return f"Poset(nodes={list(self.nodes)!r}, covers={sorted(self.covers)!r})"

    def _check_node(self, x: NodeId) -> None:
        if x not in self._up:
            raise UnknownNode(f"unknown node {x!r}")

    def _check_nodes(self, S: Iterable[NodeId], message: str = "unknown node") -> None:
        """Raise UnknownNode naming the least id of S outside the poset, so
        the id named does not depend on set iteration order."""
        unknown = [x for x in S if x not in self._up]
        if unknown:
            raise UnknownNode(f"{message} {min(unknown)!r}")

    def _check_nonempty(self) -> None:
        if not self.nodes:
            raise EmptyPoset("operation undefined on the empty poset")

    def leq(self, a: NodeId, b: NodeId) -> bool:
        """a <= b in the order generated by the cover relation."""
        self._check_node(a)
        self._check_node(b)
        return b in self._up[a]

    def lt(self, a: NodeId, b: NodeId) -> bool:
        return a != b and self.leq(a, b)

    def is_cover(self, a: NodeId, b: NodeId) -> bool:
        """True iff b covers a (a < b with empty open interval)."""
        self._check_node(a)
        self._check_node(b)
        return (a, b) in self.covers

    def upper_covers(self, x: NodeId) -> frozenset[NodeId]:
        self._check_node(x)
        return frozenset(b for (a, b) in self.covers if a == x)

    def lower_covers(self, x: NodeId) -> frozenset[NodeId]:
        self._check_node(x)
        return frozenset(a for (a, b) in self.covers if b == x)

    def up_set(self, x: NodeId) -> frozenset[NodeId]:
        """{u : x <= u}; contains x."""
        self._check_node(x)
        return self._up[x]

    def down_set(self, x: NodeId) -> frozenset[NodeId]:
        """{u : u <= x}; contains x. Computed per call from the up-sets."""
        self._check_node(x)
        return frozenset(a for a, up in self._up.items() if x in up)

    def min_nodes(self) -> frozenset[NodeId]:
        self._check_nonempty()
        if self._min is None:
            lowers = {b for (_, b) in self.covers}
            object.__setattr__(self, "_min", frozenset(x for x in self.nodes if x not in lowers))
        return self._min

    def max_nodes(self) -> frozenset[NodeId]:
        self._check_nonempty()
        if self._max is None:
            uppers = {a for (a, _) in self.covers}
            object.__setattr__(self, "_max", frozenset(x for x in self.nodes if x not in uppers))
        return self._max

    def _by_up_size(self, lowest_first: bool) -> list[NodeId]:
        # a < b implies |up(a)| > |up(b)|, so this is a linear extension
        up = self._up
        return sorted(self.nodes, key=lambda x: len(up[x]), reverse=lowest_first)

    def _cover_lists(self, upper: bool) -> dict[NodeId, list[NodeId]]:
        """Each node's upper covers, or its lower covers, in one pass."""
        lists: dict[NodeId, list[NodeId]] = {x: [] for x in self.nodes}
        for a, b in self.covers:
            if upper:
                lists[a].append(b)
            else:
                lists[b].append(a)
        return lists

    def _height_table(self) -> dict[NodeId, int]:
        if self._heights is None:
            below = self._cover_lists(upper=False)
            heights: dict[NodeId, int] = {}
            for x in self._by_up_size(lowest_first=True):
                heights[x] = 1 + max(heights[a] for a in below[x]) if below[x] else 0
            object.__setattr__(self, "_heights", heights)
        return self._heights

    def _upward_table(self) -> tuple[int, dict[NodeId, int], dict[NodeId, int]]:
        """(dim, depths, ways) in one pass from the top. depths[x] is the
        edge count of a longest chain going up from x, and ways[x] the number
        of such chains: 1 on a maximum, else the sum of ways[b] over the
        upper covers b with depths[b] = depths[x] - 1. dim is the largest
        depth, which only minima reach."""
        if self._upward is None:
            above = self._cover_lists(upper=True)
            depths: dict[NodeId, int] = {}
            ways: dict[NodeId, int] = {}
            for x in self._by_up_size(lowest_first=False):
                ups = above[x]
                if not ups:
                    depths[x], ways[x] = 0, 1
                    continue
                d = max(depths[b] for b in ups)
                depths[x] = d + 1
                ways[x] = sum(ways[b] for b in ups if depths[b] == d)
            object.__setattr__(self, "_upward", (max(depths.values(), default=0), depths, ways))
        return self._upward

    def height(self, x: NodeId) -> int:
        """Edge count of a longest chain from a minimal node up to x."""
        self._check_nonempty()
        self._check_node(x)
        return self._height_table()[x]

    def dim(self) -> int:
        """Edge count of a longest chain in the poset."""
        self._check_nonempty()
        return self._upward_table()[0]

    def on_maximal_length_chain(self, x: NodeId) -> bool:
        self._check_node(x)
        return self.height(x) + self._upward_table()[1][x] == self.dim()

    def maximal_chains(self) -> list[Chain]:
        """All chains from a minimal to a maximal node, following covers.

        Exhaustive, duplicate-free, lexicographic by node sequence. The list
        can be exponentially long, so it is recomputed per call, not cached;
        ``maximal_chain_count`` counts without listing.
        """
        self._check_nonempty()
        succ: dict[NodeId, list[NodeId]] = {x: [] for x in self.nodes}
        for a, b in sorted(self.covers):
            succ[a].append(b)
        chains: list[Chain] = []
        # depth-first with an explicit stack, so long chains cannot hit
        # the recursion limit; successors are taken in sorted order
        for m in sorted(self.min_nodes()):
            path = [m]
            pending = [iter(succ[m])]
            while pending:
                b = next(pending[-1], None)
                if b is None:
                    if not succ[path[-1]]:
                        chains.append(tuple(path))
                    pending.pop()
                    path.pop()
                    continue
                path.append(b)
                pending.append(iter(succ[b]))
        return chains

    def maximal_chain_count(self) -> int:
        """len(maximal_chains()), without listing them.

        ways[x] counts the cover paths from a minimal node up to x; nodes are
        visited lowest first, so every lower cover's count is final.
        """
        self._check_nonempty()
        below = self._cover_lists(upper=False)
        ways: dict[NodeId, int] = {}
        for x in self._by_up_size(lowest_first=True):
            ways[x] = sum(ways[a] for a in below[x]) if below[x] else 1
        return sum(ways[x] for x in self.max_nodes())

    def is_antichain(self, S: Iterable[NodeId]) -> bool:
        S = frozenset(S)
        self._check_nodes(S)
        return all(not self.lt(a, b) for a in S for b in S)

    def is_complete_subset(self, S: Iterable[NodeId]) -> bool:
        """True iff S is interval-closed: u <= y <= v with u, v in S forces y in S."""
        S = frozenset(S)
        self._check_nodes(S)
        if not S:
            return True
        # a node above some member of S but outside S must not lie below one
        above = frozenset().union(*(self._up[s] for s in S))
        return all(self._up[y].isdisjoint(S) for y in above - S)

    def induced(self, S: Iterable[NodeId]) -> "Poset":
        """Subposet on S with the order inherited from self."""
        S = frozenset(S)
        self._check_nodes(S)
        relation = {(a, b) for a in S for b in S if self.lt(a, b)}
        return build(S, relation)


def build(nodes: Iterable[NodeId], relation: Iterable[tuple[NodeId, NodeId]]) -> Poset:
    """Build a poset from any acyclic relation.

    The stored cover set is the transitive reduction of the input; the order
    is its reflexive-transitive closure. Raises CycleDetected if the closure
    is not antisymmetric, DanglingNode on pairs naming an unknown id.
    """
    node_set = frozenset(nodes)
    pairs = set()
    for a, b in relation:
        if a not in node_set or b not in node_set:
            raise DanglingNode(f"relation pair ({a!r}, {b!r}) references an unknown node")
        if a != b:
            pairs.add((a, b))

    succ: dict[NodeId, set[NodeId]] = {x: set() for x in node_set}
    pred: dict[NodeId, list[NodeId]] = {x: [] for x in node_set}
    for a, b in pairs:
        succ[a].add(b)
        pred[b].append(a)

    # Kahn's algorithm over the successor sets, upper elements first: a node
    # is ready once all its successors are done, so every successor's up-set
    # is known when it is reached. `ready` grows while it is walked. A
    # successor b of x is a cover unless it lies strictly above another
    # successor; nothing outside succ[x] can cover x.
    pending = {x: len(s) for x, s in succ.items()}
    ready = [x for x, count in pending.items() if not count]
    strict_up: dict[NodeId, frozenset[NodeId]] = {}
    cover_list: list[tuple[NodeId, NodeId]] = []
    for x in ready:
        above: set[NodeId] = set()
        for b in succ[x]:
            above |= strict_up[b]
        strict_up[x] = frozenset(above | succ[x])
        cover_list.extend((x, b) for b in succ[x] - above)
        for a in pred[x]:
            pending[a] -= 1
            if not pending[a]:
                ready.append(a)

    if len(strict_up) < len(node_set):
        # Kahn stalled, so there is a cycle; graphlib names one for the
        # message, walking sorted nodes and successors so that it does not
        # depend on the hash seed
        try:
            graphlib.TopologicalSorter({x: sorted(succ[x]) for x in sorted(succ)}).prepare()
        except graphlib.CycleError as exc:
            raise CycleDetected(f"relation closure has a cycle: {exc.args[1]}") from exc

    return Poset(
        tuple(sorted(node_set)),
        frozenset(cover_list),
        {x: strict_up[x] | {x} for x in node_set},
    )


def _elevated(X: Poset, p: NodeId, fresh_ids: Sequence[NodeId]) -> Poset:
    """X with each fresh id added as a new minimum whose only cover is p.

    The caller has checked that p is a minimal node of X and that the fresh
    ids are distinct and new. Nothing of X lies below a fresh id, so every
    up-set of X is reused as it is, and a fresh q gets ``{q} | up(p)``.
    When X's minima are cached, the fresh ids take p's place among them.
    """
    up = dict(X._up)
    up_p = X._up[p]
    for q in fresh_ids:
        up[q] = up_p | {q}
    mins = None if X._min is None else X._min.difference((p,)).union(fresh_ids)
    return Poset(tuple(sorted(up)), X.covers | {(q, p) for q in fresh_ids}, up, mins=mins)


def _glued_covers(
    X: Poset, members: Sequence[frozenset[NodeId]]
) -> tuple[set[tuple[NodeId, NodeId]], list[tuple[NodeId, set[NodeId]]]]:
    """Cover pairs of X glued along the members, each member named by its
    least id, and each class with its least exits, in one pass over X's
    covers.

    The caller has checked that the members are disjoint and convex in X. A
    cover that starts outside them carries over unchanged, and one that
    starts in a member and ends in a member is dropped. The covers (a, b)
    that leave a member C give its exits b, and the class c of C is paired
    with its least exits. The ends of each pair then lie in distinct classes
    that are ordered in the canonical quotient. When the members are
    down-sets no cover enters one from outside, so each pair names two
    classes, and the pairs are exactly the quotient's covers.
    """
    member_of = {x: i for i, C in enumerate(members) for x in C}
    covers = set()
    leaving: list[set[NodeId]] = [set() for _ in members]
    for a, b in X.covers:
        i = member_of.get(a)
        if i is None:
            covers.add((a, b))
        elif b not in member_of:
            leaving[i].add(b)
    classes = []
    for C, exits in zip(members, leaving):
        c = min(C)
        above: set[NodeId] = set()
        for b in exits:
            above |= (X._up[b] & exits) - {b}
        least = exits - above
        covers.update((c, b) for b in least)
        classes.append((c, least))
    return covers, classes


def _glued(X: Poset, members: Sequence[frozenset[NodeId]]) -> Poset:
    """X with each member collapsed to its least id.

    The caller has checked that the members are disjoint down-sets of X. No
    node outside them has a member in its up-set, so its up-set object
    carries over unchanged. The covers are ``_glued_covers``'s, and the
    class c of a member gets ``{c} | up(b)`` over its upper covers b.

    X's cached upward table and minima carry over by the same rule: outside
    the members depths and ways are unchanged, and a class c, whose upper
    covers are its least exits, gets depth 1 + the deepest of them and ways
    summed over the exits at that depth. Nothing lies below a class, so the
    classes replace the members among the minima.
    """
    covers, classes = _glued_covers(X, members)
    up = dict(X._up)
    for C in members:
        for x in C:
            del up[x]
    for c, least in classes:
        up[c] = frozenset({c}).union(*(X._up[b] for b in least))
    upward = mins = None
    if X._upward is not None:
        _, depths, ways = X._upward
        depths = {x: d for x, d in depths.items() if x in up}
        ways = {x: w for x, w in ways.items() if x in up}
        for c, least in classes:
            d = max((depths[b] for b in least), default=-1)
            depths[c] = d + 1
            ways[c] = sum(ways[b] for b in least if depths[b] == d) if least else 1
        upward = max(depths.values()), depths, ways
    if X._min is not None:
        mins = frozenset(m for m in X._min if m in up).union(c for c, _ in classes)
    return Poset(tuple(sorted(up)), frozenset(covers), up, upward, mins)


def _split(
    X: Poset, u1: NodeId, name: Mapping[NodeId, NodeId], copy: Mapping[NodeId, NodeId]
) -> Poset:
    """X with the minimal node u1 split into one copy per upper cover, and
    every other node renamed.

    ``name`` gives the new id of each node of X but u1, and ``copy`` the id
    of u1's copy under each upper cover c of u1; the caller has checked that
    u1 is minimal and that the new ids are distinct. No up-set but u1's holds
    u1, so every other node's up-set and covers are X's renamed, and the
    copy v under c gets ``{v} | up(name[c])`` with c as its only cover.
    X's cached upward table and minima are renamed the same way: v gets
    depth(c) + 1 and ways(c), the deepest copy keeps u1's depth, so dim is
    unchanged, and the copies replace u1 among the minima.
    """
    rename = name.__getitem__
    up = {name[x]: frozenset(map(rename, u)) for x, u in X._up.items() if x != u1}
    covers = {(name[a], name[b]) for a, b in X.covers if a != u1}
    for c, v in copy.items():
        up[v] = up[name[c]] | {v}
        covers.add((v, name[c]))
    upward = mins = None
    if X._upward is not None:
        dim, depths, ways = X._upward
        depths2 = {name[x]: d for x, d in depths.items() if x != u1}
        ways2 = {name[x]: w for x, w in ways.items() if x != u1}
        for c, v in copy.items():
            depths2[v], ways2[v] = depths[c] + 1, ways[c]
        upward = dim, depths2, ways2
    if X._min is not None:
        mins = frozenset(name[m] for m in X._min if m != u1).union(copy.values())
    return Poset(tuple(sorted(up)), frozenset(covers), up, upward, mins)


def is_chain_in(P: Poset, seq: Chain) -> bool:
    """Nonempty sequence whose consecutive pairs are covers of P."""
    if not seq:
        return False
    for x in seq:
        if x not in P:
            return False
    return all(P.is_cover(a, b) for a, b in zip(seq, seq[1:]))

"""Chain decompositions and node splitting.

A chain decomposition rebuilds a poset as a disjoint sum of fresh chains, one
per maximal chain, glued back together fiber by fiber; gluing the sum along a
subcollection of fibers gives the posets in between. Splitting a minimal node
u is the gluing along every fiber except u's, with u's copies merged per
cover only, but ``split_for_cover`` builds that poset directly from X's
covers: the chain sum only names its nodes and defines the map t_F from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import NodeId, Poset, build
from .errors import (
    EmptyPoset,
    InternalInvariantError,
    NotACover,
    NotASubcollection,
    NotMinimal,
)
from .gluing import (
    GluingWitness,
    fiber_collection,
    glue_along_complete,
    is_height_zero_gluing,
    verify_gluing,
)
from .morphism import PosetMap, compose, identity_map


@dataclass(frozen=True)
class ChainDecomposition:
    """Disjoint sum of chains D with the collapse-back surjection phi: D -> X."""

    D: Poset
    phi: PosetMap
    chains: tuple[tuple[NodeId, ...], ...]

    @property
    def X(self) -> Poset:
        return self.phi.target

    def fibers(self) -> tuple[frozenset[NodeId], ...]:
        """The nontrivial fibers of phi; gluing D along all of them returns X."""
        return fiber_collection(self.phi)

    def fiber_of(self, x: NodeId) -> frozenset[NodeId]:
        return self.phi.fiber(x)


@dataclass(frozen=True)
class SplitResult:
    """Intermediate gluing F between a chain decomposition D and its poset X."""

    F: Poset
    t_F: PosetMap  # D -> F
    f_F: PosetMap  # F -> X


def chain_decomposition(X: Poset) -> ChainDecomposition:
    """Fresh chain copies "a{i}.{j}" of every maximal chain, mapped back onto X."""
    if not X.nodes:
        raise EmptyPoset("cannot decompose the empty poset")
    originals = X.maximal_chains()
    nodes = []
    covers = []
    assignment = {}
    chains = []
    for i, chain in enumerate(originals):
        copy = tuple(f"a{i}.{j}" for j in range(len(chain)))
        chains.append(copy)
        nodes.extend(copy)
        covers.extend(zip(copy, copy[1:]))
        assignment.update(zip(copy, chain))
    D = build(nodes, covers)
    phi = PosetMap(D, X, assignment)

    cd = ChainDecomposition(D, phi, tuple(chains))
    _check_decomposition(cd)
    return cd


def _check_decomposition(cd: ChainDecomposition) -> None:
    X = cd.X
    maximal = set(X.maximal_chains())
    images = set()
    for chain in cd.chains:
        image = tuple(cd.phi(d) for d in chain)
        if image not in maximal:
            raise InternalInvariantError(f"chain image {image!r} is not a maximal chain")
        images.add(image)
        for a, b in zip(chain, chain[1:]):
            if not X.is_cover(cd.phi(a), cd.phi(b)):
                raise InternalInvariantError("chain copy does not map isomorphically")
    if images != maximal:
        raise InternalInvariantError("some maximal chain has no chain copy")
    if not cd.phi.is_surjective():
        raise InternalInvariantError("chain decomposition map is not surjective")
    report = verify_gluing(cd.D, X, cd.phi, cd.fibers())
    if not report:
        raise InternalInvariantError(f"poset is not a gluing of its chain sum: {report.reason}")


def verify_min_max_lifting(cd: ChainDecomposition) -> dict[str, frozenset[NodeId]]:
    """min D and max D must be exactly the phi-preimages of min X and max X."""
    min_d = cd.D.min_nodes()
    max_d = cd.D.max_nodes()
    min_pre = frozenset(d for d in cd.D.nodes if cd.phi(d) in cd.X.min_nodes())
    max_pre = frozenset(d for d in cd.D.nodes if cd.phi(d) in cd.X.max_nodes())
    if min_d != min_pre or max_d != max_pre:
        raise InternalInvariantError("chain decomposition broke the min/max correspondence")
    return {"min": min_d, "max": max_d}


def glue_D_along_subcollection(
    cd: ChainDecomposition, subcollection: Iterable[Iterable[NodeId]]
) -> SplitResult:
    """Glue the chain sum along a subset of phi's fibers, one fiber at a time.

    Fibers are glued in ascending order of the node of X they collapse to.
    The result F sits between D and X: t_F and f_F are gluing maps composing
    to phi.
    """
    fibers = set(cd.fibers())
    chosen = []
    for E in subcollection:
        E = frozenset(E)
        if E not in fibers:
            raise NotASubcollection(f"{sorted(E)!r} is not a nontrivial fiber")
        chosen.append(E)
    chosen.sort(key=lambda E: cd.phi(min(E)))

    current = cd.D
    t = identity_map(cd.D)
    for E in chosen:
        image = frozenset(t(d) for d in E)
        step = glue_along_complete(current, image)
        t = compose(t, step.map)
        current = step.target

    f_assignment = {}
    for d in cd.D.nodes:
        f_assignment[t(d)] = cd.phi(d)
    f = PosetMap(current, cd.X, f_assignment)
    result = SplitResult(current, t, f)
    _check_split(cd, result, tuple(chosen))
    return result


def _check_split(cd: ChainDecomposition, result: SplitResult, chosen) -> None:
    for d in cd.D.nodes:
        if result.f_F(result.t_F(d)) != cd.phi(d):
            raise InternalInvariantError("f_F . t_F differs from phi")
    report = verify_gluing(cd.D, result.F, result.t_F, chosen)
    if not report:
        raise InternalInvariantError(f"F is not a gluing of D along the subcollection: {report.reason}")
    report = verify_gluing(result.F, cd.X, result.f_F, fiber_collection(result.f_F))
    if not report:
        raise InternalInvariantError(f"X is not a gluing of F: {report.reason}")
    _check_min_max_lift(cd, result)


def _check_min_max_lift(cd: ChainDecomposition, result: SplitResult) -> None:
    """min/max lift through t_F as they do through phi."""
    mins = result.F.min_nodes()
    maxs = result.F.max_nodes()
    min_pre = frozenset(d for d in cd.D.nodes if result.t_F(d) in mins)
    max_pre = frozenset(d for d in cd.D.nodes if result.t_F(d) in maxs)
    if min_pre != cd.D.min_nodes() or max_pre != cd.D.max_nodes():
        raise InternalInvariantError("split broke the min/max correspondence")


def split_for_cover(X: Poset, u1: NodeId, u2: NodeId) -> SplitResult:
    """Split the minimal node u1 into one copy per cover, so the copy kept
    under u2 has u2 as its unique cover.

    F is the gluing of the chain sum along every fiber except u1's, with
    u1's chain copies re-merged by the cover their chain climbs through.
    Coarser than one copy per chain, which would multiply the maximal chains
    around the pivot and break the (dim, chain-count) descent the extension
    steps rely on; one copy per cover keeps the maximal chains of the split
    poset in bijection with the original's. When u1 has a single cover there
    is nothing to split and X itself comes back with identity maps.

    F is built directly: X's covers that leave u1 are replaced by one edge
    from each copy to its cover. The chain sum only supplies the ids, which
    are those the gluing gives (each class keeps its least chain copy), and
    the map t_F from the sum.
    """
    X._check_node(u1)
    X._check_node(u2)
    if u1 not in X.min_nodes():
        raise NotMinimal(f"{u1!r} is not a minimal node")
    if not X.is_cover(u1, u2):
        raise NotACover(f"{u2!r} does not cover {u1!r}")

    cd = chain_decomposition(X)
    # u1 is minimal, so it only ever starts a chain
    cover_of = {chain[0]: cd.phi(chain[1]) for chain in cd.chains if cd.phi(chain[0]) == u1}
    if len(set(cover_of.values())) == 1:
        result = SplitResult(X, cd.phi, identity_map(X))
    else:
        name: dict[NodeId, NodeId] = {}  # node of X other than u1 -> id in F
        copy: dict[NodeId, NodeId] = {}  # cover of u1 -> id of u1's copy under it
        for d, x in cd.phi.assignment.items():
            if x == u1:
                c = cover_of[d]
                copy[c] = min(copy.get(c, d), d)
            else:
                name[x] = min(name.get(x, d), d)
        covers = [(name[a], name[b]) for a, b in X.covers if a != u1]
        covers.extend((v, name[c]) for c, v in copy.items())
        F = build([*name.values(), *copy.values()], covers)
        t_F = PosetMap(
            cd.D,
            F,
            {d: copy[cover_of[d]] if d in cover_of else name[x] for d, x in cd.phi.assignment.items()},
        )
        f_F = PosetMap(F, X, {**{v: x for x, v in name.items()}, **{v: u1 for v in copy.values()}})
        result = SplitResult(F, t_F, f_F)
        _check_min_max_lift(cd, result)
    _check_split_for_cover(X, result, u1, u2)
    return result


def _check_split_for_cover(X: Poset, result: SplitResult, u1: NodeId, u2: NodeId) -> None:
    u1_pre = result.f_F.fiber(u1)
    report = verify_gluing(result.F, X, result.f_F, (u1_pre,))
    if not report:
        raise InternalInvariantError(f"X is not a gluing of F along the split fiber: {report.reason}")
    witness = GluingWitness(result.F, X, result.f_F, (u1_pre,))
    if not is_height_zero_gluing(witness):
        raise InternalInvariantError("split fiber escaped the minima")
    for v1 in sorted(u1_pre):
        for v2 in sorted(result.f_F.fiber(u2)):
            if not result.F.leq(v1, v2):
                continue
            if result.F.upper_covers(v1) != {v2}:
                raise InternalInvariantError(
                    f"{v2!r} is not the unique cover of split copy {v1!r}"
                )

"""Chain decompositions and node splitting.

A chain decomposition rebuilds a poset as a disjoint sum of fresh chains, one
per maximal chain, glued back together fiber by fiber; gluing the sum along a
subcollection of fibers, in one ``gluing._quotient`` call, gives the
posets in between. Splitting a minimal node u is the gluing along every fiber
except u's, with u's copies merged per cover only. The chain sum has one node
per node of every maximal chain, so building it is exponential on wide
posets; it stays as the paper-facing construction (``chain_decomposition``,
``split_for_cover`` with its map t_F) and as the oracle the tests compare
against. The decompose hot path splits with ``_split_by_rank``, a pure
constructor that renames X into the same split poset (``core._split``) and
gives each node the id the chain-sum gluing would, computed from chain ranks
and path counts without listing a chain. For each floor in {0, 10, 100, ...}
one descent over path counts finds the chain of rank floor, and one pass
over the nodes, lowest first, carries each node's least prefix base >= floor
up its covers (``_least_ranks``), so a split costs O(digits * (n + covers)).

Each fact is checked in one place. ``chain_decomposition`` checks that X is
a gluing of D. Both split paths, ``glue_D_along_subcollection`` and
``split_for_cover``, end in ``_check_split``: t_F is a poset map, X is a
gluing of F, and minima and maxima lift through f_F (by ``_lifts_extrema``,
the predicate ``verify_min_max_lifting`` uses for phi). f_F . t_F = phi
holds by construction: both paths read t_F off f_F's fibers. u1 is minimal
in X, so the lift of the minima also puts u1's copies among F's minima.
``split_for_cover`` adds only what is particular to a split: the copy under
u2 has u2 as its unique cover. On the decompose path the split is certified
by the script's glue step and the final isomorphism check instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import NodeId, Poset, _split, build
from .errors import (
    EmptyPoset,
    InternalInvariantError,
    NotACover,
    NotASubcollection,
    NotMinimal,
)
from .gluing import _quotient, fiber_collection, verify_gluing
from .morphism import PosetMap, identity_map, poset_map_violation


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
    nodes = []
    covers = []
    assignment = {}
    chains = []
    for i, chain in enumerate(X.maximal_chains()):
        copy = tuple(f"a{i}.{j}" for j in range(len(chain)))
        chains.append(copy)
        nodes.extend(copy)
        covers.extend(zip(copy, copy[1:]))
        assignment.update(zip(copy, chain))
    D = build(nodes, covers)
    phi = PosetMap(D, X, assignment)

    cd = ChainDecomposition(D, phi, tuple(chains))
    report = verify_gluing(D, X, phi, cd.fibers())
    if not report:
        raise InternalInvariantError(f"poset is not a gluing of its chain sum: {report.reason}")
    return cd


def _lifts_extrema(g: PosetMap) -> bool:
    """min and max of g's source are exactly the g-preimages of its target's."""
    mins, maxs = g.target.min_nodes(), g.target.max_nodes()
    lifted_min = frozenset(v for v, x in g.assignment.items() if x in mins)
    lifted_max = frozenset(v for v, x in g.assignment.items() if x in maxs)
    return g.source.min_nodes() == lifted_min and g.source.max_nodes() == lifted_max


def verify_min_max_lifting(cd: ChainDecomposition) -> dict[str, frozenset[NodeId]]:
    """min D and max D must be exactly the phi-preimages of min X and max X."""
    if not _lifts_extrema(cd.phi):
        raise InternalInvariantError("chain decomposition broke the min/max correspondence")
    return {"min": cd.D.min_nodes(), "max": cd.D.max_nodes()}


def glue_D_along_subcollection(
    cd: ChainDecomposition, subcollection: Iterable[Iterable[NodeId]]
) -> SplitResult:
    """Glue the chain sum along a subset of phi's fibers in one pass.

    Each glued fiber keeps its least id. The result F sits between D and X:
    t_F and f_F are gluing maps composing to phi. Nontrivial fibers of phi
    are disjoint and complete, so once each chosen set is checked to be one,
    the distinct ones go to ``_quotient`` sorted by least id.
    """
    fibers = set(cd.fibers())
    chosen = set()
    for E in map(frozenset, subcollection):
        if E not in fibers:
            raise NotASubcollection(f"{sorted(E)!r} is not a nontrivial fiber")
        chosen.add(E)
    F, name_of = _quotient(cd.D, sorted(chosen, key=min))
    f = PosetMap(F, cd.X, {name_of[d]: cd.phi(d) for d in cd.D.nodes})
    result = SplitResult(F, PosetMap(cd.D, F, name_of), f)
    _check_split(cd, result)
    return result


def _check_split(cd: ChainDecomposition, result: SplitResult) -> None:
    """F sits between D and X: t_F is a poset map, X is a gluing of F, and
    minima and maxima lift through f_F. They lift through phi
    (``verify_min_max_lifting``), so they lift through t_F too. Both callers
    build t_F so that f_F . t_F = phi: ``glue_D_along_subcollection`` merges
    only inside the phi-fibers it checked, and ``split_for_cover`` reads t_F
    off f_F's inverse away from u1 and off u1's copies."""
    pair = poset_map_violation(result.t_F)
    if pair is not None:
        raise InternalInvariantError(f"t_F is not order-preserving at {pair!r}")
    report = verify_gluing(result.F, cd.X, result.f_F, fiber_collection(result.f_F))
    if not report:
        raise InternalInvariantError(f"X is not a gluing of F: {report.reason}")
    if not _lifts_extrema(result.f_F):
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

    F and f_F come from ``_split_by_rank``, which names F's nodes by chain
    rank without listing any chain. This function checks what is particular
    to a split (the copy under u2 has u2 as its unique cover), then adds the
    chain sum and the map t_F from it, so it lists every maximal chain of X,
    and ends in ``_check_split``, whose lift of the minima puts u1's copies
    among F's minima. The decompose hot path calls ``_split_by_rank``
    directly and leaves the split to the script's checks.
    """
    F, f_F = _split_by_rank(X, u1, u2)
    copies = f_F.fiber(u1)
    for v1 in sorted(copies):
        for v2 in sorted(f_F.fiber(u2)):
            if F.leq(v1, v2) and F.upper_covers(v1) != {v2}:
                raise InternalInvariantError(
                    f"{v2!r} is not the unique cover of split copy {v1!r}"
                )
    cd = chain_decomposition(X)
    # every node of X but u1 has one id in F; u1's copies are told apart by
    # the image of their single cover
    own = {x: v for v, x in f_F.assignment.items() if x != u1}
    copy = {f_F(w): v for v in copies for w in F.upper_covers(v)}
    t_assignment = {}
    for chain in cd.chains:
        for d in chain:
            x = cd.phi(d)
            t_assignment[d] = copy[cd.phi(chain[1])] if x == u1 else own[x]
    result = SplitResult(F, PosetMap(cd.D, F, t_assignment), f_F)
    _check_split(cd, result)
    return result


def _split_by_rank(X: Poset, u1: NodeId, u2: NodeId) -> tuple[Poset, PosetMap]:
    """F and f_F of ``split_for_cover``, with the same ids, in polynomial time.

    A pure constructor, like the down-set collapse that ends
    ``gext.gextension_step``: it checks that u1 is minimal and covered by
    u2, but not its result.

    In the chain sum, the copy of x in the maximal chain of rank r (the
    chain's index in ``maximal_chains`` order) is "a{r}.{j}", j being x's
    position in it, and F names each class by its string-least member. "."
    sorts below every digit, so among ranks with the same number of digits
    only the least can win: x's id is the string-least of at most one
    candidate per floor in {0, 10, 100, ...}, the least rank >= floor of a
    chain through x. ``_least_ranks`` finds that rank for every node in one
    pass, so a split costs O(digits * (n + covers)), digits being those of
    the maximal chain count. The chains that start (u1, c) fill one block of
    consecutive ranks, which names u1's copy under c (``_first_in_block``).
    F itself is X renamed (``core._split``).
    """
    X._check_node(u1)
    X._check_node(u2)
    if u1 not in X.min_nodes():
        raise NotMinimal(f"{u1!r} is not a minimal node")
    if not X.is_cover(u1, u2):
        raise NotACover(f"{u2!r} does not cover {u1!r}")

    succ = {x: sorted(above) for x, above in X._cover_lists(upper=True).items()}
    if len(succ[u1]) == 1:
        return X, identity_map(X)
    order = X._by_up_size(lowest_first=True)
    count: dict[NodeId, int] = {}  # maximal chains from a node upward
    for x in reversed(order):
        count[x] = sum(count[c] for c in succ[x]) if succ[x] else 1
    roots = sorted(X.min_nodes())
    blocks = {}  # cover c of u1 -> ranks of the chains that start (u1, c)
    lo = sum(count[m] for m in roots if m < u1)
    for c in succ[u1]:
        blocks[c] = lo, lo + count[c]
        lo += count[c]
    name: dict[NodeId, NodeId] = {}  # node of X other than u1 -> id in F
    copy: dict[NodeId, NodeId] = {}  # cover of u1 -> id of u1's copy under it
    total = sum(count[m] for m in roots)
    floor = 0
    while floor < total:
        for x, (r, j) in _least_ranks(floor, order, roots, succ, count).items():
            if x != u1:
                _offer(name, x, r, j)
        for c, block in blocks.items():
            found = _first_in_block(*block, floor)
            if found is not None:
                _offer(copy, c, *found)
        floor = 10 * floor or 10
    F = _split(X, u1, name, copy)
    f_F = PosetMap(F, X, {**{v: x for x, v in name.items()}, **{v: u1 for v in copy.values()}})
    return F, f_F


def _offer(least: dict[NodeId, NodeId], key: NodeId, r: int, j: int) -> None:
    """Keep the string-least of least[key] and "a{r}.{j}"."""
    candidate = f"a{r}.{j}"
    if key not in least or candidate < least[key]:
        least[key] = candidate


def _first_in_block(lo: int, hi: int, floor: int):
    """(least rank >= floor in [lo, hi), position 0), or None."""
    r = max(lo, floor)
    return (r, 0) if r < hi else None


def _least_ranks(floor, order, roots, succ, count) -> dict[NodeId, tuple[int, int]]:
    """For every node x on a chain of rank >= floor: (the least such rank,
    x's position in that chain). floor must be below the chain count.

    The chains extending a prefix that ends at x fill a block of count[x]
    consecutive ranks starting at the prefix's base, and distinct prefixes
    have disjoint blocks. So the answer is floor itself when x lies on c*,
    the chain of rank floor, and otherwise B(x), the least base >= floor of
    a prefix ending at x. A prefix through the cover (p, x) has base
    base(p-prefix) + off(p, x), where off(p, x) counts the chains from p's
    upper covers that sort before x; its base can reach floor from below
    only if the p-prefix's block straddles floor, that is, only along c*.
    So, lowest node first, B(x) is the least of B(p) + off(p, x) and, for p
    on c*, base*(p) + off(p, x) when that is >= floor, over the lower
    covers p; a root's own prefix has its block start as base. Positions
    ride along with the arg-min, which is unique. One pass over the nodes
    and covers.
    """
    star = {}  # node of c* -> (base of c*'s prefix ending there, position)
    children, base = roots, 0
    while children:
        for c in children:
            if floor < base + count[c]:
                break
            base += count[c]
        star[c] = base, len(star)
        children = succ[c]
    best: dict[NodeId, tuple[int, int]] = {}  # node -> (B(x), position)
    base = 0
    for m in roots:
        if base >= floor:
            best[m] = base, 0
        base += count[m]
    for p in order:
        prefixes = [b for b in (best.get(p), star.get(p)) if b is not None]
        off = 0
        for c in succ[p]:
            for b, j in prefixes:
                if b + off >= floor and (c not in best or b + off < best[c][0]):
                    best[c] = b + off, j + 1
            off += count[c]
    for x, (b, j) in star.items():
        best[x] = floor, j
    return best

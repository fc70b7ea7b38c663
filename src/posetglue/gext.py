"""Elevations, retractions, G-extension steps, and the certificate pipeline.

A retraction collapses the down-set of a height-one node z (all of whose
lower neighbors have z as their only cover) to a point; an elevation is the
inverse move, growing fresh minima under a minimal node. One G-extension
step = split shared minima under a pivot until each copy has a unique cover,
retract the pivot's down-set, and remember the height-zero gluing that undoes
the splits. ``_descend`` runs steps to dimension zero; ``decompose_to_point``
keeps a small record per step, never its posets, and reverses the records
into a construction script from a single point. Steps are recipes (a target
and fresh ids, or a partition); one step loop, ``_run_steps``, executes
them, verifying every move, for both ``replay`` and ``decompose_to_point``,
which certifies its own script with it before returning. The backward pass
checks only the preconditions its moves need and that ``(dim, eta)``
decreases; it validates neither its retractions nor its splits. The step loop
is the one checker of each elevation and gluing, and each move is checked by
the fewest facts that imply the rest: an elevation validates its witness by
two facts, its shape and its gluing (``ElevationWitness.validate``), and a
glue step's quotient (``core._glued``) is checked against its closed form by
``gluing._verify_height_zero_quotient``, which reads only the input's up-sets
and covers and rebuilds nothing. Witnesses store only what determines them:
an ``ElevationWitness`` is (Z, z, X) and derives its maps r and e, and a
``GExtension`` is (h, pivot, f2). One rule, ``_shared_minima``, decides
unique covers for the split loop, ``retract`` and ``m_count``; the witness
reads its shape off the covers in the one pass that also settles z's height.
``elevate`` validates its witness, and that call is the step loop's check.
``retract`` returns its witness unvalidated: its own input checks are the
witness's shape fact, and its X is made by the ``_glued`` call the gluing
fact would repeat. ``decompose_to_point``'s final isomorphism check, whose
first clause is that the tracked ids are the padded poset's nodes, catches
a wrong split or retraction. The certificate shows that the original
poset sits inside the reconstruction as a saturated subset; its check scans
each rung of the morphism ladder once. ``wrap`` checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import morphism
from .chains import _split_by_rank
from .core import NodeId, Poset, _elevated, _glued, build
from .errors import (
    BrokenEmbedding,
    EmptyPoset,
    InputError,
    InternalInvariantError,
    NotHeightOne,
    NotMinimal,
    NotUniqueCover,
    StepMismatch,
    ZeroDimensional,
)
from .gluing import (
    GluingWitness,
    _verify_height_zero_quotient,
    fiber_collection,
    verify_gluing,
)
from .morphism import PosetMap, compose, identity_map, inclusion_map


@dataclass(frozen=True)
class ElevationWitness:
    """Z is X with fresh minima grown under z. The maps are derived, not
    stored: r collapses z's down-set to its class, the one node of X inside
    it, and e is the section of r that sends the class back to z."""

    Z: Poset
    z: NodeId
    X: Poset

    @cached_property
    def _collapse(self) -> tuple[frozenset[NodeId], NodeId]:
        """z's down-set in Z and its class c: the one node of X inside it,
        with X's other nodes exactly Z's outside it."""
        Z, z, X = self.Z, self.z, self.X
        down = Z.down_set(z)
        inside = down.intersection(X.nodes)
        if len(inside) != 1 or X._up.keys() - inside != Z._up.keys() - down:
            raise InternalInvariantError("X is not Z with the down-set of z collapsed to one node")
        [c] = inside
        return down, c

    @cached_property
    def r(self) -> PosetMap:
        """Z -> X, gluing the down-set of z to its class."""
        down, c = self._collapse
        return PosetMap(self.Z, self.X, {w: c if w in down else w for w in self.Z.nodes})

    @cached_property
    def e(self) -> PosetMap:
        """X -> Z, the unique section of r that fixes z."""
        _, c = self._collapse
        return PosetMap(self.X, self.Z, {w: self.z if w == c else w for w in self.X.nodes})

    def validate(self) -> None:
        """Check the two facts that imply the rest. The shape: everything
        strictly below z is a minimum that z alone covers, read in one pass
        over Z's covers (no cover ends below z, and every cover that starts
        there ends at z). That is z having height one and being the only
        cover of every minimum below it. The gluing: r glues Z along z's
        down-set onto X. The section e holds by construction. r . e is then
        the identity, e fixes the pivot and is an embedding (r preserves
        order, so e reflects it; off the class X has Z's order, and the class
        lies below what z lies below), Z is the down-set and e's image, and
        Z's minima are the fresh ones and e's image of X's other minima. A
        bad witness raises InternalInvariantError."""
        Z, z, X = self.Z, self.z, self.X
        down, _ = self._collapse
        below = down - {z}
        if not below or any(b in below or (a in below and b != z) for a, b in Z.covers):
            raise InternalInvariantError(
                f"{z!r} is not a height-one node that alone covers each node below it"
            )
        report = verify_gluing(Z, X, self.r, (down,))
        if not report:
            raise InternalInvariantError(f"r is not a gluing along the down-set: {report.reason}")


def retract(Z: Poset, z: NodeId) -> ElevationWitness:
    """Collapse the down-set of z to a point.

    z must have height one and be the only cover of everything below it.
    The collapsed class keeps the least id c in the down-set, as
    ``glue_along_complete`` names it, but X is derived from Z directly
    (``core._glued`` on the one down-set): it shares Z's up-set objects
    outside the down-set, so making X takes time linear in the size of Z
    instead of a re-closure of the order. The checks here name the faulty
    node for the caller, and the witness derives r and e from (Z, z, X).
    It is not validated: its shape fact is exactly these two checks, and
    its gluing fact would rebuild X with the same ``_glued`` call that made
    it. ``gextension_step`` collapses its pivot's down-set with
    ``core._glued`` itself: its split loop has settled the preconditions,
    and the elevation that undoes it is validated once, when the script's
    step loop executes it.
    """
    Z._check_node(z)
    if Z.height(z) != 1:
        raise NotHeightOne(f"{z!r} has height {Z.height(z)}, expected 1")
    shared = _shared_minima(Z, z)
    if shared:
        w = shared[0]
        raise NotUniqueCover(
            f"{w!r} below {z!r} has covers {sorted(Z.upper_covers(w))!r}", node=w
        )
    return ElevationWitness(Z, z, _glued(Z, (Z.down_set(z),)))


def elevate(
    X: Poset, p: NodeId, n: int, fresh_ids: Optional[Sequence[NodeId]] = None
) -> ElevationWitness:
    """Grow n fresh minima under the minimal node p.

    Z is derived from X directly (``core._elevated``): it reuses X's up-set
    objects and gives each fresh q the up-set ``{q} | up(p)``, so making Z
    takes time linear in its size instead of a re-closure of the order.
    ``validate`` checks the result by the two facts that imply the rest.
    """
    X._check_node(p)
    if p not in X.min_nodes():
        raise NotMinimal(f"{p!r} is not a minimal node")
    if n < 1:
        raise InputError("must grow at least one node")
    if fresh_ids is None:
        fresh_ids = _fresh_ids("q", n, frozenset(X.nodes))
    else:
        fresh_ids = list(fresh_ids)
        if len(fresh_ids) != n or len(set(fresh_ids)) != n:
            raise InputError("fresh_ids must be n distinct ids")
        for q in fresh_ids:
            if q in X:
                raise InputError(f"fresh id {q!r} already present")
    result = ElevationWitness(_elevated(X, p, fresh_ids), p, X)
    result.validate()
    return result


def _fresh_ids(prefix: str, n: int, used: frozenset[NodeId]) -> list[NodeId]:
    out = []
    taken = set(used)
    i = 0
    while len(out) < n:
        cand = f"{prefix}.{i}"
        while cand in taken:
            cand += "x"
        out.append(cand)
        taken.add(cand)
        i += 1
    return out


def m_count(F: Poset, x: NodeId) -> int:
    """Minimal nodes strictly below x for which x is not the unique cover."""
    F._check_node(x)
    return len(_shared_minima(F, x))


def _shared_minima(F: Poset, x: NodeId) -> list[NodeId]:
    """The nodes ``m_count`` counts, in ascending order, from one pass over
    the covers: a minimum u < x has a cover other than x exactly when x is
    not its unique cover."""
    up = F._up
    below = {u for u in F.min_nodes() if u != x and x in up[u]}
    return sorted({a for a, b in F.covers if a in below and b != x})


@dataclass(frozen=True)
class GExtension:
    """One growth-and-glue move: f1 = height-zero gluing h of an elevation Z
    of f2. Only h, the pivot and f2 are stored; the rest is derived."""

    h: PosetMap  # Z -> f1 height-zero gluing map
    pivot: NodeId  # the retracted node, in Z
    f2: Poset

    @property
    def f1(self) -> Poset:
        return self.h.target

    @property
    def Z(self) -> Poset:
        return self.h.source

    @property
    def retraction(self) -> ElevationWitness:
        return ElevationWitness(self.Z, self.pivot, self.f2)

    @property
    def e(self) -> PosetMap:
        """f2 -> Z, the elevation map."""
        return self.retraction.e

    def gluing_witness(self) -> GluingWitness:
        return GluingWitness(self.Z, self.f1, self.h, fiber_collection(self.h))


def _pivot(F: Poset) -> NodeId:
    """The least height-one node on a maximal-length chain (F has dim >= 1),
    read off the height and depth tables in one pass."""
    depths, top = F._depth_table(), F.dim() - 1
    return min(x for x, h in F._height_table().items() if h == 1 and depths[x] == top)


def gextension_step(F1: Poset) -> GExtension:
    """Realize F1 as a G-extension of a smaller poset.

    Pivot: the least height-one node on a maximal-length chain. While some
    minimal node under the pivot has another cover, split the least such node;
    the shared-minima count strictly drops each round. The shared minima are
    listed once per round: the pivot has height one, so the minimal nodes
    under it are the ones it covers. Then collapse the pivot's down-set with
    ``core._glued``. Only preconditions and termination are checked here: the
    splits' preconditions and the drop of the shared-minima count. The
    collapse checks nothing: the loop exits when the pivot is the only cover
    of every minimum below it, and ``_pivot`` chose it at height one.
    ``_split_by_rank`` does not check its result: a split renames every node
    but the split minimum and keeps its height and depth, so the pivot lifts
    to one node of height one on a longest chain, and a split that broke this
    fails ``_descend``'s (dim, eta) check or ``decompose_to_point``'s
    isomorphism check. The elevation that undoes
    the retraction and the accumulated gluing h are verified, renamed, when
    ``_run_steps`` executes the script's elevate and glue steps, and
    ``decompose_to_point`` checks that the steps rebuild its padded poset.
    """
    if not F1.nodes:
        raise EmptyPoset("cannot extend the empty poset")
    if F1.dim() == 0:
        raise ZeroDimensional("poset has dimension zero")

    F = F1
    y = _pivot(F1)
    h = identity_map(F1)
    shared = _shared_minima(F, y)
    while shared:
        F, f_F = _split_by_rank(F, shared[0], y)
        y = min(f_F.fiber(y))
        h = compose(f_F, h)
        m = len(shared)
        shared = _shared_minima(F, y)
        if len(shared) >= m:
            raise InternalInvariantError(
                f"shared-minima count failed to drop: {m} -> {len(shared)}"
            )

    return GExtension(h=h, pivot=y, f2=_glued(F, (F.down_set(y),)))


def _eta(F: Poset) -> int:
    """Number of maximal-length chains, without listing the maximal chains.

    ways[x] counts the chains of length height(x) ending at x; a cover
    (a, b) extends them iff it climbs exactly one level. Covers are taken
    in ascending height of a, so ways[a] is final before it is used.
    """
    heights = F._height_table()
    ways = {x: 1 if h == 0 else 0 for x, h in heights.items()}
    for a, b in sorted(F.covers, key=lambda cover: heights[cover[0]]):
        if heights[b] == heights[a] + 1:
            ways[b] += ways[a]
    d = F.dim()
    return sum(ways[x] for x, h in heights.items() if h == d)


def _descend(F: Poset) -> Iterator[GExtension]:
    """G-extension steps from F to dimension zero, each lowering (dim, eta)."""
    key = F.dim(), _eta(F)
    while F.dim() > 0:
        step = gextension_step(F)
        F = step.f2
        key, before = (F.dim(), _eta(F)), key
        if not key < before:
            raise InternalInvariantError(f"(dim, eta) failed to decrease: {before} -> {key}")
        yield step


def reduce_dimension(F1: Poset) -> list[Poset]:
    """Successive G-extensions from F1 until the dimension strictly drops."""
    if not F1.nodes:
        raise EmptyPoset("cannot reduce the empty poset")
    if F1.dim() == 0:
        raise ZeroDimensional("poset has dimension zero")
    seq = [F1]
    for step in _descend(F1):
        seq.append(step.f2)
        if step.f2.dim() < F1.dim():
            break
    return seq


@dataclass(frozen=True)
class WrapOptions:
    """Padding beyond the fresh top ``wrap`` always adds."""

    single_min: bool = False
    min_height: int = 0
    min_dim: int = 0

    def __post_init__(self):
        for name in ("min_height", "min_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise InputError(f"WrapOptions.{name} needs a non-negative integer, got {value!r}")


def wrap(X: Poset, options: WrapOptions) -> tuple[Poset, PosetMap]:
    """Embed X as a saturated subset of a padded poset K.

    A single fresh top over everything is always added. The optional
    moves are a chain of length min_height under every original minimal
    node, a single fresh bottom under everything, and a trailing chain under
    the least minimum on a longest chain until dim K >= min_dim. No fresh node
    lies between two nodes of X, so the inclusion is a saturated embedding.
    """
    if not X.nodes:
        raise EmptyPoset("cannot wrap the empty poset")
    nodes = set(X.nodes)
    covers = set(X.covers)
    counter = [0]

    def fresh() -> NodeId:
        while True:
            cand = f"w.{counter[0]}"
            counter[0] += 1
            if cand not in nodes:
                return cand

    def minima() -> list[NodeId]:
        lowers = {b for (_, b) in covers}
        return sorted(x for x in nodes if x not in lowers)

    def maxima() -> list[NodeId]:
        uppers = {a for (a, _) in covers}
        return sorted(x for x in nodes if x not in uppers)

    def chain_below(m: NodeId, length: int) -> None:
        anchor = m
        for _ in range(length):
            q = fresh()
            nodes.add(q)
            covers.add((q, anchor))
            anchor = q

    if options.min_height > 0:
        for m in sorted(X.min_nodes()):
            chain_below(m, options.min_height)
    if options.single_min:
        bot = fresh()
        for m in minima():
            covers.add((bot, m))
        nodes.add(bot)
    top = fresh()
    for m in maxima():
        covers.add((m, top))
    nodes.add(top)

    K = build(nodes, covers)
    deficit = options.min_dim - K.dim()
    if deficit > 0:
        chain_below(min(m for m in K.min_nodes() if K.on_maximal_length_chain(m)), deficit)
        K = build(nodes, covers)
    return K, inclusion_map(X, K)


@dataclass(frozen=True)
class ElevateStep:
    target: NodeId
    fresh_ids: tuple[NodeId, ...]


@dataclass(frozen=True)
class GlueStep:
    partition: tuple[frozenset[NodeId], ...]


Step = ElevateStep | GlueStep


@dataclass(frozen=True)
class ConstructionScript:
    """Forward build recipe from a one-point poset, plus the tracked embedding.

    ``embedding`` maps the nodes of ``source`` (the poset the script was
    derived from, when known) into ``final``.
    """

    start: Poset
    steps: tuple[Step, ...]
    final: Poset
    embedding: dict[NodeId, NodeId]
    source: Optional[Poset] = None


@dataclass(frozen=True)
class ReplayReport:
    lines: tuple[str, ...]

    def __str__(self):
        return "\n".join(self.lines)


def decompose_to_point(
    X: Poset, options: Optional[WrapOptions] = None
) -> ConstructionScript:
    """Tear X down to a point and certify the forward script.

    X is first padded to K (``wrap`` always adds a single fresh maximum, so the
    terminal poset is a point), then G-extension steps run until dimension
    zero. Each step is kept only as a record (the pivot, its class c, the
    sorted raw fresh ids, and h's fibers and assignment if it split), never its
    posets. The reversed records are translated into elevate/glue recipes with
    canonical ids, without building any poset; identity gluings are dropped.
    The recipes are then executed by the step loop ``replay`` uses, which
    re-verifies every move, and the result must be isomorphic to K under the
    tracked ids and certify X's embedding. A failure there is a bug in this
    function, not in X, so it raises InternalInvariantError.
    """
    if not X.nodes:
        raise EmptyPoset("cannot decompose the empty poset")
    K, _ = wrap(X, options or WrapOptions())

    records = []
    current = K
    for gx in _descend(K):
        down = gx.Z.down_set(gx.pivot)
        fibers = fiber_collection(gx.h)
        h = gx.h.assignment if fibers else None
        records.append((gx.pivot, min(down), sorted(down - {gx.pivot}), fibers, h))
        current = gx.f2
    if len(current.nodes) != 1:
        raise InternalInvariantError("terminal poset is not a point despite the fresh maximum")

    # sigma maps raw ids of the current backward-pass poset to canonical ids;
    # e is the identity except c -> pivot; fresh ids carry their step number,
    # which no earlier id does; a glued part is named by its least id.
    start = build(["p0"], [])
    sigma = {min(current.nodes): "p0"}
    steps: list[Step] = []
    while records:
        pivot, c, raw_fresh, fibers, h = records.pop()
        fresh = [f"q{len(steps) + 1}.{j}" for j in range(len(raw_fresh))]
        steps.append(ElevateStep(target=sigma[c], fresh_ids=tuple(fresh)))
        sigma[pivot] = sigma.pop(c)
        sigma.update(zip(raw_fresh, fresh))
        if fibers:
            partition = tuple(sorted((frozenset(sigma[d] for d in p) for p in fibers), key=min))
            steps.append(GlueStep(partition=partition))
            least = {y: min(part) for part in partition for y in part}
            sigma = {h[v]: least.get(y, y) for v, y in sigma.items()}

    try:
        final, _ = _run_steps(start, steps)
    except StepMismatch as exc:
        raise InternalInvariantError(f"decompose's own script failed: {exc}") from exc
    if (
        sigma.keys() != K._up.keys()
        or frozenset(sigma.values()) != frozenset(final.nodes)
        or len(K.covers) != len(final.covers)
        or any((sigma[a], sigma[b]) not in final.covers for a, b in K.covers)
    ):
        raise InternalInvariantError("forward run is not isomorphic to the padded poset")

    script = ConstructionScript(
        start=start,
        steps=tuple(steps),
        final=final,
        embedding={x: sigma[x] for x in X.nodes},
        source=X,
    )
    try:
        _verify_certificate(script, final)
    except BrokenEmbedding as exc:
        raise InternalInvariantError(f"decompose's own certificate failed: {exc}") from exc
    return script


def _verify_certificate(script: ConstructionScript, final: Poset) -> None:
    image = set(script.embedding.values())
    missing = [y for y in image if y not in final]
    if missing:
        raise BrokenEmbedding(f"embedding lands outside the final poset: {missing[:3]!r}")
    # with a source, the saturated embedding checked below implies this
    if script.source is None:
        pair = morphism.saturated_subset_violation(final, image)
        if pair is not None:
            raise BrokenEmbedding("embedded image is not saturated", pair=pair)
        return
    # a tampered key set is a failed certificate, not bad input
    if script.embedding.keys() != script.source._up.keys():
        missing = sorted(x for x in script.source.nodes if x not in script.embedding)
        extra = sorted(x for x in script.embedding if x not in script.source)
        raise BrokenEmbedding(
            f"embedding keys are not the source nodes: missing {missing[:3]!r}, "
            f"extra {extra[:3]!r}"
        )
    tracked = PosetMap(script.source, final, script.embedding)
    for scan, message in (
        (morphism.poset_map_violation, "tracked map does not preserve order"),
        (morphism._reflection_violation, "tracked map does not reflect order"),
        (morphism._cover_violation, "tracked map drops a cover"),
    ):
        pair = scan(tracked)
        if pair is not None:
            raise BrokenEmbedding(message, pair=pair)


def _run_steps(start: Poset, steps: Sequence[Step]) -> tuple[Poset, list[str]]:
    """Execute the steps from start, verifying every move; the reached poset
    and one report line per step. An elevation validates its witness. A glue
    step is made by ``core._glued`` and checked against the closed form of a
    height-zero quotient, never by rebuilding it. Raises StepMismatch when a
    step's preconditions or its verification fail."""
    lines = []
    current = start
    for i, step in enumerate(steps, start=1):
        if isinstance(step, ElevateStep):
            try:
                witness = elevate(current, step.target, len(step.fresh_ids), step.fresh_ids)
            except InputError as exc:
                raise StepMismatch(f"step {i}: elevate failed: {exc}") from exc
            current = witness.Z
            lines.append(
                f"step {i}: elevate {step.target} by {len(step.fresh_ids)} -> {len(current.nodes)} nodes"
            )
        elif isinstance(step, GlueStep):
            # _glued and the closed-form check need disjoint parts of two or
            # more minima; a partition that needs merging or dropping parts
            # is refused here, not repaired
            mins = current.min_nodes()
            seen: set[NodeId] = set()
            for part in step.partition:
                if len(part) < 2:
                    raise StepMismatch(
                        f"step {i}: glue partition part {sorted(part)!r} has fewer than two ids"
                    )
                if not seen.isdisjoint(part):
                    x = min(seen & part)
                    raise StepMismatch(f"step {i}: glue partition parts overlap at {x!r}")
                seen |= part
                if not part <= mins:
                    raise StepMismatch(f"step {i}: glue partition is not height zero")
            glued = _glued(current, step.partition)
            report = _verify_height_zero_quotient(current, glued, step.partition)
            if not report:
                raise StepMismatch(f"step {i}: gluing failed verification: {report.reason}")
            current = glued
            lines.append(
                f"step {i}: glue {len(step.partition)} classes -> {len(current.nodes)} nodes"
            )
        else:
            raise StepMismatch(f"step {i}: unknown step kind")
    return current, lines


def replay(script: ConstructionScript) -> tuple[Poset, ReplayReport]:
    """Re-execute a script from its start poset, re-verifying every move.

    Raises StepMismatch when a step's preconditions fail or the result
    differs from the recorded final poset, BrokenEmbedding when the tracked
    embedding does not certify.
    """
    current, lines = _run_steps(script.start, script.steps)
    if current != script.final:
        raise StepMismatch("final poset differs from the recorded one")
    _verify_certificate(script, current)
    lines.append(f"final: {len(current.nodes)} nodes, dim {current.dim()}")
    lines.append(f"embedding: {len(script.embedding)} nodes, saturated subset verified")
    if script.source is not None:
        lines.append("saturated embedding of the source verified")
    return current, ReplayReport(tuple(lines))

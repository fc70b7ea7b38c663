"""Elevations, retractions, G-extension steps, and the certificate pipeline.

A retraction collapses the down-set of a height-one node z (all of whose
lower neighbors have z as their only cover) to a point; an elevation is the
inverse move, growing fresh minima under a minimal node. One G-extension
step = split shared minima under a pivot until each copy has a unique cover,
retract the pivot's down-set, and remember the height-zero gluing that undoes
the splits. Iterating to dimension zero and reversing yields a construction
script from a single point. Steps are recipes (a target and fresh ids, or a
partition); one step loop, ``_run_steps``, executes them, verifying every
move, for both ``replay`` and ``decompose_to_point``, which certifies its own
script with it before returning. The backward pass checks only the
preconditions its moves need and that ``(dim, eta)`` decreases; it validates
neither its retractions nor its splits. The step loop is the one checker of
each elevation and gluing: an elevation validates its witness, and a glue
step's quotient (``core._glued``) is checked against its closed form by
``gluing._verify_height_zero_quotient``, which reads only the input's up-sets
and covers and rebuilds nothing. ``decompose_to_point``'s final isomorphism
check catches a wrong split or retraction. The certificate shows that the
original poset sits inside the reconstruction as a saturated subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    """Z is X with fresh minima grown under r(z); r collapses them back."""

    Z: Poset
    z: NodeId
    X: Poset
    r: PosetMap  # Z -> X, glues the down-set of z
    e: PosetMap  # X -> Z, the unique section fixing z

    def validate(self) -> None:
        Z, z, X, r, e = self.Z, self.z, self.X, self.r, self.e
        if Z.height(z) != 1:
            raise InternalInvariantError(f"pivot {z!r} does not have height one")
        down = Z.down_set(z)
        for w in sorted(down - {z}):
            if Z.upper_covers(w) != {z}:
                raise InternalInvariantError(f"{z!r} is not the only cover of {w!r}")
        report = verify_gluing(Z, X, r, (down,))
        if not report:
            raise InternalInvariantError(f"r is not a gluing along the down-set: {report.reason}")
        if any(r(e(x)) != x for x in X.nodes):
            raise InternalInvariantError("r . e is not the identity")
        if e(r(z)) != z:
            raise InternalInvariantError("section does not fix the pivot")
        if not morphism.is_embedding(e):
            raise InternalInvariantError("elevation map is not an embedding")
        if frozenset(Z.nodes) != down | e.image():
            raise InternalInvariantError("Z is not the union of the down-set and the section image")
        fresh = down - {z}
        expected_min = fresh | frozenset(e(x) for x in X.min_nodes() if x != r(z))
        if Z.min_nodes() != expected_min:
            raise InternalInvariantError("minima of Z do not decompose as expected")


def retract(Z: Poset, z: NodeId) -> ElevationWitness:
    """Collapse the down-set of z to a point, and validate the witness.

    z must have height one and be the only cover of everything below it.
    The collapsed class keeps the least id c in the down-set, as
    ``glue_along_complete`` names it, but X is derived from Z directly
    (``core._glued`` on the one down-set): it shares Z's up-set objects
    outside the down-set, so making X takes time linear in the size of Z
    instead of a re-closure of the order. The section e sends each surviving
    node to its unique preimage and c to z. ``validate`` checks the result
    against the canonical gluing in full. ``gextension_step`` uses the
    unvalidated ``_retraction``: the elevation that undoes it is validated
    once, when the script's step loop executes it.
    """
    result = _retraction(Z, z)
    result.validate()
    return result


def _retraction(Z: Poset, z: NodeId) -> ElevationWitness:
    """``retract`` without ``validate``: the preconditions are checked, the
    witness is not."""
    Z._check_node(z)
    if Z.height(z) != 1:
        raise NotHeightOne(f"{z!r} has height {Z.height(z)}, expected 1")
    down = Z.down_set(z)
    for w in sorted(down - {z}):
        if Z.upper_covers(w) != {z}:
            raise NotUniqueCover(
                f"{w!r} below {z!r} has covers {sorted(Z.upper_covers(w))!r}", node=w
            )
    X = _glued(Z, (down,))
    c = min(down)
    r = PosetMap(Z, X, {w: c if w in down else w for w in Z.nodes})
    # every node outside the down-set is alone in its fiber
    e_assignment = {w: w for w in Z.nodes if w not in down}
    e_assignment[c] = z
    e = PosetMap(X, Z, e_assignment)
    return ElevationWitness(Z, z, X, r, e)


def elevate(
    X: Poset, p: NodeId, n: int, fresh_ids: Optional[Sequence[NodeId]] = None
) -> ElevationWitness:
    """Grow n fresh minima under the minimal node p.

    Z is derived from X directly (``core._elevated``): it reuses X's up-set
    objects and gives each fresh q the up-set ``{q} | up(p)``, so making Z
    takes time linear in its size instead of a re-closure of the order.
    ``validate`` still checks the result in full.
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
    Z = _elevated(X, p, fresh_ids)
    r = PosetMap(Z, X, {**{x: x for x in X.nodes}, **{q: p for q in fresh_ids}})
    e = inclusion_map(X, Z)
    result = ElevationWitness(Z, p, X, r, e)
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
    return sum(
        1
        for u in F.min_nodes()
        if F.lt(u, x) and F.upper_covers(u) != {x}
    )


@dataclass(frozen=True)
class GExtension:
    """One growth-and-glue move: f1 = height-zero gluing h of an elevation Z of f2."""

    f1: Poset
    f2: Poset
    Z: Poset
    e: PosetMap  # f2 -> Z elevation map
    h: PosetMap  # Z -> f1 height-zero gluing map
    pivot: NodeId  # the retracted node, in Z
    retraction: ElevationWitness

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
    the shared-minima count strictly drops each round. Then retract the
    pivot's down-set. Only preconditions and termination are checked here:
    the splits' preconditions and the pivot's unique lift (``_split_by_rank``
    does not check its result), and the retraction's pivot and unique covers
    (``_retraction``, which skips ``validate``). The elevation that undoes
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
    m = m_count(F, y)
    while m > 0:
        u = min(
            u
            for u in F.min_nodes()
            if F.is_cover(u, y) and F.upper_covers(u) != {y}
        )
        F, f_F = _split_by_rank(F, u, y)
        y_fiber = f_F.fiber(y)
        if len(y_fiber) != 1:
            raise InternalInvariantError(f"pivot {y!r} did not lift uniquely")
        y = min(y_fiber)
        h = compose(f_F, h)
        m_new = m_count(F, y)
        if m_new >= m:
            raise InternalInvariantError(f"shared-minima count failed to drop: {m} -> {m_new}")
        m = m_new
        if F.height(y) != 1 or not F.on_maximal_length_chain(y):
            raise InternalInvariantError("pivot left the maximal-length chains while splitting")

    retraction = _retraction(F, y)
    return GExtension(
        f1=F1,
        f2=retraction.X,
        Z=F,
        e=retraction.e,
        h=h,
        pivot=y,
        retraction=retraction,
    )


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


def _dim_eta(F: Poset) -> tuple[int, int]:
    return F.dim(), _eta(F)


def _check_lex_decrease(before: tuple[int, int], after: Poset) -> tuple[int, int]:
    """``after``'s (dim, eta), which must be below ``before``, the previous
    poset's; callers carry it into the next step, so each poset's is computed
    once."""
    a = _dim_eta(after)
    if not a < before:
        raise InternalInvariantError(f"(dim, eta) failed to decrease: {before} -> {a}")
    return a


def reduce_dimension(F1: Poset) -> list[Poset]:
    """Successive G-extensions from F1 until the dimension strictly drops."""
    if not F1.nodes:
        raise EmptyPoset("cannot reduce the empty poset")
    if F1.dim() == 0:
        raise ZeroDimensional("poset has dimension zero")
    seq = [F1]
    key = _dim_eta(F1)
    while seq[-1].dim() >= F1.dim():
        step = gextension_step(seq[-1])
        key = _check_lex_decrease(key, step.f2)
        seq.append(step.f2)
    return seq


@dataclass(frozen=True)
class WrapOptions:
    single_max: bool = True
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

    Optional moves, each preserving saturation of the inclusion: a chain of
    length min_height under every original minimal node, a single fresh
    bottom under everything, a single fresh top over everything, and a
    trailing chain below the least minimum until dim K >= min_dim.
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
    if options.single_max:
        top = fresh()
        for m in maxima():
            covers.add((m, top))
        nodes.add(top)

    K = build(nodes, covers)
    deficit = options.min_dim - K.dim()
    if deficit > 0:
        chain_below(min(minima()), deficit)
        K = build(nodes, covers)

    inclusion = inclusion_map(X, K)
    if not morphism.is_saturated_embedding(inclusion):
        raise InternalInvariantError("padding broke the saturated inclusion")
    if not morphism.is_saturated_subset(K, X.nodes):
        raise InternalInvariantError("padding broke saturation of the image")
    if options.min_height > 0 and any(K.height(x) < options.min_height for x in X.nodes):
        raise InternalInvariantError("height padding fell short")
    if K.dim() < options.min_dim:
        raise InternalInvariantError("dimension padding fell short")
    return K, inclusion


@dataclass(frozen=True)
class ElevateStep:
    kind = "elevate"
    target: NodeId
    fresh_ids: tuple[NodeId, ...]


@dataclass(frozen=True)
class GlueStep:
    kind = "glue"
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

    X is first padded to K (a single fresh maximum is always added so the
    terminal poset is a point), then G-extension steps run until dimension
    zero. The reversed run is translated into elevate/glue recipes with
    canonical ids, without building any poset; identity gluings are dropped.
    The recipes are then executed by the step loop ``replay`` uses, which
    re-verifies every move, and the result must be isomorphic to K under the
    tracked ids and certify X's embedding. A failure there is a bug in this
    function, not in X, so it raises InternalInvariantError.
    """
    if not X.nodes:
        raise EmptyPoset("cannot decompose the empty poset")
    if options is None:
        options = WrapOptions()
    if not options.single_max:
        options = WrapOptions(True, options.single_min, options.min_height, options.min_dim)
    K, _ = wrap(X, options)

    backward: list[GExtension] = []
    current = K
    key = _dim_eta(K)
    while current.dim() > 0:
        step = gextension_step(current)
        key = _check_lex_decrease(key, step.f2)
        backward.append(step)
        current = step.f2
    if len(current.nodes) != 1:
        raise InternalInvariantError("terminal poset is not a point despite the fresh maximum")

    # sigma maps raw ids of the current backward-pass poset to canonical ids;
    # its values are the node set the forward run has reached. A glued part
    # is named by its least id, as core._glued names it. Each
    # backward step is dropped once used, so they are not all kept alive.
    start = build(["p0"], [])
    sigma = {min(current.nodes): "p0"}
    steps: list[Step] = []
    while backward:
        gx = backward.pop()
        raw_fresh = sorted(gx.Z.down_set(gx.pivot) - {gx.pivot})
        fresh = _fresh_ids(f"q{len(steps) + 1}", len(raw_fresh), frozenset(sigma.values()))
        steps.append(ElevateStep(target=sigma[gx.retraction.r(gx.pivot)], fresh_ids=tuple(fresh)))
        sigma = {
            **{z_raw: sigma[x_raw] for x_raw, z_raw in gx.e.assignment.items()},
            **dict(zip(raw_fresh, fresh)),
        }
        partition = tuple(
            sorted((frozenset(sigma[d] for d in part) for part in fiber_collection(gx.h)), key=min)
        )
        if partition:
            steps.append(GlueStep(partition=partition))
        least = {y: min(part) for part in partition for y in part}
        sigma = {gx.h(v): least.get(sigma[v], sigma[v]) for v in gx.Z.nodes}

    try:
        final, _ = _run_steps(start, steps)
    except StepMismatch as exc:
        raise InternalInvariantError(f"decompose's own script failed: {exc}") from exc
    if set(sigma) != set(K.nodes):
        raise InternalInvariantError("forward run lost track of the padded poset")
    if (
        frozenset(sigma.values()) != frozenset(final.nodes)
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
    if script.source is not None:
        # a tampered key set is a failed certificate, not bad input
        if script.embedding.keys() != script.source._up.keys():
            missing = sorted(x for x in script.source.nodes if x not in script.embedding)
            extra = sorted(x for x in script.embedding if x not in script.source)
            raise BrokenEmbedding(
                f"embedding keys are not the source nodes: missing {missing[:3]!r}, "
                f"extra {extra[:3]!r}"
            )
        tracked = PosetMap(script.source, final, script.embedding)
        if not morphism.is_poset_map(tracked):
            raise BrokenEmbedding(
                "tracked map does not preserve order",
                pair=morphism.poset_map_violation(tracked),
            )
        pair = morphism.embedding_violation(tracked)
        if pair is not None:
            raise BrokenEmbedding("tracked map does not reflect order", pair=pair)
        pair = morphism.saturation_violation(tracked)
        if pair is not None:
            raise BrokenEmbedding("tracked map drops a cover", pair=pair)
    pair = morphism.saturated_subset_violation(final, image)
    if pair is not None:
        raise BrokenEmbedding("embedded image is not saturated", pair=pair)


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

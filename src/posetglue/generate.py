"""Seeded poset generators and the small-poset enumerator.

``random_poset`` drives the property suites and the CLI; everything is a pure
function of its arguments. ``iter_posets_upto_iso`` streams every poset on
n nodes once per isomorphism class by orderly generation (Read, "Every one a
winner", Ann. Discrete Math. 2, 1978): it builds each class's least natural
labelling directly and never compares two posets; ``all_posets_upto_iso``
lists it. ``count_closed_relations`` scans all 2^C(n,2) relations instead,
so the test suite keeps two independent books on the class count.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations, permutations
from typing import Iterator

from .core import Poset, build
from .errors import InputError


def random_poset(seed: int, node_count: int, edge_probability: float) -> Poset:
    """Random DAG on a fixed topological order, transitively reduced.

    Each pair i < j of indices is related with the given probability, drawn
    in row order (i, then j). The result is ``build`` on the drawn pairs, but
    ``build`` gets only the covers: the drawn successors of each row are kept
    as a bitmask, and the rows are closed from the last index down, so every
    strict up-set above a row is known when the row is reached. A drawn
    successor is a cover unless it lies above a lesser drawn successor of the
    same row, which is found before it.
    """
    if node_count < 1:
        raise InputError("node_count must be at least 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise InputError("edge_probability must lie in [0, 1]")
    rng = random.Random(f"{seed}:{node_count}:{edge_probability}")
    width = len(str(node_count - 1))
    ids = [f"n{i:0{width}d}" for i in range(node_count)]
    drawn = [0] * node_count  # row i -> bitmask of the drawn j > i
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < edge_probability:
                drawn[i] |= 1 << j
    strict_up = [0] * node_count
    covers = []
    for i in reversed(range(node_count)):
        above, rest = 0, drawn[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((ids[i], ids[j]))
            above |= strict_up[j]
            rest &= ~above & ~(1 << j)
        strict_up[i] = above | drawn[i]
    return build(ids, covers)


def _closed_relations(n: int):
    """All transitive relations inside the natural order on 0..n-1.

    Yielded as frozensets of index pairs (i, j) with i < j.
    """
    all_pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(all_pairs)):
        rel = {all_pairs[k] for k in range(len(all_pairs)) if mask >> k & 1}
        ok = True
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield frozenset(rel)


def _as_poset(n: int, rel: frozenset) -> Poset:
    ids = [str(i) for i in range(n)]
    return build(ids, [(str(a), str(b)) for a, b in rel])


def _has_smaller_labelling(up: tuple[int, ...]) -> bool:
    """Whether another natural labelling of ``up`` has a smaller mask.

    ``up[i]`` is the bitmask of the labels strictly above label i. A
    labelling is built top-down: label l goes to a node whose up-set is
    already labelled, and that fixes row l, the new labels above the node.
    The search follows only the nodes whose row equals the identity's row l;
    a smaller row answers yes, and a larger one is pruned. What is left to
    compare depends only on the unlabelled nodes and their rows so far, so
    each such state is searched once.
    """
    n = len(up)
    below = [[i for i in range(n) if up[i] >> j & 1] for j in range(n)]
    seen = set()

    def search(unlabelled: int, label: int, rows: tuple[int, ...]) -> bool:
        if label < 0 or (unlabelled, rows) in seen:
            return False
        seen.add((unlabelled, rows))
        target = up[label]
        ties = []
        for v in range(n):
            if unlabelled >> v & 1 and not up[v] & unlabelled:
                if rows[v] < target:
                    return True
                if rows[v] == target:
                    ties.append(v)
        bit = 1 << label
        for v in ties:
            nxt = list(rows)
            nxt[v] = 0
            for u in below[v]:
                nxt[u] |= bit
            if search(unlabelled & ~(1 << v), label - 1, tuple(nxt)):
                return True
        return False

    return search((1 << n) - 1, n - 1, (0,) * n)


def _up_closed_subsets(up: tuple[int, ...]):
    """Every set of labels that contains the up-set of each of its labels."""
    subsets = [0]
    for i in reversed(range(len(up))):
        subsets += [s | 1 << i for s in subsets if up[i] & s == up[i]]
    return subsets


def iter_posets_upto_iso(n: int) -> Iterator[Poset]:
    """One representative per isomorphism class: each class's least-mask
    natural labelling, in increasing mask order, each built when reached.

    A natural labelling is a transitive relation inside 0 < ... < n-1, and
    its mask sets bit k for the k-th pair of ``combinations(range(n), 2)``.
    Every poset has one, so every class has a least-mask labelling, and
    sorting those by mask gives the order in which a scan of all
    2^C(n,2) masks would first meet each class. Three facts make the
    generation exact, with no isomorphism search:

    1. The most significant bits are the pairs (i, j) with the largest i,
       so a labelling is least iff no top-down placement of labels n-1,
       n-2, ..., each on a node whose up-set is already labelled, reaches
       a row (the labels above label i) smaller than the identity's
       (``_has_smaller_labelling``).
    2. Deleting label 0, always a minimal node, from a least-mask
       labelling leaves a least-mask labelling on n-1 labels: the pairs
       (0, j) are the lowest n-1 bits, and a smaller labelling of the rest
       would extend by keeping that node at label 0.
    3. So level n comes from each level-(n-1) representative: shift its
       labels up by one and put a new minimal label 0 under every up-closed
       subset. Each candidate determines its parent and its subset, so none
       appears twice; the candidates that pass fact 1 are the level.

    ``count_closed_relations`` still scans every mask; it is the
    deliberately independent count the test suite checks this against.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"n needs an integer, got {n!r}")
    if n < 0:
        raise InputError("n must be nonnegative")
    return (
        _as_poset(n, frozenset((i, j) for i in range(n) for j in range(n) if up[i] >> j & 1))
        for up in (_level_rows(n) if n else ())
    )


def all_posets_upto_iso(n: int) -> list[Poset]:
    """``iter_posets_upto_iso(n)`` as a list."""
    return list(iter_posets_upto_iso(n))


@functools.cache
def _level_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The up-set rows of level n's least-mask labellings, in mask order.

    Cached as plain integers, so a caller that loops over n computes each
    level once, and every call still gets fresh ``Poset`` values.
    """
    if n == 1:
        return ((0,),)
    candidates = []
    for rep in _level_rows(n - 1):
        shifted = tuple(u << 1 for u in rep)
        for subset in _up_closed_subsets(rep):
            up = (subset << 1,) + shifted
            if not _has_smaller_labelling(up):
                candidates.append(up)
    # rows from label n-1 down are the mask's fields, most significant first
    return tuple(sorted(candidates, key=lambda up: up[::-1]))


def count_closed_relations(n: int) -> int:
    """How many transitive relations lie inside the natural order on 0..n-1.

    Counted by scanning every mask, independently of
    ``all_posets_upto_iso``; the test suite checks the two against each
    other through linear extensions and automorphisms.
    """
    return sum(1 for _ in _closed_relations(n))


def linear_extension_count(P: Poset) -> int:
    """Brute force over all orderings; independent of the enumeration path."""
    nodes = list(P.nodes)
    count = 0
    for perm in permutations(range(len(nodes))):
        rank = {nodes[i]: perm[i] for i in range(len(nodes))}
        if all(rank[a] < rank[b] for a, b in P.covers):
            count += 1
    return count


def automorphism_count(P: Poset) -> int:
    nodes = list(P.nodes)
    count = 0
    for perm in permutations(nodes):
        send = dict(zip(nodes, perm))
        if all((send[a], send[b]) in P.covers for a, b in P.covers):
            count += 1
    return count

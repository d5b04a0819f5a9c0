"""Exhaustive ground truth for small trees.

A root-separating cut is formalized as the out-edge boundary of an internal
subtree: a set of nodes that contains the root, is closed under parent, and
contains no leaf of the original tree. Boundary cuts are in bijection with
those subtrees, and every root-to-leaf path crosses a boundary exactly once.
Arbitrary disconnecting edge sets are deliberately NOT admitted: padding a
boundary with extra edges still disconnects but can inflate the average,
so "all cuts" here means exactly the boundaries.

The enumeration changes only ints per step and rebuilds a cut's edge set
only when a caller needs it (see ``_walk``). Everything else here favors
being obviously correct over being fast; the module exists to check the
contraction engine, not to replace it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .contraction import (
    CutResult,
    Objective,
    edge_contractibility,
    evaluate_cut,
)
from .errors import (
    InvalidCutError,
    NotApplicableError,
    PreconditionError,
    TooManyCutsError,
)
from .rational import exact_str
from .tree import EdgeId, NodeId, RootedTree, contract_edge

DEFAULT_CUT_LIMIT = 10**7


@dataclass(frozen=True)
class InternalSubtree:
    """A root-containing, parent-closed, leaf-free node set; one per cut."""

    nodes: frozenset[NodeId]

    def boundary(self, t: RootedTree) -> frozenset[EdgeId]:
        """All edges leaving the node set: its root-separating cut."""
        return frozenset(
            e for v in self.nodes for e in t.children[v] if e not in self.nodes
        )


def count_cuts(t: RootedTree) -> int:
    """Number of root-separating boundary cuts.

    c(leaf) = 0 and c(v) = prod over children x of (1 + c(x)): each child
    edge is either kept in the cut or replaced by a cut of its subtree.
    """
    order: list[NodeId] = [t.root]
    for v in order:
        order.extend(t.children[v])
    c = [0] * t.node_count
    for v in reversed(order):
        kids = t.children[v]
        if kids:
            prod = 1
            for x in kids:
                prod *= 1 + c[x]
            c[v] = prod
    return c[t.root]


class _Prep:
    """Shared precomputation for the cut enumeration. ``w``, ``leaf_sum``
    and ``leaf_count`` are indexed by position in ``order``: a node's scaled
    weight, and the scaled total and number of its leaf out-edges; ``base``
    holds the root's total and number."""

    __slots__ = ("scale", "root", "leaf_edges", "order", "skip_to", "w",
                 "leaf_sum", "leaf_count", "base")

    def __init__(self, t: RootedTree):
        n = t.node_count
        self.scale, w = t.scaled_weights
        self.root = t.root
        self.leaf_edges = [
            [c for c in t.children[v] if not t.children[c]] for v in range(n)
        ]

        # Preorder over internal non-root nodes; each internal subtree is a
        # contiguous block, so deciding a node "cut here" can skip past it.
        internal_kids = [
            [c for c in t.children[v] if t.children[c]] for v in range(n)
        ]
        order: list[NodeId] = []
        stack = list(reversed(internal_kids[t.root]))
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(internal_kids[v]))
        isize = [1] * n
        for v in reversed(order):
            isize[v] += sum(isize[c] for c in internal_kids[v])
        self.order = order
        self.skip_to = [p + isize[v] for p, v in enumerate(order)]
        self.w = [w[v] for v in order]
        leaf_sum = [sum(w[c] for c in cs) for cs in self.leaf_edges]
        self.leaf_sum = [leaf_sum[v] for v in order]
        self.leaf_count = [len(self.leaf_edges[v]) for v in order]
        self.base = (leaf_sum[t.root], len(self.leaf_edges[t.root]))


def _walk(prep: _Prep) -> Iterator[tuple[list[int], bytearray, int, int]]:
    """Yield every cut as (positions, expanded, scaled total, size).

    ``positions`` lists the decided positions in ``prep.order``, and
    ``expanded[p]`` is 1 where the node at position ``p`` joined the internal
    subtree and 0 where its edge is cut; ``_rebuild`` turns the two into the
    subtree and the cut. Both buffers are reused and mutated in place, so a
    caller copies what it keeps, and memory stays O(tree + one cut) however
    many cuts exist.
    """
    skip_to = prep.skip_to
    w = prep.w
    leaf_sum = prep.leaf_sum
    leaf_count = prep.leaf_count
    m = len(skip_to)

    # Backtracking over "cut here" (0) vs "expand into subtree" (1)
    # decisions; a node is only reachable when all its ancestors expanded.
    positions: list[int] = []
    expanded = bytearray(m)
    total, size = prep.base
    pos = 0
    while True:
        while pos < m:
            total += w[pos]
            size += 1
            positions.append(pos)
            pos = skip_to[pos]
        yield positions, expanded, total, size

        while positions and expanded[positions[-1]]:
            p = positions.pop()
            expanded[p] = 0
            total -= leaf_sum[p]
            size -= leaf_count[p]
        if not positions:
            return
        p = positions[-1]
        expanded[p] = 1
        total += leaf_sum[p] - w[p]
        size += leaf_count[p] - 1
        pos = p + 1


def _rebuild(
    prep: _Prep, positions: list[int], expanded: bytearray
) -> tuple[list[NodeId], list[EdgeId]]:
    """The internal subtree and the cut of one ``_walk`` state."""
    subtree = [prep.root]
    cut = list(prep.leaf_edges[prep.root])
    for p in positions:
        v = prep.order[p]
        if expanded[p]:
            subtree.append(v)
            cut.extend(prep.leaf_edges[v])
        else:
            cut.append(v)
    return subtree, cut


def _check_limit(t: RootedTree, limit: int) -> None:
    total = count_cuts(t)
    if total > limit:
        raise TooManyCutsError(f"{exact_str(total)} cuts exceed the limit of {limit}")


def enumerate_cuts(
    t: RootedTree, limit: int = DEFAULT_CUT_LIMIT
) -> Iterator[tuple[InternalSubtree, frozenset[EdgeId]]]:
    """Stream every root-separating boundary cut exactly once."""
    _check_limit(t, limit)

    def gen():
        prep = _Prep(t)
        for positions, expanded, _total, _size in _walk(prep):
            subtree, cut = _rebuild(prep, positions, expanded)
            yield InternalSubtree(frozenset(subtree)), frozenset(cut)

    return gen()


def is_valid_cut(t: RootedTree, cut) -> bool:
    """True iff ``cut`` is the out-edge boundary of some internal subtree."""
    edges = set(cut)
    if not edges:
        return False
    for e in edges:
        if not isinstance(e, int) or not (0 <= e < t.node_count) or e == t.root:
            return False
    reached = _reach(t, edges)
    if any(not t.children[v] for v in reached):
        return False  # a leaf ended up inside
    return all(t.parent[e] in reached for e in edges)


def _reach(t: RootedTree, cut: set[EdgeId]) -> set[NodeId]:
    """Nodes reachable from the root without crossing a cut edge."""
    reached = {t.root}
    stack = [t.root]
    while stack:
        v = stack.pop()
        for c in t.children[v]:
            if c not in cut:
                reached.add(c)
                stack.append(c)
    return reached


def internal_subtree(t: RootedTree, cut) -> InternalSubtree:
    """The internal subtree whose boundary is ``cut``."""
    if not is_valid_cut(t, cut):
        raise InvalidCutError("not a root-separating boundary cut")
    return InternalSubtree(frozenset(_reach(t, set(cut))))


def brute_force_optimum(
    t: RootedTree, objective: Objective = Objective.MAXIMIZE, limit: int = DEFAULT_CUT_LIMIT
) -> CutResult:
    """Evaluate every cut and return one attaining the optimal average.

    Ties go to the lexicographically smallest sorted edge-id list, so the
    result is deterministic independent of enumeration order.
    """
    _check_limit(t, limit)
    prep = _Prep(t)
    maximize = objective is Objective.MAXIMIZE

    # Only a cut that ties or beats the best so far is rebuilt; every valid
    # tree has at least one cut, and the first one seeds the best.
    walk = _walk(prep)
    positions, expanded, best_total, best_size = next(walk)
    best_ids = sorted(_rebuild(prep, positions, expanded)[1])
    for positions, expanded, total, size in walk:
        lhs, rhs = total * best_size, best_total * size
        if lhs == rhs or (lhs > rhs) == maximize:
            ids = sorted(_rebuild(prep, positions, expanded)[1])
            if lhs != rhs or ids < best_ids:
                best_ids, best_total, best_size = ids, total, size

    return CutResult(
        cut=frozenset(best_ids),
        total=Fraction(best_total, prep.scale),
        size=best_size,
        average=Fraction(best_total, best_size * prep.scale),
        contractions=(),
    )


# --- executable replacement properties ------------------------------------- #
#
# These certify, on concrete inputs, the exchange arguments the contraction
# engine's optimality rests on. Each must return True on every admissible
# input; a False is a bug in the engine's premises, not in the caller.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def check_push_down_gain(t: RootedTree, cut, e: EdgeId) -> bool:
    """Swapping cut edge ``e`` for its head's out-edges strictly improves
    the average whenever e's contractibility exceeds the cut's average.

    The gain is the mediant inequality: a/b > c/d implies (a+c)/(b+d) > c/d.
    """
    edges = set(cut)
    _require(is_valid_cut(t, edges), "not a valid root-separating boundary cut")
    _require(e in edges, f"edge {e} is not in the cut")
    _require(bool(t.children[e]), f"edge {e} ends in a leaf")
    total, size, average = evaluate_cut(t, edges)
    lam = edge_contractibility(t, e)
    _require(lam > average, "contractibility does not exceed the cut average")

    swapped = (edges - {e}) | set(t.children[e])
    if not is_valid_cut(t, swapped):
        return False
    new_total, new_size, _ = evaluate_cut(t, swapped)
    return new_total * size > total * new_size


def check_pull_up_dichotomy(t: RootedTree, cut) -> bool:
    """For every frontier edge of the cut's internal subtree, either its
    contractibility exceeds the cut's average, or pulling the cut up to it
    (swapping the head's out-edges for the edge itself) loses nothing while
    strictly shrinking the internal subtree.
    """
    edges = set(cut)
    _require(is_valid_cut(t, edges), "not a valid root-separating boundary cut")
    inside = _reach(t, edges)
    _require(len(inside) > 1, "the cut is already the root's own boundary")
    total, size, average = evaluate_cut(t, edges)

    for v in inside:
        if v == t.root or any(c in inside for c in t.children[v]):
            continue
        # v is a frontier node: inside, but all of its out-edges are cut.
        lam = edge_contractibility(t, v)
        if lam > average:
            continue
        swapped = (edges - set(t.children[v])) | {v}
        if not is_valid_cut(t, swapped):
            return False
        if len(_reach(t, swapped)) >= len(inside):
            return False  # the internal subtree must strictly shrink
        new_total, new_size, _ = evaluate_cut(t, swapped)
        if new_total * size >= total * new_size:
            continue
        return False
    return True


def check_contraction_keeps_optimum(
    t: RootedTree, limit: int = DEFAULT_CUT_LIMIT
) -> bool:
    """Contracting the edge of maximal contractibility, when it beats the
    root average, leaves the brute-force optimum average unchanged.
    """
    internal = t.internal_edges()
    if not internal:
        raise NotApplicableError("the tree has no internal edges")
    best_edge = min(internal)
    best_lam = edge_contractibility(t, best_edge)
    for e in internal:
        lam = edge_contractibility(t, e)
        if lam > best_lam:  # ties keep the smallest edge id
            best_edge, best_lam = e, lam
    root_kids = t.children[t.root]
    alpha = sum((t.weights[c] for c in root_kids), start=Fraction(0)) / len(root_kids)
    if not best_lam > alpha:
        raise NotApplicableError("no edge beats the root average")

    before = brute_force_optimum(t, Objective.MAXIMIZE, limit)
    after = brute_force_optimum(contract_edge(t, best_edge), Objective.MAXIMIZE, limit)
    return before.average == after.average

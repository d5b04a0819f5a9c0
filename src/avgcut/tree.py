"""Immutable rooted weighted tree with edges named by their head node.

Every non-root node has exactly one in-edge, so the head node's id doubles
as the edge id; there is no separate edge table. Node ids are dense ints
assigned by first appearance in the input edge list. The structure is stored
once, as each node's parent; ``children`` is a view of it, built on first
use with each list sorted by id so every traversal downstream is
deterministic. The cut path never builds it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import lt
from typing import Iterable, Iterator

from .errors import (
    DuplicateParentError,
    NegativeWeightError,
    NotATreeError,
    TreeError,
    ZeroWeightWarning,
)
from .rational import exact_str, parse_rational, parse_weight

NodeId = int
EdgeId = int  # the id of the edge's head node


@dataclass(frozen=True)
class RootedTree:
    """A validated rooted tree with non-negative exact rational edge weights.

    Attributes:
        node_count: number of nodes; ids are 0..node_count-1.
        root: id of the unique node with no parent.
        parent: per-node parent id, None for the root.
        wnum, wden: per-edge weight ``wnum[v] / wden[v]`` indexed by head id,
            in lowest terms with ``wden[v] >= 1``; the root slot is ``0/1``.
        labels: per-node text label, unique across the tree.
    """

    node_count: int
    root: NodeId
    parent: tuple[NodeId | None, ...]
    wnum: tuple[int, ...]
    wden: tuple[int, ...]
    labels: tuple[str, ...]

    @cached_property
    def children(self) -> tuple[tuple[NodeId, ...], ...]:
        """Per-node tuple of child ids, sorted ascending. Built from
        ``parent`` on first use and kept."""
        kids = [[] for _ in range(self.node_count)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Per-edge weight as a Fraction, indexed by head id; the root slot
        is 0. Built from ``wnum``/``wden`` on first use and kept."""
        return tuple(map(Fraction, self.wnum, self.wden))

    @cached_property
    def label_index(self) -> dict[str, NodeId]:
        """Each label's node id. Built from ``labels`` on first use and
        kept."""
        return dict(zip(self.labels, range(self.node_count)))

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ints)``: the least common denominator of all weights and
        every weight times it, so ``weights[v] == Fraction(ints[v], scale)``.

        Computed on first use and kept. The brute-force oracle
        (``oracle._Prep``) uses it, and the contraction engine only on plain
        runs, whose scale is small; otherwise the engine keeps per-supernode
        fractions, because with distinct prime denominators this scale grows
        linearly in the number of edges.
        """
        dens = set(self.wden)
        scale = math.lcm(*dens)
        factor = {d: scale // d for d in dens}
        return scale, tuple(n * factor[d] for n, d in zip(self.wnum, self.wden))

    # --- elementary queries ------------------------------------------- #

    def edges(self) -> Iterator[EdgeId]:
        """Every edge id, ascending (= every non-root node id)."""
        return (v for v in range(self.node_count) if v != self.root)

    def tail(self, e: EdgeId) -> NodeId:
        """The parent endpoint of edge ``e`` (its head is ``e`` itself)."""
        p = self.parent[e]
        if p is None:
            raise TreeError("the root has no in-edge")
        return p

    def subtree_leaves(self, e: EdgeId) -> frozenset[NodeId]:
        """Leaf descendants of head(e), including the head if it is a leaf."""
        found = []
        stack = [e]
        while stack:
            v = stack.pop()
            if self.children[v]:
                stack.extend(self.children[v])
            else:
                found.append(v)
        return frozenset(found)

    def node_id(self, label: str) -> NodeId:
        return self.label_index[label]


def from_edges(edges: Iterable[tuple[str, str, Fraction]]) -> RootedTree:
    """Build a validated RootedTree from (parent, child, weight) label triples.

    Node ids follow first appearance; the root is the unique label that never
    appears as a child. Weights may be numbers ``Fraction()`` takes or text
    in the grammar of :func:`~avgcut.rational.parse_rational`. Raises
    MalformedWeightError for other text, DuplicateParentError when a child
    label repeats, NotATreeError when the parent relation is not a single
    rooted tree, and NegativeWeightError for weights below zero.
    """
    ids: dict[str, NodeId] = {}
    parent: list[NodeId | None] = []
    wnum: list[int] = []
    wden: list[int] = []
    for parent_label, child_label, w in edges:
        if type(w) is not Fraction:
            w = parse_rational(w) if isinstance(w, str) else Fraction(w)
        u = ids.get(parent_label)
        if u is None:
            u = ids[parent_label] = len(parent)
            parent.append(None)
            wnum.append(0)
            wden.append(1)
        c = ids.get(child_label)
        if c is None:
            c = ids[child_label] = len(parent)
            parent.append(None)
            wnum.append(0)
            wden.append(1)
        if parent[c] is not None:
            raise DuplicateParentError(f"child label {child_label!r} has two in-edges")
        if c == u:
            raise NotATreeError(f"self-loop at {child_label!r}")
        num = w.numerator
        if num < 0:
            raise NegativeWeightError(
                f"negative weight on edge to {child_label!r}: {exact_str(w)}"
            )
        parent[c] = u
        wnum[c] = num
        wden[c] = w.denominator
    if not ids:
        raise NotATreeError("no edges given")
    return _assemble(ids, parent, wnum, wden)


def _assemble(ids: dict[str, NodeId], parent: list, wnum: list, wden: list) -> RootedTree:
    """The validated tree over per-node columns in ``ids`` order, where
    parentless nodes have parent None and weight 0/1."""
    labels = tuple(ids)
    n = len(labels)
    roots = parent.count(None)
    if roots != 1:
        if not roots:
            raise NotATreeError("no root: every label has a parent (cycle)")
        names = ", ".join(repr(labels[v]) for v, p in enumerate(parent) if p is None)
        raise NotATreeError(f"not connected: multiple parentless labels ({names})")
    root = parent.index(None)
    tree = RootedTree(
        node_count=n,
        root=root,
        parent=tuple(parent),
        wnum=tuple(wnum),
        wden=tuple(wden),
        labels=labels,
    )

    # Ids in top-down order (the root is 0 and every parent id is below its
    # child's, as in any edge list read parent-first) rule out a cycle: each
    # step up lowers the id, so every node reaches the root. Otherwise every
    # node has one parent, so walking down from the root meets each node at
    # most once; it misses the nodes of any cycle.
    if root or not all(map(lt, islice(parent, 1, None), range(1, n))):
        children = tree.children
        seen = 1
        level = [root]
        while level:
            level = [c for v in level for c in children[v]]
            seen += len(level)
        if seen != n:
            raise NotATreeError("parent relation contains a cycle or unreachable nodes")

    if wnum.count(0) > 1:  # the root's slot is the one zero expected
        warnings.warn("tree contains zero-weight edges", ZeroWeightWarning, stacklevel=3)
    return tree


def build_tree(edges: Iterable[tuple[str, str, str]]) -> RootedTree:
    """Like :func:`from_edges` but with weights as exact decimal/rational text."""
    return from_edges((p, c, parse_weight(w)) for p, c, w in edges)

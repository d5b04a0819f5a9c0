"""Immutable rooted weighted tree with edges named by their head node.

Every non-root node has exactly one in-edge, so the head node's id doubles
as the edge id; there is no separate edge table. Node ids are dense ints
assigned by first appearance in the input edge list, and children lists are
kept sorted by id so every traversal downstream is deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
        children: per-node tuple of child ids, sorted ascending.
        wnum, wden: per-edge weight ``wnum[v] / wden[v]`` indexed by head id,
            in lowest terms with ``wden[v] >= 1``; the root slot is ``0/1``.
        labels: per-node text label, unique across the tree.
    """

    node_count: int
    root: NodeId
    parent: tuple[NodeId | None, ...]
    children: tuple[tuple[NodeId, ...], ...]
    wnum: tuple[int, ...]
    wden: tuple[int, ...]
    labels: tuple[str, ...]
    label_index: dict[str, NodeId] = field(repr=False, compare=False, default_factory=dict)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Per-edge weight as a Fraction, indexed by head id; the root slot
        is 0. Built from ``wnum``/``wden`` on first use and kept."""
        return tuple(map(Fraction, self.wnum, self.wden))

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, ints)``: the least common denominator of all weights and
        every weight times it, so ``weights[v] == Fraction(ints[v], scale)``.

        Computed on first use and kept. Only the brute-force oracle
        (``oracle._Prep``) uses it; the contraction engine keeps per-supernode
        fractions instead, because with distinct prime denominators this
        scale grows linearly in the number of edges.
        """
        dens = set(self.wden)
        scale = math.lcm(*dens)
        factor = {d: scale // d for d in dens}
        return scale, tuple(n * factor[d] for n, d in zip(self.wnum, self.wden))

    # --- elementary queries ------------------------------------------- #

    def is_leaf(self, v: NodeId) -> bool:
        return not self.children[v]

    def leaves(self) -> frozenset[NodeId]:
        """All nodes with no out-edges."""
        return frozenset(v for v in range(self.node_count) if not self.children[v])

    def edges(self) -> Iterator[EdgeId]:
        """Every edge id, ascending (= every non-root node id)."""
        return (v for v in range(self.node_count) if v != self.root)

    def out_edges(self, v: NodeId) -> tuple[EdgeId, ...]:
        """Edge ids leaving ``v``, in canonical (ascending head id) order."""
        return self.children[v]

    def internal_edges(self) -> list[EdgeId]:
        """Edges whose head is not a leaf; the only contraction candidates."""
        return [v for v in self.edges() if self.children[v]]

    def edge_weight(self, e: EdgeId) -> Fraction:
        if e == self.root:
            raise TreeError("the root has no in-edge")
        return self.weights[e]

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

    def edge_by_child(self, child_label: str) -> EdgeId:
        """The edge whose head carries ``child_label``."""
        v = self.label_index[child_label]
        if v == self.root:
            raise TreeError(f"{child_label!r} is the root; it has no in-edge")
        return v


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
    # Ascending v, so every children list comes out sorted; the extra last
    # list collects the parentless nodes.
    children = [[] for _ in range(n + 1)]
    for v, p in enumerate(parent):
        children[n if p is None else p].append(v)
    roots = children.pop()
    if len(roots) != 1:
        if not roots:
            raise NotATreeError("no root: every label has a parent (cycle)")
        names = ", ".join(repr(labels[v]) for v in roots)
        raise NotATreeError(f"not connected: multiple parentless labels ({names})")
    root = roots[0]
    children = tuple(map(tuple, children))  # frees the lists: a lower peak

    # Every other node has one parent, so walking down from the root meets
    # each node at most once; it misses the nodes of any cycle.
    seen = 1
    level = [root]
    while level:
        level = [c for v in level for c in children[v]]
        seen += len(level)
    if seen != n:
        raise NotATreeError("parent relation contains a cycle or unreachable nodes")

    if wnum.count(0) > 1:  # the root's slot is the one zero expected
        warnings.warn("tree contains zero-weight edges", ZeroWeightWarning, stacklevel=3)

    return RootedTree(
        node_count=n,
        root=root,
        parent=tuple(parent),
        children=children,
        wnum=tuple(wnum),
        wden=tuple(wden),
        labels=labels,
        label_index=ids,
    )


def build_tree(edges: Iterable[tuple[str, str, str]]) -> RootedTree:
    """Like :func:`from_edges` but with weights as exact decimal/rational text."""
    return from_edges((p, c, parse_weight(w)) for p, c, w in edges)

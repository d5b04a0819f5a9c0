"""Cutting hierarchical-clustering dendrograms into communities.

A linkage merge table is synthesized into a rooted weighted tree whose
leaves are the clustered items, the optimal average cut is computed on it,
and each cut edge becomes one community. The default edge weight is the
height gap between a merge and its child: a large gap above a cluster means
the cluster stayed intact over a long height range, so maximizing the
average gap selects stable communities even when they are many and small.
The alternative "height" scheme weights every edge by its parent's merge
height, for comparison experiments.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .contraction import CutResult, Objective, optimal_average_cut
from .errors import (
    InvalidCutError,
    LinkageError,
    LinkageIndexError,
    MalformedWeightError,
    NegativeGapError,
    ParseError,
)
from .oracle import is_valid_cut
from .rational import echo, exact_str, parse_rational
from .tree import RootedTree

_ZERO = Fraction(0)  # the height of every item


class Merge(NamedTuple):
    """One agglomeration row: clusters ``left`` and ``right`` join at
    ``height`` into a cluster of ``size`` items."""

    left: int
    right: int
    height: Fraction
    size: int


@dataclass(frozen=True)
class LinkageTable:
    """A hierarchical-clustering merge sequence over ``n_items`` items.

    Cluster indices below n_items are original items; index n_items + k is
    the cluster formed by merge k. Structural validation happens here; that
    no merge sits below a cluster it absorbs is checked when a tree is
    synthesized, so that such tables can still be constructed and rejected
    late with a precise error.
    """

    n_items: int
    merges: tuple[Merge, ...]

    def __post_init__(self):
        n = self.n_items
        if n < 2:
            raise LinkageError(f"need at least 2 items, got {n}")
        if len(self.merges) != n - 1:
            raise LinkageError(
                f"expected {n - 1} merges for {n} items, got {len(self.merges)}"
            )
        sizes = [1] * n  # per cluster index
        used = bytearray(2 * n - 1)
        for k, (left, right, _height, size) in enumerate(self.merges):
            if left == right:
                raise LinkageIndexError(f"merge {k} joins cluster {left} with itself")
            for side in (left, right):
                if not (0 <= side < n + k):
                    raise LinkageIndexError(
                        f"merge {k} references cluster {side}, valid range is 0..{n + k - 1}"
                    )
                if used[side]:
                    raise LinkageIndexError(
                        f"cluster {side} is merged twice (second time in merge {k})"
                    )
                used[side] = 1
            expected = sizes[left] + sizes[right]
            if size != expected:
                raise LinkageError(f"merge {k} claims size {size}, children sum to {expected}")
            sizes.append(size)

    def cluster_size(self, index: int) -> int:
        return 1 if index < self.n_items else self.merges[index - self.n_items].size

    def cluster_height(self, index: int) -> Fraction:
        return _ZERO if index < self.n_items else self.merges[index - self.n_items].height

    def cluster_label(self, index: int) -> str:
        """Items keep their index as label; merged clusters get a c-prefix."""
        return str(index) if index < self.n_items else f"c{index}"


@dataclass(frozen=True)
class Partition:
    """Disjoint communities of item labels covering all items."""

    communities: tuple[frozenset[str], ...]

    def __iter__(self):
        return iter(self.communities)

    def __len__(self):
        return len(self.communities)

    def as_sets(self) -> list[set[str]]:
        return [set(c) for c in self.communities]

    def ordered(self) -> tuple[tuple[str, ...], ...]:
        """Each community's members, numeric labels numerically and first."""
        return tuple(tuple(sorted(c, key=_label_order(c))) for c in self.communities)


def _label_key(label: str):
    # Numeric labels sort numerically, everything else lexically after them.
    return (0, int(label), "") if label.isdecimal() else (1, 0, label)


def _label_order(labels):
    """A sort key that orders ``labels`` as :func:`_label_key` does: ``int``
    when every label is decimal, as every linkage item's is."""
    return int if all(map(str.isdecimal, labels)) else _label_key


def linkage_to_tree(table: LinkageTable, scheme: str = "gap") -> RootedTree:
    """Synthesize the binary dendrogram tree for a linkage table.

    Edge weights: ``gap`` is parent merge height minus child height (items
    sit at height 0); ``height`` is the parent merge height itself. Raises
    NegativeGapError when a merge sits below a cluster it absorbs.
    """
    if scheme not in ("gap", "height"):
        raise ValueError(f"unknown weight scheme: {scheme!r}")
    gap_weights = scheme == "gap"
    n = table.n_items
    node_count = 2 * n - 1
    # Node ids follow first appearance over the (parent, left), (parent,
    # right) edge sequence, as from_edges would assign them, so reports
    # (ordered by edge id) do not change: merge k's cluster is new at merge
    # k, and an item is new at its only merge. LinkageTable's validation
    # makes the merges exactly one binary tree, rooted at cluster 2n - 2.
    parent: list[int | None] = [None] * node_count
    children: list[tuple[int, ...]] = [()] * node_count
    wnum = [0] * node_count
    wden = [1] * node_count
    labels: list[str] = []
    cluster_node: list[int] = []  # node id of cluster n + k
    cluster_num: list[int] = []  # height of cluster n + k, as
    cluster_den: list[int] = []  # cluster_num / cluster_den in lowest terms
    for k, (left, right, height, _size) in enumerate(table.merges):
        if type(height) is not Fraction:
            height = Fraction(height)
        hn, hd = height.numerator, height.denominator
        u = len(labels)
        labels.append(f"c{n + k}")
        pair = []
        for side in (left, right):
            if side < n:
                gn, gd = hn, hd
                c = len(labels)
                labels.append(str(side))
            else:
                c = cluster_node[side - n]
                cn, cd = cluster_num[side - n], cluster_den[side - n]
                if cd == hd:
                    gn, gd = hn - cn, hd
                else:
                    gn, gd = hn * cd - cn * hd, hd * cd
                if gd != 1:
                    g = gcd(gn, gd)
                    gn, gd = gn // g, gd // g
            if gn < 0:
                raise NegativeGapError(
                    f"merge {k} at height {exact_str(table.merges[k].height)} is below "
                    f"cluster {side} at height {exact_str(table.cluster_height(side))}"
                )
            parent[c] = u
            wnum[c], wden[c] = (gn, gd) if gap_weights else (hn, hd)
            pair.append(c)
        a, b = pair
        children[u] = (a, b) if a < b else (b, a)
        cluster_node.append(u)
        cluster_num.append(hn)
        cluster_den.append(hd)
    return RootedTree(
        node_count=node_count,
        root=cluster_node[-1],
        parent=tuple(parent),
        children=tuple(children),
        wnum=tuple(wnum),
        wden=tuple(wden),
        labels=tuple(labels),
        label_index=dict(zip(labels, range(node_count))),
    )


def communities_from_cut(t: RootedTree, cut) -> Partition:
    """One community per cut edge: the leaf labels below it.

    Communities are ordered by their smallest member (numeric labels sort
    numerically) so output is deterministic.
    """
    edges = set(cut)
    if not is_valid_cut(t, edges):
        raise InvalidCutError("not a root-separating boundary cut")
    label_of = t.labels.__getitem__
    groups = [frozenset(map(label_of, t.subtree_leaves(e))) for e in sorted(edges)]
    groups.sort(key=lambda group: _label_key(min(group, key=_label_order(group))))
    return Partition(tuple(groups))


def cluster(
    table: LinkageTable,
    objective: Objective = Objective.MAXIMIZE,
    scheme: str = "gap",
) -> tuple[Partition, CutResult]:
    """Full pipeline: synthesize the tree, cut it, report the communities."""
    tree = linkage_to_tree(table, scheme)
    result = optimal_average_cut(tree, objective)
    return communities_from_cut(tree, result.cut), result


def parse_linkage_csv(text: str) -> LinkageTable:
    """Parse ``left,right,height,size`` CSV rows into a LinkageTable.

    Heights are parsed exactly as decimal text. The item count is implied:
    m merge rows describe m + 1 items.
    """
    reader = csv.reader(io.StringIO(text))
    # Rows with no non-whitespace cell are skipped.
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if "".join(row).strip()]
    if not rows:
        raise ParseError("empty linkage CSV")
    header_line, header_row = rows[0]
    header = [cell.strip() for cell in header_row]
    if header != ["left", "right", "height", "size"]:
        raise ParseError(
            f"expected header left,right,height,size, got {','.join(header)}",
            line=header_line,
        )
    merges = []
    for lineno, row in rows[1:]:
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        left_text, right_text, height_text, size_text = row
        try:
            try:
                left, right, size = int(left_text), int(right_text), int(size_text)
            except ValueError:
                # int() skips surrounding whitespace except U+001C..U+001F,
                # which str.strip removes too.
                left, right, size = (
                    int(left_text.strip()),
                    int(right_text.strip()),
                    int(size_text.strip()),
                )
        except ValueError:
            raise ParseError("left, right, and size must be integers", line=lineno) from None
        height_text = height_text.strip()
        try:
            height = parse_rational(height_text)
        except MalformedWeightError:
            raise ParseError(f"not a decimal height: {echo(height_text)}", line=lineno) from None
        merges.append(Merge(left, right, height, size))
    return LinkageTable(n_items=len(merges) + 1, merges=tuple(merges))


def read_linkage_csv(path) -> LinkageTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_linkage_csv(fh.read())

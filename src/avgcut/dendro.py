"""Cutting hierarchical-clustering dendrograms into communities.

A linkage merge table is synthesized into a rooted weighted tree whose
leaves are the clustered items, the optimal average cut is computed on it,
and each cut edge becomes one community. The default edge weight is the
height gap between a merge and its child: a large gap above a cluster means
the cluster stayed intact over a long height range, so maximizing the
average gap selects stable communities even when they are many and small.
The alternative "height" scheme weights every edge by its parent's merge
height, for comparison experiments.

A :class:`LinkageTable` holds its merges as int columns, each height as a
reduced ``(hnum, hden)`` pair, from the CSV text to the tree; its
``merges`` rows with Fraction heights are a view built on first use, which
the ``cluster`` pipeline never builds.
"""

from __future__ import annotations

import csv
import decimal
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple

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
from .rational import echo, exact_str, parse_rational, parse_rational_pair, ratio_str
from .tree import RootedTree

_ZERO = Fraction(0)  # the height of every item


class Merge(NamedTuple):
    """One agglomeration row: clusters ``left`` and ``right`` join at
    ``height`` into a cluster of ``size`` items."""

    left: int
    right: int
    height: Fraction
    size: int


@dataclass(frozen=True, init=False)
class LinkageTable:
    """A hierarchical-clustering merge sequence over ``n_items`` items.

    Cluster indices below n_items are original items; index n_items + k is
    the cluster formed by merge k. Merge k is kept in int columns: clusters
    ``left[k]`` and ``right[k]`` join at height ``hnum[k] / hden[k]`` (in
    lowest terms, ``hden[k] >= 1``) into a cluster of ``size[k]`` items.
    ``LinkageTable(n_items=..., merges=...)`` builds the columns from
    :class:`Merge` rows, whose heights may be numbers ``Fraction()`` takes
    or text in the grammar of :func:`~avgcut.rational.parse_rational`;
    ``merges`` is the rows' view with Fraction heights, built on first use.
    Structural validation happens here; that no merge sits below a cluster
    it absorbs is checked when a tree is synthesized, so that such tables
    can still be constructed and rejected late with a precise error.
    """

    n_items: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    hnum: tuple[int, ...]
    hden: tuple[int, ...]
    size: tuple[int, ...]

    def __init__(self, n_items: int, merges: Iterable[Merge]):
        rows = []
        for left, right, height, size in merges:
            height = parse_rational(height) if isinstance(height, str) else Fraction(height)
            rows.append((left, right, height.numerator, height.denominator, size))
        self._fill(n_items, rows)

    @classmethod
    def _from_rows(cls, n_items: int, rows: list[tuple[int, int, int, int, int]]):
        """A table from ``(left, right, hnum, hden, size)`` int rows whose
        heights are in lowest terms."""
        table = cls.__new__(cls)
        table._fill(n_items, rows)
        return table

    def _fill(self, n_items: int, rows: list[tuple[int, int, int, int, int]]) -> None:
        columns = tuple(zip(*rows)) if rows else ((),) * 5
        object.__setattr__(self, "n_items", n_items)
        for name, column in zip(("left", "right", "hnum", "hden", "size"), columns):
            object.__setattr__(self, name, column)
        n = n_items
        if n < 2:
            raise LinkageError(f"need at least 2 items, got {n}")
        if len(rows) != n - 1:
            raise LinkageError(f"expected {n - 1} merges for {n} items, got {len(rows)}")
        sizes = [1] * n  # per cluster index
        used = bytearray(2 * n - 1)
        for k, (a, b, _, _, merged) in enumerate(rows):
            if a == b:
                raise LinkageIndexError(f"merge {k} joins cluster {a} with itself")
            for side in (a, b):
                if not (0 <= side < n + k):
                    raise LinkageIndexError(
                        f"merge {k} references cluster {side}, valid range is 0..{n + k - 1}"
                    )
                if used[side]:
                    raise LinkageIndexError(
                        f"cluster {side} is merged twice (second time in merge {k})"
                    )
                used[side] = 1
            expected = sizes[a] + sizes[b]
            if merged != expected:
                raise LinkageError(f"merge {k} claims size {merged}, children sum to {expected}")
            sizes.append(merged)

    @cached_property
    def merges(self) -> tuple[Merge, ...]:
        """Per-merge rows with Fraction heights, built from the columns on
        first use and kept."""
        heights = map(Fraction, self.hnum, self.hden)
        return tuple(map(Merge, self.left, self.right, heights, self.size))

    def cluster_size(self, index: int) -> int:
        return 1 if index < self.n_items else self.size[index - self.n_items]

    def cluster_height(self, index: int) -> Fraction:
        if index < self.n_items:
            return _ZERO
        k = index - self.n_items
        return Fraction(self.hnum[k], self.hden[k])

    def cluster_label(self, index: int) -> str:
        """Items keep their index as label; merged clusters get a c-prefix."""
        return str(index) if index < self.n_items else f"c{index}"


@dataclass(frozen=True)
class Partition:
    """Disjoint communities of item labels covering all items."""

    communities: tuple[frozenset[str], ...]
    # The communities' members in label order, when their builder sorted
    # them already, as communities_from_cut does.
    _ordered: tuple[tuple[str, ...], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __iter__(self):
        return iter(self.communities)

    def __len__(self):
        return len(self.communities)

    def as_sets(self) -> list[set[str]]:
        return [set(c) for c in self.communities]

    def ordered(self) -> tuple[tuple[str, ...], ...]:
        """Each community's members, numeric labels numerically and first."""
        if self._ordered is not None:
            return self._ordered
        return tuple(map(_sorted_labels, self.communities))


def _label_int(label: str) -> int:
    """The value of a decimal label of any length: ``int()`` refuses more
    than ``sys.get_int_max_str_digits()`` digits, ``decimal`` does not."""
    try:
        return int(label)
    except ValueError:
        return int(decimal.Decimal(label))


def _label_key(label: str):
    # Numeric labels sort numerically, ties such as "1" and "01" by text, and
    # everything else lexically after them.
    return (0, _label_int(label), label) if label.isdecimal() else (1, 0, label)


def _label_order(labels):
    """A sort key that orders ``labels`` as :func:`_label_key` does: ``int``
    when every label is decimal and no two are equal as ints, as linkage
    items are."""
    if all(map(str.isdecimal, labels)):
        try:
            if len(set(map(int, labels))) == len(labels):
                return int
        except ValueError:  # past int()'s digit limit
            pass
    return _label_key


def _sorted_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` in :func:`_label_key` order."""
    labels = list(labels)
    return tuple(sorted(labels, key=_label_order(labels)))


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
    hnum, hden = table.hnum, table.hden
    for k, (left, right, hn, hd) in enumerate(zip(table.left, table.right, hnum, hden)):
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
                cn, cd = hnum[side - n], hden[side - n]
                if cd == hd:
                    gn, gd = hn - cn, hd
                else:
                    gn, gd = hn * cd - cn * hd, hd * cd
                if gd != 1:
                    g = gcd(gn, gd)
                    gn, gd = gn // g, gd // g
            if gn < 0:
                raise NegativeGapError(
                    f"merge {k} at height {ratio_str(hn, hd)} is below "
                    f"cluster {side} at height {exact_str(table.cluster_height(side))}"
                )
            parent[c] = u
            wnum[c], wden[c] = (gn, gd) if gap_weights else (hn, hd)
            pair.append(c)
        a, b = pair
        children[u] = (a, b) if a < b else (b, a)
        cluster_node.append(u)
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
    members = [_sorted_labels(map(label_of, t.subtree_leaves(e))) for e in sorted(edges)]
    members.sort(key=lambda group: _label_key(group[0]))
    return Partition(tuple(map(frozenset, members)), tuple(members))


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
            num, den = parse_rational_pair(height_text)
        except MalformedWeightError:
            raise ParseError(f"not a decimal height: {echo(height_text)}", line=lineno) from None
        merges.append((left, right, num, den, size))
    return LinkageTable._from_rows(len(merges) + 1, merges)


def read_linkage_csv(path) -> LinkageTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_linkage_csv(fh.read())

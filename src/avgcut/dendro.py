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

import io
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
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
from .oracle import _cut_owners
from .rational import (
    digits_int,
    echo,
    parse_rational,
    parse_rational_pair,
    ratio_str,
)
from .tree import RootedTree


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
        self._fill(n_items, *(zip(*rows) if rows else ((),) * 5))

    @classmethod
    def _from_columns(cls, n_items: int, left, right, hnum, hden, size):
        """A table from int columns whose heights are in lowest terms."""
        table = cls.__new__(cls)
        table._fill(n_items, left, right, hnum, hden, size)
        return table

    def _fill(self, n_items: int, *columns) -> None:
        object.__setattr__(self, "n_items", n_items)
        for name, column in zip(("left", "right", "hnum", "hden", "size"), columns):
            object.__setattr__(self, name, tuple(column))
        n, left, right, size = n_items, self.left, self.right, self.size
        if n < 2:
            raise LinkageError(f"need at least 2 items, got {n}")
        if len(left) != n - 1:
            raise LinkageError(f"expected {n - 1} merges for {n} items, got {len(left)}")
        sizes = (1,) * n + size  # per cluster index
        used = bytearray(2 * n - 1)
        # c is the index of the cluster the merge forms.
        for c, a, b, merged in zip(range(n, 2 * n), left, right, size):
            if (
                a == b
                or not (0 <= a < c and 0 <= b < c)
                or used[a]
                or used[b]
                or merged != sizes[a] + sizes[b]
            ):
                raise _merge_error(c - n, n, a, b, merged, used, sizes)
            used[a] = used[b] = 1

    @cached_property
    def merges(self) -> tuple[Merge, ...]:
        """Per-merge rows with Fraction heights, built from the columns on
        first use and kept."""
        heights = map(Fraction, self.hnum, self.hden)
        return tuple(map(Merge, self.left, self.right, heights, self.size))


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

    def ordered(self) -> tuple[tuple[str, ...], ...]:
        """Each community's members, numeric labels numerically and first."""
        if self._ordered is not None:
            return self._ordered
        return tuple(map(_sorted_labels, self.communities))


def _label_key(label: str):
    # Numeric labels sort numerically, ties such as "1" and "01" by text, and
    # everything else lexically after them.
    return (0, digits_int(label), label) if label.isdecimal() else (1, 0, label)


def _label_keys(labels: list[str]) -> list:
    """Sort keys that order ``labels`` as :func:`_label_key` does: the ints
    when every label is decimal and no two are equal as ints, as linkage
    items are."""
    if all(map(str.isdecimal, labels)):
        try:
            keys = list(map(int, labels))
        except ValueError:  # past int()'s digit limit
            pass
        else:
            if len(set(keys)) == len(keys):
                return keys
    return list(map(_label_key, labels))


def _sorted_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` in :func:`_label_key` order."""
    labels = list(labels)
    keys = _label_keys(labels)
    return tuple(labels[i] for i in sorted(range(len(labels)), key=keys.__getitem__))


def _merge_error(k: int, n: int, a, b, merged, used: bytearray, sizes) -> LinkageError:
    """The error for merge ``k``, the first that breaks a rule; the rules
    are checked in this order."""
    if a == b:
        return LinkageIndexError(f"merge {k} joins cluster {a} with itself")
    for side in (a, b):
        if not (0 <= side < n + k):
            return LinkageIndexError(
                f"merge {k} references cluster {side}, valid range is 0..{n + k - 1}"
            )
        if used[side]:
            return LinkageIndexError(f"cluster {side} is merged twice (second time in merge {k})")
    return LinkageError(f"merge {k} claims size {merged}, children sum to {sizes[a] + sizes[b]}")


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
    wnum = [0] * node_count
    wden = [1] * node_count
    labels: list[str] = []
    cluster_node: list[int] = []  # node id of cluster n + k
    hnum, hden = table.hnum, table.hden
    for k, (left, right, hn, hd) in enumerate(zip(table.left, table.right, hnum, hden)):
        u = len(labels)
        labels.append(f"c{n + k}")
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
                    f"cluster {side} at height {ratio_str(cn, cd) if side >= n else 0}"
                )
            parent[c] = u
            wnum[c], wden[c] = (gn, gd) if gap_weights else (hn, hd)
        cluster_node.append(u)
    return RootedTree(
        node_count=node_count,
        root=cluster_node[-1],
        parent=tuple(parent),
        wnum=tuple(wnum),
        wden=tuple(wden),
        labels=tuple(labels),
    )


def communities_from_cut(t: RootedTree, cut) -> Partition:
    """One community per cut edge: the leaf labels below it.

    Communities are ordered by their smallest member (numeric labels sort
    numerically) so output is deterministic.
    """
    found = _cut_owners(t, cut)
    if found is None:
        raise InvalidCutError("not a root-separating boundary cut")
    owner, leaf = found
    # Every leaf label in label order goes to its owner's community: each
    # community comes out sorted, and the communities in the order of their
    # smallest members.
    names = list(compress(t.labels, leaf))
    owners = list(compress(owner, leaf))
    del owner, leaf
    keys = _label_keys(names)
    order = sorted(range(len(names)), key=keys.__getitem__)
    del keys
    groups: defaultdict[int, list[str]] = defaultdict(list)
    for i in order:
        groups[owners[i]].append(names[i])
    members = tuple(map(tuple, groups.values()))
    return Partition(tuple(map(frozenset, members)), members)


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

    A row is one line, ended by ``\\n``, ``\\r\\n`` or ``\\r``, and its
    fields are split at every comma; there is no quoting. Rows with no
    non-whitespace cell are skipped. Heights are parsed exactly as decimal
    text. The item count is implied: m merge rows describe m + 1 items.
    """
    # newline="" ends lines at \n, \r\n and \r only (str.splitlines also
    # ends one at \x1c or \x85, which a cell may hold). A line keeps its
    # terminator, which str.strip and int() skip as whitespace.
    rows = enumerate(io.StringIO(text, newline=""), start=1)
    for header_line, line in rows:
        if line.replace(",", "").strip():
            break
    else:
        raise ParseError("empty linkage CSV")
    header = [cell.strip() for cell in line.split(",")]
    if header != ["left", "right", "height", "size"]:
        raise ParseError(
            f"expected header left,right,height,size, got {','.join(header)}",
            line=header_line,
        )
    left, right, hnum, hden, size = columns = [], [], [], [], []
    for lineno, line in rows:
        row = line.split(",")
        try:
            left_text, right_text, height_text, size_text = row
            a, b, merged = int(left_text), int(right_text), int(size_text)
        except ValueError:
            if not line.replace(",", "").strip():
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno) from None
            # int() skips surrounding whitespace except U+001C..U+001F,
            # which str.strip removes too.
            try:
                a, b, merged = (
                    int(left_text.strip()),
                    int(right_text.strip()),
                    int(size_text.strip()),
                )
            except ValueError:
                raise ParseError("left, right, and size must be integers", line=lineno) from None
        try:
            # The literal grammar allows surrounding whitespace; the message
            # quotes the height without it.
            num, den = parse_rational_pair(height_text)
        except MalformedWeightError:
            raise ParseError(
                f"not a decimal height: {echo(height_text.strip())}", line=lineno
            ) from None
        left.append(a)
        right.append(b)
        hnum.append(num)
        hden.append(den)
        size.append(merged)
    return LinkageTable._from_columns(len(left) + 1, *columns)

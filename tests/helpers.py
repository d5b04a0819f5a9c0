"""Shared tree builders for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import random
import sys
import warnings
from fractions import Fraction
from typing import Iterator

import avgcut
from avgcut import (
    DEFAULT_CUT_LIMIT,
    ContractionState,
    CutResult,
    InternalSubtree,
    Objective,
    RootedTree,
    brute_force_optimum,
    evaluate_cut,
    from_edges,
    is_valid_cut,
)
from avgcut.dendro import LinkageTable, Partition, _label_key, _sorted_labels
from avgcut.errors import (
    AvgCutError,
    InvalidCutError,
    MalformedWeightError,
    MissingBranchLengthError,
    NotATreeError,
    ParseError,
    TreeError,
    ZeroWeightWarning,
)
from avgcut.rational import echo, parse_rational_pair

_PACKAGE_DIR = os.path.dirname(avgcut.__file__) + os.sep


def src_line_count(call, *args):
    """``(result, lines)``: the value of ``call(*args)`` and the number of
    line events ``sys.settrace`` saw inside the ``avgcut`` package while it
    ran. The count is exact and the same on every host, so a growth check
    needs no clock; work done in C (sorting, slicing, big-int arithmetic)
    is not counted."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_PACKAGE_DIR) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        result = call(*args)
    finally:
        sys.settrace(previous)
    return result, lines


# The 40-node golden tree: three branches under the root (edge weights 1, 2,
# 3), each with three mid nodes (weights 2,2,2 / 3,3,3 / 1,1,1), each mid
# node with three leaves (weights 3 / 1 / 2 by branch).
_BRANCHES = {1: ("1", "2", "3"), 2: ("2", "3", "1"), 3: ("3", "1", "2")}


def figure_edge_rows() -> list[tuple[str, str, str]]:
    rows = []
    for i in (1, 2, 3):
        root_w, mid_w, leaf_w = _BRANCHES[i]
        rows.append(("v0", f"a{i}", root_w))
        for j in (1, 2, 3):
            rows.append((f"a{i}", f"b{i}{j}", mid_w))
            for k in (1, 2, 3):
                rows.append((f"b{i}{j}", f"c{i}{j}{k}", leaf_w))
    return rows


def figure_edgelist_text() -> str:
    return "# golden 40-node tree\n" + "".join(
        f"{p}\t{c}\t{w}\n" for p, c, w in figure_edge_rows()
    )


def figure_max_cut_children() -> set[str]:
    """Child labels of the known optimal max cut: all weight-3 edges that
    survive contraction (nine leaves of branch 1, branch 2's mid edges, and
    the root edge into branch 3)."""
    labels = {f"c1{j}{k}" for j in (1, 2, 3) for k in (1, 2, 3)}
    labels.update({"b21", "b22", "b23", "a3"})
    return labels


def quiet_tree(triples) -> RootedTree:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroWeightWarning)
        return from_edges(list(triples))


def path_tree(*weights) -> RootedTree:
    """Chain n0 -> n1 -> ... with the given weights."""
    return quiet_tree(
        (f"n{i}", f"n{i + 1}", Fraction(w)) for i, w in enumerate(weights)
    )


def star_tree(*weights) -> RootedTree:
    """Root r with one leaf per weight."""
    return quiet_tree(("r", f"l{i}", Fraction(w)) for i, w in enumerate(weights))


_WEIGHT_POOLS = (
    lambda rng: Fraction(rng.randint(0, 6)),
    lambda rng: Fraction(rng.randint(1, 8), rng.randint(1, 5)),
    lambda rng: Fraction(rng.choice((1, 2, 3))),
    lambda rng: rng.choice(
        (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(0))
    ),
)


def random_tree(rng: random.Random, min_nodes: int = 4, max_nodes: int = 25) -> RootedTree:
    """A random rooted tree with duplicate-prone rational weights.

    A per-tree chain bias produces long out-degree-1 runs (exercising the
    infinite-contractibility convention) alongside bushy regions, and the
    small weight pools force contractibility ties.
    """
    n = rng.randint(min_nodes, max_nodes)
    chain_bias = rng.random() * 0.8
    pool = rng.choice(_WEIGHT_POOLS)
    edges = []
    for i in range(1, n):
        parent = i - 1 if rng.random() < chain_bias else rng.randrange(i)
        edges.append((f"n{parent}", f"n{i}", pool(rng)))
    rng.shuffle(edges)
    return quiet_tree(edges)


def newick_reference(root: list) -> RootedTree:
    """The tree ``parse_newick`` builds from a parsed Newick node, where a
    node is ``[label or None, Fraction branch length or None, children]``.

    The tree-building half of the original recursive-descent parser: it
    auto-names unlabeled nodes ``_1``, ``_2``, ... (skipping labels in use),
    root first and then each node's children as the node is reached in
    preorder, and hands ``(parent, child, length)`` rows in that order to
    ``from_edges``. It mutates ``root``'s labels.
    """
    used: set[str] = set()
    scan = [root]
    while scan:
        node = scan.pop()
        if node[0] is not None:
            used.add(node[0])
        scan.extend(node[2])

    counter = 0

    def fresh() -> str:
        nonlocal counter
        while True:
            counter += 1
            name = f"_{counter}"
            if name not in used:
                used.add(name)
                return name

    if root[0] is None:
        root[0] = fresh()
    # The root's own branch length, if present, has no edge and is ignored.
    triples = []
    stack = [root]
    while stack:
        label, _length, kids = stack.pop()
        for kid in kids:
            if kid[0] is None:
                kid[0] = fresh()
            if kid[1] is None:
                raise MissingBranchLengthError(f"node {kid[0]!r} has no branch length")
            triples.append((label, kid[0], kid[1]))
        stack.extend(reversed(kids))
    return quiet_tree(triples)


def assemble_reference(ids: dict, parent: list, wnum: list, wden: list) -> RootedTree:
    """What ``tree._assemble`` must return for the same columns, or raise:
    the tree, or its NotATreeError, with the acyclicity check always made by
    a walk down from the root, whatever order the ids are in."""
    labels = tuple(ids)
    n = len(labels)
    roots = [v for v in range(n) if parent[v] is None]
    if not roots:
        raise NotATreeError("no root: every label has a parent (cycle)")
    if len(roots) > 1:
        names = ", ".join(repr(labels[v]) for v in roots)
        raise NotATreeError(f"not connected: multiple parentless labels ({names})")
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] is not None:
            children[parent[v]].append(v)
    reached = 0
    stack = roots[:]
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != n:
        raise NotATreeError("parent relation contains a cycle or unreachable nodes")
    if sum(1 for w in wnum if w == 0) > 1:
        warnings.warn("tree contains zero-weight edges", ZeroWeightWarning)
    return RootedTree(
        node_count=n,
        root=roots[0],
        parent=tuple(parent),
        wnum=tuple(wnum),
        wden=tuple(wden),
        labels=labels,
    )


def _primes_from(low: int, count: int) -> list[int]:
    """The first ``count`` primes at or above ``low``, by trial division."""
    primes = []
    q = max(low, 2)
    while len(primes) < count:
        if all(q % d for d in range(2, int(q**0.5) + 1)):
            primes.append(q)
        q += 1
    return primes


def prime_denominator_tree(
    rng: random.Random, n_nodes: int = 160, min_prime: int = 1 << 20
) -> RootedTree:
    """A random tree whose edge weights p/q have pairwise distinct primes q.

    The weights' least common denominator, the engine's shared scale, is then
    the product of all the primes: about 21 bits per edge by default, so
    thousands of bits in all. A per-tree chain bias gives out-degree-1 runs
    as in ``random_tree``.
    """
    chain_bias = rng.random() * 0.6
    primes = _primes_from(min_prime, n_nodes - 1)
    rng.shuffle(primes)
    edges = []
    for i in range(1, n_nodes):
        parent = i - 1 if rng.random() < chain_bias else rng.randrange(i)
        q = primes[i - 1]
        weight = Fraction(rng.randrange(1, 8 * q), q)
        edges.append((f"n{parent}", f"n{i}", weight))
    rng.shuffle(edges)
    return quiet_tree(edges)


def prime_denominator_perf_tree(n_edges: int, seed: int) -> RootedTree:
    """The acceptance ``_perf_tree`` shape (parent ``i - 1`` with probability
    0.25, otherwise a uniform earlier node) with weights ``p/q`` between 0
    and 1000 whose primes ``q`` are pairwise distinct: the first ``n_edges``
    primes, shuffled.

    The weights' least common denominator is the product of all the primes,
    so its size grows linearly in ``n_edges``: over 150,000 bits at 1e4 edges.
    """
    rng = random.Random(seed)
    primes = _primes_from(2, n_edges)
    rng.shuffle(primes)
    rows = []
    for i in range(1, n_edges + 1):
        parent = rng.randrange(i) if rng.random() > 0.25 else i - 1
        q = primes[i - 1]
        # A numerator that q does not divide keeps q as the denominator.
        weight = Fraction(q * rng.randrange(1000) + rng.randrange(1, q), q)
        rows.append((f"n{parent}", f"n{i}", weight))
    return quiet_tree(rows)


def prime_denominator_path(n_edges: int) -> RootedTree:
    """A path whose ``i``-th edge from the root, counting from 1, weighs
    ``i + 1/q`` with a fresh prime ``q`` when ``i`` is odd, and ``i`` when
    ``i`` is even.

    Weights grow with depth, so under MAXIMIZE every edge's contractibility
    is +inf and, ties going to the smaller id, every contraction merges into
    the root supernode, whose total stays one weight. Each contraction of an
    odd edge retires the last weight over its prime without bringing in a
    new denominator.
    """
    primes = _primes_from(2, (n_edges + 1) // 2)
    rows = []
    for i in range(1, n_edges + 1):
        q = primes[i // 2] if i % 2 else 1
        rows.append((f"v{i - 1}", f"v{i}", Fraction(i * q + 1 if i % 2 else i, q)))
    return quiet_tree(rows)


WEIGHT_KINDS = ("int", "hundredths", "primes")


def random_weighted_rows(
    rng: random.Random, n_nodes: int, kind: str
) -> list[tuple[str, str, Fraction]]:
    """The rows of a random tree of ``n_nodes`` nodes, shuffled, shaped as in
    ``random_tree``, with weights of one of ``WEIGHT_KINDS``:

    - ``int``: 0 to 9, so ties abound; the engine's run is plain;
    - ``hundredths``: 0.00 to 9.99, plain over the scale 100;
    - ``primes``: ``p / q`` with ``q`` from ``n_nodes // 20 + 1`` pairwise
      distinct primes, each shared by about 20 edges as in the
      ``newick-rational`` benchmark, so the weights' lcm passes the plain
      scale and the run is general.
    """
    chain_bias = rng.random() * 0.8
    primes = _primes_from(2, n_nodes // 20 + 1)
    rows = []
    for i in range(1, n_nodes):
        parent = i - 1 if rng.random() < chain_bias else rng.randrange(i)
        if kind == "int":
            weight = Fraction(rng.randrange(10))
        elif kind == "hundredths":
            weight = Fraction(rng.randrange(1000), 100)
        else:
            q = rng.choice(primes)
            weight = Fraction(rng.randrange(1, 8 * q), q)
        rows.append((f"n{parent}", f"n{i}", weight))
    rng.shuffle(rows)
    return rows


def parametric_best(
    t: RootedTree, alpha: Fraction, maximize: bool = True
) -> tuple[Fraction, frozenset[int]]:
    """Dinkelbach's parametric pass ("On nonlinear fractional programming",
    Management Science 13(7), 1967) at ``alpha``: the best sum of ``w_e -
    alpha`` over all boundary cuts, and the cut of the strict-expand subtree.

    Bottom-up, an edge's ``g`` is the better of its own ``w_e - alpha`` and,
    when its head has out-edges, the sum of their ``g``; the best sum is the
    root's out-edges' ``g`` sum. Every cut's sum is at most (to minimize, at
    least) the best, and at the optimal average the best is exactly 0, on
    the optimal cuts alone. Expanding a head only on a strictly better sum
    gives the optimal subtree with the fewest nodes. It reads only
    ``parent``, ``wnum`` and ``wden``, and counts in ints over one common
    denominator, with the sign flipped to minimize.
    """
    parent, wnum, wden = t.parent, t.wnum, t.wden
    n = len(parent)
    sign = 1 if maximize else -1
    scale = math.lcm(alpha.denominator, *wden)
    offset = alpha.numerator * (scale // alpha.denominator)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is None:
            root = v
        else:
            children[p].append(v)
    order = [root]
    for v in order:
        order.extend(children[v])
    g = [0] * n
    expand = [False] * n
    for v in reversed(order):
        x = sign * (wnum[v] * (scale // wden[v]) - offset)
        if children[v]:
            out = sum(g[c] for c in children[v])
            expand[v] = out > x
            g[v] = max(out, x)
        else:
            g[v] = x
    best = sum(g[c] for c in children[root])
    cut = set()
    stack = [root]
    while stack:
        for c in children[stack.pop()]:
            if expand[c]:
                stack.append(c)
            else:
                cut.add(c)
    return Fraction(sign * best, scale), frozenset(cut)


def cut_edges_by_walk(state: ContractionState) -> frozenset[int]:
    """``state.cut_edges()`` by a walk down the tree's children from the root
    through contracted edges: every live edge it meets is a cut edge."""
    t = state.tree
    contracted = set(state.contractions)
    cut = []
    stack = [t.root]
    while stack:
        for c in t.children[stack.pop()]:
            (stack if c in contracted else cut).append(c)
    return frozenset(cut)


def supernode_tops(state: ContractionState) -> list[int]:
    """Each node's supernode, named by its topmost node: found by walking up
    ``parent`` while the node's in-edge is in ``state.contractions``."""
    t = state.tree
    contracted = set(state.contractions)
    tops = []
    for v in range(t.node_count):
        while v in contracted:
            v = t.parent[v]
        tops.append(v)
    return tops


def live_out_aggregates(state: ContractionState) -> tuple[dict, dict]:
    """``(sums, counts)``: each supernode's live out-edge weight total and
    number, keyed by its topmost node and recomputed from the tree. An edge
    is live when it is not in ``state.contractions``."""
    t = state.tree
    contracted = set(state.contractions)
    tops = supernode_tops(state)
    sums: dict = {}
    counts: dict = {}
    for e in t.edges():
        if e not in contracted:
            r = tops[t.parent[e]]
            sums[r] = sums.get(r, Fraction(0)) + t.weights[e]
            counts[r] = counts.get(r, 0) + 1
    return sums, counts


def root_average_history(state: ContractionState) -> list[Fraction]:
    """The root average before any contraction and after each one."""
    history = [ContractionState(state.tree, state.objective).root_average]
    return history + [step.root_average_after for step in state.steps()]


def fresh_queue_edges(state: ContractionState) -> set[int]:
    """The edges with a fresh entry in the engine's queue, read from its
    private heap and latest entries: a plain run's entry is the int ``key *
    n + e``, any other run's the tuple ``(float, tiebreak, e)``, and an
    entry is fresh when it is the one last queued for its edge."""
    n = state.tree.node_count
    edges = [entry % n if state._plain else entry[2] for entry in state._heap]
    return {e for e, entry in zip(edges, state._heap) if entry is state._cur[e]}


def edge_set_by_children(t: RootedTree, labels) -> frozenset[int]:
    return frozenset(t.node_id(lb) for lb in labels)


def reach_by_children(t: RootedTree, cut: set[int]) -> set[int]:
    """Nodes reachable from the root down the children without crossing a
    cut edge."""
    reached = {t.root}
    stack = [t.root]
    while stack:
        for c in t.children[stack.pop()]:
            if c not in cut:
                reached.add(c)
                stack.append(c)
    return reached


def is_valid_cut_by_children(t: RootedTree, cut) -> bool:
    """``is_valid_cut`` by a walk down the children from the root."""
    edges = set(cut)
    if not edges:
        return False
    for e in edges:
        if not isinstance(e, int) or not (0 <= e < t.node_count) or e == t.root:
            return False
    reached = reach_by_children(t, edges)
    if any(not t.children[v] for v in reached):
        return False  # a leaf ended up inside
    return all(t.parent[e] in reached for e in edges)


def communities_by_children(t: RootedTree, cut) -> Partition:
    """``communities_from_cut`` from each cut edge's ``subtree_leaves``,
    each community sorted on its own and the communities by their first
    members."""
    edges = set(cut)
    if not is_valid_cut_by_children(t, edges):
        raise InvalidCutError("not a root-separating boundary cut")
    label_of = t.labels.__getitem__
    members = [_sorted_labels(map(label_of, t.subtree_leaves(e))) for e in sorted(edges)]
    members.sort(key=lambda group: _label_key(group[0]))
    return Partition(tuple(map(frozenset, members)), tuple(members))


class _ReferencePrep:
    """Shared precomputation for the iterative cut enumeration."""

    __slots__ = (
        "scale", "w", "leaf_edges", "leaf_sum", "leaf_count", "order", "skip_to"
    )

    def __init__(self, t: RootedTree):
        n = t.node_count
        self.scale, self.w = t.scaled_weights
        self.leaf_edges = [
            [c for c in t.children[v] if not t.children[c]] for v in range(n)
        ]
        self.leaf_sum = [sum(self.w[c] for c in cs) for cs in self.leaf_edges]
        self.leaf_count = [len(cs) for cs in self.leaf_edges]

        # Preorder over internal non-root nodes; each internal subtree is a
        # contiguous block, so deciding a node "cut here" can skip past it.
        internal_kids = [
            [c for c in t.children[v] if t.children[c]] for v in range(n)
        ]
        isize = [1] * n
        bfs: list[int] = [t.root]
        for v in bfs:
            bfs.extend(internal_kids[v])
        for v in reversed(bfs):
            isize[v] = 1 + sum(isize[c] for c in internal_kids[v])

        order: list[int] = []
        stack = list(reversed(internal_kids[t.root]))
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(internal_kids[v]))
        self.order = order
        pos_of = {v: i for i, v in enumerate(order)}
        self.skip_to = [pos_of[v] + isize[v] for v in order]


def _reference_walk(
    t: RootedTree, prep: _ReferencePrep
) -> Iterator[tuple[list, set, int, int]]:
    """Yield every (subtree nodes, cut, scaled total, size), reusing buffers.

    Callers must copy what they keep: the yielded list and set are mutated
    in place.
    """
    order = prep.order
    skip_to = prep.skip_to
    w = prep.w
    leaf_edges = prep.leaf_edges
    leaf_sum = prep.leaf_sum
    leaf_count = prep.leaf_count
    m = len(order)

    root = t.root
    subtree: list[int] = [root]
    cut: set[int] = set(leaf_edges[root])
    total = leaf_sum[root]
    size = leaf_count[root]

    # Backtracking over "cut here" (False) vs "expand into subtree" (True)
    # decisions; a node is only reachable when all its ancestors expanded.
    frames: list[tuple[int, bool]] = []
    pos = 0
    while True:
        while pos < m:
            v = order[pos]
            cut.add(v)
            total += w[v]
            size += 1
            frames.append((pos, False))
            pos = skip_to[pos]
        yield subtree, cut, total, size

        while frames and frames[-1][1]:
            p, _ = frames.pop()
            v = order[p]
            for leaf in leaf_edges[v]:
                cut.remove(leaf)
            total -= leaf_sum[v]
            size -= leaf_count[v]
            subtree.pop()
        if not frames:
            return
        p, _ = frames.pop()
        v = order[p]
        cut.remove(v)
        total -= w[v]
        size -= 1
        subtree.append(v)
        cut.update(leaf_edges[v])
        total += leaf_sum[v]
        size += leaf_count[v]
        frames.append((p, True))
        pos = p + 1


def enumerate_reference(t: RootedTree) -> list[tuple[InternalSubtree, frozenset[int]]]:
    """Every ``(subtree, cut)`` pair in the order ``enumerate_cuts`` yields
    them, from the walk that keeps the cut as a set and the subtree as a list
    and updates both at every step. No cut limit is applied.
    """
    return [
        (InternalSubtree(frozenset(subtree)), frozenset(cut))
        for subtree, cut, _total, _size in _reference_walk(t, _ReferencePrep(t))
    ]


def brute_force_reference(
    t: RootedTree, objective: Objective = Objective.MAXIMIZE
) -> CutResult:
    """``brute_force_optimum`` over the set-and-list walk of
    ``enumerate_reference``: every cut is compared by cross-multiplication
    against the best so far, and a tie goes to the cut whose internal
    subtree has fewer nodes. No cut limit is applied.
    """
    prep = _ReferencePrep(t)
    maximize = objective is Objective.MAXIMIZE

    best_cut: frozenset[int] | None = None
    best_nodes = 0
    best_total = 0
    best_size = 1
    for subtree, cut, total, size in _reference_walk(t, prep):
        if best_cut is None:
            better = True
        else:
            lhs, rhs = total * best_size, best_total * size
            if lhs == rhs:
                better = len(subtree) < best_nodes
            else:
                better = lhs > rhs if maximize else lhs < rhs
        if better:
            best_cut = frozenset(cut)
            best_nodes = len(subtree)
            best_total = total
            best_size = size

    assert best_cut is not None  # every valid tree has at least one cut
    return CutResult(
        cut=best_cut,
        total=Fraction(best_total, prep.scale),
        size=best_size,
        average=Fraction(best_total, best_size * prep.scale),
        contractions=(),
    )


def random_linkage_csv(rng: random.Random, items: int) -> str:
    """A linkage CSV over ``items`` items, shaped like the dendrograms that
    ``avgcut cluster`` is built for: heights in hundredths, each merge 0.01
    to 1.00 above the one before, except that one merge in five repeats the
    previous height, so zero gaps and tied heights occur. The clusters joined
    at each merge are drawn uniformly from the active ones."""
    active = list(range(items))
    size = [1] * items
    rows = ["left,right,height,size"]
    cents = 0
    for m in range(items - 1):
        if rng.random() >= 0.2:
            cents += rng.randint(1, 100)
        pair = []
        for _ in range(2):
            j = rng.randrange(len(active))
            active[j], active[-1] = active[-1], active[j]
            pair.append(active.pop())
        left, right = pair
        size.append(size[left] + size[right])
        active.append(items + m)
        rows.append(f"{left},{right},{cents // 100}.{cents % 100:02d},{size[-1]}")
    return "\n".join(rows) + "\n"


def parse_linkage_csv_reference(text: str) -> LinkageTable:
    """``parse_linkage_csv`` with its rows read through ``csv.reader``:
    quoted fields may hold commas and line breaks, and an error names the
    row's number, not its line. Without a ``"`` in the text, its rows are
    the lines split at every comma."""
    reader = csv.reader(io.StringIO(text, newline=""))
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        return _reference_table_from_rows(enumerate(reader, start=1))
    except csv.Error as err:
        raise ParseError(str(err), line=reader.line_num) from None
    finally:
        csv.field_size_limit(limit)


def _reference_table_from_rows(rows) -> LinkageTable:
    for header_line, header_row in rows:
        if "".join(header_row).strip():
            break
    else:
        raise ParseError("empty linkage CSV")
    header = [cell.strip() for cell in header_row]
    if header != ["left", "right", "height", "size"]:
        raise ParseError(
            f"expected header left,right,height,size, got {','.join(header)}",
            line=header_line,
        )
    left, right, hnum, hden, size = columns = [], [], [], [], []
    for lineno, row in rows:
        try:
            left_text, right_text, height_text, size_text = row
            a, b, merged = int(left_text), int(right_text), int(size_text)
        except ValueError:
            if not "".join(row).strip():
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno) from None
            try:
                a, b, merged = (
                    int(left_text.strip()),
                    int(right_text.strip()),
                    int(size_text.strip()),
                )
            except ValueError:
                raise ParseError("left, right, and size must be integers", line=lineno) from None
        try:
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


# --- executable replacement properties ------------------------------------- #
#
# These certify, on concrete inputs, the exchange arguments the contraction
# engine's optimality rests on. Each must return True on every admissible
# input; a False is a bug in the engine's premises, not in the caller.


class PreconditionError(AvgCutError):
    """A property check was called on an inadmissible input."""


class NotApplicableError(AvgCutError):
    """The tree has no contractible edge, so the check has nothing to test."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def contract_edge(t: RootedTree, e: int) -> RootedTree:
    """The tree with edge ``e`` contracted: head(e) merges into its parent.

    The head's out-edges are reattached to the parent with their weights and
    labels unchanged. The engine contracts in place via ContractionState
    instead of rebuilding.
    """
    if e == t.root:
        raise TreeError("cannot contract: the root has no in-edge")
    gone = e
    new_parent_label = t.labels[t.tail(e)]
    triples = []
    for f in t.edges():
        if f == gone:
            continue
        tail = t.tail(f)
        tail_label = new_parent_label if tail == gone else t.labels[tail]
        triples.append((tail_label, t.labels[f], t.weights[f]))
    return quiet_tree(triples)


def check_push_down_gain(t: RootedTree, cut, e: int) -> bool:
    """Swapping cut edge ``e`` for its head's out-edges strictly improves
    the average whenever e's contractibility exceeds the cut's average.

    The gain is the mediant inequality: a/b > c/d implies (a+c)/(b+d) > c/d.
    """
    edges = set(cut)
    _require(is_valid_cut(t, edges), "not a valid root-separating boundary cut")
    _require(e in edges, f"edge {e} is not in the cut")
    _require(bool(t.children[e]), f"edge {e} ends in a leaf")
    total, size, average = evaluate_cut(t, edges)
    lam = ContractionState(t).contractibility(e)
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
    inside = reach_by_children(t, edges)
    _require(len(inside) > 1, "the cut is already the root's own boundary")
    total, size, average = evaluate_cut(t, edges)
    state = ContractionState(t)

    for v in inside:
        if v == t.root or any(c in inside for c in t.children[v]):
            continue
        # v is a frontier node: inside, but all of its out-edges are cut.
        lam = state.contractibility(v)
        if lam > average:
            continue
        swapped = (edges - set(t.children[v])) | {v}
        if not is_valid_cut(t, swapped):
            return False
        if len(reach_by_children(t, swapped)) >= len(inside):
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
    internal = [e for e in t.edges() if t.children[e]]
    if not internal:
        raise NotApplicableError("the tree has no internal edges")
    state = ContractionState(t)
    best_edge = min(internal)
    best_lam = state.contractibility(best_edge)
    for e in internal:
        lam = state.contractibility(e)
        if lam > best_lam:  # ties keep the smallest edge id
            best_edge, best_lam = e, lam
    root_kids = t.children[t.root]
    alpha = sum((t.weights[c] for c in root_kids), start=Fraction(0)) / len(root_kids)
    if not best_lam > alpha:
        raise NotApplicableError("no edge beats the root average")

    before = brute_force_optimum(t, Objective.MAXIMIZE, limit)
    after = brute_force_optimum(contract_edge(t, best_edge), Objective.MAXIMIZE, limit)
    return before.average == after.average

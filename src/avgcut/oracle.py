"""Exhaustive ground truth for small trees.

A root-separating cut is formalized as the out-edge boundary of an internal
subtree: a set of nodes that contains the root, is closed under parent, and
contains no leaf of the original tree. Boundary cuts are in bijection with
those subtrees, and every root-to-leaf path crosses a boundary exactly once.
Arbitrary disconnecting edge sets are deliberately NOT admitted: padding a
boundary with extra edges still disconnects but can inflate the average,
so "all cuts" here means exactly the boundaries.

The enumeration changes only ints per step and rebuilds a cut's edge set
only when a caller needs it (see ``_walk``). ``brute_force_optimum`` splits
the cut space into disjoint sub-spaces, each a fixed prefix of the walk's
decisions whose size is known exactly from the per-node cut counts, and
walks them on every CPU the process may use: one forked child per extra
CPU, each sending back only its best average. It forks only where
``os.fork`` exists, no other thread runs, and every process gets at least
``_FORK_MIN_CUTS`` cuts; otherwise the same walker takes every sub-space in
this process. One last pass at the best average derives the optimal cut
whose internal subtree has the fewest nodes (see ``_least_cut``), so the
answer does not depend on the split. Minimize runs as Maximize over the
negated weights, so the walk and that pass seek only the largest average.
Everything else here favors being obviously correct over being fast; the
module exists to check the contraction engine, not to replace it.
"""

from __future__ import annotations

import heapq
import marshal
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterator

from .contraction import CutResult, Objective
from .errors import TooManyCutsError
from .rational import exact_str
from .tree import EdgeId, NodeId, RootedTree

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
    return _node_counts(t)[t.root]


def _node_counts(t: RootedTree) -> list[int]:
    """``c(v)`` of ``count_cuts`` for every node, in one pass; the limit
    check, the split into sub-spaces and the reported count all read it."""
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
    return c


class _Prep:
    """Shared precomputation for the cut enumeration. ``w``, ``leaf_sum``,
    ``leaf_count`` and ``leaf_edges`` are indexed by position in ``order``:
    a node's scaled weight times ``sign``, and the total of those, the
    number and the ids of its leaf out-edges; ``base`` holds the root's
    total and number, and ``root_leaves`` its leaf out-edges."""

    __slots__ = ("scale", "root", "root_leaves", "leaf_edges", "order", "skip_to", "w",
                 "leaf_sum", "leaf_count", "base")

    def __init__(self, t: RootedTree, sign: int = 1):
        n = t.node_count
        self.scale, w = t.scaled_weights
        w = [sign * x for x in w]
        self.root = t.root
        leaf_edges = [
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
        leaf_sum = [sum(w[c] for c in cs) for cs in leaf_edges]
        self.leaf_sum = [leaf_sum[v] for v in order]
        self.leaf_edges = [leaf_edges[v] for v in order]
        self.leaf_count = [len(cs) for cs in self.leaf_edges]
        self.root_leaves = leaf_edges[t.root]
        self.base = (leaf_sum[t.root], len(self.root_leaves))


def _walk(prep: _Prep) -> Iterator[tuple[list[int], bytearray]]:
    """Yield every cut as (positions, expanded).

    ``positions`` lists the decided positions in ``prep.order``, and
    ``expanded[p]`` is 1 where the node at position ``p`` joined the internal
    subtree and 0 where its edge is cut; ``_rebuild`` turns the two into the
    subtree and the cut. Both buffers are reused and mutated in place, so a
    caller copies what it keeps, and memory stays O(tree + one cut) however
    many cuts exist.
    """
    skip_to = prep.skip_to
    m = len(skip_to)

    # Backtracking over "cut here" (0) vs "expand into subtree" (1)
    # decisions; a node is only reachable when all its ancestors expanded.
    positions: list[int] = []
    expanded = bytearray(m)
    pos = 0
    while True:
        while pos < m:
            positions.append(pos)
            pos = skip_to[pos]
        yield positions, expanded

        while positions and expanded[positions[-1]]:
            expanded[positions.pop()] = 0
        if not positions:
            return
        p = positions[-1]
        expanded[p] = 1
        pos = p + 1


def _rebuild(
    prep: _Prep, positions: list[int], expanded: bytearray
) -> tuple[list[NodeId], list[EdgeId]]:
    """The internal subtree and the cut of one ``_walk`` state."""
    subtree = [prep.root]
    cut = list(prep.root_leaves)
    for p in positions:
        v = prep.order[p]
        if expanded[p]:
            subtree.append(v)
            cut.extend(prep.leaf_edges[p])
        else:
            cut.append(v)
    return subtree, cut


def _check_limit(total: int, limit: int) -> None:
    if total > limit:
        raise TooManyCutsError(f"{exact_str(total)} cuts exceed the limit of {limit}")


def enumerate_cuts(
    t: RootedTree, limit: int = DEFAULT_CUT_LIMIT
) -> Iterator[tuple[InternalSubtree, frozenset[EdgeId]]]:
    """Stream every root-separating boundary cut exactly once."""
    _check_limit(count_cuts(t), limit)

    def gen():
        prep = _Prep(t)
        for positions, expanded in _walk(prep):
            subtree, cut = _rebuild(prep, positions, expanded)
            yield InternalSubtree(frozenset(subtree)), frozenset(cut)

    return gen()


def is_valid_cut(t: RootedTree, cut) -> bool:
    """True iff ``cut`` is the out-edge boundary of some internal subtree."""
    return _cut_owners(t, cut) is not None


def _cut_owners(t: RootedTree, cut) -> tuple[list[int], bytearray] | None:
    """``(owner, leaf)`` when ``cut`` is a boundary cut, else None.

    ``owner[v]`` is the cut edge on the path from ``v`` up to the root
    (``v`` itself when it is one), or -1 for the nodes of the internal
    subtree, which reach the root without crossing the cut; ``leaf[v]`` is 1
    when no node has ``v`` as parent. Owners are filled by walking up
    ``parent`` and keeping every answer, so ids may come in any order and no
    ``children`` view is built. The cut is a boundary exactly when it is a
    non-empty set of non-root int ids, every cut edge's tail is inside and
    no leaf is.
    """
    edges = set(cut)
    n, root, parent = t.node_count, t.root, t.parent
    if not edges:
        return None
    for e in edges:
        if not isinstance(e, int) or not (0 <= e < n) or e == root:
            return None
    owner: list = [None] * n
    owner[root] = -1
    for e in edges:
        owner[e] = e
    for v in range(n):
        if owner[v] is None:
            u = parent[v]
            o = owner[u]
            if o is None:  # walk up to the first node with an owner
                path = [v]
                while (o := owner[u]) is None:
                    path.append(u)
                    u = parent[u]
                for u in path:
                    owner[u] = o
            else:
                owner[v] = o
    leaf = bytearray(b"\1") * n
    for p in parent:
        if p is not None:
            leaf[p] = 0
    if -1 in compress(owner, leaf):
        return None  # a leaf is inside
    for e in edges:
        if owner[parent[e]] != -1:
            return None  # the cut edge's tail is outside
    return owner, leaf


def brute_force_optimum(
    t: RootedTree, objective: Objective = Objective.MAXIMIZE, limit: int = DEFAULT_CUT_LIMIT
) -> CutResult:
    """Evaluate every cut and return the optimal cut whose internal subtree
    has the fewest nodes.

    That cut is unique: it lies inside every other optimal subtree. It is
    the cut ``optimal_average_cut`` returns, whatever the enumeration order
    and however the cut space was split between processes. ``cut_count`` on
    the result is the number of cuts evaluated.
    """
    counts = _node_counts(t)
    cuts = counts[t.root]
    _check_limit(cuts, limit)
    sign = 1 if objective is Objective.MAXIMIZE else -1
    prep = _Prep(t, sign)
    shares = _split(prep, counts, _workers(cuts))
    best_total, best_size = _walk_shares(prep, shares)
    # The derived cut's total and size; the walk's winner may be a tied cut.
    cut = _least_cut(prep, best_total, best_size)
    return CutResult(
        cut=frozenset(cut),
        total=Fraction(sign * best_total * len(cut), best_size * prep.scale),
        size=len(cut),
        average=Fraction(sign * best_total, best_size * prep.scale),
        contractions=(),
        cut_count=cuts,
    )


# Fewest cuts per process for which a forked child pays for itself; below
# it, forking, reading the child's answer and reaping it cost more than
# walking its share here.
_FORK_MIN_CUTS = 10_000
# Sub-spaces per process, so that the largest-first assignment can even out
# their unequal sizes.
_PARTS_PER_WORKER = 8


def _workers(cuts: int) -> int:
    """How many processes walk the cut space: one per CPU this process may
    run on, but no more than give each ``_FORK_MIN_CUTS`` cuts. One where
    ``fork`` is missing or another thread is running, since a forked child
    would hold a copy of that thread's locks but not the thread."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cuts // _FORK_MIN_CUTS))


def _split(prep: _Prep, counts: list[int], workers: int) -> list[list[bytes]]:
    """Split the cut space into disjoint sub-spaces, ``workers`` shares of
    them.

    A sub-space is a prefix of ``_walk``'s decisions, one byte per decided
    position, 0 for cut and 1 for expand. After a prefix that ends before
    position ``q``, the positions from ``q`` on form a forest whose roots
    are ``q``, ``skip_to[q]``, ``skip_to[skip_to[q]]``, ..., and each root
    is cut or expanded independently, so the sub-space holds exactly the
    product of ``1 + c(root)`` over them. Splitting at ``q`` gives the
    prefix ``+ 0``, which continues at ``skip_to[q]``, and the prefix
    ``+ 1``, which continues at ``q + 1``; the two partition the parent.
    The largest sub-space is split until each process has several, and
    they go out largest first, each to the least-loaded share. The first
    share is the one the calling process walks.
    """
    skip_to = prep.skip_to
    m = len(skip_to)
    parts = [(-_subspace_cuts(prep, counts, 0), b"", 0)]
    while workers > 1 and len(parts) < workers * _PARTS_PER_WORKER:
        _neg, prefix, q = parts[0]
        if q == m:
            break  # the largest sub-space is a single cut
        cut, expand = skip_to[q], q + 1
        heapq.heapreplace(parts, (-_subspace_cuts(prep, counts, cut), prefix + b"\0", cut))
        heapq.heappush(parts, (-_subspace_cuts(prep, counts, expand), prefix + b"\1", expand))
    shares: list[list[bytes]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for neg, prefix, _q in sorted(parts):
        k = loads.index(min(loads))
        shares[k].append(prefix)
        loads[k] -= neg
    # A deep tree may split no more evenly than one cut per piece; a share
    # too small to pay for its child goes to the first share, walked here.
    for k in range(workers - 1, 0, -1):
        if loads[k] < _FORK_MIN_CUTS:
            shares[0].extend(shares.pop(k))
    return shares


def _subspace_cuts(prep: _Prep, counts: list[int], q: int) -> int:
    """Cuts in a sub-space whose prefix ends before position ``q``."""
    order, skip_to = prep.order, prep.skip_to
    n = 1
    while q < len(order):
        n *= 1 + counts[order[q]]
        q = skip_to[q]
    return n


def _walk_shares(prep: _Prep, shares: list[list[bytes]]) -> tuple[int, int]:
    """A ``(scaled total, size)`` at the best average over every share.

    The first share is walked here and each other one in a forked child,
    which sends its best back through a pipe as ``marshal`` bytes. A share
    whose pipe or fork fails, or whose child does not exit 0, is walked
    here too. Every child is reaped before this returns or raises.
    """
    mine = list(shares[0])
    children: list[tuple[int, int, list[bytes]]] = []  # (pid, read end, share)
    bests = []
    try:
        for share in shares[1:]:
            try:
                r, w = os.pipe()
            except OSError:
                mine.extend(share)
                continue
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                mine.extend(share)
                continue
            if pid == 0:
                _child(prep, share, r, w)
            children.append((pid, r, share))
            os.close(w)
        bests.append(_best(prep, mine))
        while children:
            pid, r, share = children[-1]
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            _pid, status = os.waitpid(pid, 0)
            children.pop()
            os.close(r)
            if status == 0 and chunks:
                bests.append(marshal.loads(b"".join(chunks)))
            else:
                bests.append(_best(prep, share))
    finally:
        # Only on an exception: stop and reap the children still running.
        if children:
            import signal

            for pid, r, _share in children:
                with suppress(OSError):
                    os.close(r)
                with suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(OSError):
                    os.waitpid(pid, 0)

    return max(bests, key=lambda best: Fraction(*best))


def _child(prep: _Prep, share: list[bytes], r: int, w: int) -> None:
    """Walk ``share`` in a forked child, write its best to ``w`` and leave
    through ``os._exit``, so that nothing of the parent's runs here: no
    ``finally`` above this frame, no exit handler, no buffered output."""
    code = 1
    try:
        os.close(r)
        data = memoryview(marshal.dumps(_best(prep, share)))
        while data:
            data = data[os.write(w, data):]
        code = 0
    finally:
        os._exit(code)


def _best(prep: _Prep, prefixes: list[bytes]) -> tuple[int, int]:
    """The ``(scaled total, size)`` of the first cut found at the best
    average over the cuts of the sub-spaces ``prefixes`` (see ``_split``).

    This is ``_walk`` written out with the cut's scaled total and size kept
    alongside, and the decided prefix replayed first and never backtracked.
    No cut is built: ``_least_cut`` derives one from the best average.
    """
    w, leaf_sum, leaf_count, skip_to = prep.w, prep.leaf_sum, prep.leaf_count, prep.skip_to
    m = len(skip_to)

    # Average -infinity: the first cut beats it, however negative.
    best_total, best_size = -1, 0
    for prefix in prefixes:
        total, size = prep.base
        pos = 0
        for expand in prefix:
            if expand:
                total += leaf_sum[pos]
                size += leaf_count[pos]
                pos += 1
            else:
                total += w[pos]
                size += 1
                pos = skip_to[pos]
        positions: list[int] = []
        expanded = bytearray(m)
        while True:
            while pos < m:
                total += w[pos]
                size += 1
                positions.append(pos)
                pos = skip_to[pos]

            if total * best_size > best_total * size:
                best_total, best_size = total, size

            while positions and expanded[positions[-1]]:
                p = positions.pop()
                expanded[p] = 0
                total -= leaf_sum[p]
                size -= leaf_count[p]
            if not positions:
                break
            p = positions[-1]
            expanded[p] = 1
            total += leaf_sum[p] - w[p]
            size += leaf_count[p] - 1
            pos = p + 1
    return best_total, best_size


def _least_cut(prep: _Prep, total: int, size: int) -> list[EdgeId]:
    """The cut of largest average whose internal subtree has the fewest
    nodes, at that average ``total / size`` of ``prep``'s weights.

    With ``x = w * size - total`` per edge, every cut's ``x`` sum is at
    most 0, and 0 exactly on the optimal cuts (Dinkelbach, 1967).
    Bottom-up, a node's ``g`` is the larger of its edge's ``x`` and its
    out-edges' ``g`` sum; expanding only on a strictly larger sum keeps the
    optimal subtree that lies inside all the others.
    """
    w, leaf_sum, leaf_count, skip_to = prep.w, prep.leaf_sum, prep.leaf_count, prep.skip_to
    m = len(skip_to)
    g = [0] * m
    expanded = bytearray(m)
    for p in range(m - 1, -1, -1):  # reverse preorder: children first
        x = w[p] * size - total
        out = leaf_sum[p] * size - leaf_count[p] * total
        q = p + 1
        while q < skip_to[p]:  # the internal children of position p
            out += g[q]
            q = skip_to[q]
        expanded[p] = out > x
        g[p] = max(out, x)
    positions = []
    pos = 0
    while pos < m:
        positions.append(pos)
        pos = pos + 1 if expanded[pos] else skip_to[pos]
    return _rebuild(prep, positions, expanded)[1]

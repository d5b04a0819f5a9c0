"""Greedy contraction search for the root cut of optimal average weight.

The answer returned is the out-edge boundary of the root's supernode after
repeatedly contracting the live internal edge whose contractibility most
exceeds (Maximize) or most undercuts (Minimize) the current root average,
stopping as soon as no live edge strictly beats it. An edge's
contractibility is the average weight its head's out-edges would add to a
cut that swapped the edge for them: (out_sum - weight) / (out_degree - 1).

Every comparison is exact. Each supernode keeps the total weight of its
live out-edges as a fraction of two ints: the lcm of the denominators
merged into it, less the factors a contracted edge's denominator shares
with the numerator. An aggregate grows only with the weights it holds,
never with one scale shared by the whole tree; on integer weights every
denominator is 1 and the arithmetic is plain int addition.

One exact type, ``Contractibility``, an unreduced ``(num, den)`` pair
ordered by cross multiplication, serves both the priority queue and the
reported values. The queue keys each candidate by the correctly rounded
float of its exact value, and only two equal floats fall through to the
pair; rounding is monotone, so the composite key orders exactly while almost
every comparison stays on machine floats. Infinite contractibilities key as
float infinities and carry no pair at all.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from itertools import compress
from math import gcd, lcm
from operator import floordiv, mul
from typing import NamedTuple

from .errors import DeadEdgeError, EmptyCutError, LeafHeadError
from .rational import exact_str, parse_rational
from .tree import EdgeId, NodeId, RootedTree

_FLOAT_MAX = sys.float_info.max


class Objective(Enum):
    """Optimization direction; MINIMIZE reverses every comparison."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


@total_ordering
class Contractibility:
    """A contractibility value: the exact ratio ``num / den`` or an infinity.

    The pair is kept unreduced, with ``den >= 0``. Out-degree-1 heads make
    the defining denominator zero; the swap they describe changes a cut's
    total but not its size, so ``den == 0`` is ``+inf`` or ``-inf`` by the
    sign of ``num`` (stored as +-1). Values order by cross multiplication
    against each other, ints and Fractions, and hash like the int or
    Fraction they equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den <= 0:
            if den or not num:
                raise ValueError(f"not a contractibility: {num}/{den}")
            num = 1 if num > 0 else -1
        self.num = num
        self.den = den

    @classmethod
    def finite(cls, value) -> "Contractibility":
        value = parse_rational(value) if isinstance(value, str) else Fraction(value)
        return cls(value.numerator, value.denominator)

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    @property
    def value(self) -> Fraction:
        if not self.den:
            raise ValueError("infinite contractibility has no finite value")
        return Fraction(self.num, self.den)

    def _sides(self, other) -> "tuple[int, int] | None":
        """Two ints that compare as ``self`` against ``other``, or None when
        ``other`` is not an int, a Fraction or a Contractibility."""
        if isinstance(other, Contractibility):
            num, den = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
        else:
            return None
        if self.den or den:
            return self.num * den, num * self.den
        return self.num, num  # two infinities

    def __eq__(self, other) -> bool:
        # Heap ties compare two finite pairs; they skip the coercion.
        if type(other) is Contractibility and self.den and other.den:
            return self.num * other.den == other.num * self.den
        sides = self._sides(other)
        return NotImplemented if sides is None else sides[0] == sides[1]

    def __lt__(self, other) -> bool:
        sides = self._sides(other)
        return NotImplemented if sides is None else sides[0] < sides[1]

    def __hash__(self):
        # A finite value equals the int or Fraction it holds, so it must hash
        # like it.
        return hash(Fraction(self.num, self.den) if self.den else self.num * math.inf)

    def __str__(self) -> str:
        if not self.den:
            return "+inf" if self.num > 0 else "-inf"
        return exact_str(Fraction(self.num, self.den))

    def __repr__(self) -> str:
        return f"Contractibility({self.num}, {self.den})"


POSITIVE_INFINITY = Contractibility(1, 0)
NEGATIVE_INFINITY = Contractibility(-1, 0)


def _contractibility(num: int, den: int, maximize: bool) -> Contractibility:
    """The contractibility ``num / den``. At ``den == 0`` a zero ``num`` is
    a neutral swap that is never taken: it maps to the never-contract side
    of the objective, which also guarantees termination."""
    if den:
        return Contractibility(num, den)
    if num > 0 or (num == 0 and not maximize):
        return POSITIVE_INFINITY
    return NEGATIVE_INFINITY


def edge_contractibility(
    t: RootedTree, e: EdgeId, objective: Objective = Objective.MAXIMIZE
) -> Contractibility:
    """Contractibility of ``e`` in the uncontracted tree ``t``."""
    kids = t.children[e]
    if not kids:
        raise LeafHeadError(f"edge {e} ends in a leaf and has no contractibility")
    gap = sum((t.weights[c] for c in kids), start=Fraction(0)) - t.weights[e]
    return _contractibility(
        gap.numerator, gap.denominator * (len(kids) - 1), objective is Objective.MAXIMIZE
    )


class ContractionStep(NamedTuple):
    """One contraction, for traces: the edge, its contractibility when taken,
    the root average right after, and whether the merge touched the root."""

    edge: EdgeId
    contractibility: Contractibility
    root_average_after: Fraction
    merged_into_root: bool


@dataclass(frozen=True)
class CutResult:
    """An optimal cut reported in original edge ids, with exact statistics.

    ``cut_count`` is the number of cuts the brute-force oracle evaluated;
    the contraction engine evaluates none one by one and leaves it None.
    It takes no part in equality.
    """

    cut: frozenset[EdgeId]
    total: Fraction
    size: int
    average: Fraction
    contractions: tuple[EdgeId, ...]
    cut_count: int | None = field(default=None, compare=False)


def _heap_key(num_o: int, den_o: int) -> tuple[float, Contractibility | None]:
    """Heap key ``(float, tiebreak)`` of the oriented contractibility
    ``num_o / den_o``; ``den_o == 0`` is an infinity (``-inf`` when
    ``num_o < 0``, else ``+inf``) and carries no tiebreak.

    The float is the correctly rounded true value, so it is monotone in the
    exact value, and two keys fall through to the exact tiebreak only when
    their floats are equal. Finite values beyond the float range clamp to
    +-``sys.float_info.max`` so that they never tie with a true infinity.
    """
    if not den_o:
        return (-math.inf if num_o < 0 else math.inf), None
    try:
        key = num_o / den_o
    except OverflowError:
        key = -_FLOAT_MAX if num_o < 0 else _FLOAT_MAX
    return key, Contractibility(num_o, den_o)


class ContractionState:
    """Mutable state of one contraction run over one tree.

    Holds the supernode partition (union-find over original node ids), the
    per-supernode live out-edge aggregates, and a lazy priority queue over
    live internal edges. A contraction links the head under its tail's
    supernode, so every supernode is named by its topmost original node,
    whose in-edge is the supernode's, and an edge ``e`` is live exactly when
    ``_uf[e] == e``. Confine an instance to a single thread; separate runs on
    separate trees are independent.
    """

    def __init__(self, tree: RootedTree, objective: Objective = Objective.MAXIMIZE):
        self.tree = tree
        self.objective = objective
        self._maximize = objective is Objective.MAXIMIZE
        # Heap keys and the stop test use the value oriented so that the
        # min-heap pops the best edge first: negated under MAXIMIZE.
        self._sign = -1 if self._maximize else 1
        n = tree.node_count
        root = tree.root

        self._wn = wn = tree.wnum
        self._wd = wd = tree.wden

        # Each supernode's union-find root is its topmost node; path halving
        # rewrites only entries that do not point to themselves, so a node is
        # a root, and its in-edge live, until it is absorbed.
        self._uf = list(range(n))
        # Per-supernode aggregates over live out-edges, at the supernode's
        # name: their total as _num / _den, and their count. _den is always a
        # positive multiple of the denominator of the supernode's own in-edge
        # weight, so _lam() needs no lcm and a merge needs one. It starts as
        # the lcm of a node's in- and out-edge denominators.
        parent = list(tree.parent)
        parent[root] = root  # any valid index: the root's weight slot is 0
        dens = list(wd)
        for v in compress(range(n), map((1).__ne__, wd)):
            p = parent[v]
            dens[p] = lcm(dens[p], wd[v])
        # Each weight as a numerator over its tail's _den, summed per tail.
        tail_dens = map(dens.__getitem__, parent)
        scaled_at = list(map(mul, wn, map(floordiv, tail_dens, wd))).__getitem__
        self._num = [sum(map(scaled_at, kids)) for kids in tree.children]
        self._den = dens
        self._cnt = [len(kids) for kids in tree.children]

        self._gen = [0] * n
        # Heap entries are (float key, tiebreak, edge, generation). The pair
        # is _lam(e), inlined to save a method call per edge.
        sign = self._sign
        nums, cnts = self._num, self._cnt
        heap = []
        append = heap.append
        for e in tree.internal_edges():
            d, q = dens[e], wd[e]
            gap = nums[e] - (wn[e] if q == d else wn[e] * (d // q))
            key, tie = _heap_key(sign * gap, d * (cnts[e] - 1))
            append((key, tie, e, 0))
        heapq.heapify(heap)
        self._heap = heap

        # The one log of the run: (edge, lam_num, lam_den, root_num, root_den,
        # root_cnt, merged_root); lam_den == 0 encodes the infinities.
        self._steps: list[tuple[int, int, int, int, int, int, bool]] = []
        self._initial_alpha = (self._num[root], dens[root], self._cnt[root])

    # --- union-find ---------------------------------------------------- #

    def _find(self, x: int) -> int:
        uf = self._uf
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # --- exact aggregates ------------------------------------------------ #

    def _lam(self, e: EdgeId) -> tuple[int, int]:
        """Contractibility of live edge ``e`` as an unreduced pair
        ``(num, den)``. The head ``e`` names its own supernode, so
        ``num / _den[e]`` is ``out_sum(e) - weight(e)``, exact because the
        weight's denominator divides ``_den[e]``, and ``den`` is
        ``_den[e] * (live_out_count(e) - 1)``, so ``den == 0`` encodes the
        infinities."""
        d = self._den[e]
        wd = self._wd[e]
        wn = self._wn[e] if wd == d else self._wn[e] * (d // wd)
        return self._num[e] - wn, d * (self._cnt[e] - 1)

    # --- queries ---------------------------------------------------------- #

    def _check_edge(self, e: EdgeId) -> None:
        if not isinstance(e, int) or not (0 <= e < self.tree.node_count) or e == self.tree.root:
            raise ValueError(f"not an edge id: {e!r}")

    def representative(self, v: NodeId) -> NodeId:
        """The topmost original node of ``v``'s supernode, which names it."""
        return self._find(v)

    def is_alive(self, e: EdgeId) -> bool:
        self._check_edge(e)
        return self._uf[e] == e

    def live_out_sum(self, v: NodeId) -> Fraction:
        """Total weight of live out-edges of ``v``'s supernode."""
        r = self._find(v)
        return Fraction(self._num[r], self._den[r])

    def live_out_count(self, v: NodeId) -> int:
        """Number of live out-edges of ``v``'s supernode."""
        return self._cnt[self._find(v)]

    @property
    def root_average(self) -> Fraction:
        root = self.tree.root
        return Fraction(self._num[root], self._den[root] * self._cnt[root])

    @property
    def initial_root_average(self) -> Fraction:
        num, den, cnt = self._initial_alpha
        return Fraction(num, den * cnt)

    def contractibility(self, e: EdgeId) -> Contractibility:
        """Contractibility of live edge ``e`` under the current partition."""
        self._check_edge(e)
        if self._uf[e] != e:
            raise DeadEdgeError(f"edge {e} was already contracted")
        if self._cnt[e] == 0:
            raise LeafHeadError(f"edge {e} ends in a leaf and has no contractibility")
        return _contractibility(*self._lam(e), self._maximize)

    def pending_edges(self) -> set[EdgeId]:
        """Edges with a fresh queue entry (live internal edges, exactly)."""
        return {
            entry[2]
            for entry in self._heap
            if self._uf[entry[2]] == entry[2] and entry[3] == self._gen[entry[2]]
        }

    def cut_edges(self) -> frozenset[EdgeId]:
        """Live out-edge boundary of the root supernode, as original edges.

        The supernode is the root and everything below it through contracted
        edges, so a walk down those edges meets each cut edge once.
        """
        children, uf = self.tree.children, self._uf
        cut = []
        stack = [self.tree.root]
        while stack:
            for c in children[stack.pop()]:
                (cut if uf[c] == c else stack).append(c)
        return frozenset(cut)

    @property
    def contractions(self) -> list[EdgeId]:
        """The contracted edges in order, read from the step log."""
        return [s[0] for s in self._steps]

    def steps(self) -> list[ContractionStep]:
        return [
            ContractionStep(
                edge,
                _contractibility(lam_num, lam_den, self._maximize),
                Fraction(root_num, root_den * root_cnt),
                merged,
            )
            for edge, lam_num, lam_den, root_num, root_den, root_cnt, merged in self._steps
        ]

    def root_average_history(self) -> list[Fraction]:
        """Root average before any contraction and after each one."""
        history = [self.initial_root_average]
        history.extend(Fraction(s[3], s[4] * s[5]) for s in self._steps)
        return history

    # --- mutation ----------------------------------------------------------- #

    def contract(self, e: EdgeId) -> None:
        """Merge head(e) into its tail's supernode and update aggregates.

        The tail supernode keeps its name, its topmost node; its in-edge (if
        it is not the root supernode) is the only edge whose contractibility
        changes, and gets requeued. Raises DeadEdgeError / LeafHeadError as
        appropriate.
        """
        self._check_edge(e)
        if self._uf[e] != e:
            raise DeadEdgeError(f"edge {e} was already contracted")
        if not self.tree.children[e]:
            raise LeafHeadError(f"edge {e} ends in a leaf and cannot be contracted")
        self._merge(e)

    def _merge(self, e: EdgeId) -> None:
        """:meth:`contract` for an edge known to be live and internal."""
        nums, dens, cnts, wd = self._num, self._den, self._cnt, self._wd
        u = self._find(self.tree.parent[e])  # type: ignore[arg-type]
        lam_num, lam_den = self._lam(e)

        # The merged total is out_sum(u) - weight(e) + out_sum(e), which is
        # out_sum(u) + lam_num / _den[e], over lcm(_den[u], _den[e]).
        num, den = nums[u], dens[u]
        den_e = dens[e]
        if den == den_e:
            num += lam_num
        else:
            g = gcd(den, den_e)
            num = num * (den_e // g) + lam_num * (den // g)
            den = den // g * den_e
        q = wd[e]
        if q != 1:
            # weight(e) left the total: cancel what its denominator shares
            # with the numerator, but keep u's in-edge denominator dividing
            # _den. Without this a supernode that absorbs a chain of distinct
            # prime denominators keeps all of them, long after their weights
            # have left its total.
            g = gcd(num, q)
            if g != 1:
                g = gcd(g, den // wd[u])
                num //= g
                den //= g
        self._uf[e] = u
        nums[u] = num
        dens[u] = den
        cnts[u] += cnts[e] - 1

        root = self.tree.root
        if u != root:
            # A new generation invalidates every queued entry for u's in-edge.
            gen = self._gen[u] = self._gen[u] + 1
            u_num, u_den = self._lam(u)
            key, tie = _heap_key(self._sign * u_num, u_den)
            heapq.heappush(self._heap, (key, tie, u, gen))
        self._steps.append((e, lam_num, lam_den, nums[root], dens[root], cnts[root], u == root))

    def run(self) -> None:
        """Contract best-first until no live edge strictly beats the root average."""
        heap, uf, gen = self._heap, self._uf, self._gen
        nums, dens, cnts = self._num, self._den, self._cnt
        sign, merge, heappop = self._sign, self._merge, heapq.heappop
        root = self.tree.root
        while heap:
            entry = heappop(heap)
            e = entry[2]
            if uf[e] != e or entry[3] != gen[e]:
                continue  # stale: contracted, or requeued since
            # Stop unless the oriented value is strictly below the oriented
            # root average; of the infinities only -inf is.
            tie = entry[1]
            if tie is None:
                beats = entry[0] < 0
            else:
                beats = tie.num * (dens[root] * cnts[root]) < sign * nums[root] * tie.den
            if not beats:
                heapq.heappush(heap, entry)  # keep the queue complete
                return
            merge(e)  # queued edges are live and internal

    def result(self) -> CutResult:
        root = self.tree.root
        total_num, total_den = self._num[root], self._den[root]
        size = self._cnt[root]
        return CutResult(
            cut=self.cut_edges(),
            total=Fraction(total_num, total_den),
            size=size,
            average=Fraction(total_num, total_den * size),
            contractions=tuple(self.contractions),
        )


def run_contraction(t: RootedTree, objective: Objective = Objective.MAXIMIZE) -> ContractionState:
    """Run the full contraction loop and return the final state (for traces)."""
    state = ContractionState(t, objective)
    state.run()
    return state


def optimal_average_cut(t: RootedTree, objective: Objective = Objective.MAXIMIZE) -> CutResult:
    """The root-separating cut of optimal average weight, in original edge ids."""
    return run_contraction(t, objective).result()


def evaluate_cut(t: RootedTree, cut) -> tuple[Fraction, int, Fraction]:
    """Exact (total, size, average) of an edge set."""
    edges = set(cut)
    if not edges:
        raise EmptyCutError("cut has no edges")
    for e in edges:
        if not isinstance(e, int) or not (0 <= e < t.node_count) or e == t.root:
            raise ValueError(f"not an edge id: {e!r}")
    total = sum((t.weights[e] for e in edges), start=Fraction(0))
    return total, len(edges), total / len(edges)

"""Greedy contraction search for the root cut of optimal average weight.

The answer returned is the out-edge boundary of the root's supernode after
repeatedly contracting the live internal edge whose contractibility most
exceeds the current root average, stopping as soon as none strictly exceeds
it; Minimize runs as Maximize over the weights, negated as they come in. An
edge's contractibility is the average weight its head's out-edges would add
to a cut that swapped the edge for them: (out_sum - weight) / (out_degree - 1).

Every comparison is exact. Each supernode keeps its in-edge weight less
the total weight of its live out-edges, minus the numerator of its
in-edge's contractibility, as a fraction of two ints: the lcm of the
denominators merged into it, less the factors a contracted edge's
denominator shares with the numerator. An aggregate grows only with the
weights it holds, never with one scale shared by the whole tree. Its sign
lets it start as the in-edge weight itself.

A run is *plain* when the lcm ``D`` of all weight denominators is at most
``rational.PLAIN_SCALE``, as ``rational.plain_scale`` finds; it is decided
once, from the tree alone. A plain run scales every weight to the int
``weight * D``, so every ``_den`` is ``D`` and a merge adds bare ints with
nothing to cancel. Its finite
contractibilities are ``a / (D * b)`` with int ``a`` and ``1 <= b < n``, and
the queue keys each by the int ``floor(-a * n**2 / b)`` (negated): two
distinct values ``a / b`` and ``a' / b'`` differ by at least ``1 / (b *
b')``, more than ``1 / n**2``, so their keys differ by at least one and the
floor is injective and monotone at any weight magnitude. Equal keys mean
equal values, and a plain run's tiebreak is the constant 0, which hands
every tie to the edge id. Every other run keys by the correctly rounded
float of the exact value, which is monotone, and breaks equal floats with
the exact value, a ``Contractibility``: an unreduced ``(num, den)`` pair
ordered by cross multiplication, the same type the engine reports. Either
way the queue pops in (exact value, edge id) order. Infinite
contractibilities key as float infinities and carry no pair at all. The
stop test never reads the key: it compares the popped edge's exact pair
with the root average. Plain and general runs, and the public ``contract``
and ``run``, take one contraction step; on a plain run its merge adds bare
ints over the one denominator and cancels nothing.
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
from typing import NamedTuple

from .errors import DeadEdgeError, EmptyCutError, LeafHeadError
from .rational import exact_str, parse_rational, plain_scale
from .tree import EdgeId, RootedTree

_FLOAT_MAX = sys.float_info.max


class Objective(Enum):
    """Optimization direction; MINIMIZE is MAXIMIZE over negated weights."""

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


def _contractibility(num: int, den: int, sign: int) -> Contractibility:
    """``sign * num / den``, the reported value of a contractibility over
    weights times ``sign``. A zero swap at ``den == 0`` is never taken: it
    is ``-inf`` before the sign, which also guarantees termination."""
    if den:
        return Contractibility(sign * num, den)
    return POSITIVE_INFINITY if (num > 0) is (sign > 0) else NEGATIVE_INFINITY


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
    """Heap key ``(float, tiebreak)`` of the negated contractibility
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
    ``_uf[e] == e``. :meth:`run` and :meth:`contract` share one step,
    :meth:`_contract`, which contracts an edge, requeues the tail's in-edge
    and logs the step. Confine an instance to a single thread; separate runs
    on separate trees are independent.
    """

    def __init__(self, tree: RootedTree, objective: Objective = Objective.MAXIMIZE):
        self.tree = tree
        self.objective = objective
        # Minimize is Maximize over the negated weights; _sign turns the
        # values the queries report back.
        self._sign = 1 if objective is Objective.MAXIMIZE else -1
        n = tree.node_count
        root = tree.root

        wn, wd = tree.wnum, tree.wden
        scale = plain_scale(wd)
        self._plain = plain = scale is not None
        if plain and scale != 1:
            wn = tree.scaled_weights[1]
            wd = (scale,) * n
        if self._sign < 0:
            wn = [-w for w in wn]
        self._wd = wd

        # Each supernode's union-find root is its topmost node; path halving
        # rewrites only entries that do not point to themselves, so a node is
        # a root, and its in-edge live, until it is absorbed.
        self._uf = list(range(n))
        # Per-supernode aggregates, at the supernode's name: _num / _den is
        # its in-edge weight less the total weight of its live out-edges, the
        # negated numerator of its in-edge's contractibility (at the root,
        # whose weight slot is 0/1, minus the out-edge total), and _cnt
        # counts those out-edges. _den is always a positive multiple of the
        # denominator of the in-edge weight. It starts as the lcm of a node's
        # in- and out-edge denominators (on a plain run, the scale), and _num
        # as the in-edge weight over it, so a plain run's _num starts as the
        # weights themselves; one pass then subtracts each weight, scaled to
        # its tail's _den, from the tail.
        parent = tree.parent
        self._den = dens = list(wd)
        if plain:
            nums = list(wn)
        else:
            for v in compress(range(n), map((1).__ne__, wd)):
                p = parent[v]
                dens[p] = lcm(dens[p], wd[v])
            nums = [w if q == d else w * (d // q) for w, q, d in zip(wn, wd, dens)]
        self._num = nums
        self._cnt = cnts = [0] * n
        for p, w, q in zip(parent, wn, wd):
            if p is not None:
                d = dens[p]
                nums[p] -= w if q == d else w * (d // q)
                cnts[p] += 1

        self._gen = [0] * n
        # Heap entries are (key, tiebreak, edge, generation), keyed by e's
        # contractibility -_num[e] / (_den[e] * b), b = _cnt[e] - 1, so the
        # key is _num[e] / (_den[e] * b). A plain run keys a finite value by
        # the exact int floor(_num[e] * n**2 / b) (see the module docstring)
        # with the tiebreak 0, and builds no Contractibility.
        self._nn = nn = n * n
        heap = []
        append = heap.append
        for e in compress(range(n), cnts):
            if e == root:
                continue
            b = cnts[e] - 1
            if plain and b:
                append((nums[e] * nn // b, 0, e, 0))
            else:
                key, tie = _heap_key(nums[e], dens[e] * b)
                append((key, tie, e, 0))
        heapq.heapify(heap)
        self._heap = heap

        # The one log of the run: (edge, num_e, lam_den, alpha_num,
        # alpha_den, merged_root), in _num's sign over the weights as run:
        # the edge's contractibility is -num_e / lam_den and the root average
        # after it -alpha_num / alpha_den; lam_den == 0 encodes the infinities.
        self._steps: list[tuple[int, int, int, int, int, bool]] = []

    # --- union-find ---------------------------------------------------- #

    def _find(self, x: int) -> int:
        uf = self._uf
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    # --- queries ---------------------------------------------------------- #

    def _check_edge(self, e: EdgeId) -> None:
        if not isinstance(e, int) or not (0 <= e < self.tree.node_count) or e == self.tree.root:
            raise ValueError(f"not an edge id: {e!r}")

    @property
    def root_average(self) -> Fraction:
        root = self.tree.root
        return Fraction(-self._sign * self._num[root], self._den[root] * self._cnt[root])

    def contractibility(self, e: EdgeId) -> Contractibility:
        """Contractibility of live edge ``e`` under the current partition."""
        self._check_edge(e)
        if self._uf[e] != e:
            raise DeadEdgeError(f"edge {e} was already contracted")
        if self._cnt[e] == 0:
            raise LeafHeadError(f"edge {e} ends in a leaf and has no contractibility")
        return _contractibility(-self._num[e], self._den[e] * (self._cnt[e] - 1), self._sign)

    def cut_edges(self) -> frozenset[EdgeId]:
        """Live out-edge boundary of the root supernode, as original edges.

        The supernode is the root and every contracted edge that finds it;
        the cut is every edge whose tail lies in it, less the supernode.
        """
        root, parent, find = self.tree.root, self.tree.parent, self._find
        inside = {root}
        inside.update(s[0] for s in self._steps if find(s[0]) == root)
        tail_inside = map(inside.__contains__, parent)
        return frozenset(compress(range(len(parent)), tail_inside)) - inside

    @property
    def contractions(self) -> list[EdgeId]:
        """The contracted edges in order, read from the step log."""
        return [s[0] for s in self._steps]

    def steps(self) -> list[ContractionStep]:
        return [
            ContractionStep(
                edge,
                _contractibility(-num_e, lam_den, self._sign),
                Fraction(-self._sign * alpha_num, alpha_den),
                merged,
            )
            for edge, num_e, lam_den, alpha_num, alpha_den, merged in self._steps
        ]

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
        if not self._cnt[e]:
            raise LeafHeadError(f"edge {e} ends in a leaf and cannot be contracted")
        self._contract(e)

    def run(self) -> None:
        """Contract best-first until no live edge strictly beats the root average."""
        self._contract(None)

    def _contract(self, forced: EdgeId | None) -> None:
        """The contraction step: contract ``forced``, a live internal edge,
        once; or, at None, pop the best fresh queue entry and contract it,
        until one does not strictly beat the root average. :meth:`_find` is
        written out here."""
        heap, uf, gen, steps, parent = self._heap, self._uf, self._gen, self._steps, self.tree.parent
        nums, dens, cnts, wd = self._num, self._den, self._cnt, self._wd
        plain, nn = self._plain, self._nn
        heappop, heappush = heapq.heappop, heapq.heappush
        root = self.tree.root
        # The root average is -alpha_num / alpha_den.
        alpha_num, alpha_den = nums[root], dens[root] * cnts[root]
        e = forced
        while True:
            if forced is None:
                if not heap:
                    return
                entry = heappop(heap)
                e = entry[2]
                if uf[e] != e or entry[3] != gen[e]:
                    continue  # stale: contracted, or requeued since
            # e's contractibility is -num_e / lam_den.
            d = dens[e]
            num_e = nums[e]
            b = cnts[e] - 1
            lam_den = d * b
            # Stop unless the value strictly exceeds the root average; at
            # lam_den == 0 this reads num_e >= 0, so of the infinities only
            # +inf is taken.
            if forced is None and num_e * alpha_den >= alpha_num * lam_den:
                heappush(heap, entry)  # keep the queue complete
                return
            u = parent[e]
            while uf[u] != u:
                uf[u] = uf[uf[u]]
                u = uf[u]

            # u trades the out-edge e for e's out-edges, so its _num gains
            # num_e / _den[e], over lcm(_den[u], _den[e]).
            den = dens[u]
            if den == d:
                num = nums[u] + num_e
            else:
                g = gcd(den, d)
                num = nums[u] * (d // g) + num_e * (den // g)
                den = den // g * d
            if not plain and wd[e] != 1:
                # weight(e) left the total: cancel what its denominator shares
                # with the numerator, but keep u's in-edge denominator
                # dividing _den. Without this a supernode that absorbs a chain
                # of distinct prime denominators keeps all of them, long after
                # their weights have left its total.
                g = gcd(num, wd[e])
                if g != 1:
                    g = gcd(g, den // wd[u])
                    num //= g
                    den //= g
            uf[e] = u
            nums[u] = num
            dens[u] = den
            cnts[u] += b

            if u != root:
                # A new generation invalidates every queued entry for u's
                # in-edge.
                g = gen[u] = gen[u] + 1
                b = cnts[u] - 1
                if plain and b:
                    heappush(heap, (num * nn // b, 0, u, g))
                else:
                    heappush(heap, (*_heap_key(num, den * b), u, g))
            else:
                alpha_num, alpha_den = num, den * cnts[u]
            steps.append((e, num_e, lam_den, alpha_num, alpha_den, u == root))
            if forced is not None:
                return

    def result(self) -> CutResult:
        root = self.tree.root
        total_num, total_den = -self._sign * self._num[root], self._den[root]
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
    """The root-separating cut of optimal average weight, in original edge
    ids: of the optimal cuts, the one whose internal subtree has fewest nodes."""
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

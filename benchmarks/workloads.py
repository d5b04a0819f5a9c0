"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of ``(random.Random(seed), size)``: the
same seed gives byte-identical input files. Besides the file text, each
input carries the tree the program is expected to solve, built here from
the generator's own numbers, so the checker never has to trust the
program's parsers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Input:
    """One generated input file and what the checker needs to judge it."""

    filename: str
    text: str
    objective: str  # "max" or "min"
    # The expected tree as (parent label, child label, exact weight).
    edges: tuple[tuple[str, str, Fraction], ...]
    # The CLI arguments after the file path is substituted for "{path}".
    argv: tuple[str, ...]
    items: int = 0  # cluster-linkage: number of clustered items


@dataclass(frozen=True)
class Workload:
    name: str
    generator: Callable[..., list[Input]]
    # Sizes: the full benchmark size and a small smoke size for tests.
    full: dict
    smoke: dict
    # The kind of speed probe whose time moves most like this workload's
    # (see probe.py and README.md).
    probe: str = "bigint"

    def generate(self, seed: int, smoke: bool = False) -> list[Input]:
        rng = random.Random(f"{self.name}:{seed}")
        return self.generator(rng, **(self.smoke if smoke else self.full))


def _perf_parents(rng: random.Random, n_edges: int) -> list[int]:
    """Parents of nodes 1..n_edges, the shape of the acceptance ``_perf_tree``:
    the previous node with probability 0.25, otherwise a uniform earlier one."""
    parents = [0]  # slot 0 (the root) is unused
    for i in range(1, n_edges + 1):
        parents.append(rng.randrange(i) if rng.random() > 0.25 else i - 1)
    return parents


def edgelist_int(rng: random.Random, n_edges: int, count: int) -> list[Input]:
    inputs = []
    for k in range(count):
        parents = _perf_parents(rng, n_edges)
        weights = [rng.randint(1, 1000) for _ in range(n_edges + 1)]
        edges = tuple(
            (f"n{parents[i]}", f"n{i}", Fraction(weights[i])) for i in range(1, n_edges + 1)
        )
        text = "".join(f"{p}\t{c}\t{w}\n" for p, c, w in edges)
        name = f"edgelist-int-{k}.edges"
        argv = ("cut", "--objective", "max", "--input", "{path}")
        inputs.append(Input(name, text, "max", edges, argv))
    return inputs


def _primes(count: int, skip: tuple[int, ...]) -> list[int]:
    """The first ``count`` primes not in ``skip``, by a growing sieve."""
    limit = 64
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        found = [p for p in range(limit + 1) if sieve[p] and p not in skip]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def _newick(children: list[list[int]], weight_text: list[str]) -> str:
    """Newick text with every node labelled ``n<id>``, written without recursion."""
    out: list[str] = []
    stack = [(0, 0)]
    while stack:
        v, i = stack.pop()
        kids = children[v]
        if i < len(kids):
            out.append("(" if i == 0 else ",")
            stack.append((v, i + 1))
            stack.append((kids[i], 0))
            continue
        if kids:
            out.append(")")
        out.append(f"n{v}")
        if v:
            out.append(":" + weight_text[v])
    return "".join(out) + ";\n"


def newick_rational(rng: random.Random, n_edges: int, primes: int, count: int) -> list[Input]:
    # Denominators 2 and 5 are left to the decimal half, so that every prime
    # of the pool is a distinct factor of the weights' common denominator.
    pool = _primes(primes, skip=(2, 5))
    inputs = []
    for k in range(count):
        parents = _perf_parents(rng, n_edges)
        heads = list(range(1, n_edges + 1))
        rng.shuffle(heads)
        rational = heads[: n_edges // 2]
        # Every prime of the pool is used at least once, so the LCM scale is
        # the same for every seed.
        denominators = pool + [rng.choice(pool) for _ in range(len(rational) - len(pool))]
        rng.shuffle(denominators)
        weight_text = [""] * (n_edges + 1)
        weights = [Fraction(0)] * (n_edges + 1)
        for v, q in zip(rational, denominators):
            p = rng.randrange(1, 1000 * q)
            if p % q == 0:
                p += 1
            weight_text[v] = f"{p}/{q}"
            weights[v] = Fraction(p, q)
        for v in heads[n_edges // 2 :]:
            milli = rng.randint(1, 999_999)
            weight_text[v] = f"{milli // 1000}.{milli % 1000:03d}"
            weights[v] = Fraction(milli, 1000)
        children: list[list[int]] = [[] for _ in range(n_edges + 1)]
        for v in range(1, n_edges + 1):
            children[parents[v]].append(v)
        edges = tuple((f"n{parents[v]}", f"n{v}", weights[v]) for v in range(1, n_edges + 1))
        name = f"newick-rational-{k}.nwk"
        argv = ("cut", "--format", "newick", "--objective", "min", "--input", "{path}")
        inputs.append(Input(name, _newick(children, weight_text), "min", edges, argv))
    return inputs


def cluster_linkage(rng: random.Random, items: int, count: int) -> list[Input]:
    inputs = []
    for k in range(count):
        active = list(range(items))
        cents_of = [0] * (2 * items - 1)  # merge heights in hundredths
        rows = ["left,right,height,size"]
        size = [1] * items + [0] * (items - 1)
        edges = []
        cents = 0
        for m in range(items - 1):
            # One merge in five repeats the previous height, so zero gaps
            # and tied heights occur.
            if rng.random() >= 0.2:
                cents += rng.randint(1, 100)
            pair = []
            for _ in range(2):
                j = rng.randrange(len(active))
                active[j], active[-1] = active[-1], active[j]
                pair.append(active.pop())
            left, right = pair
            node = items + m
            cents_of[node] = cents
            size[node] = size[left] + size[right]
            active.append(node)
            rows.append(f"{left},{right},{cents // 100}.{cents % 100:02d},{size[node]}")
            for side in (left, right):
                label = str(side) if side < items else f"c{side}"
                edges.append((f"c{node}", label, Fraction(cents - cents_of[side], 100)))
        name = f"cluster-linkage-{k}.csv"
        argv = ("cluster", "--linkage", "{path}", "--scheme", "gap", "--objective", "max")
        text = "\n".join(rows) + "\n"
        inputs.append(Input(name, text, "max", tuple(edges), argv, items=items))
    return inputs


def count_boundary_cuts(edges) -> int:
    """Boundary cuts of the tree given as (parent, child, weight) label triples:
    c(leaf) = 0 and c(v) = product over v's children x of (1 + c(x))."""
    children: dict[str, list[str]] = {}
    heads = set()
    for parent, child, _w in edges:
        children.setdefault(parent, []).append(child)
        heads.add(child)
    (root,) = [label for label in children if label not in heads]
    order = [root]
    for label in order:
        order.extend(children.get(label, ()))
    count: dict[str, int] = {}
    for label in reversed(order):
        product = 1 if label in children else 0
        for child in children.get(label, ()):
            product *= 1 + count[child]
        count[label] = product
    return count[root]


def oracle_small(
    rng: random.Random, trees: int, nodes: tuple[int, int], cuts: tuple[int, int]
) -> list[Input]:
    inputs = []
    while len(inputs) < trees:
        n = rng.randint(*nodes)
        shape = [(f"n{rng.randrange(v)}", f"n{v}", None) for v in range(1, n)]
        # Keep each tree's enumeration within one size band, so the median
        # solve time does not depend on a few outsized trees.
        if not cuts[0] <= count_boundary_cuts(shape) <= cuts[1]:
            continue
        edges = []
        for parent, child, _w in shape:
            q = rng.randint(1, 6)
            edges.append((parent, child, Fraction(rng.randint(1, 4 * q), q)))
        k = len(inputs)
        objective = "max" if k % 2 == 0 else "min"
        text = "".join(f"{p} {c} {w}\n" for p, c, w in edges)
        argv = ("oracle", "--objective", objective, "--input", "{path}")
        inputs.append(Input(f"oracle-small-{k}.edges", text, objective, tuple(edges), argv))
    return inputs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "edgelist-int",
            edgelist_int,
            full={"n_edges": 100_000, "count": 2},
            smoke={"n_edges": 300, "count": 2},
        ),
        Workload(
            "newick-rational",
            newick_rational,
            full={"n_edges": 20_000, "primes": 4000, "count": 2},
            smoke={"n_edges": 200, "primes": 40, "count": 2},
        ),
        Workload(
            "cluster-linkage",
            cluster_linkage,
            full={"items": 50_000, "count": 2},
            smoke={"items": 150, "count": 2},
        ),
        Workload(
            "oracle-small",
            oracle_small,
            full={"trees": 16, "nodes": (40, 60), "cuts": (90_000, 110_000)},
            smoke={"trees": 4, "nodes": (8, 14), "cuts": (4, 400)},
            probe="text",
        ),
    )
}

"""Independent checks of one ``avgcut`` report against its generated input.

The checker works from the generator's own tree (``Input.edges``), not from
the program's parse of the file, and certifies optimality with the
parametric 0-1 fractional-programming test (Dinkelbach, "On nonlinear
fractional programming", Management Science 1967): a cut of average ``lam``
is optimal exactly when the best total of ``w_e - lam`` over all boundary
cuts is 0. That needs one bottom-up pass, so it reaches trees far beyond the
brute-force oracle.
"""

from __future__ import annotations

import decimal
import hashlib
import math
import warnings
from fractions import Fraction
from functools import reduce

from avgcut.contraction import Objective, evaluate_cut, optimal_average_cut
from avgcut.errors import ZeroWeightWarning
from avgcut.oracle import is_valid_cut
from avgcut.tree import from_edges

from workloads import Input, count_boundary_cuts


def report_digest(report: str) -> str:
    """sha256 of the report without its ``elapsed_ms`` line, the part that must repeat."""
    kept = "".join(
        line for line in report.splitlines(keepends=True) if not line.startswith("elapsed_ms:")
    )
    return hashlib.sha256(kept.encode()).hexdigest()


def _fields(report: str) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"not a 'key: value' line: {line!r}")
        fields.setdefault(key, []).append(value)
    return fields


def _one(fields: dict[str, list[str]], key: str) -> str:
    values = fields.get(key, [])
    if len(values) != 1:
        raise ValueError(f"expected one {key!r} line, got {len(values)}")
    return values[0]


def decimal12(value: Fraction) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def best_parametric_total(edges, lam: Fraction, maximize: bool):
    """Best sum of ``w_e - lam`` over all boundary cuts, scaled to an integer.

    A boundary cut either takes an edge or, when the edge's head has
    children, replaces it by a cut of the head's subtree, so
    ``g(e) = best(w_e - lam, sum of g over the head's out-edges)`` and the
    answer is the sum of ``g`` over the root's out-edges. Every term is
    multiplied by the same positive integer (the weights' common
    denominator times lam's denominator), which keeps the arithmetic exact
    and the sign of the result unchanged.
    """
    pick = max if maximize else min
    scale = reduce(math.lcm, (w.denominator for _p, _c, w in edges), 1)
    offset = lam.numerator * scale
    # Dividing the full scale by each small weight denominator keeps the
    # per-edge work linear in the integers' length.
    scale *= lam.denominator
    children: dict[str, list[tuple[str, int]]] = {}
    heads = set()
    for parent, child, w in edges:
        x = w.numerator * (scale // w.denominator) - offset
        children.setdefault(parent, []).append((child, x))
        heads.add(child)
    roots = [label for label in children if label not in heads]
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")
    # Post-order without recursion: a node's g-sum is complete once all of
    # its children have been popped.
    subtotal: dict[str, int] = {}
    order = [roots[0]]
    for label in order:
        order.extend(child for child, _x in children.get(label, ()))
    for label in reversed(order):
        kids = children.get(label)
        if kids:
            subtotal[label] = sum(
                pick(x, subtotal[child]) if child in subtotal else x for child, x in kids
            )
    return subtotal[roots[0]]


def _tree(edges):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroWeightWarning)
        return from_edges(edges)


def check(inp: Input, file_digest: str, report: str) -> list[str]:
    """Every way ``report`` is wrong for ``inp``; empty when it is correct."""
    try:
        return _check(inp, file_digest, report)
    except (ValueError, KeyError) as err:
        return [f"unreadable report: {err}"]


def _check(inp: Input, file_digest: str, report: str) -> list[str]:
    problems = []
    fields = _fields(report)
    if _one(fields, "input_digest") != file_digest:
        problems.append("input_digest is not the sha256 of the input file")
    if _one(fields, "objective") != inp.objective:
        problems.append("objective differs from the one requested")

    tree = _tree(inp.edges)
    cut = set()
    for row in fields.get("cut", []):
        parent, child, weight = row.split(" ")
        e = tree.label_index[child]
        if e == tree.root or tree.labels[tree.parent[e]] != parent:
            problems.append(f"cut line names no edge of the input: {row!r}")
        elif Fraction(weight) != tree.weights[e]:
            problems.append(f"cut line has the wrong weight: {row!r}")
        cut.add(e)
    if not is_valid_cut(tree, cut):
        return problems + ["the cut is not a root-separating boundary cut"]

    total, size, average = evaluate_cut(tree, cut)
    reported = Fraction(_one(fields, "average"))
    if Fraction(_one(fields, "total")) != total:
        problems.append("total differs from the cut's weight sum")
    if int(_one(fields, "size")) != size:
        problems.append("size differs from the number of cut edges")
    if reported != average:
        problems.append("average differs from total / size")
    if _one(fields, "average_decimal") != decimal12(reported):
        problems.append("average_decimal is not the 12-digit rounding of average")
    if best_parametric_total(inp.edges, reported, inp.objective == "max") != 0:
        problems.append("a boundary cut with a better average exists")

    if inp.items:
        problems += _check_communities(tree, cut, fields.get("community", []), inp.items)
    if inp.argv[0] == "oracle":
        engine = optimal_average_cut(tree, Objective(inp.objective))
        if engine.average != reported:
            problems.append("the brute-force average differs from optimal_average_cut")
        if int(_one(fields, "cut_count")) != count_boundary_cuts(inp.edges):
            problems.append("cut_count differs from the number of boundary cuts")
    return problems


def _check_communities(tree, cut, rows: list[str], items: int) -> list[str]:
    reported = sorted(tuple(sorted(row.split(" "))) for row in rows)
    expected = sorted(
        tuple(sorted(tree.labels[v] for v in tree.subtree_leaves(e))) for e in cut
    )
    problems = []
    if reported != expected:
        problems.append("communities are not the leaf sets under the cut edges")
    members = [label for group in reported for label in group]
    if len(members) != items or set(members) != {str(i) for i in range(items)}:
        problems.append("communities do not partition the items")
    return problems

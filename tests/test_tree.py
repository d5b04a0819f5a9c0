import math
import random
import warnings
from fractions import Fraction
from functools import reduce

import pytest

from avgcut import build_tree, from_edges, parse_edgelist
from avgcut.errors import (
    DuplicateParentError,
    MalformedWeightError,
    NegativeWeightError,
    NotATreeError,
    ZeroWeightWarning,
)

from .helpers import path_tree, random_tree, star_tree


class TestBuildTree:
    def test_two_edge_path(self):
        t = build_tree([("r", "a", "1"), ("a", "x", "2")])
        assert t.node_count == 3
        assert t.labels[t.root] == "r"
        assert t.leaves() == {t.node_id("x")}
        assert t.edge_weight(t.edge_by_child("a")) == 1
        assert t.edge_weight(t.edge_by_child("x")) == 2

    def test_figure_tree_shape(self, figure_tree):
        t = figure_tree
        assert t.node_count == 40
        assert len(t.leaves()) == 27
        assert t.labels[t.root] == "v0"
        root_weights = sorted(t.edge_weight(e) for e in t.out_edges(t.root))
        assert root_weights == [1, 2, 3]

    def test_duplicate_child_rejected(self):
        with pytest.raises(DuplicateParentError):
            build_tree([("r", "a", "1"), ("r", "a", "2")])

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            build_tree([("a", "b", "1"), ("b", "a", "1")])

    def test_cycle_beside_valid_root_rejected(self):
        with pytest.raises(NotATreeError):
            build_tree([("r", "a", "1"), ("b", "c", "1"), ("c", "b", "1")])

    def test_two_components_rejected(self):
        with pytest.raises(NotATreeError):
            build_tree([("r", "a", "1"), ("s", "b", "1")])

    def test_self_loop_rejected(self):
        with pytest.raises(NotATreeError):
            build_tree([("r", "a", "1"), ("b", "b", "1")])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            build_tree([("r", "a", "-1")])

    def test_malformed_weight_rejected(self):
        for bad in ("abc", "1/0", "1/-2", "1.2.3", ""):
            with pytest.raises(MalformedWeightError):
                build_tree([("r", "a", bad)])

    def test_decimal_parsed_exactly(self):
        t = build_tree([("r", "a", "0.1")])
        assert t.edge_weight(t.edge_by_child("a")) == Fraction(1, 10)

    def test_rational_literal(self):
        t = build_tree([("r", "a", "1/3")])
        assert t.edge_weight(t.edge_by_child("a")) == Fraction(1, 3)

    def test_zero_weight_warns_but_builds(self):
        with pytest.warns(ZeroWeightWarning):
            t = build_tree([("r", "a", "0"), ("r", "b", "1")])
        assert t.edge_weight(t.edge_by_child("a")) == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda rows: from_edges((p, c, Fraction(w)) for p, c, w in rows),
            lambda rows: parse_edgelist("".join(f"{p} {c} {w}\n" for p, c, w in rows)),
        ],
        ids=["from_edges", "parse_edgelist"],
    )
    def test_zero_weight_warning_only_for_a_zero_edge(self, build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build([("r", "a", "1"), ("r", "b", "1/2"), ("a", "x", "3")])
        assert caught == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build([("r", "a", "1"), ("r", "b", "0"), ("a", "x", "0.0")])
        assert [w.category for w in caught] == [ZeroWeightWarning]
        assert caught[0].filename == __file__  # attributed to the caller

    def test_empty_input_rejected(self):
        with pytest.raises(NotATreeError):
            build_tree([])

    def test_int_str_and_fraction_weights(self):
        t = from_edges([("r", "a", 2), ("r", "b", "1/3"), ("a", "x", Fraction(5, 2))])
        weights = [t.edge_weight(t.edge_by_child(c)) for c in ("a", "b", "x")]
        assert weights == [2, Fraction(1, 3), Fraction(5, 2)]
        assert all(type(w) is Fraction for w in t.weights)

    @pytest.mark.parametrize("text", ["1 / 2", "1_000", "x", "0x10"])
    def test_text_weights_follow_the_literal_grammar(self, text):
        with pytest.raises(MalformedWeightError):
            from_edges([("r", "a", text), ("r", "b", "1")])

    def test_negative_fraction_and_int_weights_rejected(self):
        for bad in (-1, Fraction(-1, 3), "-2"):
            with pytest.raises(NegativeWeightError):
                from_edges([("r", "a", 1), ("r", "b", bad)])


class TestQueries:
    def test_leaves_of_path(self):
        t = path_tree(1, 2)
        assert {t.labels[v] for v in t.leaves()} == {"n2"}

    def test_leaves_of_star(self):
        t = star_tree(1, 2, 3, 4)
        assert len(t.leaves()) == 4

    def test_out_edges_of_leaf_empty(self):
        t = path_tree(1, 2)
        assert t.out_edges(t.node_id("n2")) == ()

    def test_out_edges_of_mid_node(self):
        t = path_tree(1, 2)
        assert t.out_edges(t.node_id("n1")) == (t.node_id("n2"),)

    def test_internal_edges_of_figure(self, figure_tree):
        assert len(figure_tree.internal_edges()) == 12

    def test_internal_edges_of_star_empty(self):
        assert star_tree(1, 2, 3).internal_edges() == []

    def test_internal_edges_of_path(self):
        t = path_tree(1, 2, 3)  # n0 -> n1 -> n2 -> n3
        labels = {t.labels[e] for e in t.internal_edges()}
        assert labels == {"n1", "n2"}

    def test_subtree_leaves_of_leaf_edge(self):
        t = path_tree(1, 2)
        e = t.edge_by_child("n2")
        assert t.subtree_leaves(e) == {t.node_id("n2")}

    def test_subtree_leaves_of_mid_edge(self):
        t = path_tree(1, 2)
        assert t.subtree_leaves(t.edge_by_child("n1")) == {t.node_id("n2")}

    def test_subtree_leaves_of_figure_branch(self, figure_tree):
        t = figure_tree
        got = {t.labels[v] for v in t.subtree_leaves(t.edge_by_child("a1"))}
        assert got == {f"c1{j}{k}" for j in (1, 2, 3) for k in (1, 2, 3)}


class TestInvariants:
    def test_children_counts_sum(self, figure_tree):
        t = figure_tree
        assert sum(len(t.children[v]) for v in range(t.node_count)) == t.node_count - 1

    def test_every_nonroot_in_parent_children(self, figure_tree):
        t = figure_tree
        for v in range(t.node_count):
            if v == t.root:
                continue
            assert list(t.children[t.parent[v]]).count(v) == 1

    def test_leaves_are_exactly_nonparents(self, figure_tree):
        t = figure_tree
        parents = {t.parent[v] for v in range(t.node_count) if v != t.root}
        assert t.leaves() == set(range(t.node_count)) - parents

    def test_children_sorted(self, figure_tree):
        for kids in figure_tree.children:
            assert list(kids) == sorted(kids)

    def test_children_ascending_when_children_precede_parents(self):
        rng = random.Random(5)
        rows = [(f"n{rng.randrange(i)}", f"n{i}", i % 4 + 1) for i in range(1, 300)]
        rng.shuffle(rows)
        t = from_edges(rows)
        for v, kids in enumerate(t.children):
            assert list(kids) == sorted(kids)
            assert all(t.parent[c] == v for c in kids)
        assert sum(map(len, t.children)) == t.node_count - 1

    def test_scaled_weights_match_per_weight_lcm(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_tree(rng)
            scale = reduce(math.lcm, (w.denominator for w in t.weights), 1)
            ints = tuple(w.numerator * (scale // w.denominator) for w in t.weights)
            assert t.scaled_weights == (scale, ints)
            assert t.scaled_weights is t.scaled_weights  # computed once

    def test_scaled_weights_over_distinct_prime_denominators(self):
        primes = [3, 7, 11, 13, 101, 103]
        rows = [("r", f"l{p}", Fraction(p + 1, p)) for p in primes]
        t = from_edges(rows + [("r", "twice", Fraction(2, 7)), ("r", "ten", "0.1")])
        scale, ints = t.scaled_weights
        assert scale == math.prod(primes) * 10
        assert all(Fraction(i, scale) == w for i, w in zip(ints, t.weights))

    def test_label_permutation_gives_isomorphic_tree(self):
        from avgcut import format_edgelist

        rows = [
            ("r", "a", Fraction(1)),
            ("r", "b", Fraction(2)),
            ("a", "x", Fraction(3)),
            ("a", "y", Fraction(4)),
            ("b", "z", Fraction(5)),
        ]
        base = format_edgelist(from_edges(rows))
        assert format_edgelist(from_edges(rows[::-1])) == base
        assert format_edgelist(from_edges(rows[2:] + rows[:2])) == base


class TestContractEdge:
    def test_contract_reattaches_children(self):
        from .helpers import contract_edge

        t = path_tree(5, 10)
        t2 = contract_edge(t, t.edge_by_child("n1"))
        assert t2.node_count == 2
        assert t2.edge_weight(t2.edge_by_child("n2")) == 10
        assert t2.labels[t2.root] == "n0"

    def test_contract_preserves_other_weights(self, figure_tree):
        from .helpers import contract_edge

        t = figure_tree
        t2 = contract_edge(t, t.edge_by_child("a2"))
        assert t2.node_count == 39
        # a2's children now hang from the root
        for j in (1, 2, 3):
            e = t2.edge_by_child(f"b2{j}")
            assert t2.labels[t2.tail(e)] == "v0"
            assert t2.edge_weight(e) == 3

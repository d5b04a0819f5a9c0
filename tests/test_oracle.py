from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcut import (
    Objective,
    brute_force_optimum,
    check_contraction_keeps_optimum,
    check_pull_up_dichotomy,
    check_push_down_gain,
    count_cuts,
    enumerate_cuts,
    evaluate_cut,
    internal_subtree,
    is_valid_cut,
    optimal_average_cut,
    parse_edgelist,
)
from avgcut.errors import (
    InvalidCutError,
    NotApplicableError,
    PreconditionError,
    TooManyCutsError,
)

from .helpers import (
    brute_force_reference,
    edge_set_by_children,
    enumerate_reference,
    figure_max_cut_children,
    path_tree,
    quiet_tree,
    star_tree,
)

# The first cut enumerated, {a, d}, ties with the other two but is not the
# lexicographically smallest: ids are b=0, e=1, a=2, c=3, r=4, d=5.
_TIE_TEXT = "b e 1\na b 1\na c 1\nr a 1\nr d 1\n"


class TestCountCuts:
    def test_star(self):
        assert count_cuts(star_tree(1, 2, 3, 4)) == 1

    def test_three_edge_path(self):
        assert count_cuts(path_tree(1, 2, 3)) == 3

    def test_two_edge_path(self):
        assert count_cuts(path_tree(1, 2)) == 2

    def test_figure(self, figure_tree):
        # per branch: 1 + (1 + 1)^3 = 9 choices, three branches
        assert count_cuts(figure_tree) == 729

    def test_big_count_is_exact(self):
        # complete ternary tree of depth 4: ((1 + 9^3)^3 at the root
        rows = []

        def grow(label, depth):
            for i in range(3):
                child = f"{label}{i}"
                rows.append((label, child, "1"))
                if depth > 1:
                    grow(child, depth - 1)

        grow("r", 4)
        from avgcut import build_tree

        t = build_tree(rows)
        assert count_cuts(t) == 730**3  # 389,017,000
        with pytest.raises(TooManyCutsError):
            enumerate_cuts(t)  # exceeds the default limit of 10^7


class TestEnumerateCuts:
    def test_two_edge_path_yields_both_cuts(self):
        t = path_tree(5, 10)
        cuts = {cut for _subtree, cut in enumerate_cuts(t)}
        assert cuts == {
            frozenset({t.edge_by_child("n1")}),
            frozenset({t.edge_by_child("n2")}),
        }

    def test_star_yields_single_cut(self):
        t = star_tree(1, 2, 3)
        pairs = list(enumerate_cuts(t))
        assert len(pairs) == 1
        subtree, cut = pairs[0]
        assert subtree.nodes == {t.root}
        assert cut == frozenset(t.edges())

    def test_count_matches_and_all_valid(self, figure_tree):
        seen = set()
        for subtree, cut in enumerate_cuts(figure_tree):
            assert is_valid_cut(figure_tree, cut)
            assert subtree.boundary(figure_tree) == cut
            seen.add(cut)
        assert len(seen) == 729

    def test_limit_enforced_eagerly(self, figure_tree):
        with pytest.raises(TooManyCutsError):
            enumerate_cuts(figure_tree, limit=100)

    def test_every_root_leaf_path_hits_cut_once(self, figure_tree):
        t = figure_tree
        for _subtree, cut in enumerate_cuts(t):
            for leaf in t.leaves():
                hits = 0
                v = leaf
                while v != t.root:
                    hits += v in cut
                    v = t.parent[v]
                assert hits == 1


class TestIsValidCut:
    def test_root_boundary_is_valid(self, figure_tree):
        assert is_valid_cut(figure_tree, set(figure_tree.out_edges(figure_tree.root)))

    def test_nested_edges_invalid(self):
        t = path_tree(5, 10)
        assert not is_valid_cut(t, {t.edge_by_child("n1"), t.edge_by_child("n2")})

    def test_figure_output_cut_valid(self, figure_tree):
        cut = edge_set_by_children(figure_tree, figure_max_cut_children())
        assert is_valid_cut(figure_tree, cut)

    def test_empty_invalid(self, figure_tree):
        assert not is_valid_cut(figure_tree, set())

    def test_bad_ids_invalid(self, figure_tree):
        assert not is_valid_cut(figure_tree, {figure_tree.root})
        assert not is_valid_cut(figure_tree, {-1})
        assert not is_valid_cut(figure_tree, {10**6})

    def test_partial_boundary_invalid(self, figure_tree):
        cut = set(figure_tree.out_edges(figure_tree.root))
        cut.discard(figure_tree.edge_by_child("a1"))
        assert not is_valid_cut(figure_tree, cut)

    def test_internal_subtree_roundtrip(self, figure_tree):
        for subtree, cut in enumerate_cuts(figure_tree):
            assert internal_subtree(figure_tree, cut) == subtree
            break
        with pytest.raises(InvalidCutError):
            internal_subtree(figure_tree, {figure_tree.root})


class TestBruteForce:
    def test_figure_maximum(self, figure_tree):
        result = brute_force_optimum(figure_tree, Objective.MAXIMIZE)
        assert result.average == 3
        assert result.size == 13

    def test_path_minimum(self):
        t = path_tree(5, 10)
        result = brute_force_optimum(t, Objective.MINIMIZE)
        assert result.average == 5
        assert result.cut == edge_set_by_children(t, ["n1"])

    def test_star_single_choice(self):
        result = brute_force_optimum(star_tree(1, 2, 3), Objective.MAXIMIZE)
        assert result.average == 2
        assert result.size == 3

    def test_limit(self, figure_tree):
        with pytest.raises(TooManyCutsError):
            brute_force_optimum(figure_tree, Objective.MAXIMIZE, limit=10)

    def test_deterministic_tie_break(self):
        # all weights equal: every cut has average 1; smallest sorted id list wins
        t = path_tree(1, 1, 1)
        result = brute_force_optimum(t, Objective.MAXIMIZE)
        assert result.cut == edge_set_by_children(t, ["n1"])

    def test_tie_break_is_not_first_found(self):
        t = parse_edgelist(_TIE_TEXT)
        cuts = [sorted(cut) for _subtree, cut in enumerate_cuts(t)]
        assert cuts == [[2, 5], [0, 3, 5], [1, 3, 5]]
        assert {t.labels[e] for e in cuts[1]} == {"b", "c", "d"}
        assert all(evaluate_cut(t, cut)[2] == 1 for cut in cuts)
        for obj in Objective:
            result = brute_force_optimum(t, obj)
            assert result.cut == frozenset({0, 3, 5})
            assert result.average == 1

    def test_agrees_with_contraction_on_figure(self, figure_tree):
        for obj in Objective:
            assert (
                brute_force_optimum(figure_tree, obj).average
                == optimal_average_cut(figure_tree, obj).average
            )


class TestPushDownGain:
    def test_path_root_cut(self):
        t = path_tree(5, 10)
        e = t.edge_by_child("n1")
        assert check_push_down_gain(t, {e}, e)

    def test_figure_root_boundary(self, figure_tree):
        t = figure_tree
        cut = set(t.out_edges(t.root))
        assert check_push_down_gain(t, cut, t.edge_by_child("a2"))

    def test_low_contractibility_rejected(self, figure_tree):
        t = figure_tree
        cut = set(t.out_edges(t.root))  # average 2, a3's contractibility 0
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.edge_by_child("a3"))

    def test_edge_not_in_cut_rejected(self, figure_tree):
        t = figure_tree
        cut = set(t.out_edges(t.root))
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.edge_by_child("b11"))

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        cut = {t.edge_by_child("n2")}
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.edge_by_child("n2"))


class TestPullUpDichotomy:
    def test_path_deep_cut(self):
        t = path_tree(5, 10)
        assert check_pull_up_dichotomy(t, {t.edge_by_child("n2")})

    def test_figure_all_leaf_edges(self, figure_tree):
        t = figure_tree
        cut = {e for e in t.edges() if t.is_leaf(e)}
        assert len(cut) == 27
        assert check_pull_up_dichotomy(t, cut)

    def test_root_boundary_rejected(self, figure_tree):
        t = figure_tree
        with pytest.raises(PreconditionError):
            check_pull_up_dichotomy(t, set(t.out_edges(t.root)))

    def test_invalid_cut_rejected(self, figure_tree):
        with pytest.raises(PreconditionError):
            check_pull_up_dichotomy(figure_tree, {figure_tree.edge_by_child("b11")})


class TestContractionKeepsOptimum:
    def test_figure(self, figure_tree):
        assert check_contraction_keeps_optimum(figure_tree)

    def test_path(self):
        assert check_contraction_keeps_optimum(path_tree(5, 10))

    def test_star_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_contraction_keeps_optimum(star_tree(1, 2, 3))

    def test_no_contractible_edge_not_applicable(self):
        # root average 10; the single internal edge has contractibility -inf
        t = path_tree(10, 5)
        with pytest.raises(NotApplicableError):
            check_contraction_keeps_optimum(t)


class TestOracleAgreementSmall:
    def test_small_handmade_trees(self):
        from .helpers import quiet_tree

        trees = [
            path_tree(5, 10),
            path_tree(10, 5),
            path_tree(1, 1, 1, 1),
            star_tree(1, 2, 3),
            quiet_tree(
                [
                    ("r", "a", Fraction(5)),
                    ("r", "b", Fraction(1)),
                    ("a", "x", Fraction(10)),
                    ("a", "y", Fraction(1, 3)),
                    ("b", "z", Fraction(7, 2)),
                ]
            ),
        ]
        for t in trees:
            for obj in Objective:
                assert (
                    optimal_average_cut(t, obj).average
                    == brute_force_optimum(t, obj).average
                )


@st.composite
def tie_heavy_trees(draw):
    """Random trees of 2-16 nodes whose weights p/q have p in 0..3 and q in
    {1, 2, 3}, so many cuts share an average."""
    n = draw(st.integers(min_value=2, max_value=16))
    rows = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        weight = Fraction(
            draw(st.integers(min_value=0, max_value=3)), draw(st.sampled_from((1, 2, 3)))
        )
        rows.append((f"n{parent}", f"n{i}", weight))
    return quiet_tree(rows)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_trees(), st.sampled_from(list(Objective)))
    def test_brute_force_optimum(self, t, objective):
        assert brute_force_optimum(t, objective) == brute_force_reference(t, objective)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_trees())
    def test_enumerate_cuts_pairs_and_order(self, t):
        assert list(enumerate_cuts(t)) == enumerate_reference(t)

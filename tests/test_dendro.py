import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcut
from avgcut import (
    LinkageTable,
    Merge,
    Objective,
    brute_force_optimum,
    cluster,
    communities_from_cut,
    enumerate_cuts,
    from_edges,
    linkage_to_tree,
    optimal_average_cut,
    parse_edgelist,
    parse_linkage_csv,
)
from avgcut.dendro import Partition, _label_key, _label_order
from avgcut.errors import (
    InvalidCutError,
    LinkageError,
    LinkageIndexError,
    MalformedWeightError,
    NegativeGapError,
    ParseError,
    ZeroWeightWarning,
)

from .helpers import edge_set_by_children, figure_max_cut_children


def make_table(rows, n_items=None):
    merges = tuple(Merge(l, r, Fraction(h), s) for l, r, h, s in rows)
    return LinkageTable(n_items=n_items or len(merges) + 1, merges=merges)


@pytest.fixture
def three_item_table():
    # items 0,1 join at height 1 (cluster 3); cluster 3 and item 2 at height 5
    return make_table([(0, 1, 1, 2), (3, 2, 5, 3)])


@pytest.fixture
def two_scale_table():
    # three tight triples at height 1, then triples joined at height 10
    rows = [
        (0, 1, 1, 2), (9, 2, 1, 3),
        (3, 4, 1, 2), (11, 5, 1, 3),
        (6, 7, 1, 2), (13, 8, 1, 3),
        (10, 12, 10, 6), (15, 14, 10, 9),
    ]
    return make_table(rows)


class TestLinkageTable:
    def test_valid_table(self, three_item_table):
        assert three_item_table.n_items == 3
        assert three_item_table.cluster_size(4) == 3
        assert three_item_table.cluster_height(3) == 1
        assert three_item_table.cluster_label(0) == "0"
        assert three_item_table.cluster_label(4) == "c4"

    def test_item_height_is_a_shared_zero(self, three_item_table):
        assert three_item_table.cluster_height(0) == 0
        assert three_item_table.cluster_height(0) is three_item_table.cluster_height(2)

    def test_wrong_merge_count(self):
        with pytest.raises(LinkageError):
            make_table([(0, 1, 1, 2)], n_items=3)

    def test_forward_reference_rejected(self):
        with pytest.raises(LinkageIndexError):
            make_table([(0, 3, 1, 2), (1, 2, 2, 2)])

    def test_reused_child_rejected(self):
        with pytest.raises(LinkageIndexError):
            make_table([(0, 1, 1, 2), (1, 2, 2, 2)])

    def test_self_merge_rejected(self):
        with pytest.raises(LinkageIndexError):
            make_table([(0, 0, 1, 2), (3, 1, 2, 3)])

    def test_text_heights_follow_the_literal_grammar(self):
        table = LinkageTable(n_items=2, merges=[Merge(0, 1, " 1.5e-1 ", 2)])
        assert (table.hnum, table.hden) == ((3,), (20,))
        for text in ("1 / 2", "1_000", "x", "0x10"):
            with pytest.raises(MalformedWeightError):
                LinkageTable(n_items=2, merges=[Merge(0, 1, text, 2)])

    def test_size_mismatch_rejected(self):
        with pytest.raises(LinkageError):
            make_table([(0, 1, 1, 3), (3, 2, 2, 4)])


class TestLinkageToTree:
    def test_single_merge_gap(self):
        t = linkage_to_tree(make_table([(0, 1, 4, 2)]), "gap")
        assert t.node_count == 3
        assert t.edge_weight(t.edge_by_child("0")) == 4
        assert t.edge_weight(t.edge_by_child("1")) == 4
        assert t.labels[t.root] == "c2"

    def test_three_item_gap_weights(self, three_item_table):
        t = linkage_to_tree(three_item_table, "gap")
        assert t.edge_weight(t.edge_by_child("0")) == 1
        assert t.edge_weight(t.edge_by_child("1")) == 1
        assert t.edge_weight(t.edge_by_child("c3")) == 4
        assert t.edge_weight(t.edge_by_child("2")) == 5

    def test_three_item_height_weights(self, three_item_table):
        t = linkage_to_tree(three_item_table, "height")
        assert t.edge_weight(t.edge_by_child("0")) == 1
        assert t.edge_weight(t.edge_by_child("c3")) == 5
        assert t.edge_weight(t.edge_by_child("2")) == 5

    def test_binary_out_degree(self, two_scale_table):
        t = linkage_to_tree(two_scale_table)
        for v in range(t.node_count):
            if t.children[v]:
                assert len(t.children[v]) == 2

    def test_decreasing_heights_rejected(self):
        table = make_table([(0, 1, 5, 2), (3, 2, 1, 3)])
        with pytest.raises(NegativeGapError):
            linkage_to_tree(table, "gap")
        with pytest.raises(NegativeGapError):
            linkage_to_tree(table, "height")

    def test_unknown_scheme_rejected(self, three_item_table):
        with pytest.raises(ValueError):
            linkage_to_tree(three_item_table, "area")


@st.composite
def linkage_tables(draw):
    """A valid table over 2..12 items: random merge order, each merge at or
    above both clusters it absorbs (so tied heights and zero gaps occur, and
    heights need not be monotone along the table), int or Fraction heights."""
    n = draw(st.integers(min_value=2, max_value=12))
    active = list(range(n))
    height_of = [Fraction(0)] * n
    merges = []
    size = [1] * n
    for k in range(n - 1):
        pair = []
        for _ in range(2):
            j = draw(st.integers(min_value=0, max_value=len(active) - 1))
            active[j], active[-1] = active[-1], active[j]
            pair.append(active.pop())
        left, right = pair
        rise = draw(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=3),
                st.fractions(min_value=0, max_value=3, max_denominator=6),
            )
        )
        height = max(height_of[left], height_of[right]) + rise
        if height.denominator == 1 and draw(st.booleans()):
            height = int(height)
        merges.append(Merge(left, right, height, size[left] + size[right]))
        height_of.append(Fraction(height))
        size.append(size[left] + size[right])
        active.append(n + k)
    return LinkageTable(n_items=n, merges=tuple(merges))


def reference_tree(table, scheme):
    """The tree from_edges builds from (c{parent}, label, weight) triples."""
    n = table.n_items
    height_of = [Fraction(0)] * n + [Fraction(m.height) for m in table.merges]
    triples = []
    for k, merge in enumerate(table.merges):
        for side in (merge.left, merge.right):
            label = str(side) if side < n else f"c{side}"
            parent_height = height_of[n + k]
            weight = parent_height - height_of[side] if scheme == "gap" else parent_height
            triples.append((f"c{n + k}", label, weight))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroWeightWarning)
        return from_edges(triples)


class TestDirectBuild:
    """linkage_to_tree builds the tree itself; from_edges is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(linkage_tables(), st.sampled_from(["gap", "height"]))
    def test_matches_from_edges(self, table, scheme):
        t = linkage_to_tree(table, scheme)
        ref = reference_tree(table, scheme)
        assert t.node_count == ref.node_count
        assert t.root == ref.root
        assert t.parent == ref.parent
        assert t.children == ref.children
        assert t.weights == ref.weights
        assert all(type(w) is Fraction for w in t.weights)
        assert t.labels == ref.labels
        assert t.label_index == ref.label_index

    @settings(max_examples=200, deadline=None)
    @given(linkage_tables(), st.sampled_from(["gap", "height"]))
    def test_weight_columns_are_reduced_and_match_from_edges(self, table, scheme):
        t = linkage_to_tree(table, scheme)
        ref = reference_tree(table, scheme)
        assert (t.wnum, t.wden) == (ref.wnum, ref.wden)
        assert all(d >= 1 and math.gcd(n, d) == 1 for n, d in zip(t.wnum, t.wden))
        assert (t.wnum[t.root], t.wden[t.root]) == (0, 1)
        assert t == ref

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 1, 5, 2), (3, 2, 1, 3)], "merge 1 at height 1 is below cluster 3 at height 5"),
            ([(0, 1, -1, 2)], "merge 0 at height -1 is below cluster 0 at height 0"),
            (
                [(0, 1, Fraction(1, 2), 2), (2, 3, Fraction(1, 3), 3)],
                "merge 1 at height 1/3 is below cluster 3 at height 1/2",
            ),
        ],
    )
    def test_negative_gap_message(self, rows, message):
        for scheme in ("gap", "height"):
            with pytest.raises(NegativeGapError) as exc:
                linkage_to_tree(make_table(rows), scheme)
            assert str(exc.value) == message


def height_text(value: Fraction, form: str) -> str:
    """A non-negative height as ``p/q`` text, or in ``decimal`` or
    ``exponent`` form when its denominator divides a power of ten."""
    for k in range(7):
        if 10**k % value.denominator == 0:
            break
    else:
        form = "p/q"
    if form == "p/q":
        return f"{value.numerator}/{value.denominator}"
    scaled = int(value * 10**k)
    if form == "exponent":
        return f"{scaled}e-{k}"
    return f"{scaled // 10**k}.{scaled % 10**k:0{k}d}" if k else f"{scaled}.0"


@st.composite
def linkage_csv_texts(draw):
    """A ``linkage_tables()`` draw and its CSV text, each height in one of
    three literal forms, with blank and empty-cell rows in between."""
    table = draw(linkage_tables())
    lines = ["left,right,height,size"]
    for merge in table.merges:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " , ,\t, ", ",,,"])))
        form = draw(st.sampled_from(["p/q", "decimal", "exponent"]))
        lines.append(f"{merge.left},{merge.right},{height_text(merge.height, form)},{merge.size}")
    return table, "\n".join(lines) + "\n"


class TestLinkageCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(linkage_csv_texts())
    def test_parsed_text_is_the_drawn_table(self, drawn):
        table, text = drawn
        parsed = parse_linkage_csv(text)
        assert parsed == table
        heights = [m.height for m in parsed.merges]
        assert all(type(h) is Fraction for h in heights)
        assert heights == [m.height for m in table.merges]
        for scheme in ("gap", "height"):
            assert linkage_to_tree(parsed, scheme) == linkage_to_tree(table, scheme)


class TestCommunities:
    def test_root_boundary_three_items(self, three_item_table):
        t = linkage_to_tree(three_item_table, "gap")
        part = communities_from_cut(t, set(t.out_edges(t.root)))
        assert part.as_sets() == [{"0", "1"}, {"2"}]

    def test_all_leaf_edges_gives_singletons(self, three_item_table):
        t = linkage_to_tree(three_item_table, "gap")
        cut = {e for e in t.edges() if t.is_leaf(e)}
        part = communities_from_cut(t, cut)
        assert part.as_sets() == [{"0"}, {"1"}, {"2"}]

    def test_figure_output_cut_communities(self, figure_tree):
        cut = edge_set_by_children(figure_tree, figure_max_cut_children())
        part = communities_from_cut(figure_tree, cut)
        sizes = sorted(len(c) for c in part)
        assert len(part) == 13
        assert sizes == [1] * 9 + [3, 3, 3] + [9]

    def test_invalid_cut_rejected(self, three_item_table):
        t = linkage_to_tree(three_item_table, "gap")
        with pytest.raises(InvalidCutError):
            communities_from_cut(t, {t.edge_by_child("0")})

    def test_numeric_label_ordering(self):
        # 11 items in a caterpillar: communities must sort 2 before 10
        rows = [(0, 1, 1, 2)] + [(10 + k, k + 1, 1, k + 2) for k in range(1, 10)]
        table = make_table(rows)
        t = linkage_to_tree(table, "gap")
        cut = {e for e in t.edges() if t.is_leaf(e)}
        part = communities_from_cut(t, cut)
        firsts = [min(int(m) for m in c) for c in part]
        assert firsts == sorted(firsts)

    def test_digit_labels_that_int_rejects_sort_lexically(self):
        # "²".isdigit() is true, but int("²") raises: such labels sort as
        # text, after every numeric label.
        t = parse_edgelist("r a 1\nr b 1\na \u00b2 1\na x 1\nb 10 1\nb 9 1\n")
        part = communities_from_cut(t, {t.node_id("a"), t.node_id("b")})
        assert part.communities == (frozenset({"9", "10"}), frozenset({"\u00b2", "x"}))
        assert sorted(["x", "\u00b2", "10", "9"], key=_label_key) == ["9", "10", "x", "\u00b2"]

    def test_labels_past_the_int_digit_limit_sort_numerically(self):
        # int() refuses more than sys.get_int_max_str_digits() digits (4300
        # by default); such a label is still a number and sorts after "2".
        long_label = "1" * 5000
        t = parse_edgelist(f"r x 1\nx {long_label} 1\nx 2 1\n")
        part = communities_from_cut(t, {t.node_id("x")})
        assert part.ordered()[0] == ("2", long_label)
        assert sorted([long_label, "\u0663", "x"], key=_label_key) == ["\u0663", long_label, "x"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(
                st.sampled_from(["0", "1", "01", "2", "10", "007", "\u0663", "\u00b2", "x", "a1"])
                | st.text("0123456789", min_size=1, max_size=4),
                min_size=1,
            ),
            max_size=5,
        )
    )
    def test_label_order_agrees_with_label_key(self, groups):
        # The int shortcut for all-decimal labels, ties such as "1" and "01"
        # included, must order members and pick minima as _label_key does.
        part = Partition(tuple(groups))
        assert part.ordered() == tuple(tuple(sorted(g, key=_label_key)) for g in groups)
        for g in groups:
            assert _label_key(min(g, key=_label_order(g))) == min(map(_label_key, g))

    def test_member_order_of_int_ties_ignores_the_hash_seed(self):
        # "1", "01", "001" and "0001" are equal as ints. Their order must come
        # from their text, not from set iteration, which PYTHONHASHSEED moves.
        code = (
            "from avgcut import communities_from_cut, parse_edgelist\n"
            "t = parse_edgelist('r x 1\\nx 1 1\\nx 01 1\\nx 001 1\\nx 0001 1\\n')\n"
            "print(communities_from_cut(t, {t.node_id('x')}).ordered()[0])\n"
        )
        src = str(Path(avgcut.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            ).stdout
            assert out == "('0001', '001', '01', '1')\n"


class TestCluster:
    def test_single_merge(self):
        part, result = cluster(make_table([(0, 1, 4, 2)]))
        assert part.as_sets() == [{"0"}, {"1"}]
        assert result.average == 4

    def test_three_item_maximize_gap(self, three_item_table):
        part, result = cluster(three_item_table, Objective.MAXIMIZE, "gap")
        assert part.as_sets() == [{"0", "1"}, {"2"}]
        assert result.average == Fraction(9, 2)

    def test_two_scale_recovers_triples(self, two_scale_table):
        part, result = cluster(two_scale_table, Objective.MAXIMIZE, "gap")
        assert part.as_sets() == [
            {"0", "1", "2"},
            {"3", "4", "5"},
            {"6", "7", "8"},
        ]
        assert result.average == 9
        # the oracle agrees this is the best average over every cut
        t = linkage_to_tree(two_scale_table, "gap")
        assert brute_force_optimum(t, Objective.MAXIMIZE).average == result.average

    def test_partition_covers_items(self, two_scale_table):
        part, result = cluster(two_scale_table)
        assert len(part) == result.size
        assert sum(len(c) for c in part) == two_scale_table.n_items


class TestRefinement:
    def test_deeper_cuts_refine_shallower(self, three_item_table, two_scale_table):
        for table in (three_item_table, two_scale_table):
            t = linkage_to_tree(table, "gap")
            entries = [
                (sub.nodes, communities_from_cut(t, cut))
                for sub, cut in enumerate_cuts(t)
            ]
            for nodes_a, part_a in entries:
                for nodes_b, part_b in entries:
                    if nodes_a < nodes_b:
                        # b is deeper: each of its communities nests in one of a's
                        for community in part_b:
                            assert any(
                                community <= other for other in part_a
                            )

    def test_max_average_at_least_root_boundary(self, two_scale_table):
        from avgcut import evaluate_cut

        t = linkage_to_tree(two_scale_table, "gap")
        _, _, baseline = evaluate_cut(t, set(t.out_edges(t.root)))
        assert optimal_average_cut(t).average >= baseline


class TestLinkageCsv:
    CSV = "left,right,height,size\n0,1,1,2\n3,2,5,3\n"

    def test_round_trip(self, three_item_table):
        table = parse_linkage_csv(self.CSV)
        assert table == three_item_table

    def test_exact_heights(self):
        table = parse_linkage_csv("left,right,height,size\n0,1,0.1,2\n")
        assert table.merges[0].height == Fraction(1, 10)

    def test_height_literal_forms(self):
        table = parse_linkage_csv("left,right,height,size\n0,1,3/4,2\n3,2,1.5e1,3\n")
        assert [m.height for m in table.merges] == [Fraction(3, 4), 15]

    @pytest.mark.parametrize("height", ["abc", "1/0", "1e-100001", "0x10"])
    def test_malformed_height_line_numbered(self, height):
        with pytest.raises(ParseError) as exc:
            parse_linkage_csv(f"left,right,height,size\n0,1,1,2\n3,2,{height},3\n")
        assert exc.value.line == 3

    def test_negative_height_rejected_late(self):
        table = parse_linkage_csv("left,right,height,size\n0,1,-1,2\n")
        assert table.merges[0].height == -1
        with pytest.raises(NegativeGapError):
            linkage_to_tree(table)

    @pytest.mark.parametrize(
        "height, value",
        [
            ("0.1", Fraction(1, 10)),
            ("3/4", Fraction(3, 4)),
            ("1.5e1", Fraction(15)),
            # 5,000 digits each, past the default sys.get_int_max_str_digits()
            ("1" + "0" * 4998 + ".5", 10**4998 + Fraction(1, 2)),
            ("1" + "0" * 4999 + "/3", Fraction(10**4999, 3)),
        ],
        ids=["decimal", "p/q", "exponent", "long-decimal", "long-p/q"],
    )
    def test_cluster_leaves_the_merge_view_unbuilt(self, height, value):
        table = parse_linkage_csv(f"left,right,height,size\n0,1,{height},2\n")
        _, result = cluster(table)
        assert "merges" not in table.__dict__
        assert Fraction(table.hnum[0], table.hden[0]) == value
        assert result.average == value
        assert table.merges[0].height == value
        assert "merges" in table.__dict__

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_linkage_csv("a,b,c,d\n0,1,1,2\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_linkage_csv("left,right,height,size\n0,1,1\n")
        assert exc.value.line == 2

    def test_non_integer_index(self):
        with pytest.raises(ParseError):
            parse_linkage_csv("left,right,height,size\nzero,1,1,2\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_linkage_csv("")

    @pytest.mark.parametrize(
        "row",
        [
            " 0 , 1 , 1 , 2 ",
            "\t0\t,\t1\t,\t1\t,\t2\t",
            "\x1c0\x1f,\x1d1\x1e,\x1c1\x1c,2\x1c",
            "\xa00\x85,\u20001,1,2",
            "0_0,1,1,2",
        ],
    )
    def test_padded_cells_and_underscored_indices(self, row):
        table = parse_linkage_csv(f"left,right,height,size\n{row}\n")
        assert table == make_table([(0, 1, 1, 2)])

    def test_blank_and_whitespace_rows_skipped_but_counted(self):
        text = "\nleft,right,height,size\n\n , ,\t, \n\x1c\n,,,\n0,1,1,2\n\n3,2,abc,3\n"
        with pytest.raises(ParseError) as exc:
            parse_linkage_csv(text)
        assert exc.value.line == 9
        assert str(exc.value) == "line 9: not a decimal height: 'abc'"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,\x1c,2", "not a decimal height: ''"),
            ("0,1, \t,2", "not a decimal height: ''"),
            ("0,1, 1 / 2 ,2", "not a decimal height: '1 / 2'"),
            ("0,1,\x1c0x10,2", "not a decimal height: '0x10'"),
            ("0,\x1cx,1,2", "left, right, and size must be integers"),
            ("0,1,1,2.0", "left, right, and size must be integers"),
            ("0,1,1,", "left, right, and size must be integers"),
            ("0,1,1", "expected 4 fields, got 3"),
            ("0,1,1,2,", "expected 4 fields, got 5"),
        ],
    )
    def test_malformed_row_messages(self, row, message):
        with pytest.raises(ParseError) as exc:
            parse_linkage_csv(f"left,right,height,size\n \n{row}\n")
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: {message}"

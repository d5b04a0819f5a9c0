import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcut import (
    ContractionState,
    Objective,
    format_edgelist,
    from_edges,
    parse_edgelist,
    parse_newick,
    optimal_average_cut,
    parse_weight,
)
from avgcut.errors import (
    AvgCutError,
    DuplicateParentError,
    MalformedWeightError,
    MissingBranchLengthError,
    NegativeWeightError,
    NotATreeError,
    ParseError,
    UnbalancedParensError,
    ZeroWeightWarning,
)
from avgcut.rational import MAX_EXPONENT, parse_weight_pair

from .helpers import newick_reference


class TestParseEdgelist:
    def test_simple_path(self):
        t = parse_edgelist("r a 1\na x 2\n")
        assert t.node_count == 3
        assert t.labels[t.root] == "r"

    def test_tabs_spaces_comments_blanks(self):
        text = "# header comment\n\nr\ta  1\n  # indented comment\na\tx\t0.5\n\n"
        t = parse_edgelist(text)
        assert t.weights[t.node_id("x")] == Fraction(1, 2)

    def test_figure_file(self, figure_text):
        t = parse_edgelist(figure_text)
        assert sum(not kids for kids in t.children) == 27
        assert ContractionState(t).root_average == 2

    def test_negative_weight_line_numbered(self):
        with pytest.raises(NegativeWeightError) as exc:
            parse_edgelist("r a -1\n")
        assert "line 1" in str(exc.value)

    def test_malformed_weight_line_numbered(self):
        with pytest.raises(MalformedWeightError) as exc:
            parse_edgelist("r a 1\na x 2..5\n")
        assert "line 2" in str(exc.value)

    def test_field_count_line_numbered(self):
        with pytest.raises(ParseError) as exc:
            parse_edgelist("r a\n")
        assert exc.value.line == 1

    def test_duplicate_child_line_numbered(self):
        with pytest.raises(DuplicateParentError) as exc:
            parse_edgelist("r a 1\nr a 2\n")
        assert "line 2" in str(exc.value)

    def test_comment_only_rejected(self):
        with pytest.raises(ParseError):
            parse_edgelist("# nothing here\n")

    # (input, error kind, full message, ParseError.line). Per-line errors
    # come in line order; structural ones only after the whole text is read.
    HOSTILE = [
        (
            "r a 1\na x\n",
            ParseError,
            "line 2: expected 'parent child weight', got 2 fields",
            2,
        ),
        (
            "r a 1\n# a comment of three\na x 2 3\n",
            ParseError,
            "line 3: expected 'parent child weight', got 4 fields",
            3,
        ),
        (
            "r a 1\na x 2..5\n",
            MalformedWeightError,
            "line 2: not a decimal or p/q rational literal: '2..5'",
            None,
        ),
        ("r a 1\na x -3/4\n", NegativeWeightError, "line 2: negative weight: '-3/4'", None),
        (
            "r a 1\nr b 2\nb a 3\n",
            DuplicateParentError,
            "line 3: child 'a' already has a parent (line 1)",
            None,
        ),
        ("r a 1\nb b 2\n", NotATreeError, "self-loop at 'b'", None),
        ("r a 1\nc c 1\nb b 2\n", NotATreeError, "self-loop at 'c'", None),
        # A duplicate child on a later line beats an earlier self-loop ...
        (
            "r a 1\nb b 2\nr b 3\n",
            DuplicateParentError,
            "line 3: child 'b' already has a parent (line 2)",
            None,
        ),
        # ... and so does a malformed weight.
        (
            "r a 1\nb b 2\na x 1e\n",
            MalformedWeightError,
            "line 3: not a decimal or p/q rational literal: '1e'",
            None,
        ),
        ("r a 1\nb b 2\ns t 3\n", NotATreeError, "self-loop at 'b'", None),
        (
            "r a 1\ns b 2\n",
            NotATreeError,
            "not connected: multiple parentless labels ('r', 's')",
            None,
        ),
        (
            "r a 1\nx y 1\ny x 2\n",
            NotATreeError,
            "parent relation contains a cycle or unreachable nodes",
            None,
        ),
        ("a b 1\nb a 2\n", NotATreeError, "no root: every label has a parent (cycle)", None),
        ("# nothing\n\n  # still nothing\n", ParseError, "no edges found", None),
        ("", ParseError, "no edges found", None),
        ("# a b c\n#x y z\n", ParseError, "no edges found", None),
    ]

    @pytest.mark.parametrize("text, kind, message, line", HOSTILE)
    def test_hostile_input_error_table(self, text, kind, message, line):
        with pytest.raises(AvgCutError) as exc:
            parse_edgelist(text)
        assert type(exc.value) is kind
        assert str(exc.value) == message
        assert getattr(exc.value, "line", None) == line

    def test_three_field_comment_lines_are_skipped(self):
        t = parse_edgelist("# c d 5\nr a 1\n  #x y z\n")
        assert t.node_count == 2

    def test_weights_are_reduced_int_columns(self):
        t = parse_edgelist("r a 6/4\nr b 2.50\nr c 7\n")
        assert t.wnum[t.root] == 0 and t.wden[t.root] == 1
        pairs = {t.labels[e]: (t.wnum[e], t.wden[e]) for e in t.edges()}
        assert pairs == {"a": (3, 2), "b": (5, 2), "c": (7, 1)}
        assert t.weights == (0, Fraction(3, 2), Fraction(5, 2), 7)

    def test_5000_digit_weights(self):
        big = "9" * 5000
        t = parse_edgelist(f"r a {big}\nr b {big}/{big}7\n")
        assert t.wnum[t.node_id("a")] == 10**5000 - 1
        assert t.weights[t.node_id("b")] == Fraction(10**5000 - 1, 10**5001 - 3)

    def test_weight_past_the_digit_bound_is_a_short_line_numbered_error(self):
        with pytest.raises(MalformedWeightError) as exc:
            parse_edgelist("r a 1\nr b " + "1" * (MAX_EXPONENT + 1) + "\n")
        message = str(exc.value)
        assert message.startswith(f"line 2: more than {MAX_EXPONENT} digits")
        assert len(message) < 150


class TestFormatEdgelist:
    def test_round_trip_is_isomorphic(self, figure_text, figure_tree):
        out = format_edgelist(figure_tree)
        again = parse_edgelist(out)
        assert format_edgelist(again) == out
        assert again.node_count == figure_tree.node_count
        # same labelled edges with the same weights
        original = {
            (figure_tree.labels[figure_tree.tail(e)], figure_tree.labels[e]):
            figure_tree.weights[e]
            for e in figure_tree.edges()
        }
        reparsed = {
            (again.labels[again.tail(e)], again.labels[e]): again.weights[e]
            for e in again.edges()
        }
        assert original == reparsed

    @pytest.mark.parametrize("weight", ["1e-5000", "9" * 5000, "1/" + "3" * 5000])
    def test_round_trip_past_the_int_digit_limit(self, weight):
        t = parse_edgelist(f"r a {weight}\nr b 1\n")
        again = parse_edgelist(format_edgelist(t))
        assert again == t
        assert format_edgelist(again) == format_edgelist(t)

    def test_exact_weights_survive(self):
        t = parse_edgelist("r a 0.1\na x 1/3\n")
        again = parse_edgelist(format_edgelist(t))
        assert again.weights[again.node_id("a")] == Fraction(1, 10)
        assert again.weights[again.node_id("x")] == Fraction(1, 3)


class TestParseNewick:
    def test_star(self):
        t = parse_newick("(A:1,B:2,C:3)R;")
        assert t.labels[t.root] == "R"
        assert sum(not kids for kids in t.children) == 3
        assert ContractionState(t).root_average == 2

    def test_nested(self):
        t = parse_newick("((X:3,Y:3,Z:3)a:1)R;")
        assert t.node_count == 5
        assert t.weights[t.node_id("a")] == 1
        assert len(t.children[t.root]) == 1

    def test_missing_branch_length(self):
        with pytest.raises(MissingBranchLengthError):
            parse_newick("(A:1,B)R;")

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParensError):
            parse_newick("((A:1,B:2)R;")

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParensError):
            parse_newick("(A:1,B:2))R;")

    def test_negative_length_rejected(self):
        with pytest.raises(NegativeWeightError):
            parse_newick("(A:-1,B:2)R;")

    def test_auto_named_internals(self):
        t = parse_newick("((A:1,B:2):3,C:4)R;")
        inner = t.tail(t.node_id("A"))
        assert t.labels[inner] == "_1"

    def test_auto_name_skips_taken(self):
        t = parse_newick("((A:1,_1:2):3)R;")
        inner = t.tail(t.node_id("A"))
        assert t.labels[inner] == "_2"

    def test_unnamed_root(self):
        t = parse_newick("(A:1,B:2);")
        assert t.labels[t.root].startswith("_")

    def test_root_branch_length_ignored(self):
        t = parse_newick("(A:1,B:2)R:9;")
        assert t.node_count == 3

    def test_whitespace_tolerated(self):
        t = parse_newick(" ( A : 1 , B : 2 ) R ;\n")
        assert t.labels[t.root] == "R"
        assert t.weights[t.node_id("A")] == 1

    def test_empty_parens(self):
        with pytest.raises(ParseError):
            parse_newick("()R;")

    def test_adjacent_nodes_without_comma(self):
        with pytest.raises(ParseError):
            parse_newick("(A:1 B:2)R;")

    def test_multiple_top_level_nodes(self):
        with pytest.raises(ParseError):
            parse_newick("A:1,B:2;")

    def test_no_edges(self):
        with pytest.raises(ParseError):
            parse_newick("A;")

    def test_empty_string(self):
        with pytest.raises(ParseError):
            parse_newick("  ;")

    # (input, error kind, full message). Offsets are 0-based into the text
    # after stripping whitespace and one trailing ';'.
    HOSTILE = [
        ("(A:1,B:2))R;", UnbalancedParensError, "unmatched ')' at offset 9"),
        ("((A:1,B:2)R;", UnbalancedParensError, "unclosed '('"),
        ("()R;", ParseError, "empty parentheses at offset 1"),
        (",A:1;", ParseError, "expected a node at offset 0"),
        (";(A:1)R;", ParseError, "expected a node at offset 0"),
        ("(A:1,,B:2)R;", ParseError, "expected a node at offset 5"),
        ("(,A:1)R;", ParseError, "expected a node at offset 1"),
        ("(A:1,)R;", ParseError, "expected a node at offset 5"),
        ("(A:1)R,;", ParseError, "expected a node at offset 7"),
        ("((A:1,)x:2,B:1)R;", ParseError, "expected a node at offset 6"),
        ("(A:1;B:2)R;", ParseError, "expected ',' or ')' at offset 4"),
        ("(A:1 B:2)R;", ParseError, "expected ',' or ')' at offset 5"),
        ("(A:1)(B:1)R;", ParseError, "expected ',' or ')' at offset 5"),
        ("(A:1)R;;", ParseError, "expected ',' or ')' at offset 6"),
        ("(A:1,B:2)R:;", ParseError, "missing branch length after ':' at offset 11"),
        ("(A:1,B: ,C:1)R;", ParseError, "missing branch length after ':' at offset 8"),
        ("((A:1,B:2),C:3)R;", MissingBranchLengthError, "node '_1' has no branch length"),
        ("(A:1e,B:2)R;", MalformedWeightError, "not a decimal or p/q rational literal: '1e'"),
        ("(A:1/0,B:2)R;", MalformedWeightError, "not a decimal or p/q rational literal: '1/0'"),
        ("(A:-1,B:2)R;", NegativeWeightError, "negative weight: '-1'"),
        (
            "(A:" + "1" * (MAX_EXPONENT + 1) + ",B:2)R;",
            MalformedWeightError,
            f"more than {MAX_EXPONENT} digits in literal: {'1' * 64!r}..."
            f" ({MAX_EXPONENT + 1} characters)",
        ),
        ("(A:1)R:-1;", NegativeWeightError, "negative weight: '-1'"),
        ("(A:1,A:2)R;", DuplicateParentError, "child label 'A' has two in-edges"),
        ("(R:1)R;", NotATreeError, "self-loop at 'R'"),
        ("((R:1)a:1)R;", NotATreeError, "no root: every label has a parent (cycle)"),
        ("A:1,B:2;", ParseError, "input is not a single rooted tree"),
        ("(A:1),(B:1);", ParseError, "input is not a single rooted tree"),
        ("A;", ParseError, "tree has no edges"),
        ("", ParseError, "empty input"),
        (" ; ", ParseError, "empty input"),
        # Weight errors come in text order, during the scan ...
        ("(A:1e,B:2 C:1)R;", MalformedWeightError, "not a decimal or p/q rational literal: '1e'"),
        ("(A:x,B:-1))R;", MalformedWeightError, "not a decimal or p/q rational literal: 'x'"),
        # ... and a missing branch length anywhere beats a label error.
        ("(A:1,A:2,B)R;", MissingBranchLengthError, "node 'B' has no branch length"),
        ("(A:1,A:2,(B)x:1)R;", MissingBranchLengthError, "node 'B' has no branch length"),
        ("(R:1,(B)x:1)R;", MissingBranchLengthError, "node 'B' has no branch length"),
        ("((R:1,B)a:1)R;", MissingBranchLengthError, "node 'B' has no branch length"),
    ]

    @pytest.mark.parametrize("text, kind, message", HOSTILE)
    def test_hostile_input_error_table(self, text, kind, message):
        with pytest.raises(AvgCutError) as exc:
            parse_newick(text)
        assert type(exc.value) is kind
        assert str(exc.value) == message

    def test_matches_edgelist_equivalent(self):
        newick = parse_newick("((X:3,Y:1)a:2,(Z:5)b:4)R;")
        edgelist = parse_edgelist("R a 2\nR b 4\na X 3\na Y 1\nb Z 5\n")
        assert format_edgelist(newick) == format_edgelist(edgelist)


_WEIGHT_TEXT = st.one_of(
    st.integers(0, 10**30).map(str),
    st.builds(
        lambda whole, frac: f"{whole}.{frac}",
        st.integers(0, 10**6),
        st.text(alphabet="0123456789", min_size=1, max_size=8),
    ),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 10**9), st.integers(1, 10**9)),
)


@st.composite
def edge_lists(draw):
    """Random trees as shuffled (parent, child, weight text) rows."""
    n = draw(st.integers(2, 30))
    names = draw(st.lists(st.text(alphabet="abxyz01", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    rows = [
        (names[draw(st.integers(0, v - 1))], names[v], draw(_WEIGHT_TEXT))
        for v in range(1, n)
    ]
    return draw(st.permutations(rows))


class TestOnePassParserMatchesFromEdges:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_field_by_field(self, rows):
        text = "".join(f"{p} {c}\t{w}\n" for p, c, w in rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroWeightWarning)
            parsed = parse_edgelist(text)
            built = from_edges((p, c, Fraction(w)) for p, c, w in rows)
        for name in ("node_count", "root", "parent", "children", "wnum", "wden",
                     "labels", "label_index", "weights"):
            assert getattr(parsed, name) == getattr(built, name), name
        assert all(type(w) is Fraction for w in parsed.weights)
        assert parsed == built


_GAP = st.sampled_from(["", "", "", " ", "\t", "\n  "])


@st.composite
def newick_trees(draw):
    """``(text, node)``: a random Newick text with stray whitespace, and the
    ``[label, Fraction length, children]`` node it describes. Some labels are
    missing or pre-taken ``_k`` names; now and then a label repeats or a
    branch length is missing, so errors are compared too."""
    n = draw(st.integers(2, 25))
    names = draw(st.lists(st.text(alphabet="ab_12", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    labels = [draw(st.sampled_from([name, name, None])) for name in names]
    repeat = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    if repeat is not None and draw(st.integers(0, 3)) == 0:
        labels[repeat[0]] = names[repeat[1]]
    missing = draw(st.integers(0, 8 * n))
    lengths = [draw(_WEIGHT_TEXT) if v != missing else None for v in range(n)]
    if draw(st.booleans()):
        lengths[0] = None  # no root length
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[draw(st.integers(0, v - 1))].append(v)
    kids = [draw(st.permutations(k)) if len(k) > 1 else k for k in kids]
    for v in range(n):
        if not (kids[v] or labels[v] or lengths[v]):
            labels[v] = names[v]  # an empty leaf would not be a node at all

    def text(v):
        out = draw(_GAP)
        if kids[v]:
            out += "(" + ",".join(text(c) for c in kids[v]) + ")" + draw(_GAP)
        out += labels[v] or ""
        if lengths[v] is not None:
            out += draw(_GAP) + ":" + draw(_GAP) + lengths[v]
        return out + draw(_GAP)

    def node(v):
        length = None if lengths[v] is None else Fraction(lengths[v])
        return [labels[v], length, [node(c) for c in kids[v]]]

    return text(0) + draw(st.sampled_from([";", ";\n", ""])), node(0)


class TestParseNewickMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(newick_trees())
    def test_field_by_field(self, case):
        text, root = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroWeightWarning)
            try:
                expected = newick_reference(root)
            except AvgCutError as err:
                with pytest.raises(type(err)) as exc:
                    parse_newick(text)
                assert str(exc.value) == str(err)
                return
            parsed = parse_newick(text)
        for name in ("node_count", "root", "parent", "children", "wnum", "wden",
                     "labels", "label_index"):
            assert getattr(parsed, name) == getattr(expected, name), name

    def test_zero_weight_warning_is_attributed_to_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_newick("(a:0,b:0)r;")
        assert [w.category for w in caught] == [ZeroWeightWarning]
        assert caught[0].filename == __file__


class TestCutPathLeavesChildrenUnbuilt:
    """On top-down ids the parsers validate the tree and the engine finds
    its cut without the ``children`` view."""

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_edgelist, "r a 1\na b 3\na c 1\nr d 2\nd e 5\nd f 1/3\n"),
            (parse_newick, "((b:3,c:1)a:1,(e:5,f:1/3)d:2)r;"),
        ],
        ids=["edgelist", "newick"],
    )
    def test_no_children_after_a_cut(self, parse, text):
        t = parse(text)
        assert t.root == 0 and all(t.parent[v] < v for v in t.edges())
        for objective in Objective:
            optimal_average_cut(t, objective)
        assert "children" not in vars(t)
        assert t.children[t.root] == (t.node_id("a"), t.node_id("d"))
        assert "children" in vars(t)  # built on first use, then kept


_BAD_WEIGHT_TEXT = st.one_of(
    _WEIGHT_TEXT.map("-{}".format),
    st.builds("{}/{}".format, st.integers(0, 10**9), st.sampled_from(["0", "00"])),
    st.text(alphabet="0123456789./-+eE_ x٣²", max_size=8),
)


class TestParseWeightPair:
    @settings(max_examples=300, deadline=None)
    @given(_WEIGHT_TEXT)
    def test_reduced_pair_of_the_fraction(self, text):
        value = Fraction(text)
        assert parse_weight_pair(text) == (value.numerator, value.denominator)

    @settings(max_examples=300, deadline=None)
    @given(_BAD_WEIGHT_TEXT)
    def test_same_outcome_as_parse_weight(self, text):
        try:
            value = parse_weight(text)
        except AvgCutError as err:
            with pytest.raises(type(err)) as exc:
                parse_weight_pair(text)
            assert str(exc.value) == str(err)
        else:
            assert parse_weight_pair(text) == (value.numerator, value.denominator)

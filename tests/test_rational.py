import decimal
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcut import (
    Contractibility,
    LinkageTable,
    Merge,
    format_edgelist,
    from_edges,
    parse_edgelist,
    parse_linkage_csv,
    parse_newick,
    parse_weight,
)
from avgcut import rational
from avgcut.cli import run_cli
from avgcut.errors import AvgCutError, MalformedWeightError, NegativeWeightError
from avgcut.io import edge_rows
from avgcut.rational import (
    MAX_EXPONENT,
    PLAIN_SCALE,
    exact_str,
    parse_rational,
    parse_rational_pair,
    parse_weight_pair,
    plain_scale,
    ratio_str,
)

# The literal grammar, pinned: each literal's parse_rational value, or
# MalformedWeightError, on every supported Python version.
LITERALS = [
    ("0", 0),
    ("000", 0),
    ("007", 7),
    ("12", 12),
    ("1.50", Fraction(3, 2)),
    ("0.001", Fraction(1, 1000)),
    ("+1", 1),
    ("-0", 0),
    ("-0.0", 0),
    ("-1", -1),
    ("-1/2", Fraction(-1, 2)),
    ("1.", 1),
    (".5", Fraction(1, 2)),
    ("1e3", 1000),
    ("1E-2", Fraction(1, 100)),
    ("2.5e+1", 25),
    (".5e-1", Fraction(1, 20)),
    ("3/6", Fraction(1, 2)),
    (" 3 ", 3),
    ("\t-1.5e1\n", -15),
    ("١٢", 12),
    ("١.٥", Fraction(3, 2)),
    ("1_000", MalformedWeightError),
    ("1_0.5", MalformedWeightError),
    ("1_0/3", MalformedWeightError),
    ("1e1_0", MalformedWeightError),
    ("1 / 2", MalformedWeightError),
    ("1/ 2", MalformedWeightError),
    ("1 /2", MalformedWeightError),
    ("1/-2", MalformedWeightError),
    ("1/0", MalformedWeightError),
    ("- 1", MalformedWeightError),
    ("+-1", MalformedWeightError),
    ("1e", MalformedWeightError),
    ("1e+", MalformedWeightError),
    ("e5", MalformedWeightError),
    (".e5", MalformedWeightError),
    ("1.5/2", MalformedWeightError),
    ("1e2/3", MalformedWeightError),
    ("0x10", MalformedWeightError),
    ("²", MalformedWeightError),
    ("1.2.3", MalformedWeightError),
    ("", MalformedWeightError),
    (".", MalformedWeightError),
    ("nan", MalformedWeightError),
    ("inf", MalformedWeightError),
]


def outcome(parse, text):
    try:
        return parse(text)
    except AvgCutError as err:
        return type(err)


def fraction_outcome(text):
    """What parse_weight must do with ``text``, judged by Fraction alone."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return MalformedWeightError
    return NegativeWeightError if value < 0 else value


def agreed(text):
    """Whether ``Fraction(text)`` reads ``text`` alike on Python 3.10-3.13:
    3.11 added ``_`` in digit runs, and 3.12 whitespace next to ``/``."""
    return "_" not in text and not re.search(r"\s/|/\s", text)


_digits = st.text(alphabet="0123456789", min_size=1, max_size=12)
_any_digits = st.one_of(
    _digits,
    st.text(alphabet="0123456789١٢٣٠", min_size=1, max_size=6),  # Arabic-Indic too
    st.just(""),
)


@st.composite
def literals(draw):
    """Weight literals near and past the edges of the accepted grammar.

    Exponents stay 30 inside MAX_EXPONENT, so every value is within the
    digit bound and Fraction is the exact reference.
    """
    parts = [draw(st.sampled_from(["", "", "", " ", "+", "-", "\t-"]))]
    parts.append(draw(_any_digits))
    form = draw(st.sampled_from(["int", "decimal", "ratio", "exponent", "junk"]))
    if form == "decimal":
        parts.append("." + draw(_any_digits))
    elif form == "ratio":
        parts.append(draw(st.sampled_from(["/", "/-"])) + draw(_any_digits))
    elif form == "exponent":
        if draw(st.booleans()):
            parts.append("." + draw(_digits))
        exponent = draw(st.integers(min_value=0, max_value=MAX_EXPONENT - 30))
        sign = draw(st.sampled_from(["", "+", "-"]))
        parts.append(draw(st.sampled_from("eE")) + sign + str(exponent))
    elif form == "junk":
        parts.append(draw(st.sampled_from(["x10", ".", "..5", "/", "e", "²", "j", "inf"])))
    parts.append(draw(st.sampled_from(["", "", " ", "\n"])))
    return "".join(parts)


class TestParseWeightMatchesFraction:
    """The grammar is pinned by ``LITERALS``; ``Fraction`` is the reference
    for generated texts wherever all supported versions read them alike."""

    @settings(max_examples=400, deadline=None)
    @given(literals().filter(agreed))
    def test_generated_literals(self, text):
        assert outcome(parse_weight, text) == fraction_outcome(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789+-./ x١²", max_size=10).filter(agreed))
    def test_arbitrary_text_without_exponent(self, text):
        assert outcome(parse_weight, text) == fraction_outcome(text)

    @pytest.mark.parametrize("text, expected", LITERALS, ids=[text for text, _ in LITERALS])
    def test_listed_literals(self, text, expected):
        readers = (parse_rational, parse_rational_pair, parse_weight, parse_weight_pair)
        if isinstance(expected, type):
            assert [outcome(read, text) for read in readers] == [expected] * 4
            return
        value = Fraction(expected)
        pair = (value.numerator, value.denominator)
        assert type(parse_rational(text)) is Fraction and parse_rational(text) == value
        assert parse_rational_pair(text) == pair
        if value < 0:
            assert [outcome(read, text) for read in readers[2:]] == [NegativeWeightError] * 2
        else:
            assert type(parse_weight(text)) is Fraction and parse_weight(text) == value
            assert parse_weight_pair(text) == pair

    @pytest.mark.filterwarnings("ignore::avgcut.errors.ZeroWeightWarning")
    def test_no_fraction_call_receives_text(self, monkeypatch):
        """Every text entry point reads literals with the one scanner; no
        ``Fraction`` is built from a ``str`` anywhere in the package."""
        texts = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            texts.extend(a for a in args if isinstance(a, str))
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        readers = [
            parse_rational,
            parse_rational_pair,
            parse_weight,
            parse_weight_pair,
            lambda w: from_edges([("r", "a", w), ("r", "b", 1)]),
            lambda w: LinkageTable(n_items=2, merges=[Merge(0, 1, w, 2)]).merges,
            lambda w: parse_edgelist(f"r a {w}\nr b 1\n").weights,
            lambda w: parse_newick(f"(a:{w},b:1)r;").weights,
            lambda w: parse_linkage_csv(f"left,right,height,size\n0,1,{w},2\n").merges,
            Contractibility.finite,
        ]
        for text, _ in LITERALS + [("1e-1000000000", None)]:
            for read in readers:
                outcome(read, text)
        assert texts == []
        spy(Fraction, "1/3")  # the spy sees text when there is some
        assert texts == ["1/3"]


class TestExponentBound:
    """Exponent literals, written out unreduced, obey the digit bound."""

    def test_bound_itself_is_accepted(self):
        bound = MAX_EXPONENT - 1  # 10**bound has MAX_EXPONENT digits
        assert parse_rational(f"1e{bound}") == 10**bound
        assert parse_rational(f"1e-{bound}") == Fraction(1, 10**bound)
        assert parse_rational(f".5e{MAX_EXPONENT}") == 5 * 10**bound
        assert parse_rational(f"-12.5e-{bound - 1}") == Fraction(-125, 10**bound)

    PAST_THE_BOUND = [
        (f"1e-{MAX_EXPONENT + 1}", "more than 100000 digits"),
        (f"1e{MAX_EXPONENT + 1}", "more than 100000 digits"),
        ("2.5E+100_001", "not a decimal or p/q rational literal"),
        (f"1e{MAX_EXPONENT}", "more than 100000 digits"),
        (f"1e-{MAX_EXPONENT}", "more than 100000 digits"),
        (f"1.5e{MAX_EXPONENT}", "more than 100000 digits"),
        (f"0.{'0' * 9}1e-{MAX_EXPONENT - 10}", "more than 100000 digits"),
    ]

    @pytest.mark.parametrize("text, message", PAST_THE_BOUND, ids=[t for t, _ in PAST_THE_BOUND])
    def test_past_the_bound_is_malformed(self, text, message):
        with pytest.raises(MalformedWeightError, match=message):
            parse_weight(text)

    def test_huge_exponent_rejected_before_any_power_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} called for an out-of-bound exponent")

        monkeypatch.setattr(rational, "Fraction", refuse)
        with pytest.raises(MalformedWeightError):
            parse_weight("1e-1000000000")


_WEIGHT_TEXT = st.one_of(
    st.integers(0, 10**40).map(str),
    st.builds("{}.{}".format, st.integers(0, 10**6), _digits),
    st.builds("{}/{}".format, st.integers(0, 10**20), st.integers(1, 10**20)),
    st.builds("{}e{}".format, st.integers(0, 999), st.integers(-60, 60)),
    st.builds(".{}E+{}".format, _digits, st.integers(0, 60)),
)
# Each run of these literals, written out unreduced, has MAX_EXPONENT digits.
_AT_THE_BOUND = ["9" * MAX_EXPONENT, f"1e-{MAX_EXPONENT - 1}", f".7e{MAX_EXPONENT}"]


@pytest.mark.filterwarnings("ignore::avgcut.errors.ZeroWeightWarning")
class TestReadBack:
    """``parse(format(t)) == t``: what the program prints reads back, up to
    and including values at the digit bound (about 0.2 s each there, most of
    it printing)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_WEIGHT_TEXT, min_size=1, max_size=6))
    @example(_AT_THE_BOUND[:2])
    def test_edge_list(self, weights):
        t = parse_edgelist("".join(f"r n{i} {w}\n" for i, w in enumerate(weights)))
        assert parse_edgelist(format_edgelist(t)) == t

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_WEIGHT_TEXT, min_size=1, max_size=6))
    @example(_AT_THE_BOUND[1:])
    def test_newick_branch_lengths(self, weights):
        t = parse_newick("(" + ",".join(f"n{i}:{w}" for i, w in enumerate(weights)) + ")r;")
        printed = ",".join(f"{child}:{w}" for _, child, w in edge_rows(t, t.edges()))
        assert parse_newick(f"({printed})r;") == t

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_WEIGHT_TEXT, _WEIGHT_TEXT.map("-{}".format)), min_size=1, max_size=6))
    @example(["-" + _AT_THE_BOUND[2]])
    def test_linkage_heights(self, heights):
        n = len(heights) + 1

        def csv(texts):
            rows = [f"{k and n + k - 1},{k + 1},{h},{k + 2}\n" for k, h in enumerate(texts)]
            return "left,right,height,size\n" + "".join(rows)

        table = parse_linkage_csv(csv(heights))
        assert parse_linkage_csv(csv(map(ratio_str, table.hnum, table.hden))) == table


class TestPlainScale:
    @pytest.mark.parametrize(
        "dens, scale",
        [
            ([], 1),
            ([1, 1], 1),
            ([2, 3, 4, 6], 12),
            ([100, 4, 25], 100),
            ([PLAIN_SCALE], PLAIN_SCALE),
            ([65536, 65535], 65536 * 65535),
            # 65537 * 65539 and 2**32 + 15 are past the bound.
            ([65537, 65539], None),
            ([4294967311], None),
            ([2, 4294967311, 3], None),
        ],
    )
    def test_lcm_up_to_the_bound(self, dens, scale):
        assert plain_scale(dens) == scale


class TestExactStr:
    def test_small_values_match_str(self):
        for value in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(10**50, 3)):
            assert exact_str(value) == str(value)

    def test_values_past_the_int_digit_limit(self):
        num, den = 7**9000, 3 * 11**6000  # 7,606 and 6,249 digits
        text = exact_str(Fraction(num, den))
        num_text, _, den_text = text.partition("/")
        assert decimal.Decimal(num_text) == decimal.Decimal(num)
        assert decimal.Decimal(den_text) == decimal.Decimal(den)
        assert exact_str(Fraction(num)) == num_text


class TestLongDigitRuns:
    """Digit runs past ``sys.get_int_max_str_digits()`` (4,300 by default)."""

    def test_5000_digit_integer(self):
        assert parse_weight("9" * 5000) == 10**5000 - 1

    def test_5000_digit_ratio(self):
        value = parse_weight("3" * 5000 + "/1" + "0" * 4999)
        assert value == Fraction((10**5000 - 1) // 3, 10**4999)

    def test_5000_digit_decimal(self):
        value = parse_weight("1." + "0" * 4998 + "1")
        assert value - 1 == Fraction(1, 10**4999)

    def test_interpreter_limit_unchanged(self):
        before = sys.get_int_max_str_digits()
        parse_weight("9" * 5000)
        assert sys.get_int_max_str_digits() == before

    def test_bound_itself_is_accepted(self):
        assert parse_weight("1" + "0" * (MAX_EXPONENT - 1)) == 10 ** (MAX_EXPONENT - 1)

    @pytest.mark.parametrize(
        "text",
        ["1" * (MAX_EXPONENT + 1), "1/" + "3" * (MAX_EXPONENT + 1), "0." + "5" * MAX_EXPONENT],
    )
    def test_past_the_bound_fails_with_a_short_message(self, text):
        with pytest.raises(MalformedWeightError) as exc:
            parse_weight(text)
        message = str(exc.value)
        assert f"more than {MAX_EXPONENT} digits" in message
        assert len(message) < 150

    @pytest.mark.parametrize(
        "limit",
        [
            None,
            pytest.param(
                640,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
                ),
            ),
        ],
    )
    @settings(max_examples=25, deadline=None)
    @given(
        sign=st.sampled_from(["", "+", "-"]),
        zeros=st.integers(0, 50),
        length=st.integers(4301, 30000),
        alphabet=st.sampled_from(
            ["0123456789", "0123456789\u0663\u06f7\u0969", "\u0660\u0661\u0669"]
        ),
        seed=st.integers(0, 2**32),
    )
    def test_runs_past_the_limit_match_decimal(self, limit, sign, zeros, length, alphabet, seed):
        rng = random.Random(seed)
        digits = sign + alphabet[0] * zeros + "".join(rng.choices(alphabet, k=length))
        before = sys.get_int_max_str_digits() if limit else None
        try:
            if limit:
                sys.set_int_max_str_digits(limit)
            assert rational.parse_digits(digits) == int(decimal.Decimal(digits))
        finally:
            if limit:
                sys.set_int_max_str_digits(before)

    def test_malformed_long_literal_is_echoed_short(self):
        with pytest.raises(MalformedWeightError) as exc:
            parse_weight("1" * 5000 + "x")
        message = str(exc.value)
        assert message == (
            "not a decimal or p/q rational literal: " + repr("1" * 64) + "... (5001 characters)"
        )

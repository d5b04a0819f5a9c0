import decimal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcut import parse_weight
from avgcut import rational
from avgcut.errors import MalformedWeightError, NegativeWeightError
from avgcut.rational import MAX_EXPONENT, exact_str, parse_rational


def fraction_outcome(text):
    """What parse_weight must do with ``text``, judged by Fraction alone."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return MalformedWeightError
    return NegativeWeightError if value < 0 else value


def parse_outcome(text):
    try:
        return parse_weight(text)
    except (MalformedWeightError, NegativeWeightError) as err:
        return type(err)


_digits = st.text(alphabet="0123456789", min_size=1, max_size=12)
_any_digits = st.one_of(
    _digits,
    st.text(alphabet="0123456789١٢٣٠", min_size=1, max_size=6),  # Arabic-Indic too
    st.lists(_digits, min_size=2, max_size=3).map("_".join),
    st.sampled_from(["", "_", "1__0", "_1", "1_"]),
)


@st.composite
def literals(draw):
    """Weight literals near and past the edges of the accepted grammar.

    Exponents stay within MAX_EXPONENT, so Fraction is the exact reference.
    """
    parts = [draw(st.sampled_from(["", "", "", " ", "+", "-", "\t-"]))]
    parts.append(draw(_any_digits))
    form = draw(st.sampled_from(["int", "decimal", "ratio", "exponent", "junk"]))
    if form == "decimal":
        parts.append("." + draw(st.one_of(_any_digits, st.just(""))))
    elif form == "ratio":
        parts.append(draw(st.sampled_from(["/", " / ", "/-"])) + draw(_any_digits))
    elif form == "exponent":
        if draw(st.booleans()):
            parts.append("." + draw(_digits))
        exponent = draw(st.integers(min_value=0, max_value=MAX_EXPONENT))
        sign = draw(st.sampled_from(["", "+", "-"]))
        parts.append(draw(st.sampled_from("eE")) + sign + str(exponent))
    elif form == "junk":
        parts.append(draw(st.sampled_from(["x10", ".", "..5", "/", "e", "²", "j", "inf"])))
    parts.append(draw(st.sampled_from(["", "", " ", "\n"])))
    return "".join(parts)


class TestParseWeightMatchesFraction:
    @settings(max_examples=400, deadline=None)
    @given(literals())
    def test_generated_literals(self, text):
        assert parse_outcome(text) == fraction_outcome(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789+-./_ x١²", max_size=10))
    def test_arbitrary_text_without_exponent(self, text):
        assert parse_outcome(text) == fraction_outcome(text)

    @pytest.mark.parametrize(
        "text",
        ["0", "000", "007", "12", "1.50", "0.001", "+1", "-0", "-0.0", "1.", ".5",
         "1_000", "1_0.5", "1e3", "1E-2", "2.5e+1", "3/6", " 3 ", "0x10", "١٢",
         "١.٥", "²", "1/0", "1/-2", "1.2.3", "", ".", "-1", "-1/2", "nan", "inf"],
    )
    def test_listed_literals(self, text):
        outcome = parse_outcome(text)
        assert outcome == fraction_outcome(text)
        if not isinstance(outcome, type):
            assert type(outcome) is Fraction

    def test_plain_literals_skip_the_text_parser(self, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(args)
            return Fraction(*args)

        monkeypatch.setattr(rational, "Fraction", spy)
        assert parse_weight("12") == 12 and parse_weight("1.50") == Fraction(3, 2)
        assert all(not isinstance(a, str) for args in seen for a in args)
        seen.clear()
        for text in ("١٢", "+1", "1_000", "1.", ".5"):
            parse_weight(text)
            assert seen[-1] == (text,), f"{text!r} must reach Fraction(text)"


class TestExponentBound:
    def test_bound_itself_is_accepted(self):
        assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
        assert parse_rational(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)

    @pytest.mark.parametrize("text", [f"1e-{MAX_EXPONENT + 1}", f"1e{MAX_EXPONENT + 1}", "2.5E+100_001"])
    def test_past_the_bound_is_malformed(self, text):
        with pytest.raises(MalformedWeightError, match="exponent"):
            parse_weight(text)

    def test_huge_exponent_rejected_before_any_power_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} called for an out-of-bound exponent")

        monkeypatch.setattr(rational, "Fraction", refuse)
        with pytest.raises(MalformedWeightError):
            parse_weight("1e-1000000000")


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

    def test_malformed_long_literal_is_echoed_short(self):
        with pytest.raises(MalformedWeightError) as exc:
            parse_weight("1" * 5000 + "x")
        message = str(exc.value)
        assert message == (
            "not a decimal or p/q rational literal: " + repr("1" * 64) + "... (5001 characters)"
        )

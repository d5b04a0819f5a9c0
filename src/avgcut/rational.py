"""Exact rational arithmetic for weights, averages, and contractibilities.

All numeric values in this package are ``fractions.Fraction`` instances:
arbitrary precision, always in lowest terms with a positive denominator,
and with exact comparisons. Weight text is parsed straight to a Fraction
(``"0.1"`` becomes 1/10), never through binary floating point, so the
strict comparisons the cut algorithm depends on are never off by an ulp.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .errors import MalformedWeightError, NegativeWeightError

Rational = Fraction

# ``Fraction("1e-1000000000")`` would build a power of ten with a billion
# digits, so exponents past this bound are rejected unparsed. At the bound,
# the power of ten (100,000 digits, about 41 KB) takes milliseconds to build
# and about 0.2 s to print exactly; printing takes ~100x longer for every 10x
# more digits.
MAX_EXPONENT = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of either sign.

    Accepts what ``Fraction(text)`` accepts (integer, decimal, ``p/q`` and
    exponent forms), except exponents beyond ``MAX_EXPONENT`` in magnitude.
    Plain ASCII integers and ``digits.digits`` decimals, the common case,
    skip Fraction's regular expression. Raises MalformedWeightError.
    """
    try:
        if text.isascii():
            if text.isdigit():
                return Fraction(int(text))
            whole, _, frac = text.partition(".")
            if whole.isdigit() and frac.isdigit():
                return Fraction(int(whole + frac), 10 ** len(frac))
        _, e, exponent = text.replace("E", "e").rpartition("e")
        if e:
            try:
                too_big = abs(int(exponent)) > MAX_EXPONENT
            except ValueError:
                too_big = False  # not an exponent; Fraction rejects or reads it
            if too_big:
                raise MalformedWeightError(
                    f"exponent beyond +-{MAX_EXPONENT} in literal: {text!r}"
                )
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MalformedWeightError(f"not a decimal or p/q rational literal: {text!r}") from None


def parse_weight(text: str) -> Fraction:
    """Parse a weight literal exactly.

    Accepts integer, decimal (``2.50``), and ``p/q`` rational forms with a
    positive denominator. Raises MalformedWeightError for anything else and
    NegativeWeightError for values below zero.
    """
    value = parse_rational(text)
    if value.numerator < 0:
        raise NegativeWeightError(f"negative weight: {text!r}")
    return value


def exact_str(value: Fraction | int) -> str:
    """``str(value)`` (an integer or ``p/q``) for every value, however large.

    ``str`` of an int with more digits than ``sys.get_int_max_str_digits()``
    raises ValueError; such values are converted through ``decimal`` instead,
    which has no such limit.
    """
    try:
        return str(value)
    except ValueError:
        num = str(decimal.Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{decimal.Decimal(value.denominator)}"


def decimal_approx(value: Fraction, digits: int = 12) -> str:
    """A ``digits``-significant-digit decimal rendering, for humans.

    The exact ``p/q`` text is the authoritative form; this is a convenience
    companion and is computed by correctly rounded decimal division.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))

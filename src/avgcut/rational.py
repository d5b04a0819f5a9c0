"""Exact rational arithmetic for weights, averages, and contractibilities.

All numeric values in this package are exact: ``fractions.Fraction``
instances or, in tree weight columns and engine aggregates, pairs of ints.
Fractions have arbitrary precision, are always in lowest terms with a
positive denominator, and compare exactly. Weight text is parsed straight to a Fraction
(``"0.1"`` becomes 1/10), never through binary floating point, so the
strict comparisons the cut algorithm depends on are never off by an ulp.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import MalformedWeightError, NegativeWeightError

# ``Fraction("1e-1000000000")`` would build a power of ten with a billion
# digits, so exponents past this bound are rejected unparsed. At the bound,
# the power of ten (100,000 digits, about 41 KB) takes milliseconds to build
# and about 0.2 s to print exactly; printing takes ~100x longer for every 10x
# more digits.
MAX_EXPONENT = 100_000

# Error messages quote at most this many characters of an offending literal.
ECHO_LIMIT = 64


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of either sign.

    Accepts what ``Fraction(text)`` accepts (integer, decimal, ``p/q`` and
    exponent forms), except exponents beyond ``MAX_EXPONENT`` in magnitude.
    Plain ASCII integers, ``digits.digits`` decimals and ``digits/digits``
    ratios, the common cases, skip Fraction's regular expression, and their
    digit runs may be as long as ``MAX_EXPONENT`` digits (see
    :func:`parse_digits`). Raises MalformedWeightError.
    """
    try:
        num, den = _plain_pair(text)
        if den:
            return Fraction(num, den)
        _, e, exponent = text.replace("E", "e").rpartition("e")
        if e:
            try:
                too_big = abs(int(exponent)) > MAX_EXPONENT
            except ValueError:
                too_big = False  # not an exponent; Fraction rejects or reads it
            if too_big:
                raise MalformedWeightError(
                    f"exponent beyond +-{MAX_EXPONENT} in literal: {echo(text)}"
                )
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MalformedWeightError(
            f"not a decimal or p/q rational literal: {echo(text)}"
        ) from None


def _plain_pair(text: str) -> tuple[int, int]:
    """``(p, q)``, unreduced, for a plain ASCII integer, ``digits.digits`` or
    ``digits/digits`` literal; ``q`` is 0 for ``p/0`` and for any other form."""
    if text.isascii():
        if text.isdigit():
            return parse_digits(text), 1
        whole, _, frac = text.partition(".")
        if whole.isdigit() and frac.isdigit():
            return parse_digits(whole + frac), 10 ** len(frac)
        num, _, den = text.partition("/")
        if num.isdigit() and den.isdigit():
            return parse_digits(num), parse_digits(den)
    return 0, 0


def parse_digits(digits: str) -> int:
    """``int(digits)`` for a run of ASCII digits of any length up to
    ``MAX_EXPONENT``, without raising the interpreter-wide limit
    ``sys.get_int_max_str_digits()``: runs past it convert through
    ``decimal``, which has none (about 0.4 s at the bound). Raises
    MalformedWeightError for a longer run.
    """
    try:
        return int(digits)
    except ValueError:
        if len(digits) > MAX_EXPONENT:
            raise MalformedWeightError(
                f"more than {MAX_EXPONENT} digits in literal: {echo(digits)}"
            ) from None
        return int(decimal.Decimal(digits))


def echo(text: str) -> str:
    """``repr(text)`` for error messages, cut to ``ECHO_LIMIT`` characters."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"


def parse_weight(text: str) -> Fraction:
    """Parse a weight literal exactly.

    Accepts integer, decimal (``2.50``), and ``p/q`` rational forms with a
    positive denominator. Raises MalformedWeightError for anything else and
    NegativeWeightError for values below zero.
    """
    value = parse_rational(text)
    if value.numerator < 0:
        raise NegativeWeightError(f"negative weight: {echo(text)}")
    return value


def parse_rational_pair(text: str) -> tuple[int, int]:
    """``parse_rational(text)`` as its reduced ``(numerator, denominator)``,
    with the same errors; plain literals (see :func:`parse_rational`) are
    read without building a Fraction."""
    num, den = _plain_pair(text)
    if den:
        g = math.gcd(num, den)
        return num // g, den // g
    value = parse_rational(text)
    return value.numerator, value.denominator


def parse_weight_pair(text: str) -> tuple[int, int]:
    """``parse_weight(text)`` as its reduced ``(numerator, denominator)``,
    with the same errors."""
    num, den = parse_rational_pair(text)
    if num < 0:
        raise NegativeWeightError(f"negative weight: {echo(text)}")
    return num, den


def exact_str(value: Fraction | int) -> str:
    """``str(value)`` (an integer or ``p/q``) for every value, however large."""
    return ratio_str(value.numerator, value.denominator)


def ratio_str(num: int, den: int) -> str:
    """``exact_str(Fraction(num, den))`` for a reduced pair with ``den >= 1``.

    ``str`` of an int with more digits than ``sys.get_int_max_str_digits()``
    raises ValueError; such values are converted through ``decimal`` instead,
    which has no such limit.
    """
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        text = str(decimal.Decimal(num))
        return text if den == 1 else f"{text}/{decimal.Decimal(den)}"


def decimal_approx(value: Fraction, digits: int = 12) -> str:
    """A ``digits``-significant-digit decimal rendering, for humans.

    The exact ``p/q`` text is the authoritative form; this is a convenience
    companion and is computed by correctly rounded decimal division.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))

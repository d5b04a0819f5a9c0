"""Exact rational arithmetic for weights, averages, and contractibilities.

All numeric values in this package are exact: ``fractions.Fraction``
instances or, in tree weight columns and engine aggregates, pairs of ints.
Fractions have arbitrary precision, are always in lowest terms with a
positive denominator, and compare exactly. Weight text is scanned straight
to an exact ``(num, den)`` pair (``"0.1"`` becomes 1/10), never through
binary floating point, so the strict comparisons the cut algorithm depends
on are never off by an ulp.
"""

from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction

from .errors import MalformedWeightError, NegativeWeightError

# A literal's numerator and denominator, written out unreduced, may have at
# most this many digits each. So every accepted value prints in runs that
# read back, and ``1e-1000000000`` is refused before its power of ten (a
# billion digits) is built. At the bound, a power of ten (about 41 KB) takes
# milliseconds to build and about 0.2 s to print exactly; printing takes
# ~100x longer for every 10x more digits.
MAX_EXPONENT = 100_000

# Error messages quote at most this many characters of an offending literal.
ECHO_LIMIT = 64

# Weights whose denominators have an lcm of at most this are scaled to ints
# over that one lcm (see plain_scale).
PLAIN_SCALE = 2**32


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of either sign.

    The grammar, the same on every Python version: optional surrounding
    whitespace and ``+`` or ``-``, then ``digits/digits`` with a nonzero
    denominator, or ``digits[.digits]`` (``1.`` and ``.5`` too) with an
    optional exponent ``e[+|-]digits`` or ``E[+|-]digits``. Digits are what
    ``str.isdecimal`` accepts, so not ``_``. Written out unreduced as ``p``
    or ``p/q`` (``2.5e-3`` as ``25/10000``, ``0.5e3`` as ``0500``), each run
    may have at most ``MAX_EXPONENT`` digits. Raises MalformedWeightError.
    """
    return Fraction(*_scan(text))


def _scan(text: str) -> tuple[int, int]:
    """``(p, q)``, unreduced with ``q >= 1``, of a :func:`parse_rational`
    literal; plain ASCII integers, decimals and ratios are tried first."""
    if text.isascii():
        if text.isdigit():
            return parse_digits(text), 1
        whole, _, frac = text.partition(".")
        if whole.isdigit() and frac.isdigit():
            return parse_digits(whole + frac), 10 ** len(frac)
        num, _, den = text.partition("/")
        if num.isdigit() and den.isdigit() and den.strip("0"):
            return parse_digits(num), parse_digits(den)
    body = text.strip()
    signed = body[:1] in ("+", "-")
    num, slash, den = body[signed:].partition("/")
    sign = -1 if body[:1] == "-" else 1
    if slash:
        if num.isdecimal() and den.isdecimal():
            num, den = parse_digits(num), parse_digits(den)
            if den:
                return sign * num, den
    else:
        mantissa, e, exponent = num.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        digits = whole + frac
        signed = exponent[:1] in ("+", "-")
        if digits.isdecimal() and (exponent[signed:].isdecimal() or not e):
            scale = (parse_digits(exponent) if e else 0) - len(frac)
            if len(digits) + max(scale, 0) > MAX_EXPONENT or scale <= -MAX_EXPONENT:
                raise MalformedWeightError(
                    f"more than {MAX_EXPONENT} digits in literal: {echo(text)}"
                )
            num = sign * parse_digits(digits)
            return (num * 10**scale, 1) if scale >= 0 else (num, 10**-scale)
    raise MalformedWeightError(f"not a decimal or p/q rational literal: {echo(text)}")


def parse_digits(digits: str) -> int:
    """``int(digits)`` for a run of decimal digits, after at most one sign,
    up to ``MAX_EXPONENT`` digits long, without raising the interpreter-wide
    limit ``sys.get_int_max_str_digits()``: runs past it convert piecewise
    (about 0.02 s at the bound). Raises MalformedWeightError for a longer run.
    """
    try:
        return int(digits)
    except ValueError:
        if len(digits) > MAX_EXPONENT:
            raise MalformedWeightError(
                f"more than {MAX_EXPONENT} digits in literal: {echo(digits)}"
            ) from None
    value = digits_int(digits[digits[:1] in ("+", "-"):])
    return -value if digits[:1] == "-" else value


def digits_int(digits: str) -> int:
    """``int(digits)`` for an unsigned run of decimal digits of any length,
    without raising the interpreter-wide limit: runs past it convert by
    halving, subquadratic where ``int(decimal.Decimal(digits))`` is
    quadratic."""
    # 0 is no limit; builds without the limit lack the function.
    leaf = getattr(sys, "get_int_max_str_digits", int)() or len(digits)
    return _join_digits(digits, leaf)


def _join_digits(digits: str, leaf: int) -> int:
    """``int(digits)`` as ``hi * 10**len(lo) + lo`` over halves, with ``int()``
    only on runs of at most ``leaf`` digits."""
    if len(digits) <= leaf:
        return int(digits)
    low = len(digits) // 2
    return _join_digits(digits[:-low], leaf) * 10**low + _join_digits(digits[-low:], leaf)


def echo(text: str) -> str:
    """``repr(text)`` for error messages, cut to ``ECHO_LIMIT`` characters."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"


def parse_weight(text: str) -> Fraction:
    """Parse a weight literal exactly: :func:`parse_rational`, but raises
    NegativeWeightError for values below zero."""
    return Fraction(*parse_weight_pair(text))


def parse_rational_pair(text: str) -> tuple[int, int]:
    """``parse_rational(text)`` as its reduced ``(numerator, denominator)``,
    with the same errors, read without building a Fraction."""
    num, den = _scan(text)
    g = math.gcd(num, den)
    return num // g, den // g


def parse_weight_pair(text: str) -> tuple[int, int]:
    """``parse_weight(text)`` as its reduced ``(numerator, denominator)``,
    with the same errors."""
    num, den = parse_rational_pair(text)
    if num < 0:
        raise NegativeWeightError(f"negative weight: {echo(text)}")
    return num, den


def plain_scale(dens) -> int | None:
    """The lcm of the denominators ``dens`` when it is at most
    ``PLAIN_SCALE``, else None; it stops at the first partial lcm past it."""
    scale = 1
    for q in set(dens):
        scale = math.lcm(scale, q)
        if scale > PLAIN_SCALE:
            return None
    return scale


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


def decimal_approx(value: Fraction) -> str:
    """A 12-significant-digit decimal rendering, for humans.

    The exact ``p/q`` text is the authoritative form; this is a convenience
    companion and is computed by correctly rounded decimal division.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))

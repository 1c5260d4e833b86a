"""Exact rational arithmetic and the "p/q" text form.

Every quantity in this package is a :class:`fractions.Fraction` (arbitrary
precision, canonical form: positive denominator, gcd-reduced, 0/1 for zero).
Floating point is never used in a computation path; ``decimal_str`` exists
for report rendering only and its output never feeds back into arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


class RationalParseError(ValueError):
    """Malformed "p/q" text; carries the offset of the offending character."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        self.reason = message
        super().__init__(f"{message} at position {pos} in {text!r}")


def parse_rational(text: str, offset: int = 0) -> Fraction:
    """Parse "p/q" or a bare integer, e.g. "77/177", "-1/114", "1".

    ``offset`` shifts reported error positions when the text is a slice of
    a larger input (used by the interval-union parser and the CLI).
    """
    s = text.strip()
    if not s:
        raise RationalParseError(text, offset, "empty rational")
    shift = offset + text.index(s[0])
    num_part, slash, den_part = s.partition("/")
    try:
        p = int(num_part)
    except ValueError:
        raise RationalParseError(text, shift, f"bad integer {num_part!r}") from None
    if not slash:
        return Fraction(p)
    try:
        q = int(den_part)
    except ValueError:
        raise RationalParseError(
            text, shift + len(num_part) + 1, f"bad integer {den_part!r}"
        ) from None
    if q == 0:
        raise RationalParseError(text, shift + len(num_part) + 1, "zero denominator")
    return Fraction(p, q)


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" text; integers render without the denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_DECIMAL_DIGITS = 6


def decimal_str(q: Fraction) -> str:
    """Truncated decimal rendering, for parenthetical display only."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    frac_digits = (rem * 10**_DECIMAL_DIGITS) // q.denominator
    return f"{sign}{whole}.{frac_digits:0{_DECIMAL_DIGITS}d}"

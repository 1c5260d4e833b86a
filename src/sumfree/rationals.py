"""Exact rational arithmetic and the "p/q" text form.

Every quantity in this package is an ``int`` or a :class:`fractions.Fraction`
(canonical form: positive denominator, gcd-reduced).  ``require_exact``
rejects anything else and ``require_int`` a non-``int`` (``TypeError``, a
``bool`` too); both reject a value below ``least`` (``ValueError`` naming it).
Unions are integer numerators over one denominator, ``Fraction`` is their
read view, ``parse_pair`` reads "p/q" text straight to integers and ``str``
writes it.  No float enters a computation path; ``decimal_str`` renders
reports only.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


class RationalParseError(ValueError):
    """Malformed "p/q" text; carries the offset of the offending character."""

    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        self.reason = message
        super().__init__(f"{message} at position {pos} in {text!r}")


def require_exact(value, what: str, least: int | None = None):
    """``value`` if it is an ``int`` or a ``Fraction`` (``TypeError``) and at
    least ``least`` (``ValueError``)."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"{what} {value!r} is not an int or a Fraction")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def require_int(value, what: str, least: int | None = None) -> int:
    """``value`` if it is an ``int`` (``TypeError``) and at least ``least`` (``ValueError``)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    return require_exact(value, what, least)


def parse_pair(text: str, offset: int = 0) -> tuple[int, int]:
    """Parse "p/q" or a bare integer to ``(p, q)``, ``q > 0``, not reduced:
    "3/-6" gives (-3, 6).  ``offset`` shifts reported error positions when
    the text is a slice of a larger input (used by the union parser).
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
        return p, 1
    try:
        q = int(den_part)
    except ValueError:
        raise RationalParseError(
            text, shift + len(num_part) + 1, f"bad integer {den_part!r}"
        ) from None
    if q == 0:
        raise RationalParseError(text, shift + len(num_part) + 1, "zero denominator")
    return (-p, -q) if q < 0 else (p, q)


_DECIMAL_DIGITS = 6


def decimal_str(q: Fraction) -> str:
    """Truncated decimal rendering, for parenthetical display only."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    frac_digits = (rem * 10**_DECIMAL_DIGITS) // q.denominator
    return f"{sign}{whole}.{frac_digits:0{_DECIMAL_DIGITS}d}"

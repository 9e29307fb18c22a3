"""Exact rational helpers: "p/q" serialization and small combinatorial numbers.

Every Q-valued quantity in the package is a ``fractions.Fraction`` kept in
canonical form (positive denominator, reduced) by the stdlib itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

def rat_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)  # ints and Fractions are reduced
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_parse(s: str) -> Fraction:
    """Parse the "p/q" / "p" format produced by :func:`rat_str`."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


@lru_cache(maxsize=None)
def odd_df(k: int) -> int:
    """(2k+1)!!, cached; odd_df(-1) = (-1)!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial undefined for {2 * k + 1}")
    return prod(range(1, 2 * k + 2, 2))

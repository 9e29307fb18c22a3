"""Truncated Laurent series in z with integer numerators over one shared
denominator: the coefficient ring of the recursion engine's integer core.

A series is ``coeffs`` (exponent -> nonzero int numerator), ``den`` (a
positive int) and the provable truncation ``order`` with the same meaning as
in :mod:`kapparec.zseries` (``None`` marks an exactly-known series).  The
value at z^j is ``coeffs[j] / den``.

Nothing is reduced: a product multiplies the denominators, a sum rescales
both sides to the lcm of theirs, and no gcd is taken until a caller turns a
numerator into a ``Fraction``.  Integer multiply-adds are several times
cheaper than ``Fraction`` ones, which normalise after every operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .zseries import _min_order


class IntSeries:
    __slots__ = ("coeffs", "den", "order")

    def __init__(self, coeffs: dict[int, int], den: int, order: int | None = None):
        self.coeffs = coeffs
        self.den = den
        self.order = order

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, Fraction, int]], order: int | None = None) -> "IntSeries":
        """The series sum c*f*z^e over (e, c, f) triples with Fraction c and
        int f, over the lcm of the denominators of the c."""
        terms = [t for t in terms if t[1]]
        den = lcm(*(c.denominator for _, c, _ in terms))
        out: dict[int, int] = {}
        for e, c, f in terms:
            out[e] = out.get(e, 0) + c.numerator * f * (den // c.denominator)
        return IntSeries({e: v for e, v in out.items() if v}, den, order)

    @staticmethod
    def sum_of_products(
        base: "IntSeries | None", products: Iterable[tuple["IntSeries", "IntSeries", int]]
    ) -> "IntSeries":
        """base + sum of ways * s1 * s2 over (s1, s2, ways), all exact.

        Each product is summed into one numerator map per denominator, so no
        partial sum is rescaled; the maps meet over the lcm at the end.
        """
        buckets: dict[int, dict[int, int]] = {}
        if base is not None:
            buckets[base.den] = dict(base.coeffs)
        for s1, s2, ways in products:
            acc = buckets.setdefault(s1.den * s2.den, {})
            get = acc.get
            b = s2.coeffs.items()
            for j1, c1 in s1.coeffs.items():
                c1 *= ways
                for j2, c2 in b:
                    j = j1 + j2
                    acc[j] = get(j, 0) + c1 * c2
        den = lcm(*buckets)
        out: dict[int, int] = {}
        for d, acc in buckets.items():
            f = den // d
            for j, c in acc.items():
                out[j] = out.get(j, 0) + c * f
        return IntSeries({j: c for j, c in out.items() if c}, den)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> list[tuple[int, Fraction]]:
        """Sorted (exponent, exact value) pairs."""
        return [(j, Fraction(c, self.den)) for j, c in sorted(self.coeffs.items())]

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        order = _min_order(self.order, other.order)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {j: c * fa for j, c in self.coeffs.items()}
        for j, c in other.coeffs.items():
            out[j] = out.get(j, 0) - c * fb
        return IntSeries(
            {j: c for j, c in out.items() if c and (order is None or j < order)}, den, order
        )

    def mul(self, other: "IntSeries", hi: int | None = None) -> "IntSeries":
        """Exact truncated product, with the provable order of ZSeries.mul:
        min(N1+b2, N2+b1), capped at hi+1 when hi is given."""
        a, b = self.coeffs, other.coeffs
        order = _min_order(
            None if self.order is None else self.order + min(b),
            None if other.order is None else other.order + min(a),
        )
        if hi is not None:
            order = _min_order(order, hi + 1)
        out: dict[int, int] = {}
        get = out.get
        bs = sorted(b.items())
        for j1, c1 in a.items():
            for j2, c2 in bs:
                j = j1 + j2
                if order is not None and j >= order:
                    break
                out[j] = get(j, 0) + c1 * c2
        return IntSeries({j: c for j, c in out.items() if c}, self.den * other.den, order)

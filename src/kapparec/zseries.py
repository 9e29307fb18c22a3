"""Truncated Laurent series in one variable z with ParamPoly coefficients:
the input form of a spectral curve's y, and series_invert, the reference
that the integer core's inverse is tested against.

Every series carries its provable truncation ``order``: exponents j < order
are stored exactly, querying j >= order raises :class:`TruncationError`.
``order is None`` marks an exactly-known series (finite Laurent polynomial).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .intseries import inverse_span, product_order
from .parampoly import PP_ZERO, ParamPoly, add_terms

Coeff = Union[ParamPoly, Fraction, int]


class TruncationError(Exception):
    """Raised when a coefficient beyond the provable order is requested."""


def _pp(c: Coeff) -> ParamPoly:
    return c if isinstance(c, ParamPoly) else ParamPoly.const(c)


class ZSeries:
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None, order: int | None = None):
        cs: dict[int, ParamPoly] = {}
        if coeffs:
            for j, c in coeffs.items():
                c = _pp(c)
                if c:
                    cs[j] = c
        if order is not None:
            for j in cs:
                if j >= order:
                    raise ValueError(f"stored exponent {j} >= order {order}")
        self.coeffs = cs
        self.order = order

    # -- basics --------------------------------------------------------------

    def low(self) -> int | None:
        """Smallest possibly-nonzero exponent (None for the exact zero series)."""
        if self.coeffs:
            return min(self.coeffs)
        return self.order  # zero up to order; None = exactly zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> ParamPoly:
        if self.order is not None and j >= self.order:
            raise TruncationError(f"coefficient of z^{j} beyond order {self.order}")
        return self.coeffs.get(j, PP_ZERO)

    def items(self):
        return sorted(self.coeffs.items())

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z^k."""
        order = None if self.order is None else self.order + k
        return ZSeries({j + k: c for j, c in self.coeffs.items()}, order=order)

    # -- multiplication ----------------------------------------------------------

    def mul(self, other: "ZSeries") -> "ZSeries":
        """Exact truncated product, with the provable order of
        intseries.product_order."""
        a, b = self.coeffs, other.coeffs
        order = product_order(self.order, min(a) if a else None, other.order, min(b) if b else None)
        if len(a) > len(b):
            a, b = b, a
        cs = add_terms(
            {},
            (
                (j1 + j2, c1.mul(c2))
                for j1, c1 in a.items()
                for j2, c2 in b.items()
                if order is None or j1 + j2 < order
            ),
        )
        return ZSeries(cs, order=order)


def series_invert(s: ZSeries, out_order: int | None = None) -> ZSeries:
    """Multiplicative inverse of a series whose leading coefficient is a unit.

    The leading coefficient must be a single monomial with no h-part (only
    c * eps^k is invertible in the coefficient ring).  The span, the order
    and the ValueErrors for an exactly-known input or a short one are those
    of intseries.inverse_span.
    """
    if s.is_zero():
        raise ValueError("cannot invert the zero series")
    b = min(s.coeffs)
    lead = s.coeffs[b]
    if not lead.is_monomial():
        raise ValueError("leading term not a unit")
    (e0, h0), c0 = next(iter(lead.terms.items()))
    if h0:
        raise ValueError("leading term not a unit")
    inv_lead = ParamPoly.eps(-e0, Fraction(1) / c0) if e0 else ParamPoly.const(Fraction(1) / c0)
    rel = inverse_span(s.order, b, out_order)
    # s = lead * z^b * (1 + r),  r_j = coeff(b+j) / lead
    r = {}
    for j, c in s.coeffs.items():
        if j != b:
            r[j - b] = c * inv_lead
    d: dict[int, ParamPoly] = {0: ParamPoly.one()}
    for k in range(1, rel):
        acc = ParamPoly.zero()
        for j, rj in r.items():
            if 0 < j <= k and (k - j) in d:
                acc = acc + rj * d[k - j]
        if acc:
            d[k] = -acc
    cs = {k - b: dk * inv_lead for k, dk in d.items()}
    return ZSeries(cs, order=rel - b)

"""Truncated Laurent series in z with integer numerators over one shared
denominator: the coefficient ring of the recursion engine's integer core.

A series is ``coeffs`` (key -> nonzero int numerator), ``den`` (a positive
int), its ``pack`` and the provable truncation ``order``: every exponent
below it is exact, and ``None`` marks an exactly-known series.  The
coefficients are polynomials in h_1, h_2, ...: the term z^j h^alpha sits
at the key ``(j << pack.zshift) | pack.pack(alpha)``, so keys add as the
monomials multiply and sort by exponent first.  With no h (an empty pack)
the key is j and the value at z^j is ``coeffs[j] / den``.

``mul`` and ``sum_of_products`` are the products of integer series that
``invert`` and the engine's loop-equation check use.  The engine's hot
path works on plain key maps through the same loops: W is summed with
``add_products`` and ``kept``, and the read-off multiplies it by the sorted
terms of 1/(2 eta) with ``product_below``, the loop of ``mul``, its guard
from ``product_order``.  None of them reduces: a product multiplies the
denominators, and a sum rescales to the lcm of its terms' denominators.
A gcd is taken only by ``reduced`` (each step of ``invert``) and by the
engine's read-off.
Integer multiply-adds are several times cheaper than ``Fraction`` ones,
which normalise after every operation.

``product_order`` and ``inverse_span`` state the two truncation-order rules
once, for IntSeries and zseries.ZSeries alike: how far a product and an
inverse are provably known.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .parampoly import hweight


def _min_order(a: int | None, b: int | None) -> int | None:
    """The smaller of two truncation orders, where None (exact) is the larger."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def product_order(n1: int | None, lo1: int | None, n2: int | None, lo2: int | None) -> int | None:
    """The provable order min(N1+b2, N2+b1) of a product of series with
    truncation orders N_i (None: exact) and lowest exponents lo_i (None:
    empty).  An empty O(z^N) operand has b = N, and an exactly-zero one
    makes the product the exact zero (None)."""
    b1, b2 = n1 if lo1 is None else lo1, n2 if lo2 is None else lo2
    if b1 is None or b2 is None:
        return None
    return _min_order(None if n1 is None else n1 + b2, None if n2 is None else n2 + b1)


def inverse_span(order: int | None, b: int, out_order: int | None) -> int:
    """How many coefficients d_0, d_1, ... of 1/(1+r) the inverse of
    c z^b (1+r) determines.  r is known below z^(order-b), and d_k reads
    r_j for j <= k only, so a truncated series gives order - b; out_order,
    which an exactly-known series must supply, caps it at out_order + b.
    The inverse has order span - b."""
    rel = _min_order(None if order is None else order - b, None if out_order is None else out_order + b)
    if rel is None:
        raise ValueError("out_order required to invert an exact series")
    if rel <= 0:
        raise ValueError("insufficient truncation order for inversion")
    return rel


class HPacking:
    """h-monomials packed into one int: alpha_i in a field just wide enough
    for cap // i, above them the weight sum(i*alpha_i) in a field wide
    enough for 2 * cap + 1, and the z bits from ``zshift`` on (with no h,
    every field is empty and ``zshift`` is 0).

    Two monomials whose weights sum to at most ``cap`` have alpha_i + beta_i
    <= cap // i, so no field carries and the sum of their keys is the key of
    their product.  A pair over the cap may carry between alpha fields, but
    its weight field still reads over the cap and never reaches the z bits;
    products drop such keys, so every operand stays within the cap.  With
    ``capped`` False the cap is a bound that no weight may pass, and passing
    it is an AssertionError, not a drop.
    """

    def __init__(self, n: int, cap: int, capped: bool = True):
        self.fields: list[tuple[int, int]] = []  # (offset, mask) of alpha_1..alpha_n
        shift = 0
        for i in range(1, n + 1):
            width = (cap // i).bit_length()
            self.fields.append((shift, (1 << width) - 1))
            shift += width
        self.cap, self.capped, self.wshift = cap, capped, shift
        self.zshift = shift + (2 * cap + 1).bit_length() if n else 0
        self.wfield = (1 << self.zshift) - (1 << shift)
        self.wcap = cap << shift
        self._keys: dict[tuple[int, ...], int | None] = {}
        self._tuples: dict[int, tuple[int, ...]] = {}

    def pack(self, h: tuple[int, ...]) -> int | None:
        """The key of h^alpha, or None when its weight is over the cap."""
        if h not in self._keys:
            w = hweight(h)
            assert self.capped or w <= self.cap, f"h-weight {w} over the bound {self.cap}"
            key = w << self.wshift
            for (off, _), e in zip(self.fields, h):
                key |= e << off
            self._keys[h] = key if w <= self.cap else None
        return self._keys[h]

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of the h-part of a key, trailing zeros trimmed."""
        h = self._tuples.get(key)
        if h is None:
            h = [(key >> off) & mask for off, mask in self.fields]
            while h and not h[-1]:
                h.pop()
            h = self._tuples[key] = tuple(h)
        return h


def kept(out: dict[int, int], pack: HPacking) -> dict[int, int]:
    """out without zeros and without the terms over the cap."""
    wfield, wcap = pack.wfield, pack.wcap
    within = {k: c for k, c in out.items() if c and k & wfield <= wcap}
    assert pack.capped or len(within) == sum(map(bool, out.values())), "h-weight over the bound"
    return within


def add_products(out: dict[int, int], products, den: int) -> None:
    """Add sum ways*s1*s2 over the products (s1, s2, ways) of exact series
    to the numerators ``out`` over den, a multiple of every s1.den*s2.den."""
    get = out.get
    for s1, s2, ways in products:
        f = ways * (den // (s1.den * s2.den))
        b = s2.coeffs.items()
        for j1, c1 in s1.coeffs.items():
            c1 *= f
            for j2, c2 in b:
                j = j1 + j2
                out[j] = get(j, 0) + c1 * c2


def product_below(a: dict[int, int], b, top: int, pack: HPacking) -> dict[int, int]:
    """key -> nonzero numerator of the product of the numerator maps a and b
    below the key top, without the terms over the cap; b is (key, numerator)
    pairs by increasing key, so each row stops at top."""
    out: dict[int, int] = {}
    get = out.get
    for j1, c1 in a.items():
        for j2, c2 in b:
            j = j1 + j2
            if j >= top:
                break
            out[j] = get(j, 0) + c1 * c2
    return kept(out, pack)


class IntSeries:
    __slots__ = ("coeffs", "den", "pack", "order")

    def __init__(self, coeffs: dict[int, int], den: int, pack: HPacking, order: int | None = None):
        self.coeffs = coeffs
        self.den = den
        self.pack = pack
        self.order = order

    @staticmethod
    def sum_of_products(base: "IntSeries | None", products, pack: HPacking) -> "IntSeries":
        """base + sum of ways * s1 * s2 over (s1, s2, ways), all exact, over
        the lcm of the denominators; each product's rescaling rides on ways."""
        products = list(products)
        den = lcm(*(s1.den * s2.den for s1, s2, _ in products), base.den if base else 1)
        out = {j: c * (den // base.den) for j, c in base.coeffs.items()} if base else {}
        add_products(out, products, den)
        return IntSeries(kept(out, pack), den, pack)

    def reduced(self) -> "IntSeries":
        """The same series with the gcd of den and the numerators divided
        out, so that den is the lcm of its values' denominators."""
        g = gcd(self.den, *self.coeffs.values())
        if g == 1:
            return self
        return IntSeries({j: c // g for j, c in self.coeffs.items()}, self.den // g, self.pack, self.order)

    def items(self) -> list[tuple[int, Fraction]]:
        """Sorted (key, exact value) pairs."""
        return [(j, Fraction(c, self.den)) for j, c in sorted(self.coeffs.items())]

    def mul(self, other: "IntSeries", hi: int | None = None) -> "IntSeries":
        """Exact truncated product with the provable order of
        ``product_order``, capped at hi+1 when hi is given (the exact zero
        stays exact)."""
        a, bs = self.coeffs, sorted(other.coeffs.items())
        den = self.den * other.den
        zs = self.pack.zshift
        order = product_order(self.order, min(a) >> zs if a else None, other.order, bs[0][0] >> zs if bs else None)
        if order is None and not (a and bs):  # an exactly-zero operand
            return IntSeries({}, den, self.pack)
        if hi is not None:
            order = _min_order(order, hi + 1)
        # an exact product stops past its largest key; an empty operand runs no loop
        top = order << zs if order is not None else max(a) + bs[-1][0] + 1
        return IntSeries(product_below(a, bs, top, self.pack), den, self.pack, order)

    def invert(self, out_order: int | None = None) -> "IntSeries":
        """Multiplicative inverse, reduced, with the span and ValueErrors of
        ``inverse_span``; the leading coefficient must be a single term free
        of h, as in zseries.series_invert.  Each step drops its terms over
        the h-weight cap, which is exact because h-weights are non-negative
        and add.
        """
        if not self.coeffs:
            raise ValueError("cannot invert the zero series")
        zs = self.pack.zshift
        lo = min(self.coeffs)
        b = lo >> zs
        if lo != b << zs or any(j >> zs == b for j in self.coeffs if j != lo):
            raise ValueError("leading term not a unit")
        rel = inverse_span(self.order, b, out_order)
        # self = (c0/den) z^b (1 + r) with r_j = coeff(b+j)/c0, and 1/(1+r)
        # = sum d_k z^k with d_0 = 1, d_k = -sum_{0<j<=k} r_j d_{k-j}; each
        # r_j and d_k is a series at the single exponent j or k
        pack, c0 = self.pack, self.coeffs[lo]
        sign = 1 if c0 > 0 else -1
        parts: dict[int, dict[int, int]] = {}
        for j, c in self.coeffs.items():
            if j != lo:
                parts.setdefault((j >> zs) - b, {})[j - lo] = sign * c
        r = {j: IntSeries(t, sign * c0, pack).reduced() for j, t in parts.items()}
        d = {0: IntSeries({0: 1}, 1, pack)}
        for k in range(1, rel):
            dk = IntSeries.sum_of_products(None, [(rj, d[k - j], -1) for j, rj in r.items() if k - j in d], pack)
            if dk.coeffs:
                d[k] = dk.reduced()
        lead = IntSeries({-lo: sign * self.den}, sign * c0, pack)  # z^-b den/c0
        inv = IntSeries.sum_of_products(None, [(lead, dk, 1) for dk in d.values()], pack).reduced()
        inv.order = rel - b
        return inv

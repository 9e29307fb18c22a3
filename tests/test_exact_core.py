from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from kapparec.coeffs import exp_coeffs, s_sequence
from kapparec.intseries import HPacking, IntSeries
from kapparec.kappapoly import KappaPoly
from kapparec.parampoly import ParamPoly, hweight
from kapparec.rationals import odd_df, rat_parse, rat_str
from kapparec.zseries import TruncationError, ZSeries, series_invert


def rnd_poly(rng: random.Random) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(-2, 2)
        h = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))
        terms[(e, h)] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return ParamPoly(terms)


def test_rat_str_roundtrip():
    for x in (F(0), F(3), F(-7, 2), F(22, 7)):
        assert rat_parse(rat_str(x)) == x
    assert rat_str(F(5)) == "5"
    assert rat_str(F(-1, 3)) == "-1/3"


def test_parampoly_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(120):
        a, b, c = rnd_poly(rng), rnd_poly(rng), rnd_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == ParamPoly.zero()
        assert a * ParamPoly.one() == a


def rnd_terms(rng: random.Random, key) -> dict:
    return {key(): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))}


def no_zero(terms) -> bool:
    return all(c for c in terms.values())


def test_kappa_mixed_ring_axioms_random():
    rng = random.Random(20241018)

    def part():
        return tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))

    def rnd_kappa():
        return KappaPoly(rnd_terms(rng, lambda: (part(), ())))

    def rnd_mixed(n=2):
        return KappaPoly(rnd_terms(rng, lambda: (part(), tuple(rng.randint(0, 1) for _ in range(n)))), n)

    for rnd, one in ((rnd_kappa, KappaPoly.one()), (rnd_mixed, KappaPoly({((), (0, 0)): 1}, 2))):
        for _ in range(80):
            a, b, c = rnd(), rnd(), rnd()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a * one == a
            assert (a + (-a)).terms == {}
            assert no_zero((a + b).terms) and no_zero((a * b).terms)
    # a kappa-only factor is lifted to the other factor's point count
    for _ in range(80):
        p, q = rnd_kappa(), rnd_mixed()
        assert p * q == p.with_points(2) * q == q * p
        assert p * q + q == (p + KappaPoly.one()).with_points(2) * q
    for a, b in ((rnd_mixed(1), rnd_mixed(2)), (rnd_kappa(), rnd_mixed(2))):
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ValueError):
                op(b)
    with pytest.raises(ValueError):
        rnd_mixed(1) * rnd_mixed(2)


def test_sparse_sums_store_no_zero():
    rng = random.Random(31)
    for _ in range(80):
        a, b = rnd_poly(rng), rnd_poly(rng)
        assert (a + (-a)).terms == {}
        assert no_zero((a + b).terms) and no_zero((a * b).terms)
        s = ZSeries({j: rnd_poly(rng) for j in range(-2, 3)})
        t = ZSeries({j: rnd_poly(rng) for j in range(-2, 3)})
        assert s.mul(t).coeffs == t.mul(s).coeffs
        assert all(c and no_zero(c.terms) for c in s.mul(t).coeffs.values())


def test_parampoly_eps_valuation_additive():
    # the bottom eps-slice of a product is the product of bottom slices, and
    # h-polynomials over Q form an integral domain, so val(fg) = val f + val g
    rng = random.Random(11)
    seen = 0
    for _ in range(200):
        a, b = rnd_poly(rng), rnd_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        seen += 1
        assert (a * b).eps_valuation() == a.eps_valuation() + b.eps_valuation()
    assert seen > 100
    with pytest.raises(ValueError):
        ParamPoly.zero().eps_valuation()


def test_parampoly_no_zero_terms_and_serialization():
    p = ParamPoly.h(2) - ParamPoly.h(2) + ParamPoly.eps(1, F(1, 3))
    assert list(p.terms) == [(1, ())]
    assert p.to_triples() == [(1, [], "1/3")]
    r = ParamPoly.h(1, 2, F(-7, 2)) * ParamPoly.eps(-3)
    assert r.to_triples() == [(-3, [2], "-7/2")]


def test_parampoly_subs():
    p = ParamPoly.eps(-1) * ParamPoly.h(1) + ParamPoly.const(2)
    assert p.subs_eps(F(1, 2)) == ParamPoly.h(1, coeff=2) + ParamPoly.const(2)
    with pytest.raises(ZeroDivisionError):
        p.subs_eps(0)


def test_zseries_truncation_is_enforced():
    s = ZSeries({0: 1, 1: 2}, order=3)
    assert s.coeff(2) == ParamPoly.zero()
    with pytest.raises(TruncationError):
        s.coeff(3)
    with pytest.raises(ValueError):
        ZSeries({5: 1}, order=3)


def test_zseries_product_truncation_rule():
    # truncations N1, N2 and lower bounds b1, b2 give min(N1+b2, N2+b1)
    a = ZSeries({-1: 1, 0: 2}, order=4)
    b = ZSeries({2: 3}, order=7)
    assert a.mul(b).order == min(4 + 2, 7 + (-1))
    assert b.mul(a).order == 6


def _truncations(rng: random.Random, low: int, n: int, k: int, lead=None) -> tuple[ZSeries, ZSeries]:
    """One random series from z^low on, truncated at order n and at n + k."""
    cs = {j: F(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(low, n + k)}
    if lead is not None:
        cs[low] = lead
    return ZSeries({j: c for j, c in cs.items() if j < n}, order=n), ZSeries(cs, order=n + k)


def _agrees_below_order(short: ZSeries, long: ZSeries, order: int) -> None:
    # the short result states exactly `order` and every coefficient it
    # states is the one the longer computation finds; past it, reading raises
    assert short.order == order and long.order > order
    for j in range(-12, order):
        assert short.coeff(j) == long.coeff(j), j
    for j in (order, order + 1):
        with pytest.raises(TruncationError):
            short.coeff(j)


def test_truncation_order_is_provable_random():
    rng = random.Random(20261018)
    for _ in range(40):
        k = rng.randint(1, 3)
        b1, b2 = rng.randint(-3, 2), rng.randint(-3, 2)
        n1, n2 = b1 + rng.randint(1, 6), b2 + rng.randint(1, 6)
        a, a_long = _truncations(rng, b1, n1, k, lead=F(rng.choice((-2, -1, 1, 3))))
        b, b_long = _truncations(rng, b2, n2, k, lead=F(rng.choice((-1, 1, 2))))
        _agrees_below_order(a.mul(b), a_long.mul(b_long), min(n1 + b2, n2 + b1))
        _agrees_below_order(series_invert(a), series_invert(a_long), n1 - 2 * b1)


def _int_truncations(rng: random.Random, pack: HPacking, low: int, n: int, k: int,
                     unit: bool) -> tuple[IntSeries, IntSeries]:
    """One random IntSeries from z^low on, truncated at order n and at n + k;
    its z^low coefficient is a nonzero constant, alone when ``unit``."""
    zs = pack.zshift
    coeffs = {}
    for j in range(low, n + k):
        for _ in range(rng.randint(0, 3)):
            key = pack.pack(tuple(rng.randint(0, 2) for _ in pack.fields))
            if key is not None and not (unit and j == low):
                coeffs[(j << zs) | key] = rng.randint(-4, 4)
    coeffs[low << zs] = rng.choice((-2, -1, 1, 3))
    coeffs = {j: c for j, c in coeffs.items() if c}
    den = rng.randint(1, 6)
    short = IntSeries({j: c for j, c in coeffs.items() if j >> zs < n}, den, pack, n)
    return short, IntSeries(coeffs, den, pack, n + k)


def _int_agrees_below_order(short: IntSeries, long: IntSeries, order: int) -> None:
    # the short result states exactly `order`, stores no key at or past it,
    # and every value it states is the one the longer computation finds
    zs = short.pack.zshift
    assert short.order == order and long.order > order
    assert all(j >> zs < order for j in short.coeffs)
    assert {j: c for j, c in short.items()} == {j: c for j, c in long.items() if j >> zs < order}


@pytest.mark.parametrize("pack", [HPacking(0, 0), HPacking(2, 3), HPacking(3, 5), HPacking(2, 400, False)],
                         ids=["no-h", "cap3", "cap5", "uncapped"])
def test_intseries_truncation_order_is_provable_random(pack):
    rng = random.Random(20261019)
    for _ in range(30):
        k = rng.randint(1, 3)
        b1, b2 = rng.randint(-3, 2), rng.randint(-3, 2)
        n1, n2 = b1 + rng.randint(1, 6), b2 + rng.randint(1, 6)
        a, a_long = _int_truncations(rng, pack, b1, n1, k, unit=False)
        b, b_long = _int_truncations(rng, pack, b2, n2, k, unit=False)
        order = min(n1 + b2, n2 + b1)
        _int_agrees_below_order(a.mul(b), a_long.mul(b_long), order)
        hi = rng.randint(b1 + b2, order + 2)
        _int_agrees_below_order(a.mul(b, hi=hi), a_long.mul(b_long, hi=hi + k), min(order, hi + 1))
        u, u_long = _int_truncations(rng, pack, b1, n1, k, unit=True)
        _int_agrees_below_order(u.invert(), u_long.invert(), n1 - 2 * b1)
        one = u.mul(u.invert())
        assert one.order == n1 - b1 and one.items() == [(0, 1)]


@pytest.mark.parametrize("pack", [HPacking(0, 0), HPacking(2, 3), HPacking(2, 400, False)],
                         ids=["no-h", "cap3", "uncapped"])
def test_intseries_exact_product_is_the_sum_over_every_term_pair(pack):
    # exact operands (order None), empty ones among them, against the pair
    # sum over (z-exponent, h-tuple) terms with the h-weights over the cap dropped
    rng = random.Random(20261020)
    zs, hmask = pack.zshift, (1 << pack.zshift) - 1

    def rand_terms():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            h = tuple(rng.randint(0, 1) for _ in pack.fields)
            terms[(rng.randint(-3, 3), h)] = rng.choice((-3, -1, 2, 5))
        return terms

    empties = 0
    for _ in range(40):
        ta, tb = rand_terms(), rand_terms()
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (IntSeries({(j << zs) | pack.pack(h): c for (j, h), c in t.items()}, d, pack)
                for t, d in ((ta, da), (tb, db)))
        want: dict = {}
        for (j1, h1), c1 in ta.items():
            for (j2, h2), c2 in tb.items():
                h = tuple(x + y for x, y in zip(h1, h2))
                if hweight(h) <= pack.cap:
                    key = (j1 + j2, pack.unpack(pack.pack(h)))
                    want[key] = want.get(key, 0) + F(c1 * c2, da * db)
        got = a.mul(b)
        assert got.order is None and got.den == da * db
        assert {(k >> zs, pack.unpack(k & hmask)): v for k, v in got.items()} == {
            k: v for k, v in want.items() if v}
        empties += not ta or not tb
    assert empties


def test_intseries_product_with_an_empty_operand():
    # an empty O(z^N) operand enters the order formula with lowest exponent N;
    # an exactly-zero operand gives the exact empty product; ZSeries.mul, on
    # the same rule, gives the same orders
    pack = HPacking(0, 0)

    def both(coeffs, den, order=None):
        return IntSeries(coeffs, den, pack, order), ZSeries({j: F(c, den) for j, c in coeffs.items()}, order)

    one, empty3 = both({0: 1}, 1, 3), both({}, 1, 3)
    for (a, za), (b, zb), order in ((empty3, one, 3), (one, empty3, 3), (empty3, both({}, 2, 2), 5),
                                    (both({}, 1, 4), both({-1: 5}, 1, 6), 3)):
        got = a.mul(b)
        assert (got.coeffs, got.order, got.den) == ({}, order, a.den * b.den)
        got = za.mul(zb)
        assert (got.coeffs, got.order) == ({}, order)
        got = a.mul(b, 1)
        assert (got.coeffs, got.order) == ({}, 2)
    zero = both({}, 3)
    for (a, za), (b, zb) in ((zero, one), (one, zero), (zero, zero), (zero, empty3), (empty3, zero)):
        for hi in (None, 1):
            got = a.mul(b, hi)
            assert (got.coeffs, got.order, got.den) == ({}, None, a.den * b.den)
        got = za.mul(zb)
        assert (got.coeffs, got.order) == ({}, None)


def test_series_invert_geometric():
    s = ZSeries({0: 1, 1: 1}, order=8)
    inv = series_invert(s)
    assert dict(inv.items()) == {j: ParamPoly.const((-1) ** j) for j in range(8)}
    assert s.mul(inv).coeffs == {0: ParamPoly.one()}


def test_series_invert_k_family_example():
    # invert 2 z^4/(z^2+eps) and recover (1/2) z^-2 + (eps/2) z^-4 exactly
    order = 12
    cs = {4 + 2 * k: ParamPoly.eps(-k - 1, F(2 * (-1) ** k)) for k in range(order)}
    s = ZSeries({j: c for j, c in cs.items() if j < order}, order=order)
    inv = series_invert(s)
    assert inv.coeff(-2) == ParamPoly.const(F(1, 2))
    assert inv.coeff(-4) == ParamPoly.eps(1, F(1, 2))
    assert all(not inv.coeff(j) for j in range(-1, inv.order) if j not in (-2, -4))


def test_series_invert_requires_unit_leading_term():
    with pytest.raises(ValueError, match="not a unit"):
        series_invert(ZSeries({0: ParamPoly.h(1)}, order=4))
    with pytest.raises(ValueError, match="not a unit"):
        series_invert(ZSeries({0: ParamPoly.one() + ParamPoly.h(1)}, order=4))


def test_series_invert_double_factorial_vs_s_values():
    # invert sum (-1)^k (2k+1)!! t^k = exp(-sum s_i t^i): multiplying back
    # must give 1, and the inverse is exp(sum s_i t^i)
    order = 6
    s = ZSeries({k: F((-1) ** k * odd_df(k)) for k in range(order)}, order=order)
    inv = series_invert(s)
    assert s.mul(inv).coeffs == {0: ParamPoly.one()}
    want = exp_coeffs([F(0), *s_sequence(order - 1)])
    assert [inv.coeff(k).as_fraction() for k in range(order)] == want

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from math import gcd

import pytest

from kapparec.cli import _engine, _top
from kapparec.coeffs import h_star
from kapparec.epsilonlab import check_regularity
from kapparec.intseries import IntSeries
from kapparec.parampoly import ParamPoly, hweight
from kapparec.kappapoly import insert_sorted
from kapparec.toprec import (
    FAMILIES,
    Correlator,
    Engine,
    InsufficientOrderError,
    SpectralCurve,
    _series,
    _sorted_tuples,
    build_curve,
    correlators_to_potential,
    levels,
    required_order,
)
from kapparec.zseries import ZSeries, series_invert
from kapparec.rationals import odd_df


def entry(corr, key):
    v = corr.value(key)
    return v.as_fraction() if not isinstance(v, F) else v


def test_curve_construction_invariants():
    c = build_curve("k", 14)
    # 1/y = z + eps/z exactly
    inv = series_invert(c.y)
    assert inv.coeff(-1) == ParamPoly.eps(1)
    assert inv.coeff(1) == ParamPoly.one()
    assert all(not inv.coeff(j) for j in range(2, inv.order))
    # eta/dz = z y(z) is even with leading unit eps^-1 z^2
    eta = c.y.shift(1)
    assert all(j % 2 == 0 for j in eta.coeffs) and eta.items()[0] == (2, ParamPoly.eps(-1))
    cj = build_curve("j", 12)
    invj = series_invert(cj.y)
    expected = {
        -1: ParamPoly.eps(1),
        1: ParamPoly.const(F(1, 3)),
        3: ParamPoly.eps(-1, F(-1, 45)),
        5: ParamPoly.eps(-2, F(1, 189)),
        7: ParamPoly.eps(-3, F(-23, 14175)),
    }
    for j, want in expected.items():
        assert invj.coeff(j) == want
    assert build_curve("bgw", 8).y.coeffs == {-1: ParamPoly.one()}
    with pytest.raises(ValueError):
        build_curve("nope", 8)


def test_weak_curve_reduces_to_k_at_h_zero():
    # dropping the formal h part of the weak curve gives the rescaled curve
    cw = build_curve("weak-k", 12, n_h=3)
    ck = build_curve("k", 12)
    for j, c in ck.y.coeffs.items():
        pure = ParamPoly({(e, h): v for (e, h), v in cw.y.coeff(j).terms.items() if not h})
        assert pure == c


def test_kw_matches_oracle_exhaustively(kw_engine, oracle):
    for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        corr = kw_engine.correlator(g, n)
        for key in _sorted_tuples(n, 3 * g - 3 + n):
            assert entry(corr, key) == oracle.kw_number(g, key), (g, n, key)


def test_symmetry_and_dimension_bound(kw_engine, k_engine):
    for eng in (kw_engine, k_engine):
        corr = eng.correlator(2, 2)
        dim = 3 * 2 - 3 + 2
        for key in corr.entries:
            assert key == tuple(sorted(key))
            assert sum(key) <= dim
        assert corr.value((0, 1)) == corr.value((1, 0))


def test_j_family_displays(j_engine):
    # raw-basis displays convert by raw_k = (2k+1)!! * entry_k per variable
    c03 = j_engine.correlator(0, 3)
    assert c03.value((0, 0, 0)) == ParamPoly.eps(1)
    c04 = j_engine.correlator(0, 4)
    assert c04.value((0, 0, 0, 0)) == ParamPoly.eps(1)
    assert c04.value((1, 0, 0, 0)) * odd_df(1) == ParamPoly.eps(2, 3)
    c11 = j_engine.correlator(1, 1)
    assert c11.value((0,)) == ParamPoly.const(F(1, 24))
    assert c11.value((1,)) * odd_df(1) == ParamPoly.eps(1, F(3, 24))
    c12 = j_engine.correlator(1, 2)
    assert c12.value((1, 0)) * odd_df(1) == ParamPoly.eps(1, F(2, 8))
    assert c12.value((2, 0)) * odd_df(2) == ParamPoly.eps(2, F(5, 8))
    assert c12.value((1, 1)) * odd_df(1) ** 2 == ParamPoly.eps(2, F(3, 8))
    c21 = j_engine.correlator(2, 1)
    raw = {k: c21.value((k,)) * odd_df(k) for k in range(5)}
    assert raw[1] == ParamPoly.const(F(-2, 1920))
    assert raw[2] == ParamPoly.eps(1, F(130, 1920))
    assert raw[3] == ParamPoly.eps(2, F(1015, 1920))
    assert raw[4] == ParamPoly.eps(3, F(1575, 1920))
    assert not raw[0]


def test_weak_k_potentials_match_displays(weak_k_engine):
    pot = correlators_to_potential(weak_k_engine.correlator(1, 1))
    assert pot[(0,)] == ParamPoly.const(F(1, 8)) + ParamPoly.h(1, coeff=F(-1, 24)) * ParamPoly.eps(1)
    assert pot[(1,)] == ParamPoly.eps(1, F(1, 24))
    pot = correlators_to_potential(weak_k_engine.correlator(0, 4))
    assert pot[(0, 0, 0, 0)] == ParamPoly.eps(1, F(1, 8)) + ParamPoly.eps(2, F(-1, 24)) * ParamPoly.h(1)
    assert pot[(0, 0, 0, 1)] == ParamPoly.eps(2, F(1, 6))
    pot = correlators_to_potential(weak_k_engine.correlator(1, 2))
    e2 = ParamPoly.eps(2)
    want00 = (
        ParamPoly.const(F(1, 16))
        + ParamPoly.eps(1, F(-3, 16)) * ParamPoly.h(1)
        + e2 * (ParamPoly.h(1, 2, F(1, 24)) + ParamPoly.h(2, coeff=F(-1, 48)))
    )
    assert pot[(0, 0)] == want00
    assert pot[(0, 1)] == ParamPoly.eps(1, F(1, 4)) + e2 * ParamPoly.h(1, coeff=F(-1, 12))
    assert pot[(0, 2)] == e2 * F(1, 24)
    assert pot[(1, 1)] == e2 * F(1, 48)


def test_weak_f21_displayed_blocks(weak_k_engine, weak_j_engine):
    potk = correlators_to_potential(weak_k_engine.correlator(2, 1))
    # eps^1 block: ((627 h1^2 - 203 h2) t0 - 407 h1 t1 + 107 t2)/1920
    assert potk[(0,)].eps_part(1) == ParamPoly.h(1, 2, F(627, 1920)) + ParamPoly.h(2, coeff=F(-203, 1920))
    assert potk[(1,)].eps_part(1) == ParamPoly.h(1, coeff=F(-407, 1920))
    assert potk[(2,)].eps_part(1) == ParamPoly.const(F(107, 1920))
    # eps^0 block: -9 h1 t0/128 + 3 t1/128
    assert potk[(0,)].eps_part(0) == ParamPoly.h(1, coeff=F(-9, 128))
    assert potk[(1,)].eps_part(0) == ParamPoly.const(F(3, 128))
    potj = correlators_to_potential(weak_j_engine.correlator(2, 1))
    assert potj[(0,)].eps_part(1) == ParamPoly.h(1, 2, F(157, 5760)) + ParamPoly.h(2, coeff=F(-50, 5760))
    assert potj[(1,)].eps_part(1) == ParamPoly.h(1, coeff=F(-17, 960))
    assert potj[(2,)].eps_part(1) == ParamPoly.const(F(13, 2880))
    assert potj[(0,)].eps_part(0) == ParamPoly.h(1, coeff=F(1, 2880))
    assert potj[(1,)].eps_part(0) == ParamPoly.const(F(-1, 2880))


def test_weak_f21_frozen_deeper_block(weak_k_engine):
    # the eps^2 block of F_{2,1} is not published; regression-freeze it
    pot = correlators_to_potential(weak_k_engine.correlator(2, 1))
    e2 = pot[(0,)].eps_part(2)
    assert e2 == (
        ParamPoly.h(3, coeff=F(-13, 640))
        + ParamPoly.h(1) * ParamPoly.h(2) * F(149, 960)
        + ParamPoly.h(1, 3, F(-3, 16))
    )


def test_bgw_direct_run(bgw_engine):
    assert bgw_engine.correlator(0, 3).entries == {}
    assert entry(bgw_engine.correlator(1, 1), (0,)) == F(1, 8)
    assert entry(bgw_engine.correlator(2, 1), (1,)) == F(3, 128)
    assert entry(bgw_engine.correlator(3, 1), (2,)) == F(15, 1024)
    assert entry(bgw_engine.correlator(3, 2), (1, 1)) == 2 * F(63, 1024)


def test_kstar_is_k_at_eps_minus_one(k_engine):
    # kstar is k at eps = -1 with y -> -y: each kstar entry is
    # (-1)^(n + sum(k) - g + 1) times the rational coefficient of the k entry
    kstar = Engine(build_curve("kstar", max(required_order(g, n) for g, n in levels(7))))
    count = 0
    for g, n in levels(7):
        ck, cs = k_engine.correlator(g, n), kstar.correlator(g, n)
        assert set(ck.entries) == set(cs.entries), (g, n)
        for key, v in ck.entries.items():
            e = sum(key) - g + 1
            assert cs.entries[key] == ParamPoly.const((-1) ** (n + e) * v.eps_part(e).as_fraction())
            count += 1
    assert count == 415


def _substituted_curve(family: str, order: int, eps: int, n_h: int = 0) -> SpectralCurve:
    """The family's curve with a rational substituted for eps in y, built by
    hand: the engine sees coefficients free of eps and runs no grading."""
    cap = n_h or None
    y = build_curve(family, order, n_h=n_h, h_weight_cap=cap).y
    y = ZSeries({j: c.subs_eps(eps) for j, c in y.coeffs.items()}, order=y.order)
    return SpectralCurve(family, y, order, h_weight_cap=cap)


@pytest.mark.parametrize("family", ["k", "j"])
def test_eps_is_a_grading(family):
    # the integer core runs k and j at eps = 1 and restores eps as
    # eps^(sum(k)-g+1); check that grading on curves with eps = 1 and eps = 2
    # substituted, which carry no eps at all
    order = max(required_order(g, n) for g, n in levels(6))
    one = Engine(_substituted_curve(family, order, 1))
    two = Engine(_substituted_curve(family, order, 2))
    graded = Engine(build_curve(family, order))
    assert one.curve.eps_weight() == two.curve.eps_weight() == 0
    for g, n in levels(6):
        c1, c2 = one.correlator(g, n), two.correlator(g, n)
        assert set(c1.entries) == set(c2.entries), (g, n)
        for key, v in c1.entries.items():
            assert c2.entries[key] == v * F(2) ** (sum(key) - g + 1), (g, n, key)
        assert {key: v.subs_eps(2) for key, v in graded.correlator(g, n).entries.items()} == c2.entries


@pytest.mark.parametrize("family", ["weak-k", "weak-j"])
def test_eps_is_a_grading_on_the_weak_curves(family):
    # the h rows run at eps = 1 and restore eps as
    # eps^(sum(k)-g+1+hweight(alpha)) on the term h^alpha; check that grading
    # on curves with eps = 1 and eps = 2 substituted, whose y carries h only
    order, n_h = max(required_order(g, n) for g, n in levels(6)), 8
    one = Engine(_substituted_curve(family, order, 1, n_h))
    two = Engine(_substituted_curve(family, order, 2, n_h))
    graded = Engine(build_curve(family, order, n_h=n_h, h_weight_cap=n_h))
    assert one.curve.eps_weight() == two.curve.eps_weight() == 0
    terms = 0
    for g, n in levels(6):
        c1, c2 = one.correlator(g, n), two.correlator(g, n)
        assert set(c1.entries) == set(c2.entries), (g, n)
        for key, v in c1.entries.items():
            assert set(c2.entries[key].terms) == set(v.terms), (g, n, key)
            for (e, h), c in v.terms.items():
                assert e == 0
                want = c * F(2) ** (sum(key) - g + 1 + hweight(h))
                assert c2.entries[key].terms[(e, h)] == want, (g, n, key, h)
                terms += 1
        assert {key: v.subs_eps(2) for key, v in graded.correlator(g, n).entries.items()} == c2.entries
    assert terms > 1000


def test_curve_input_is_checked():
    # y must be odd in z with at most a simple pole at z = 0
    SpectralCurve("k", ZSeries({-1: 1, 1: 1, 3: ParamPoly.h(1)}, order=6), 6)
    for y in (ZSeries({1: 1, 2: 1}, order=6), ZSeries({0: 1}), ZSeries({-2: 1, 1: 1}, order=6)):
        with pytest.raises(ValueError, match="y must be odd in z"):
            SpectralCurve("k", y, 6)
    for y in (ZSeries({-3: 1, 1: 1}, order=6), ZSeries({-5: 1})):
        with pytest.raises(ValueError, match="at most a simple pole"):
            SpectralCurve("k", y, 6)
    # exactly zero, and zero below its order
    for y in (ZSeries({}), ZSeries({}, order=6)):
        with pytest.raises(ValueError, match="y must not be zero"):
            SpectralCurve("k", y, 6)


def test_a_curve_fitting_no_grading_is_refused():
    # y = z + eps z^3: the z term fits only weight 0, the z^3 term neither
    y = ZSeries({1: ParamPoly.one(), 3: ParamPoly.eps(1)}, order=6)
    with pytest.raises(ValueError, match="no eps grading"):
        Engine(SpectralCurve("k", y, 6))


# sha256 of the canonical JSON of every correlator up to level 6, as the
# CLI's engines computed them on ZSeries of ParamPoly
WEAK_DIGESTS = {
    "weak-k": "1259470da1b296d2446f1278fcfdaea2a12c2acad10530d1bbd5a0b2151d79ba",
    "weak-j": "53f2d2fc85c191c7c25e94f2955391c558dca145f48d2c2d3213e2b73fba9ec4",
}


# the same digest over every correlator up to level 7, as the per-alpha
# slices and the per-rest diagonal sums computed them
SCALAR_DIGESTS = {
    "kw": "740820cae2911c5a43c82f614a36598ab95b40750ceb4aaaafa96722dc895835",
    "k": "2a8c58d1d4025e57606dcaf6dcd6734f6bd8561b5dc71cc4f76dceba77ecc3bc",
    "j": "bd7804c3e40b989b988d5039b3470a8286b9f0eb5a9f53479fc0596d3da85f8c",
    "bgw": "af403e202d97df27657878b0b23735616258374b81889c573a2ab84b809fc1c4",
    "kstar": "a6af1733fc55c15620b608bfc85c7e0495a2bab0cf5e5c4324f5f4ac03a87a33",
}


def _digest(family: str, budget: int) -> str:
    eng = _engine(family, *_top(budget))
    blob = json.dumps([eng.correlator(g, n).to_json() for g, n in levels(budget)],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(WEAK_DIGESTS))
def test_weak_correlators_match_pinned_digests(family):
    assert _digest(family, 6) == WEAK_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(SCALAR_DIGESTS))
def test_scalar_correlators_match_pinned_digests(family):
    assert _digest(family, 7) == SCALAR_DIGESTS[family]


def _reference_slice(eng, gp, alpha):
    """The slice of w_{g',len(alpha)+1} at alpha on its own: every k probed
    for an entry at alpha + (k,)."""
    if gp == 0 and len(alpha) == 0:
        return None  # w_{0,1} = 0
    pack = eng.curve.pack
    if gp == 0 and len(alpha) == 1:
        # mixed w_{0,2}(z, z_j) against the (2k+1)!! basis
        k = alpha[0]
        c = F(2 * k + 1, odd_df(k))
        return _series(pack, [(2 * k, (c.denominator, ((0, c.numerator),)), 1)])
    corr = eng.correlator(gp, len(alpha) + 1)
    smax = 3 * gp - 3 + len(alpha) + 1 - sum(alpha)
    return _series(pack, [
        (-2 * k - 2, f, odd_df(k))
        for k in range(smax + 1)
        if (f := corr.forms.get(insert_sorted(alpha, k))) is not None
    ])


def _reference_diagonal(eng, g, n, rest):
    """The terms of w_{g-1,n+1}(z, z, rest) on their own: every pair k <= k'
    probed for an entry at rest + (k, k')."""
    if (g, n) == (1, 1):
        return [(-2, (4, ((0, 1),)), 1)]  # dz^2/(4 z^2)
    if g == 0:
        return []
    lower = eng.correlator(g - 1, n + 1)
    smax = 3 * (g - 1) - 3 + (n + 1) - sum(rest)
    return [
        (-2 * (k + kp) - 4, f, (1 if k == kp else 2) * odd_df(k) * odd_df(kp))
        for k in range(smax + 1)
        for rest_k in (insert_sorted(rest, k),)
        for kp in range(k, smax - k + 1)
        if (f := lower.forms.get(insert_sorted(rest_k, kp))) is not None
    ]


def _same_series(a, b) -> bool:
    return (a is None) == (b is None) and (a is None or (a.coeffs, a.den) == (b.coeffs, b.den))


@pytest.mark.parametrize("family", ["kw", "k", "j", "weak-k", "bgw"])
def test_level_slices_and_diagonals_equal_the_per_key_references(family):
    # each table's slices are pushed from its entries and each level's
    # diagonals from w_{g-1,n+1}; probing key by key must give the same
    # coefficients over the same denominator, and no slice the probes miss
    eng = _engine(family, *_top(7))
    pack = eng.curve.pack
    for g, n in levels(7):
        dim = 3 * g - 3 + n
        eng.correlator(g, n)
        diags, slices = eng._level(g, n)
        assert set(diags) <= set(_sorted_tuples(n - 1, dim))
        for rest in _sorted_tuples(n - 1, dim):
            got = _series(pack, diags.get(rest, []))
            assert _same_series(got, _series(pack, _reference_diagonal(eng, g, n, rest))), (g, n, rest)
        assert len(slices) == g + 1 and all(len(t) == n for t in slices)
        for gp, tables in enumerate(slices):
            for a, table in enumerate(tables):
                if (gp, a + 1) == (g, n):
                    assert table is None  # no product reads w_{g,n} itself
                    continue
                assert set(table) <= set(_sorted_tuples(a, dim))
                for alpha in _sorted_tuples(a, dim):
                    assert _same_series(table.get(alpha), _reference_slice(eng, gp, alpha)), (gp, alpha)


def test_no_diagonal_map_outlives_its_level():
    # the diagonals are local to the level; the engine keeps only its table
    # and the slices built from it
    eng = _engine("k", *_top(6))
    for g, n in levels(6):
        eng.correlator(g, n)
        assert set(vars(eng)) == {"curve", "weight", "table", "_slices"}
        assert all(isinstance(s, IntSeries) for t in eng._slices.values() for s in t.values())


@pytest.mark.parametrize("family", ["k", "j", "kstar"])
def test_required_order_is_enough_and_two_less_is_refused(family):
    for g, n in [(0, 3), (0, 5), (1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]:
        order = required_order(g, n)
        Engine(build_curve(family, order)).correlator(g, n)
        with pytest.raises(InsufficientOrderError, match="curve order"):
            Engine(build_curve(family, order - 2)).correlator(g, n)


def test_a_short_y_is_caught_by_the_product_order_guard():
    # the curve claims depth for (2, 1) but its y stops at z^5: the curve-order
    # precheck passes, and the integer core must refuse at the product
    short = build_curve("k", 6).y
    eng = Engine(SpectralCurve("k", short, required_order(2, 1)))
    eng.correlator(0, 3)
    with pytest.raises(InsufficientOrderError, match="product order"):
        eng.correlator(2, 1)


def test_the_product_order_guard_is_sound_on_exact_curves():
    # kw and bgw have an exact y, so the curve-order precheck is skipped and
    # the read-off's product-order guard is the only order check: at every
    # curve order below the required one, a correlator is either refused by
    # that guard or equal to the one at the required order
    accepted = refused = 0
    for family in ("kw", "bgw"):
        for g, n in levels(6):
            want = Engine(build_curve(family, required_order(g, n))).correlator(g, n).forms
            for order in range(2, required_order(g, n)):
                try:
                    got = Engine(build_curve(family, order)).correlator(g, n).forms
                except InsufficientOrderError as e:
                    assert "product order" in str(e), (family, g, n, order)
                    refused += 1
                else:
                    assert got == want, (family, g, n, order)
                    accepted += 1
    assert (accepted, refused) == (257, 107)


def _two_eta(curve: SpectralCurve) -> ZSeries:
    """2 eta/dz = 2 z y(z), the series the reference inverts."""
    eta = curve.y.shift(1)
    return ZSeries({j: c * 2 for j, c in eta.coeffs.items()}, order=eta.order)


@pytest.mark.parametrize("family", FAMILIES)
def test_integer_inverse_equals_the_lowered_reference(family):
    # 1/(2 eta) inverted on IntSeries, under the h-weight cap for the weak
    # families, against the ParamPoly series inverse lowered afterwards: the
    # same terms over the same denominator with the same order, at the CLI's
    # default verify budget and at a deeper one; the terms come by increasing
    # key, which the read-off's truncated product stops early on
    for budget in (5, 10):
        curve = _engine(family, *_top(budget)).curve
        two_eta = _two_eta(curve)
        want = curve.lower(series_invert(two_eta, curve.order if two_eta.order is None else None))
        got = curve.inv2eta()
        assert (got.coeffs, got.den, got.order) == (want.coeffs, want.den, want.order), budget
        assert list(got.coeffs) == sorted(got.coeffs)


def test_integer_inverse_raises_the_reference_errors():
    y = ZSeries({1: ParamPoly.h(1), 3: 1}, order=6)
    curve = SpectralCurve("weak-k", y, 6)
    cases = [
        (ZSeries({2: ParamPoly.h(1, coeff=2), 4: 2}, order=7), None),
        (ZSeries({0: ParamPoly.one() + ParamPoly.h(1)}, order=4), None),
        (ZSeries({2: 2}), None),
        (ZSeries({2: 2}), -2),
        (ZSeries({}, order=3), None),
    ]
    for s, out_order in cases:
        with pytest.raises(ValueError) as want:
            series_invert(s, out_order)
        with pytest.raises(ValueError) as got:
            curve.lower(s).invert(out_order)
        assert str(got.value) == str(want.value)
    # 2 eta/dz = 2 h_1 z^2 + 2 z^4 has no unit leading term
    with pytest.raises(ValueError, match="leading term not a unit"):
        curve.inv2eta()
    # a y too short for the curve order gives the reference's shorter inverse,
    # which the product order guard then refuses
    short = SpectralCurve("k", build_curve("k", 6).y, required_order(2, 1))
    want = short.lower(series_invert(_two_eta(short)))
    got = short.inv2eta()
    assert (got.coeffs, got.den, got.order) == (want.coeffs, want.den, want.order)


def test_the_recursion_builds_no_parampoly(monkeypatch):
    # tables are stored and summed as integer forms, and the regularity
    # check reads them; only a read of an entry builds its ParamPoly view
    engines = [_engine(family, 5, 1) for family in ("kw", "k", "weak-k")]
    regular = _engine("weak-j", *_top(5))
    built = []
    raw, init = ParamPoly.raw, ParamPoly.__init__

    def counting_raw(terms):
        built.append(1)
        return raw(terms)

    def counting_init(self, terms=None):
        built.append(1)
        init(self, terms)

    monkeypatch.setattr(ParamPoly, "raw", staticmethod(counting_raw))
    monkeypatch.setattr(ParamPoly, "__init__", counting_init)
    for eng in engines:
        eng.correlator(5, 1)
    assert all(r.passed for r in check_regularity(regular, 5))
    assert not built
    assert engines[2].correlator(5, 1).value((0,))
    assert built


def test_insufficient_order_is_loud():
    eng = Engine(build_curve("k", required_order(1, 1)))
    eng.correlator(1, 1)
    with pytest.raises(InsufficientOrderError):
        eng.correlator(2, 1)


def test_weight_cap_does_not_change_results():
    # the uncapped engine packs under a bound no weight reaches, and asserts
    # so: a carry between packed exponents would fail it or change a value
    gns = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1), (0, 5)]
    order = max(required_order(*gn) for gn in gns)
    for family in ("weak-k", "weak-j"):
        a = Engine(build_curve(family, order, n_h=4, h_weight_cap=4))
        b = Engine(build_curve(family, order, n_h=4, h_weight_cap=None))
        for gn in gns:
            assert a.correlator(*gn).entries == b.correlator(*gn).entries, (family, gn)


@pytest.mark.parametrize("family", ["weak-k", "weak-j"])
def test_a_lower_cap_drops_exactly_the_terms_over_it(family):
    # h-weights are non-negative and add, so a cap c removes the terms of
    # h-weight over c from every entry and changes no other term
    order = required_order(2, 2)
    full = Engine(build_curve(family, order, n_h=5, h_weight_cap=None))
    for cap in range(4):
        eng = Engine(build_curve(family, order, n_h=5, h_weight_cap=cap))
        for gn in [(0, 4), (1, 3), (2, 1), (2, 2)]:
            want = {}
            for key, v in full.correlator(*gn).entries.items():
                if t := {m: c for m, c in v.terms.items() if hweight(m[1]) <= cap}:
                    want[key] = t
            assert {key: v.terms for key, v in eng.correlator(*gn).entries.items()} == want, (cap, gn)


def test_loop_equation_residual(kw_engine, k_engine, j_engine, weak_k_engine, weak_j_engine):
    for eng in (kw_engine, k_engine, j_engine, weak_k_engine, weak_j_engine):
        for gn in [(0, 3), (1, 1), (1, 2), (2, 1)]:
            assert eng.loop_equation_negative_residual(*gn)


def test_every_slot_reads_off_the_stored_entry(kw_engine, k_engine, j_engine, weak_k_engine,
                                                weak_j_engine, bgw_engine):
    # each entry is computed from its largest slot only; rebuilding it from
    # every other slot must give the same value exactly
    for eng in (kw_engine, k_engine, j_engine, weak_k_engine, weak_j_engine, bgw_engine):
        for gn in [(0, 4), (1, 2), (1, 3), (2, 2)]:
            assert eng.all_slots_agree(*gn), (eng.curve.family, gn)
            # stored forms are canonical: pairs sorted by h-key, gcd 1; the
            # valuation read off them is the one of the ParamPoly view
            corr = eng.correlator(*gn)
            vals = [v.eps_valuation() for v in corr.entries.values()]
            assert corr.min_eps_valuation() == min(vals, default=None)
            for den, pairs in corr.forms.values():
                assert den > 0 and gcd(den, *(c for _, c in pairs)) == 1
                assert [h for h, _ in pairs] == sorted({h for h, _ in pairs})


def test_slot_check_catches_an_asymmetric_table():
    def perturbed(gn):
        # add 1 to the stored integer form of the largest entry
        eng = Engine(build_curve("kw", required_order(1, 3)))
        forms = dict(eng.correlator(*gn).forms)
        key = max(forms)
        den, ((h, num),) = forms[key]
        forms[key] = (den, ((h, num + den),))
        eng.table[gn] = Correlator(*gn, forms, eng.curve.pack, eng.weight)
        return eng

    assert Engine(build_curve("kw", required_order(1, 3))).all_slots_agree(1, 2)
    # a wrong w_{1,1} makes the recursion for w_{1,2} and w_{1,3} asymmetric
    assert not perturbed((1, 1)).all_slots_agree(1, 2)
    assert not perturbed((1, 1)).all_slots_agree(1, 3)
    # a stored entry that no slot reads off
    assert not perturbed((1, 2)).all_slots_agree(1, 2)


def test_correlator_json_shape(kw_engine):
    blob = kw_engine.correlator(1, 1).to_json()
    assert blob["basis"] == "doublefactorial"
    assert blob["g"] == 1 and blob["n"] == 1
    assert blob["entries"][0]["k"] == [0] or blob["entries"][0]["k"] == [1]


def test_stability_validation(kw_engine):
    with pytest.raises(ValueError):
        kw_engine.correlator(0, 2)
    with pytest.raises(ValueError):
        kw_engine.correlator(1, 0)


def test_weak_oracle_equivalence_level5(oracle, weak_k_engine, weak_j_engine):
    # entries at level 5 match sum_m eps^{2g-2+n-m} int K_m(h*) K(h) psi^k
    from kapparec.parampoly import ParamPoly

    def oracle_entry(style, eng, g, n, key):
        w = 3 * g - 3 + n - sum(key)
        hv = {}
        for k in range(1, w + 1):
            acc = ParamPoly.zero()
            for i in range(k + 1):
                j = k - i
                if j > eng.curve.n_h:
                    continue
                hj = ParamPoly.one() if j == 0 else ParamPoly.h(j)
                acc = acc + ParamPoly.eps(-i, h_star(style, i)) * hj
            hv[k] = acc
        val = oracle.kclass_psi(g, tuple(sorted(key)), hv)
        if not isinstance(val, ParamPoly):
            val = ParamPoly.const(val)
        return ParamPoly.eps(2 * g - 2 + n) * val

    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        for g, n in [(3, 1), (2, 3), (1, 5), (0, 7)]:
            corr = eng.correlator(g, n)
            for key in _sorted_tuples(n, 3 * g - 3 + n):
                assert corr.value(key) == oracle_entry(style, eng, g, n, key), (style, g, n, key)


def test_mixed_w02_rule_is_bergman_odd_part(kw_engine):
    # expanding (z1^2+z2^2)/(z1^2-z2^2)^2 = (B(z1,z2) - B(-z1,z2))/2 in
    # |z1| < |z2| gives sum (2k+1) z1^{2k} / z2^{2k+2}; against the
    # (2k+1)!! dz2/z2^{2k+2} basis the slice at index k is z1^{2k}/(2k-1)!!
    # B(z1,z2) = sum_m m z1^{m-1} z2^{-m-1} in |z1| < |z2|; the z1 -> -z1
    # reflection carries the d(-z1) Jacobian, so the projection reads
    # (B(z1,z2) - B(-z1,z2))/2 = (1/(z1-z2)^2 + 1/(z1+z2)^2)/2 dz1 dz2
    for k in range(0, 5):
        odd_part = {}
        for m in range(1, 12):
            c = (F(m) + F(m) * (-1) ** (m - 1)) / 2
            if c:
                odd_part[(m - 1, -m - 1)] = c
        raw = odd_part[(2 * k, -2 * k - 2)]
        slice_k = kw_engine._level(0, k + 3)[1][0][1][(k,)]
        assert dict(slice_k.items()) == {2 * k: ParamPoly.const(raw / odd_df(k))}


def test_required_order_formula():
    assert required_order(1, 1) == 2 * (3 - 2 + 1) + 2
    assert required_order(2, 1) == 12


def test_entries_is_a_fresh_dict_on_each_read(k_engine):
    corr = k_engine.correlator(1, 2)
    first, second = corr.entries, corr.entries
    assert type(first) is dict and first is not second and first == second
    assert list(first) == list(corr.forms) and all(v == corr.value(k) for k, v in first.items())
    first.clear()
    assert len(corr.entries) == len(corr.forms) > 0

from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest

from kapparec.epsilonlab import (
    RegularityReport,
    check_regularity,
    complementary_monomials,
    levels,
    nested_psi_pullback,
    take_limit,
    take_limit_one_point,
    verify_pullback_identity,
    verify_vanishing,
)
from kapparec.kappapoly import KappaPoly, k_polys
from kapparec.parampoly import ParamPoly

from conftest import bernoulli


def test_levels_enumeration():
    assert levels(1) == [(0, 3), (1, 1)]
    assert set(levels(3)) == {(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)}


def test_k_regularity_is_a_theorem(k_engine):
    reports = check_regularity(k_engine, 5)
    assert all(r.passed for r in reports)
    # genus-0 entries sit at strictly positive eps powers
    assert all(r.min_eps_valuation >= 1 for r in reports if r.g == 0)
    assert "PASS" in reports[0].row()


def test_regularity_report_fields_and_row(k_engine):
    reports = check_regularity(k_engine, 5)
    assert len(reports) == len(levels(5)) == 14
    r = reports[6]
    assert (r.family, r.g, r.n, r.entries, r.min_eps_valuation, r.passed) == ("k", 2, 1, 4, 0, True)
    assert r.row() == "k        g=2 n=1 entries=   4 min_eps_val=  0 PASS"
    assert reports[0].row() == "k        g=0 n=3 entries=   1 min_eps_val=  1 PASS"
    empty = RegularityReport(family="weak-j", g=1, n=2, entries=0, min_eps_valuation=None, passed=False)
    assert empty.row() == "weak-j   g=1 n=2 entries=   0 min_eps_val=  - FAIL"


def test_j_regularity_conjectural_pass(j_engine):
    reports = check_regularity(j_engine, 5)
    assert all(r.passed for r in reports)


def test_weak_regularity(weak_k_engine, weak_j_engine):
    for eng in (weak_k_engine, weak_j_engine):
        assert all(r.passed for r in check_regularity(eng, 5))


def test_take_limit_j_values(j_engine):
    lim = take_limit(j_engine, 6)
    # linear coefficients follow (g-1)! B_{2g} / ((2g)! 2^g)
    for g in (1, 2, 3):
        got = lim[(g, (g - 1,))].as_fraction()
        assert got == factorial(g - 1) * bernoulli(2 * g) / (factorial(2 * g) * 2**g)
    assert lim[(2, (1,))].as_fraction() == F(-1, 2880)
    # no t-degree >= 2 monomials survive the limit
    assert all(len(mono) == 1 for (_, mono) in lim)


def test_take_limit_one_point_chain(j_engine):
    lim = take_limit_one_point(j_engine, 5)
    for g in (4, 5):
        assert lim[g][g - 1].as_fraction() == factorial(g - 1) * bernoulli(2 * g) / (
            factorial(2 * g) * 2**g
        )
        assert set(lim[g]) == {g - 1}


def test_take_limit_k_has_bgw_tail(k_engine):
    lim = take_limit(k_engine, 4)
    assert lim[(1, (0,))].as_fraction() == F(1, 8)
    assert lim[(1, (0, 0))].as_fraction() == F(1, 16)
    assert lim[(1, (0, 0, 0))].as_fraction() == F(1, 24)


def test_take_limit_rejects_irregular():
    # a graded curve cannot produce an eps^-1 entry at level 1, so a
    # correlator stand-in carries one
    class FakeCurve:
        family = "fake"

    class FakeCorrelator:
        entries = {(0, 0, 0): ParamPoly.eps(-1)}

        def min_eps_valuation(self):
            return min(c.eps_valuation() for c in self.entries.values())

    class FakeEngine:
        curve = FakeCurve()

        def correlator(self, g, n):
            return FakeCorrelator()

    with pytest.raises(ValueError, match="not regular"):
        take_limit(FakeEngine(), 1)


def test_verify_vanishing_ranges(oracle):
    assert verify_vanishing(oracle, 2, 1, 4, "k")
    assert verify_vanishing(oracle, 2, 2, 4, "j")  # boundary m = 2g-2+n, n > 1
    assert verify_vanishing(oracle, 2, 1, 5, "k")  # trivially true: m > 3g-3+n
    assert verify_vanishing(oracle, 2, 0, 3, "j")  # includes m = 3g-3 for J
    with pytest.raises(ValueError):
        verify_vanishing(oracle, 2, 1, 3, "k")  # m = 2g-2+n is not claimed
    with pytest.raises(ValueError):
        verify_vanishing(oracle, 2, 0, 3, "k")  # the K exception (3g-3, 0)
    with pytest.raises(ValueError):
        verify_vanishing(oracle, 2, 1, 4, "x")


def test_vanishing_pairing_cancels_exactly_across_denominators():
    # (2, 1, 4) in K style has the one complementary monomial psi^0 kappa^();
    # the stub's values make the five terms c * v read 1/3, 1/6, -1/2, 2/7, -2/7
    fam = k_polys(4)[4].terms
    parts = [F(1, 3), F(1, 6), F(-1, 2), F(2, 7), F(-2, 7)]
    values = {p: t / c for ((p, _), c), t in zip(fam.items(), parts)}
    assert len(values) == 5 and len({v.denominator for v in values.values()}) == 5

    class Stub:
        def kappa_psi_number(self, g, n, psis, lam):
            assert (g, n, tuple(psis)) == (2, 1, (0,))
            return values[lam]

    assert verify_vanishing(Stub(), 2, 1, 4, "k")
    for p, v in list(values.items()):
        values[p] = v + F(1, v.denominator)
        assert not verify_vanishing(Stub(), 2, 1, 4, "k"), p
        values[p] = v


def test_complementary_monomials_cover():
    mons = list(complementary_monomials(2, 1, 2))
    assert ((0,), (2,)) in mons and ((0,), (1, 1)) in mons
    assert ((2,), ()) in mons and ((1,), (1,)) in mons


def test_nested_pullback_degree_and_psi_divisibility():
    cls = nested_psi_pullback(k_polys(2)[2], 2)
    assert cls.degree() == 2 + 2
    # every term carries all the psi factors
    assert all(all(e >= 1 for e in psis) for (_, psis) in cls.terms)


def test_pullback_identity(oracle):
    assert verify_pullback_identity(oracle, 2, 1)
    assert verify_pullback_identity(oracle, 2, 2)
    with pytest.raises(ValueError):
        verify_pullback_identity(oracle, 1, 1)


def test_degree_mismatched_pairing_is_zero(oracle):
    m = 2 * 2 - 2 + 1
    diff = k_polys(m)[m].with_points(1)
    omega = KappaPoly({((), (3,)): F(1)}, 1)  # wrong complementary degree
    assert oracle.integrate(diff * omega, 2, 1) == 0

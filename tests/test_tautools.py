from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from functools import lru_cache

import pytest

from kapparec.coeffs import h_star, htilde_weak
from kapparec.kappapoly import multiset_splits
from kapparec.parampoly import ParamPoly
from kapparec.rationals import odd_df
from kapparec.tautools import (
    Potential,
    _determined_rows,
    bgw_bootstrap,
    genus1_closed_form,
    htilde_unshifted,
    kdv_residual,
    virasoro_rows,
    virk_rows,
)
from kapparec.toprec import _sorted_tuples

# determined rows of the m-th constraint on a budget-8 table (KW Virasoro
# m = -1..4; the BGW virK rows for m >= 0 are the same rows)
ROWS_AT_8 = {-1: 841, 0: 608, 1: 433, 2: 299, 3: 203, 4: 135}
KDV_ROWS_AT_8 = 488


@pytest.fixture(scope="module")
def kw_pot(oracle):
    return Potential.kw_from_oracle(oracle, 8)


@pytest.fixture(scope="module")
def bgw_pot():
    return bgw_bootstrap(8)


@pytest.fixture(scope="module")
def k_pot(k_engine):
    return Potential.from_engine(k_engine, 6)


def test_kw_virasoro_all_m(kw_pot):
    for m, want in ROWS_AT_8.items():
        rows, bad = virasoro_rows(kw_pot, m, htilde_unshifted())
        assert rows == want, m
        assert not bad, (m, list(bad)[:3])


# -- an independent row reference: each row enumerates the splits of its monomial


@lru_cache(maxsize=None)
def ref_dcoeff(pot, g, mono, ds):
    # inserting d into a monomial that already holds it c times gives c + 1
    key, factor = mono, 1
    for d in ds:
        key += (d,)
        factor *= key.count(d)
    return pot.coeff(g, key) * factor


@lru_cache(maxsize=None)
def ref_product(pot, g, mono, da, db):
    total = ParamPoly.zero()
    for g1 in range(0, g + 1):
        for alpha, beta, _ in multiset_splits(mono):
            total = total + ref_dcoeff(pot, g1, alpha, da) * ref_dcoeff(pot, g - g1, beta, db)
    return total


def ref_constraint_row(pot, m, g, mono, htilde):
    total = ParamPoly.zero()
    for a in range(0, m):
        b = m - 1 - a
        c = F(odd_df(a) * odd_df(b), 2)
        total = total + (ref_dcoeff(pot, g - 1, mono, (a, b)) + ref_product(pot, g, mono, (a,), (b,))) * c
    for v in set(mono):
        if m + v >= 0:
            rest = list(mono)
            rest.remove(v)
            total = total + ref_dcoeff(pot, g, tuple(rest), (m + v,)) * F(odd_df(m + v), odd_df(v - 1))
    for i, hv in htilde.items():
        k = m + i + 1
        if k >= 0:
            total = total - hv * ref_dcoeff(pot, g, mono, (k,)) * F(odd_df(k), odd_df(i))
    if m == -1 and g == 0 and mono == (0, 0):
        total = total + F(1, 2)
    if m == 0 and g == 1 and mono == ():
        total = total + F(1, 8)
    return total


def ref_virk_row(pot, m, with_eps, g, mono):
    rhs = ref_constraint_row(pot, m, g, mono, {})
    if with_eps:
        rhs = rhs + ParamPoly.eps(1) * ref_constraint_row(pot, m - 1, g, mono, {})
    return ref_dcoeff(pot, g, mono, (m,)) * odd_df(m) - rhs


def ref_kdv_row(pot, g, mono):
    return (
        ref_dcoeff(pot, g, mono, (0, 0, 1))
        - ref_product(pot, g, mono, (0, 0), (0, 0, 0))
        - ref_dcoeff(pot, g - 1, mono, (0,) * 5) * F(1, 12)
    )


def kdv_rows(budget):
    for g in range(0, budget + 1):
        for n_out in range(0, budget - 2 * g):
            yield from ((g, mono) for mono in _sorted_tuples(n_out, 3 * g + n_out + 1))


def matches_reference(result, rows, ref):
    # the (rows, bad) pair equals the reference's rows and nonzero values;
    # returns whether any row is nonzero
    want = {row: r for row in rows if (r := ref(*row))}
    assert result == (len(rows), want)
    return bool(want)


def test_maps_match_row_reference(kw_pot, bgw_pot, k_pot, weak_k_engine, weak_j_engine):
    # every determined row of the map form equals the per-row evaluation, on
    # each table and on a perturbed copy, where some residuals are nonzero
    cases = [
        (kw_pot, htilde_unshifted(), range(-1, 5), None, (1, (1,))),
        (bgw_pot, None, range(0, 5), False, (2, (1,))),
        (k_pot, None, range(0, 5), True, (1, (1,))),
    ]
    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        cases.append((Potential.from_engine(eng, 4), htilde_weak(style, 7, 12), range(-1, 3), None, (1, (1,))))
    for pot, ht, ms, with_eps, key in cases:
        for p in (pot, pot.perturbed(*key)):
            nonzero = False
            for m in ms:
                rows = list(_determined_rows(p.budget, m))
                if ht is None:
                    got, ref = virk_rows(p, m, with_eps), lambda g, mono: ref_virk_row(p, m, with_eps, g, mono)
                else:
                    got, ref = virasoro_rows(p, m, ht), lambda g, mono: ref_constraint_row(p, m, g, mono, ht)
                nonzero |= matches_reference(got, rows, ref)
            got, ref = kdv_residual(p), lambda g, mono: ref_kdv_row(p, g, mono)
            nonzero |= matches_reference(got, list(kdv_rows(p.budget)), ref)
            assert nonzero == (p is not pot), key
    ref_dcoeff.cache_clear()
    ref_product.cache_clear()


def test_bgw_bootstrap_digest(bgw_pot):
    # sha256 of the budget-8 table's sorted to_triples, as the per-row
    # bootstrap that merged one (g, n) at a time computed it
    blob = json.dumps([[g, list(mono), c.to_triples()] for (g, mono), c in bgw_pot.items()], separators=(",", ":"))
    want = "bd6133198c313d5243ee9e1cabde20b989952fba6da15881b15c79435a11c6d7"
    assert hashlib.sha256(blob.encode()).hexdigest() == want
    # merge drops the maps read off the table before it
    pot = Potential({(1, (0,)): ParamPoly.const(1)}, 2)
    assert pot.deriv((0,)) == {(1, ()): ParamPoly.const(1)}
    pot.merge({(1, (0, 0)): ParamPoly.const(1)})
    assert pot.deriv((0,)) == {(1, ()): ParamPoly.const(1), (1, (0,)): ParamPoly.const(2)}


def test_perturbation_is_detected(kw_pot, bgw_pot):
    # each check runs on the original first, so its maps are built: a
    # perturbed copy must not read them, and the original must still pass
    for pot, check, key in (
        (kw_pot, lambda F: virasoro_rows(F, 0, htilde_unshifted()), (1, (1,))),
        (bgw_pot, lambda F: virk_rows(F, 1, with_eps=False), (2, (1,))),
        (kw_pot, kdv_residual, (0, (0, 0, 0, 1))),
    ):
        assert not check(pot)[1]
        assert check(pot.perturbed(*key))[1], key
        assert not check(pot)[1]


def test_kw_kdv(kw_pot):
    rows, bad = kdv_residual(kw_pot)
    assert rows == KDV_ROWS_AT_8 and not bad


def test_kw_initial_condition(kw_pot):
    # U(t_0, 0, ...) = t_0
    assert kw_pot.coeff(0, (0, 0, 0)).as_fraction() * 6 == 1
    assert not kw_pot.coeff(0, (0, 0, 0, 0))


def test_bgw_displays_and_initial_condition(bgw_pot):
    # log Z = t0/8 + t0^2/16 + t0^3/24 + hbar(3 t1/128 + 9 t0 t1/128 + ...)
    #       + hbar^2 (15 t2/1024 + 63 t1^2/1024 + ...)
    want = {
        (1, (0,)): F(1, 8),
        (1, (0, 0)): F(1, 16),
        (1, (0, 0, 0)): F(1, 24),
        (2, (1,)): F(3, 128),
        (2, (0, 1)): F(9, 128),
        (3, (2,)): F(15, 1024),
        (3, (1, 1)): F(63, 1024),
    }
    for key, val in want.items():
        assert bgw_pot.coeff(*key).as_fraction() == val
    # U(t_0, 0, ...) = hbar/(8 (1-t_0)^2): the t_0^j coefficient of the second
    # t_0-derivative is (j+1)/8
    for j in range(0, 5):
        c = bgw_pot.coeff(1, (0,) * (j + 2)).as_fraction()
        assert c * (j + 2) * (j + 1) == F(j + 1, 8)


def fact_(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_bgw_three_routes_agree(bgw_pot, bgw_engine, k_engine):
    direct = Potential.from_engine(bgw_engine, 5)
    for (g, mono), c in direct.items():
        assert bgw_pot.coeff(g, mono) == c
    for (g, mono), c in bgw_pot.items():
        if 2 * g - 2 + len(mono) <= 5:
            assert direct.coeff(g, mono) == c
    limit = Potential.from_engine(k_engine, 5)
    for (g, mono), c in limit.items():
        assert c.eps_valuation() >= 0
        assert c.eps_part(0) == bgw_pot.coeff(g, mono)


def test_bgw_virasoro_and_kdv(bgw_pot):
    for m in range(0, 5):
        rows, bad = virk_rows(bgw_pot, m, with_eps=False)
        assert rows == ROWS_AT_8[m] and not bad, m
    rows, bad = kdv_residual(bgw_pot)
    assert rows == KDV_ROWS_AT_8 and not bad


def test_k_family_virk_and_kdv(k_pot):
    for m in range(0, 4):
        rows, bad = virk_rows(k_pot, m, with_eps=True)
        assert rows and not bad, (m, list(bad)[:2])
    rows, bad = kdv_residual(k_pot)
    assert rows and not bad


def test_virk_perturbation_is_detected(bgw_pot, k_pot):
    # eps = 0: the m = 1 row at (2, ()) reads 3 * [hbar^2 t_1] F
    _, bad = virk_rows(bgw_pot.perturbed(2, (1,)), 1, with_eps=False)
    assert (2, ()) in bad
    # eps-deformed: the m = 1 row at (1, ()) reads 3 * [hbar t_1] F
    _, bad = virk_rows(k_pot.perturbed(1, (1,)), 1, with_eps=True)
    assert (1, ()) in bad
    # the eps term is live: the K potential fails the eps = 0 constraints
    _, bad = virk_rows(k_pot, 1, with_eps=False)
    assert bad


def test_weak_family_constraints(weak_k_engine, weak_j_engine):
    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        pot = Potential.from_engine(eng, 4)
        ht = htilde_weak(style, 7, 12)
        for m in range(-1, 3):
            rows, bad = virasoro_rows(pot, m, ht)
            assert rows and not bad, (style, m, list(bad)[:2])
        rows, bad = kdv_residual(pot)
        assert rows and not bad, (style, list(bad)[:2])


def test_genus1_closed_form_unshifted(kw_pot):
    vals = genus1_closed_form({}, 6, 6)
    assert vals[(1,)] == F(1, 24)
    for mono, c in vals.items():
        assert kw_pot.coeff(1, mono).as_fraction() == c, mono
    assert genus1_closed_form({}, 0, 0) == {}


def test_genus1_closed_form_k_specialization():
    # shifting by the K-family h values collapses to -(1/8) log(1-t_0)
    shift = {k: h_star("k", k - 1) for k in range(2, 10)}
    vals = genus1_closed_form(shift, 7, 7)
    t0only = {mono: c for mono, c in vals.items() if all(i == 0 for i in mono)}
    assert t0only == {(0,) * j: F(1, 8 * j) for j in range(1, 8)}


def test_genus1_closed_form_matches_shifted_oracle(oracle):
    # against the kappa-class oracle for the J-style specialization
    shift = {k: h_star("j", k - 1) for k in range(2, 8)}
    vals = genus1_closed_form(shift, 5, 5)
    hv = {k: h_star("j", k) for k in range(1, 8)}
    for mono, c in vals.items():
        n = len(mono)
        denom = 1
        from kapparec.kappapoly import multiplicities

        for _, m in multiplicities(mono).items():
            denom *= fact_(m)
        want = oracle.kclass_psi(1, tuple(sorted(mono)), hv) / denom
        assert c == want, mono


def test_genus1_shift_validation():
    with pytest.raises(ValueError):
        genus1_closed_form({1: F(1)}, 4, 4)

from __future__ import annotations

from fractions import Fraction as F

import pytest

from kapparec.coeffs import h_star, htilde_weak
from kapparec.tautools import (
    Potential,
    _determined_rows,
    bgw_bootstrap,
    constraint_row,
    genus1_closed_form,
    htilde_unshifted,
    kdv_residual,
    virasoro_rows,
    virk_rows,
)

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


def test_memo_changes_no_value(kw_pot, bgw_pot, k_pot):
    # every determined row, read off a potential whose memo the row checks
    # have filled, equals the same row on a copy that starts with none
    for pot, ht, ms in (
        (kw_pot, htilde_unshifted(), range(-1, 5)),
        (bgw_pot, {}, range(0, 5)),
        (k_pot, {}, range(0, 4)),
    ):
        for m in ms:
            virasoro_rows(pot, m, ht)
        kdv_residual(pot)
        assert pot.memo
        fresh = Potential(dict(pot.coeffs), pot.budget)
        for m in ms:
            for g, mono in _determined_rows(pot.budget, m):
                assert constraint_row(pot, m, g, mono, ht) == constraint_row(fresh, m, g, mono, ht), (m, g, mono)


def test_perturbation_is_detected(kw_pot, bgw_pot):
    # each check runs on the original first, so its memo is full: a perturbed
    # copy must not read it, and the original must still pass afterwards
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

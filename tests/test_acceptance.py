"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  Every tolerance
is zero: all comparisons are exact rational equalities.  Criterion 5 is
report-only (a conjecture): a failure there is surfaced as a warning finding,
not a build error.  Criterion 8 quantifies over all n > 0, which is checked
at desk scale with n <= 6, 5, 4 for g = 2, 3, 4.
"""

from __future__ import annotations

import warnings
from fractions import Fraction as F
from math import factorial

from kapparec.coeffs import h_star, htilde_weak
from kapparec.epsilonlab import (
    check_regularity,
    take_limit_one_point,
    verify_pullback_identity,
    verify_vanishing,
)
from kapparec.hurwitz import hurwitz_three_ways, pvec
from kapparec.kappapoly import j_polys, k_polys, partitions
from kapparec.parampoly import ParamPoly
from kapparec.rationals import odd_df
from kapparec.tautools import (
    Potential,
    bgw_bootstrap,
    htilde_unshifted,
    kdv_residual,
    virasoro_rows,
    virk_rows,
)
from kapparec.toprec import _sorted_tuples, correlators_to_potential

from conftest import bernoulli

PASS = "PASS"


def report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = PASS if ok else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"criterion {num:2d} ({label}): {status}{tail}")


def test_criterion_01_kappa_polynomial_goldens():
    K = k_polys(4)
    J = j_polys(4)
    k_goldens = {
        1: {(1,): F(3)},
        2: {(1, 1): F(9, 2), (2,): F(-21, 2)},
        3: {(1, 1, 1): F(9, 2), (2, 1): F(-63, 2), (3,): F(69)},
        4: {
            (1, 1, 1, 1): F(27, 8),
            (2, 1, 1): F(-189, 4),
            (2, 2): F(441, 8),
            (3, 1): F(207),
            (4,): F(-2529, 4),
        },
    }
    j_goldens = {
        1: {(1,): F(1)},
        2: {(1, 1): F(1, 2), (2,): F(-3, 2)},
        3: {(1, 1, 1): F(1, 6), (2, 1): F(-3, 2), (3,): F(13, 3)},
        4: {
            (1, 1, 1, 1): F(1, 24),
            (2, 1, 1): F(-3, 4),
            (2, 2): F(9, 8),
            (3, 1): F(13, 3),
            (4,): F(-71, 4),
        },
    }
    def kappa_only(golden):
        return {(p, ()): c for p, c in golden.items()}

    ok = all(K[m].terms == kappa_only(k_goldens[m]) for m in range(1, 5)) and all(
        J[m].terms == kappa_only(j_goldens[m]) for m in range(1, 5)
    )
    report(1, "K1..K4 and J1..J4 exact", ok)
    assert ok


def test_criterion_02_j_family_epsilon_correlators(j_engine):
    eps = ParamPoly.eps
    # displayed raw-basis forms; raw_k = (2k+1)!! * entry_k per variable
    checks = []
    c = j_engine.correlator(0, 3)
    checks.append(c.value((0, 0, 0)) == eps(1))
    c = j_engine.correlator(0, 4)
    checks.append(c.value((0, 0, 0, 0)) == eps(1))
    checks.append(c.value((1, 0, 0, 0)) * odd_df(1) == eps(2, 3))
    checks.append(len(c.entries) == 2)
    c = j_engine.correlator(1, 1)
    checks.append(c.value((0,)) == ParamPoly.const(F(1, 24)))
    checks.append(c.value((1,)) * odd_df(1) == eps(1, F(3, 24)))
    c = j_engine.correlator(1, 2)
    checks.append(c.value((0, 1)) * odd_df(1) == eps(1, F(2, 8)))
    checks.append(c.value((0, 2)) * odd_df(2) == eps(2, F(5, 8)))
    checks.append(c.value((1, 1)) * odd_df(1) ** 2 == eps(2, F(3, 8)))
    checks.append(not c.value((0, 0)))
    c = j_engine.correlator(2, 1)
    raw = {k: c.value((k,)) * odd_df(k) for k in range(5)}
    checks.append(raw[1] == ParamPoly.const(F(-2, 1920)))
    checks.append(raw[2] == eps(1, F(130, 1920)))
    checks.append(raw[3] == eps(2, F(1015, 1920)))
    checks.append(raw[4] == eps(3, F(1575, 1920)))
    checks.append(not raw[0])
    ok = all(checks)
    report(2, "J-family eps-correlators vs displays", ok)
    assert ok


def test_criterion_03_mixed_h_potentials(weak_k_engine, weak_j_engine):
    eps = ParamPoly.eps
    h = ParamPoly.h
    ok = True
    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        f03 = correlators_to_potential(eng.correlator(0, 3))
        ok &= f03[(0, 0, 0)] == eps(1, F(1, 6)) * 6 * F(1, 6)  # t0^3 eps/6
        f11 = correlators_to_potential(eng.correlator(1, 1))
        const11 = F(1, 8) if style == "k" else F(1, 24)
        ok &= f11[(0,)] == ParamPoly.const(const11) + eps(1) * h(1, coeff=F(-1, 24))
        ok &= f11[(1,)] == eps(1, F(1, 24))
        f04 = correlators_to_potential(eng.correlator(0, 4))
        lead04 = F(1, 8) if style == "k" else F(1, 24)
        ok &= f04[(0, 0, 0, 0)] == eps(1, lead04) + eps(2) * h(1, coeff=F(-1, 24))
        ok &= f04[(0, 0, 0, 1)] == eps(2, F(1, 6))
        f12 = correlators_to_potential(eng.correlator(1, 2))
        e2 = eps(2)
        common = e2 * (h(1, 2, F(1, 24)) + h(2, coeff=F(-1, 48)))
        if style == "k":
            ok &= f12[(0, 0)] == ParamPoly.const(F(1, 16)) + eps(1) * h(1, coeff=F(-3, 16)) + common
            ok &= f12[(0, 1)] == eps(1, F(1, 4)) + e2 * h(1, coeff=F(-1, 12))
        else:
            ok &= f12[(0, 0)] == eps(1) * h(1, coeff=F(-1, 16)) + common
            ok &= f12[(0, 1)] == eps(1, F(1, 12)) + e2 * h(1, coeff=F(-1, 12))
        ok &= f12[(0, 2)] == e2 * F(1, 24)
        ok &= f12[(1, 1)] == e2 * F(1, 48)
        f21 = correlators_to_potential(eng.correlator(2, 1))
        if style == "k":
            ok &= f21[(0,)].eps_part(1) == h(1, 2, F(627, 1920)) + h(2, coeff=F(-203, 1920))
            ok &= f21[(1,)].eps_part(1) == h(1, coeff=F(-407, 1920))
            ok &= f21[(2,)].eps_part(1) == ParamPoly.const(F(107, 1920))
            ok &= f21[(0,)].eps_part(0) == h(1, coeff=F(-9, 128))
            ok &= f21[(1,)].eps_part(0) == ParamPoly.const(F(3, 128))
        else:
            ok &= f21[(0,)].eps_part(1) == h(1, 2, F(157, 5760)) + h(2, coeff=F(-50, 5760))
            ok &= f21[(1,)].eps_part(1) == h(1, coeff=F(-17, 960))
            ok &= f21[(2,)].eps_part(1) == ParamPoly.const(F(13, 2880))
            ok &= f21[(0,)].eps_part(0) == h(1, coeff=F(1, 2880))
            ok &= f21[(1,)].eps_part(0) == ParamPoly.const(F(-1, 2880))
    report(3, "mixed-h potentials vs displays (K and J)", bool(ok))
    assert ok


def test_criterion_04_regularity_k_family_theorem(k_engine):
    reports = check_regularity(k_engine, 5)
    bad = [r for r in reports if not r.passed]
    report(4, "K-family regularity, levels <= 5 (theorem)", not bad)
    assert not bad, bad  # a failure here is a build-breaking bug


def test_criterion_05_regularity_conjectural(j_engine, weak_k_engine, weak_j_engine):
    findings = []
    for eng in (j_engine, weak_k_engine, weak_j_engine):
        for r in check_regularity(eng, 5):
            if not r.passed:
                findings.append(r.row())
    report(
        5,
        "J/WEAK regularity, levels <= 5 (conjectural)",
        not findings,
        extra="report-only",
    )
    if findings:
        # surfaced as a finding, not a build error
        warnings.warn("conjectural regularity failed:\n" + "\n".join(findings))


def test_criterion_06_bgw(bgw_engine, k_engine):
    boot = bgw_bootstrap(6)
    goldens = {
        (1, (0,)): F(1, 8),
        (1, (0, 0)): F(1, 16),
        (1, (0, 0, 0)): F(1, 24),
        (2, (1,)): F(3, 128),
        (2, (0, 1)): F(9, 128),
        (3, (2,)): F(15, 1024),
        (3, (1, 1)): F(63, 1024),
    }
    ok = all(boot.coeff(*k).as_fraction() == v for k, v in goldens.items())
    direct = Potential.from_engine(bgw_engine, 5)
    limit = Potential.from_engine(k_engine, 5)
    for (g, mono), c in direct.items():
        ok &= boot.coeff(g, mono) == c
    for (g, mono), c in boot.items():
        if 2 * g - 2 + len(mono) <= 5:
            ok &= direct.coeff(g, mono) == c
    for (g, mono), c in limit.items():
        ok &= c.eps_valuation() >= 0 and c.eps_part(0) == boot.coeff(g, mono)
    report(6, "BGW displays; direct run == eps->0 limit (levels <= 5)", bool(ok))
    assert ok


def test_criterion_07_fj_limit(j_engine):
    lim = take_limit_one_point(j_engine, 7)
    ok = True
    for g in range(1, 8):
        want = factorial(g - 1) * bernoulli(2 * g) / (factorial(2 * g) * 2**g)
        ok &= lim[g].get(g - 1, ParamPoly.zero()).as_fraction() == want
        ok &= set(lim[g]) == {g - 1}
    displayed = [
        F(1, 24),
        F(-1, 2880),
        F(1, 120960),
        F(-1, 3225600),
        F(1, 63866880),
        F(-691, 697426329600),
        F(1, 13284311040),
    ]
    for g, val in enumerate(displayed, start=1):
        ok &= lim[g][g - 1].as_fraction() == val
    # all t-degree >= 2 coefficients vanish at eps^0 through level 6
    for g, n in [(0, 4), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 4), (1, 6), (2, 2), (2, 4), (3, 2), (3, 3)]:
        corr = j_engine.correlator(g, n)
        for _, v in corr.items():
            ok &= not v.eps_part(0)
    report(7, "F^J limit: hbar^1..hbar^7 linear values; degree >= 2 vanish", bool(ok))
    assert ok


N_CAPS = {2: 6, 3: 5, 4: 4}


def test_criterion_08_theorem2_vanishing(oracle):
    checks = 0
    ok = True
    for g, n_cap in N_CAPS.items():
        for n in range(1, n_cap + 1):
            hv = {k: h_star("k", k) for k in range(1, 3 * g - 3 + n + 1)}
            for m in range(0, g - 1):
                for psis in _sorted_tuples(n, m):
                    if sum(psis) != m:
                        continue
                    checks += 1
                    if oracle.kclass_psi(g, psis, hv) != 0:
                        ok = False
    report(8, "Theorem-2 vanishing via oracle, g <= 4", ok, extra=f"{checks} pairings")
    assert ok and checks == 31


def test_criterion_09_conjecture1_weak(oracle):
    checks = 0
    ok = True
    for g in range(0, 4):
        for n in range(0, 11):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 7 or 2 * g - 2 + n <= 0:
                continue
            for m in range(1, dim + 1):
                for style in ("k", "j"):
                    kadm = (
                        style == "k"
                        and m > 2 * g - 2 + n
                        and not (n == 0 and m == 3 * g - 3)
                    )
                    jadm = style == "j" and (
                        m > 2 * g - 2 + n or (m == 2 * g - 2 + n and n > 1)
                    )
                    if not (kadm or jadm):
                        continue
                    checks += 1
                    if not verify_vanishing(oracle, g, n, m, style):
                        ok = False
    # the weak pull-back identity at desk scale rides along here
    ok &= verify_pullback_identity(oracle, 2, 1)
    ok &= verify_pullback_identity(oracle, 2, 2)
    report(9, "Conjecture-1 weak checks, 3g-3+n <= 7", ok, extra=f"{checks} claims")
    assert ok and checks >= 25


def test_criterion_10_cross_oracle_weak(oracle, weak_k_engine, weak_j_engine):
    checks = 0
    ok = True
    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        for g in range(0, 4):
            for n in range(1, 7):
                if not (0 < 2 * g - 2 + n <= 4):
                    continue
                corr = eng.correlator(g, n)
                for key in _sorted_tuples(n, 3 * g - 3 + n):
                    want = _weak_oracle_entry(oracle, style, g, n, key, eng.curve.n_h)
                    checks += 1
                    if corr.value(key) != want:
                        ok = False
    report(10, "TR == shift-oracle on WEAK curves, levels <= 4", ok, extra=f"{checks} entries")
    assert ok and checks > 100


def _weak_oracle_entry(oracle, style, g, n, key, n_h):
    w = 3 * g - 3 + n - sum(key)
    hv = {}
    for k in range(1, w + 1):
        acc = ParamPoly.zero()
        for i in range(k + 1):
            j = k - i
            if j > n_h:
                continue
            hj = ParamPoly.one() if j == 0 else ParamPoly.h(j)
            acc = acc + ParamPoly.eps(-i, h_star(style, i)) * hj
        hv[k] = acc
    val = oracle.kclass_psi(g, tuple(sorted(key)), hv)
    if not isinstance(val, ParamPoly):
        val = ParamPoly.const(val)
    return ParamPoly.eps(2 * g - 2 + n) * val


def test_criterion_11_virasoro_and_kdv(oracle, k_engine, weak_k_engine, weak_j_engine):
    from kapparec.tautools import constraint_row
    from kapparec.toprec import Engine, build_curve, required_order

    ok = True
    rows_total = 0
    fkw = Potential.kw_from_oracle(oracle, 8)
    for m in range(-1, 5):
        rows, bad = virasoro_rows(fkw, m, htilde_unshifted())
        rows_total += rows
        ok &= not bad
    fb = bgw_bootstrap(8)
    for m in range(0, 5):
        rows, bad = virk_rows(fb, m, with_eps=False)
        rows_total += rows
        ok &= not bad
    engk7 = Engine(build_curve("k", required_order(4, 1)))
    fk = Potential.from_engine(engk7, 7)
    for m in range(0, 5):
        rows, bad = virk_rows(fk, m, with_eps=True)
        rows_total += rows
        ok &= not bad
    # genus-4 rows explicitly (the pure one-point relations)
    for m in range(0, 4):
        lhs = ParamPoly.const(odd_df(m)) * fb.coeff(4, (m,))
        ok &= lhs == constraint_row(fb, m, 4, (), {})
        ok &= not constraint_row(fkw, m, 4, (), htilde_unshifted())
    for style, eng in (("k", weak_k_engine), ("j", weak_j_engine)):
        fw = Potential.from_engine(eng, 5)
        ht = htilde_weak(style, eng.curve.n_h, 12)
        for m in range(-1, 4):
            rows, bad = virasoro_rows(fw, m, ht)
            rows_total += rows
            ok &= not bad
        rows, bad = kdv_residual(fw)
        rows_total += rows
        ok &= not bad
    for pot in (fkw, fb, fk):
        rows, bad = kdv_residual(pot)
        rows_total += rows
        ok &= not bad
    # a single corrupted coefficient must be detected
    _, bad = virasoro_rows(fkw.perturbed(1, (1,)), 0, htilde_unshifted())
    ok &= bool(bad)
    _, bad = kdv_residual(fb.perturbed(1, (0, 0)))
    ok &= bool(bad)
    report(11, "Virasoro and KdV residuals; perturbation detected", bool(ok), extra=f"{rows_total} rows")
    assert ok


def test_criterion_12_monotone_hurwitz(oracle, kstar_engine):
    ok = True
    keys = brute_feasible = 0
    for d in range(1, 6):
        for part in partitions(d):
            for g in range(0, 3):
                if 2 * g - 2 + len(part) <= 0:
                    continue
                r = hurwitz_three_ways(oracle, kstar_engine, g, part)
                keys += 1
                vals = {v for v in r.values() if v is not None}
                if r["brute"] is not None:
                    brute_feasible += 1
                ok &= len(vals) == 1
    rk = hurwitz_three_ways(oracle, kstar_engine, 1, (1,))
    ok &= rk["brute"] == 0 and rk["elsv"] == 0
    rk = hurwitz_three_ways(oracle, kstar_engine, 1, (2,))
    ok &= rk["brute"] == F(1, 2) and rk["elsv"] == F(1, 2)
    # half-integer vanishing for g <= 3
    import itertools

    for g in (2, 3):
        for n in (1, 2, 3):
            for ms in itertools.product(range(g - 1), repeat=n):
                if sum(ms) < g - 1:
                    ok &= pvec(oracle, g, [F(-(2 * m + 1), 2) for m in ms]) == 0
    report(
        12,
        "monotone Hurwitz triple agreement, d <= 5, g <= 2",
        bool(ok),
        extra=f"{keys} keys, {brute_feasible} brute-checked",
    )
    assert ok


def test_criterion_13_euler_characteristic(oracle):
    ok = True
    signs = []
    for g in (2, 3, 4):
        val = oracle.integrate(k_polys(3 * g - 3)[3 * g - 3], g, 0)
        harer = bernoulli(2 * g) / (2 * g * (2 * g - 2))  # chi(M_g)
        ok &= abs(val) == abs(harer)
        ok &= val == F(-1) ** g * harer
        signs.append(f"g={g}: {val} = (-1)^{g} B_{2*g}/(2g(2g-2)) = -|chi|")
    report(13, "Euler characteristic identity, g = 2, 3, 4", ok, extra="; ".join(signs))
    assert ok

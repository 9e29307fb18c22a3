from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F
from math import comb, factorial

import pytest

from kapparec import coeffs, kappapoly
from kapparec.coeffs import ell_from_ab, integer_log
from kapparec.intersect import IntersectionOracle
from kapparec.kappapoly import (
    KappaPoly,
    expand_family,
    family_polys,
    j_polys,
    k_polys,
    kappa_substitute_pullback,
    multiplicities,
    p_polys,
    partitions,
    pullback,
    pushforward,
    shift_coeffs,
)
from kapparec.parampoly import ParamPoly
from kapparec.rationals import odd_df

# the displayed low-degree family polynomials, as exact coefficient vectors
K_GOLDEN = {
    1: {(1,): F(3)},
    2: {(1, 1): F(3, 2) * 3, (2,): F(3, 2) * -7},
    3: {(1, 1, 1): F(3, 2) * 3, (2, 1): F(3, 2) * -21, (3,): F(3, 2) * 46},
    4: {
        (1, 1, 1, 1): F(9, 8) * 3,
        (2, 1, 1): F(9, 8) * -42,
        (2, 2): F(9, 8) * 49,
        (3, 1): F(9, 8) * 184,
        (4,): F(9, 8) * -562,
    },
}
J_GOLDEN = {
    1: {(1,): F(1)},
    2: {(1, 1): F(1, 2), (2,): F(-3, 2)},
    3: {(1, 1, 1): F(1, 6), (2, 1): F(1, 6) * -9, (3,): F(1, 6) * 26},
    4: {
        (1, 1, 1, 1): F(1, 24),
        (2, 1, 1): F(1, 24) * -18,
        (2, 2): F(1, 24) * 27,
        (3, 1): F(1, 24) * 104,
        (4,): F(1, 24) * -426,
    },
}
J5_GOLDEN = {
    (1, 1, 1, 1, 1): F(1, 120),
    (2, 1, 1, 1): F(-1, 4),
    (2, 2, 1): F(9, 8),
    (3, 1, 1): F(13, 6),
    (3, 2): F(-13, 2),
    (4, 1): F(-71, 4),
    (5,): F(461, 5),
}


def kappa_only(golden):
    """A golden {partition: coeff} dict as kappa-only term keys (p, ())."""
    return {(p, ()): c for p, c in golden.items()}


def test_family_goldens():
    K = k_polys(4)
    J = j_polys(5)
    for m, want in K_GOLDEN.items():
        assert K[m].terms == kappa_only(want)
    for m, want in J_GOLDEN.items():
        assert J[m].terms == kappa_only(want)
    assert J[5].terms == kappa_only(J5_GOLDEN)
    assert K[0] == KappaPoly.one()
    assert J[0] == KappaPoly.one()
    assert p_polys(2)[2].terms == kappa_only({(1, 1): F(1, 2), (2,): F(-5, 2)})


# sha256 of the canonical JSON of the degree 0..10 family polynomials, as
# computed when the sequences came from exp/log on ZSeries of ParamPoly
FAMILY_DIGESTS = {
    "k": "16cebea97bdf2447b5a734e781deb61bd131261d90bd3bd96fed789c9f92ce70",
    "j": "d7869308bc5f333d2567ae5ca55370c48c1a35ecb8c2b85b8c07c51be4cc2a33",
    "p": "fcb334ca88f320dd7bcb025ea951e6d95dc9b9ae8cce30a7bff88fe5d866d5aa",
}


# the same to degree 16, as computed when the sequences came from the
# Fraction series log and each coefficient from Fraction powers
FAMILY_DIGESTS_16 = {
    "k": "50d1938384f78cc519a995f391e4113affad12d8191790905b12092aaca4520e",
    "j": "da985368217a7ce0278222319c3359da22a9d0807633e6d948aeac751ef3cafe",
    "p": "614fb6ec0f08f2e49a0618d3673f5fe02d5c4a10d51b6c3c57dff237ae9b5217",
}


def family_digest(family, m_max):
    polys = {"k": k_polys, "j": j_polys, "p": p_polys}[family](m_max)
    blob = json.dumps([p.to_json() for p in polys], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
def test_family_polys_match_pinned_digests(family):
    assert family_digest(family, 10) == FAMILY_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS_16))
def test_family_polys_match_pinned_digests_at_degree_16(family):
    assert family_digest(family, 16) == FAMILY_DIGESTS_16[family]


def test_homogeneity_and_kappa_m_coefficient():
    K = k_polys(6)
    J = j_polys(6)
    from kapparec.coeffs import s_sequence, sigma_sequence

    s = s_sequence(6)
    sig = sigma_sequence(6)
    for m in range(1, 7):
        assert K[m].degree() == m
        assert J[m].degree() == m
        # the pure kappa_m coefficient is the sequence value itself
        assert K[m].terms[((m,), ())] == s[m - 1]
        assert J[m].terms[((m,), ())] == sig[m - 1]


@pytest.mark.parametrize("a, b", [(3, 2), (1, 1), (1, 2)])
def test_family_sequences_are_prefixes_of_one_series_log(a, b, monkeypatch):
    # ell_1..ell_m read off a longer log are the ones a log of length m gives,
    # so family_polys keeps one integer log per (a, b) and extends it by one
    # term per new degree instead of building a log per m_max
    longest = ell_from_ab(F(a), F(b), 16)
    assert all(ell_from_ab(F(a), F(b), m) == longest[:m] for m in range(1, 17))
    builds = []

    def counted(a, b, n):
        before = len(coeffs._INTEGER_LOGS.get((a, b), (1, []))[1])
        r, L = integer_log(a, b, n)
        log = coeffs._INTEGER_LOGS[a, b][1]
        builds.append((n, len(log) - before, id(log)))
        return r, L

    monkeypatch.setattr(kappapoly, "integer_log", counted)
    monkeypatch.delitem(coeffs._INTEGER_LOGS, (F(a), F(b)))
    family_polys.cache_clear()
    try:
        for m in range(17):
            assert family_polys(F(a), F(b), m) == tuple(expand_family(longest, m))
    finally:
        family_polys.cache_clear()
    assert [n for n, _, _ in builds] == list(range(17))
    assert [added for _, added, _ in builds] == [0] + [1] * 16
    assert len({log for _, _, log in builds}) == 1


def test_expand_family_validates_length():
    with pytest.raises(ValueError):
        expand_family([F(1)], 3)
    with pytest.raises(ValueError):
        family_polys(F(3), F(2), -1)


def graded_product(ell, m_max):
    """L_0..L_{m_max} as the graded product over i of exp(ell_i kappa_i), one
    factor at a time: the expansion the families were once built by, kept
    as the reference for expand_family's partition formula."""
    pieces = [KappaPoly.one()] + [KappaPoly() for _ in range(m_max)]
    for i in range(1, m_max + 1):
        updated = list(pieces)
        power = F(1)
        for j in range(1, m_max // i + 1):
            power *= F(ell[i - 1])
            factor = KappaPoly({((i,) * j, ()): power / factorial(j)})
            for m in range(m_max - i * j + 1):
                updated[m + i * j] = updated[m + i * j] + pieces[m] * factor
        pieces = updated
    return pieces


@pytest.mark.parametrize("family, a, b", [("k", 3, 2), ("j", 1, 1), ("p", 1, 2)])
def test_expand_family_equals_the_graded_product(family, a, b):
    want = graded_product(ell_from_ab(F(a), F(b), 14), 14)
    polys = {"k": k_polys, "j": j_polys, "p": p_polys}[family]
    for m in range(15):
        # each family_polys(a, b, m) is the same prefix of every longer one
        assert polys(m) == family_polys(F(a), F(b), m) == tuple(want[: m + 1]), m
    # a sequence with zeros drops those kappa indices
    ell = [F(0), F(2, 3), F(0), F(-5), F(0), F(1, 7), F(0), F(3)]
    assert expand_family(ell, 8) == graded_product(ell, 8)


def test_pushforward_examples():
    K = k_polys(4)
    J = j_polys(4)
    # J family: (2g-2+n-m) J_m
    assert pushforward(J[3], F(1), F(1), 2, 2) == J[2] * (2 * 2 - 2 + 2 - 2)
    # K family: (6g-6+3n-2m) K_m
    assert pushforward(K[4], F(3), F(2), 1, 1) == K[3] * (6 - 6 + 3 - 6)
    # vanishing scalar: a(2g-2+n) = b m, e.g. K family at (g, n) = (1, 2), m = 3
    assert pushforward(K[4], F(3), F(2), 1, 2) == KappaPoly()
    with pytest.raises(ValueError):
        pushforward(K[3] + J[3], F(3), F(2), 1, 1)


def test_pushforward_zero_scalar():
    # a(2g-2+n) = b m exactly
    J = j_polys(3)
    assert pushforward(J[3], F(1), F(1), 1, 2) == J[2] * 0


def test_pullback_examples():
    K = k_polys(3)
    J = j_polys(3)
    pb = pullback(J[2], F(1), F(1))
    want = (
        J[2].with_points(1)
        + KappaPoly({((1,), (1,)): F(-1)}, 1)
        + KappaPoly({((), (2,)): F(2)}, 1)
    )
    assert pb == want
    pbk = pullback(K[2], F(3), F(2))
    # pi^* K_m = sum (-1)^i (2i+1)!! psi^i K_{m-i}
    assert pbk.terms[((), (2,))] == odd_df(2) * K[0].terms[((), ())]
    assert pbk.terms[((1,), (1,))] == -odd_df(1) * K[1].terms[((1,), ())]
    assert pullback(K[0], F(3), F(2)) == KappaPoly.one().with_points(1)


def test_pullback_equals_substitution_on_family_polys():
    # the family pullback rule and the raw kappa_j -> kappa_j - psi^j
    # substitution are the same operation
    for fam, a, b in ((k_polys, F(3), F(2)), (j_polys, F(1), F(1))):
        polys = fam(4)
        for m in range(0, 5):
            assert pullback(polys[m], a, b) == kappa_substitute_pullback(polys[m])


def test_substitution_examples():
    k1 = KappaPoly.kappa(1)
    assert kappa_substitute_pullback(k1) == KappaPoly(
        {((1,), (0,)): F(1), ((), (1,)): F(-1)}, 1
    )
    k1sq = KappaPoly({((1, 1), ()): F(1)})
    assert kappa_substitute_pullback(k1sq) == KappaPoly(
        {((1, 1), (0,)): F(1), ((1,), (1,)): F(-2), ((), (2,)): F(1)}, 1
    )
    # setting the new psi to zero recovers the original polynomial
    J2 = j_polys(2)[2]
    sub = kappa_substitute_pullback(J2)
    back = KappaPoly({(p, a[:-1]): c for (p, a), c in sub.terms.items() if a[-1] == 0}, sub.n - 1)
    assert back == J2


def test_kappa_zero_is_the_scalar_the_oracle_reads():
    # kappa_0 is 2g-2+n on the (g, n) space, so a KappaPoly keeps its 0 parts
    # and integrates them as the oracle's kappa_psi_number does; the
    # substitution sends kappa_0 to kappa_0 - 1 = pi^* kappa_0, so the dilaton
    # equation <pi^*(P) psi_new>_{g,n+1} = (2g-2+n) <P>_{g,n} holds for them
    oracle = IntersectionOracle()
    assert oracle.integrate(KappaPoly({((1, 0), ()): 1}), 0, 4) == 2
    assert oracle.kappa_psi_number(0, 4, (0, 0, 0, 0), (1, 0)) == 2
    assert kappa_substitute_pullback(KappaPoly.kappa(0)) == KappaPoly(
        {((0,), (0,)): F(1), ((), (0,)): F(-1)}, 1
    )
    cases = 0
    for g, n in ((0, 4), (0, 5), (1, 1), (1, 2), (2, 1)):
        chi, dim = 2 * g - 2 + n, 3 * g - 3 + n
        psi_new = KappaPoly({((), (0,) * n + (1,)): F(1)}, n + 1)
        for w in range(dim + 1):
            psis = (dim - w,) + (0,) * (n - 1)
            for lam in partitions(w):
                plain = oracle.integrate(KappaPoly({(lam, psis): F(1)}, n), g, n)
                for zeros in (1, 2):
                    P = KappaPoly({(lam + (0,) * zeros, psis): F(1)}, n)
                    got = oracle.integrate(P, g, n)
                    assert got == oracle.kappa_psi_number(g, n, tuple(sorted(psis)), lam + (0,) * zeros)
                    assert got == chi**zeros * plain, (g, n, lam, zeros)
                    lhs = oracle.integrate(kappa_substitute_pullback(P) * psi_new, g, n + 1)
                    assert lhs == chi * got, (g, n, lam, zeros)
                    cases += 1
    assert cases == 48
    with pytest.raises(ValueError, match="non-negative"):
        KappaPoly({((1, -1), ()): 1})



def substitute_by_multiplicity(P):
    """kappa_j -> kappa_j - psi_new^j with each distinct part v of
    multiplicity m expanded at once, as sum_c binom(m, c) (-1)^c
    kappa_v^(m-c) psi_new^(v c): the reference for kappa_substitute_pullback,
    which multiplies by kappa_v - psi_new^v once per part."""
    nn = P.n + 1
    out = KappaPoly(n=nn)
    for (p, a), c in P.terms.items():
        expansion = KappaPoly({((), a + (0,)): c}, nn)
        for v, mult in multiplicities(p).items():
            expansion = expansion * KappaPoly(
                {((v,) * (mult - ch), (0,) * (nn - 1) + (v * ch,)): comb(mult, ch) * (-1) ** ch
                 for ch in range(mult + 1)}, nn)
        out = out + expansion
    return out


def test_substitution_equals_the_per_multiplicity_expansion():
    # every K/J/P polynomial to degree 6, kappa-only and times a psi
    # polynomial on one or two slots
    psi_parts = [None, KappaPoly({((), (1,)): 1, ((1,), (0,)): F(-1, 2)}, 1),
                 KappaPoly({((), (2, 0)): 3, ((), (1, 1)): -1, ((), (0, 0)): 1}, 2)]
    for fam in (k_polys, j_polys, p_polys):
        polys = fam(6)
        for m in range(7):
            for psi in psi_parts:
                P = polys[m] if psi is None else polys[m] * psi
                assert kappa_substitute_pullback(P) == substitute_by_multiplicity(P), (fam, m, psi)

def test_numeric_pushforward_against_oracle():
    # <L_{m+1} subst(mu)>_{g,n+1} = (a(2g-2+n) - b m) <L_m mu>_{g,n}
    oracle = IntersectionOracle()
    for fam, a, b in ((j_polys, F(1), F(1)), (k_polys, F(3), F(2))):
        for g, n, m in ((1, 1, 1), (1, 2, 1), (2, 1, 2), (0, 4, 0), (2, 1, 3)):
            dim = 3 * g - 3 + n
            comp = dim - m
            if comp < 0:
                continue
            polys = fam(m + 1)
            scalar = a * (2 * g - 2 + n) - b * m
            for lam in partitions(comp):
                mu = KappaPoly({(lam, ()): F(1)}).with_points(n)
                lhs = oracle.integrate(
                    kappa_substitute_pullback(mu) * polys[m + 1],
                    g,
                    n + 1,
                )
                rhs = scalar * oracle.integrate(mu * polys[m], g, n)
                assert lhs == rhs, (fam, g, n, m, lam)


def test_shift_coeffs():
    # K family: (1-eps)^{2(k+chi)}, a polynomial when k + chi >= 0
    c = shift_coeffs("k", 2, -1, 8)
    want = ParamPoly.zero()
    for i, coeff in enumerate((1, -2, 1)):
        want = want + ParamPoly.eps(i, coeff)
    assert c == want
    # J family: truncated e^{-(k+chi)eps}
    d = shift_coeffs("j", 2, -1, 5)
    want = ParamPoly.zero()
    for i in range(5):
        want = want + ParamPoly.eps(i, F((-1) ** i, factorial(i)))
    assert d == want
    # k + chi = 0 gives the constant 1 for both families
    assert shift_coeffs("k", 1, -1, 6) == ParamPoly.one()
    assert shift_coeffs("j", 1, -1, 6) == ParamPoly.one()
    # negative k + chi: K coefficients become a genuine series
    c2 = shift_coeffs("k", 0, -2, 4)
    assert c2.eps_part(1).as_fraction() == 4  # (1-eps)^{-4}
    with pytest.raises(ValueError):
        shift_coeffs("x", 0, 0, 3)



def test_shift_coeffs_on_a_grid_against_the_closed_forms():
    # K: (1-eps)^e with e = 2(k+chi), a binomial series of either sign;
    # J: e^{-(k+chi) eps}; both truncated below eps^order, and zero at order 0
    for k in range(5):
        for chi in range(-6, 1):
            e = 2 * (k + chi)
            for order in range(9):
                want = {
                    "k": [F((-1) ** i * comb(e, i)) if e >= 0 else F(comb(-e + i - 1, i)) for i in range(order)],
                    "j": [F(-(k + chi)) ** i / factorial(i) for i in range(order)],
                }
                for style, coeffs in want.items():
                    got = shift_coeffs(style, k, chi, order)
                    assert got == ParamPoly({(i, ()): c for i, c in enumerate(coeffs)}), (style, k, chi, order)

def test_render_and_json():
    K2 = k_polys(2)[2]
    assert K2.render() == "9/2*k1^2 - 21/2*k2"
    assert K2.to_json() == {"1,1": "9/2", "2": "-21/2"}
    assert KappaPoly().render() == "0"

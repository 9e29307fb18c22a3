from __future__ import annotations

import hashlib
import json
import random
import time
from bisect import bisect_right
from fractions import Fraction as F
from math import prod

import pytest

from kapparec.intersect import Cache, IntersectionOracle, _key_str, _off_lattice, _scale
from kapparec.kappapoly import (
    KappaPoly,
    cached_multiset_splits,
    insert_sorted,
    j_polys,
    k_polys,
    multiplicities,
    partitions,
    signed_block_keys,
)
from kapparec.rationals import odd_df, rat_str

from conftest import bernoulli


def test_kw_goldens(oracle):
    assert oracle.kw_number(0, (0, 0, 0)) == 1
    assert oracle.kw_number(1, (1,)) == F(1, 24)
    assert oracle.kw_number(0, (0, 0, 0, 0, 2)) == 1
    assert oracle.kw_number(0, (1, 0, 0, 0)) == 1
    assert oracle.kw_number(1, (0, 2)) == F(1, 24)
    assert oracle.kw_number(2, (4,)) == F(1, 1152)
    # two-point genus 2 and 3 tables
    assert oracle.kw_number(2, (3, 2)) == F(29, 5760)
    assert oracle.kw_number(3, (7, 1)) == F(5, 82944)
    assert oracle.kw_number(3, (6, 2)) == F(77, 414720)


def test_kw_off_dimension_and_unstable():
    o = IntersectionOracle()
    assert o.kw_number(0, (0, 0)) == 0
    assert o.kw_number(1, (2,)) == 0
    assert o.kw_number(0, (5, 5)) == 0
    assert o.kw_number(2, ()) == 0


class LargestExponentOracle(IntersectionOracle):
    """The oracle with DVV on the largest exponent of each key, where the
    oracle itself distinguishes the smallest: the reference route, and the
    recursion whose closure the ladder digest pins."""

    def _dvv(self, g, ds):
        k1, mu = ds[-1], ds[:-1]
        kw = self._kw
        merged = 0
        i, end = 0, len(mu)
        while i < end:
            v = mu[i]
            j = bisect_right(mu, v, i)
            if k1 + v:
                merged += (j - i) * (2 * v + 1) * self._normalized(g, insert_sorted(mu[:i] + mu[i + 1 :], k1 + v - 1))
            i = j
        half = (k1 - 2) // 2
        quadratic = 0
        for a in range(half + 1):
            b = k1 - 2 - a
            i = bisect_right(mu, a)
            j = bisect_right(mu, b, i)
            key = mu[:i] + (a,) + mu[i:j] + (b,) + mu[j:]
            v = kw.get(key) or self._normalized(g - 1, key)
            quadratic += v if a == b else 2 * v
        for alpha, beta, ways in cached_multiset_splits(mu):
            s = sum(alpha) + 2 - len(alpha)
            for a in range(max(-s, -s % 3), min(half, 3 * g - s) + 1, 3):
                g1 = (a + s) // 3
                i = bisect_right(alpha, a)
                key = alpha[:i] + (a,) + alpha[i:]
                v1 = kw.get(key) or self._normalized(g1, key)
                if v1:
                    b = k1 - 2 - a
                    i = bisect_right(beta, b)
                    key = beta[:i] + (b,) + beta[i:]
                    v2 = kw.get(key) or self._normalized(g - g1, key)
                    quadratic += (ways if a == b else 2 * ways) * v1 * v2
        base = 8 if (g, ds) == (0, (0, 0, 0)) else 1 if (g, ds) == (1, (1,)) else 0
        return 8 * merged + 4 * quadratic + base


def test_string_and_dilaton_random(oracle):
    # kw_number takes the string/dilaton shortcut on an appended 0 or 1;
    # the reference solves the same key by DVV on its largest exponent.
    # On-dimension psi numbers are positive, so no comparison is 0 == 0.
    ref = LargestExponentOracle()
    rng = random.Random(71)
    for _ in range(60):
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        dim = 3 * g - 3 + n
        if dim < 0 or 2 * g - 2 + n <= 0:
            continue
        for extra in (0, 1):
            ds = [0] * n
            for _ in range(dim + 1 - extra):
                ds[rng.randrange(n)] += 1
            key = ds + [extra]
            got = oracle.kw_number(g, key)
            key = tuple(sorted(key))
            assert got > 0 and got == F(ref._dvv(g, key), _scale(g, key)), (g, key)


class FractionReference:
    """The Fraction string/dilaton/DVV recursion on <tau_ds>_g itself, kept as
    an independent reference for the integer recursion of the oracle."""

    def __init__(self):
        self.memo = {}

    def kw(self, g, ds):
        ds = tuple(sorted(ds))
        n = len(ds)
        if g < 0 or n < 1 or 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
            return F(0)
        key = (g, ds)
        if key not in self.memo:
            if ds[0] <= 1 and 2 * g - 3 + n > 0:
                self.memo[key] = self._string_dilaton(g, ds)
            else:
                self.memo[key] = self._dvv(g, ds)
        return self.memo[key]

    def _string_dilaton(self, g, ds):
        rest = ds[1:]
        if ds[0] == 1:
            return (2 * g - 2 + len(rest)) * self.kw(g, rest)
        total = F(0)
        for v, m in multiplicities(rest).items():
            if v:
                lowered = list(rest)
                lowered[lowered.index(v)] = v - 1
                total += m * self.kw(g, lowered)
        return total

    def _dvv(self, g, ds):
        k1, mu = ds[-1], ds[:-1]
        rhs = F(0)
        for v, m in multiplicities(mu).items():
            idx = k1 + v - 1
            if idx >= 0:
                rest = list(mu)
                rest.remove(v)
                rhs += m * F(odd_df(idx), odd_df(v - 1)) * self.kw(g, (idx, *rest))
        for a in range(0, k1 - 1):
            b = k1 - 2 - a
            coeff = F(odd_df(a) * odd_df(b), 2)
            rhs += coeff * self.kw(g - 1, (a, b, *mu))
            for alpha, beta, ways in cached_multiset_splits(mu):
                for g1 in range(g + 1):
                    rhs += coeff * ways * self.kw(g1, (a, *alpha)) * self.kw(g - g1, (b, *beta))
        if g == 0 and ds == (0, 0, 0):
            rhs += 1
        if g == 1 and ds == (1,):
            rhs += F(1, 8)
        return rhs / odd_df(k1)


def test_integer_oracle_equals_the_fraction_reference():
    ref = FractionReference()
    o = IntersectionOracle()
    # every on-dimension key with g <= 5 and n <= 8
    keys = [
        (g, ds)
        for g in range(6)
        for n in range(1, 9)
        if 2 * g - 2 + n > 0
        for ds in _psi_monomials(n, 3 * g - 3 + n)
    ]
    for g, ds in keys:
        assert o.kw_number(g, ds) == ref.kw(g, ds), (g, ds)
    assert len(keys) == 2366
    # the integrality lemma: 8^(2g-2+n) prod (2d_i+1)!! <tau_ds>_g is an integer
    for (g, ds), val in ref.memo.items():
        assert (val * 8 ** (2 * g - 2 + len(ds)) * prod(map(odd_df, ds))).denominator == 1, (g, ds)


def test_genus_zero_closed_form(oracle):
    from math import factorial, prod

    from kapparec.toprec import _sorted_tuples

    for n in range(3, 9):
        for ds in _sorted_tuples(n, n - 3):
            if sum(ds) == n - 3:
                want = F(factorial(n - 3), prod(factorial(d) for d in ds))
                assert oracle.kw_number(0, ds) == want, ds


def test_one_point_ladder_closed_form():
    from math import factorial

    o = IntersectionOracle()
    for g in range(1, 19):
        assert o.kw_number(g, (3 * g - 2,)) == F(1, 24**g * factorial(g))
    # DVV on the smallest exponent; on the largest, the memo reaches 35,104 keys
    assert len(o._kw) == 2413


def test_dvv_holds_at_every_point():
    # the normalized DVV with each distinct exponent k of a key distinguished in
    # turn, from the oracle's own N, summed over labeled slots and splits
    o = IntersectionOracle()

    def N(g, ds):
        on_dimension = g >= 0 and 2 * g - 2 + len(ds) > 0 and sum(ds) == 3 * g - 3 + len(ds)
        return o.kw_number(g, ds) * _scale(g, ds) if on_dimension else 0

    pairs = 0
    for g in range(5):
        for n in range(1, 6):
            if 2 * g - 2 + n <= 0:
                continue
            for ds in _psi_monomials(n, 3 * g - 3 + n):
                for k in sorted(set(ds)):
                    i = ds.index(k)
                    mu = ds[:i] + ds[i + 1 :]
                    rhs = 8 if (g, ds) == (0, (0, 0, 0)) else 1 if (g, ds) == (1, (1,)) else 0
                    for j, v in enumerate(mu):
                        if k + v:
                            rhs += 8 * (2 * v + 1) * N(g, (k + v - 1,) + mu[:j] + mu[j + 1 :])
                    for a in range(k - 1):
                        b = k - 2 - a
                        rhs += 4 * N(g - 1, (a, b) + mu)
                        for mask in range(2 ** len(mu)):
                            alpha = tuple(v for j, v in enumerate(mu) if mask >> j & 1)
                            beta = tuple(v for j, v in enumerate(mu) if not mask >> j & 1)
                            for g1 in range(g + 1):
                                rhs += 4 * N(g1, (a,) + alpha) * N(g - g1, (b,) + beta)
                    assert rhs == N(g, ds), (g, ds, k)
                    pairs += 1
    assert pairs == 807


def test_kappa_psi_basics(oracle):
    assert oracle.kappa_psi_number(1, 1, (0,), (1,)) == F(1, 24)
    assert oracle.kappa_psi_number(0, 3, (0, 0, 0), ()) == 1
    assert oracle.kappa_psi_number(0, 4, (0, 0, 0, 0), (1,)) == 1
    # Zograf's Weil-Petersson volumes: int_{M_{0,n}} kappa_1^{n-3}
    for n, want in ((4, 1), (5, 5), (6, 61), (7, 1379), (8, 49946)):
        assert oracle.kappa_psi_number(0, n, (0,) * n, (1,) * (n - 3)) == want, n
    assert oracle.kappa_psi_number(1, 2, (0, 0), (1, 1)) == F(1, 8)
    assert oracle.kappa_psi_number(2, 0, (), (1, 1, 1)) == F(43, 2880)
    # off-dimension input is zero, and so is a negative psi exponent
    assert oracle.kappa_psi_number(1, 1, (0,), (1, 1)) == 0
    assert oracle.kappa_psi_number(1, 2, (-1, 0), (3,)) == 0
    with pytest.raises(ValueError):
        oracle.kappa_psi_number(0, 2, (0, 0), (1,))
    with pytest.raises(ValueError, match="kappa indices"):
        oracle.kappa_psi_number(1, 1, (0,), (2, -1))


def test_repeated_kappa_psi_number_reads_its_memo():
    o = IntersectionOracle()
    key = (2, (0, 1), (2, 1, 1))
    first = o.kappa_psi_number(2, 2, (1, 0), (1, 2, 1))
    # stored under its own kappa key, never under one of the psi keys it summed
    assert list(o._kpsi) == [key] and o._kpsi[key] == first
    psi_numbers = dict(o._kw)
    o._kpsi[key] = marker = F(-7, 3)
    assert o.kappa_psi_number(2, 2, (0, 1), (2, 1, 1)) is marker
    assert o._kw == psi_numbers


def set_partitions(items):
    """Every set partition of the labeled slots of items, as its list of
    blocks; equal items in different slots count as different elements.
    The enumeration the oracle once summed over, kept as the reference for
    signed_block_keys."""
    if not items:
        yield []
        return
    first = items[0]
    for blocks in set_partitions(items[1:]):
        yield [(first,), *blocks]
        for i, block in enumerate(blocks):
            yield [*blocks[:i], (first, *block), *blocks[i + 1 :]]


def test_signed_block_keys_equals_the_set_partition_sum():
    # every kappa monomial of weight <= 9, up to kappa_1^9 with Bell(9) = 21147 partitions
    lams = [lam[::-1] for w in range(1, 10) for lam in partitions(w)]
    for lam in lams:
        want = {}
        for blocks in set_partitions(lam):
            merged = tuple(sorted(sum(block) + 1 for block in blocks))
            want[merged] = want.get(merged, 0) + (-1) ** (len(lam) - len(blocks))
        assert dict(signed_block_keys(lam)) == {k: c for k, c in want.items() if c}, lam
    assert len(lams) == 96
    assert signed_block_keys(()) == (((), 1),)



def test_kappa_zero_is_the_scalar_and_every_written_key_loads_back(tmp_path):
    # kappa_0 = 2g-2+n, as the set-partition formula gives it; it is taken
    # out before the memo and the cache key, which cannot hold a kappa part 0
    keys = [(1, 1, (1,), (0,)), (0, 4, (1, 0, 0, 0), (0, 0)), (1, 2, (0, 1), (1, 0)),
            (2, 1, (1,), (2, 1, 0, 0)), (0, 5, (0,) * 5, (2, 0)), (1, 1, (0,), (1, 0, 0, 0))]
    o = IntersectionOracle()
    for g, n, psis, lam in keys:
        want = sum((-1) ** (len(lam) - len(blocks)) * o.kw_number(g, psis + tuple(sum(b) + 1 for b in blocks))
                   for blocks in set_partitions(lam))
        assert o.kappa_psi_number(g, n, psis, lam) == want, (g, psis, lam)
    path = str(tmp_path / "c.json")
    o = IntersectionOracle(Cache(path))
    assert o.kappa_psi_number(1, 1, (1,), (0,)) == F(1, 24)
    values = [o.kappa_psi_number(*key) for key in keys]
    o.cache.save()
    reloaded = Cache(path)
    assert reloaded.data == o.cache.data
    assert [IntersectionOracle(reloaded).kappa_psi_number(*key) for key in keys] == values

# sha256 of "g;psis;lam=value" lines of every kappa_psi_number with g <= 4,
# dim <= 8, every sorted psi vector and every non-empty lam, as the oracle
# computed them by listing set partitions
KAPPA_PSI_DIGEST = "cb159e30e67c2a13476a52d61fb38e7774ba06dc7bea2336a00b3612e81ca4df"


def test_kappa_psi_numbers_match_pinned_digest():
    from kapparec.toprec import _sorted_tuples

    o = IntersectionOracle()
    lines = []
    for g in range(5):
        for n in range(12):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or dim > 8:
                continue
            for psis in _sorted_tuples(n, dim):
                if sum(psis) < dim:
                    for lam in partitions(dim - sum(psis)):
                        val = rat_str(o.kappa_psi_number(g, n, psis, lam))
                        lines.append(f"{g};{','.join(map(str, psis))};{','.join(map(str, lam))}={val}")
    assert len(lines) == 1237
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == KAPPA_PSI_DIGEST


# sha256 of the sorted "g;ds=value" lines of every psi number that the
# one-point ladder kw_number(g, (3g-2,)), g = 6..10, computes on a cold oracle
# with DVV on the largest exponent, as the oracle computed them with its memo
# keyed by (g, ds)
LADDER_PSI_DIGEST = "8c633d43873a7ea9f6cd2832b65e59dbe350dac8f25377138c2cc0236e2fa91c"


def _ladder(oracle):
    """The one-point ladder g = 6..10 on a cold oracle; the sorted (g, ds, value)
    of every psi number it computed, which its cache saw keyed with the genus."""
    for g in range(6, 11):
        oracle.kw_number(g, (3 * g - 2,))
    return sorted((g, ds, v) for (g, ds, lam), v in oracle.cache.data.items())


def test_ladder_psi_numbers_match_pinned_digest():
    ref = _ladder(LargestExponentOracle(Cache()))
    assert len(ref) == 779
    lines = [f"{g};{','.join(map(str, ds))}={rat_str(v)}" for g, ds, v in ref]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LADDER_PSI_DIGEST
    o = IntersectionOracle(Cache())
    items = _ladder(o)
    assert len(items) == 272
    # the memo is keyed by the sorted key alone, which fixes the genus on dimension
    assert len(o._kw) == len(items)
    for ds in o._kw:
        g, r = divmod(sum(ds) - len(ds) + 3, 3)
        assert list(ds) == sorted(ds) and r == 0 and g >= 0, ds
        assert F(o._kw[ds], _scale(g, ds)) == o.kw_number(g, ds), ds
    for g, ds, v in ref:
        assert o.kw_number(g, ds) == v, (g, ds)


def test_a_cache_written_by_the_reference_recursion_loads(tmp_path, capsys):
    from kapparec.cli import main

    path = str(tmp_path / "ladder.json")
    ref = LargestExponentOracle(Cache(path))
    items = _ladder(ref)
    ref.cache.save()
    o = IntersectionOracle(Cache(path))
    assert len(o.cache.data) == 779
    values = [(g, ds, o.kw_number(g, ds)) for g, ds, _ in items]
    # every value, the ladder's own among them, was read from the file
    assert values == items and not o.cache.dirty
    assert main(["cache", "--action", "verify", "--cache", path]) == 0
    assert capsys.readouterr().out == "verified 779 entries, 0 bad\n"


def test_integrate_linearity_and_families(oracle):
    J1 = j_polys(1)[1]
    K1 = k_polys(1)[1]
    assert oracle.integrate(J1, 1, 1) == F(1, 24)
    assert oracle.integrate(K1, 1, 1) == F(1, 8)
    bundle = J1 * F(5) + K1 * F(-2)
    assert oracle.integrate(bundle, 1, 1) == 5 * F(1, 24) - 2 * F(1, 8)
    # off-dimension polynomial integrates to zero
    assert oracle.integrate(k_polys(2)[2], 1, 1) == 0
    mp = KappaPoly({((1,), (1, 0)): F(1)}, 2)
    assert oracle.integrate(mp, 1, 2) == F(1, 12)
    # a kappa-only polynomial is lifted to the point count it is paired on
    for P, g, n in ((J1, 1, 1), (k_polys(2)[2], 1, 2), (k_polys(2)[2], 0, 5), (k_polys(3)[3], 2, 0)):
        assert oracle.integrate(P, g, n) == oracle.integrate(P.with_points(n), g, n)
    with pytest.raises(ValueError):
        oracle.integrate(mp, 1, 1)


def test_theorem2_vanishing_small(oracle):
    # pairing of the full exponential class with low-degree psi monomials
    from kapparec.coeffs import h_star

    for g, n, m in ((2, 1, 0), (2, 2, 0), (3, 1, 1), (3, 2, 0)):
        hv = {k: h_star("k", k) for k in range(1, 3 * g - 3 + n + 1)}
        for psis in _psi_monomials(n, m):
            assert oracle.kclass_psi(g, psis, hv) == 0


def _psi_monomials(n, deg):
    from kapparec.toprec import _sorted_tuples

    return [t for t in _sorted_tuples(n, deg) if sum(t) == deg]


def test_euler_characteristic_signed_values(oracle):
    # integral of the top K polynomial on the unpointed space: the exact
    # signed value is (-1)^g B_{2g} / (2g(2g-2)), of magnitude |chi(M_g)|
    for g in (2, 3):
        polys = k_polys(3 * g - 3)
        val = oracle.integrate(polys[3 * g - 3], g, 0)
        assert val == F((-1) ** g) * bernoulli(2 * g) / (2 * g * (2 * g - 2))


def test_j_top_psi_pairing_bernoulli(oracle):
    # int_{(g,1)} J_{2g-1} psi^{g-1} = B_{2g} / (2^{2g-1} (2g-1)!! 2g)
    from kapparec.rationals import odd_df

    for g in (1, 2, 3):
        J = j_polys(2 * g - 1)
        mp = J[2 * g - 1] * KappaPoly({((), (g - 1,)): F(1)}, 1)
        got = oracle.integrate(mp, g, 1)
        assert got == bernoulli(2 * g) / (2 ** (2 * g - 1) * odd_df(g - 1) * 2 * g)


def test_kclass_matches_family_polynomial_pairing(oracle):
    # the shift expansion of the exponential class must equal the pairing of
    # its dimension-forced graded piece, integrated monomial by monomial
    from kapparec.coeffs import h_star

    for style, polys in (("k", k_polys), ("j", j_polys)):
        hv = {k: h_star(style, k) for k in range(1, 8)}
        for g, psis in ((1, (0,)), (1, (1, 0)), (2, (1,)), (2, (0, 0)), (3, (2, 1))):
            n = len(psis)
            w = 3 * g - 3 + n - sum(psis)
            if w < 0:
                continue
            fam = polys(max(w, 1))[w]
            mono = KappaPoly({((), tuple(psis)): F(1)}, n)
            want = oracle.integrate(fam * mono, g, n)
            assert oracle.kclass_psi(g, psis, hv) == want, (style, g, psis)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    c = Cache(str(path))
    o = IntersectionOracle(c)
    v = o.kappa_psi_number(1, 1, (0,), (1,))
    o.kw_number(2, (4,))
    c.save()
    c2 = Cache(str(path))
    assert c2.get(1, (0,), (1,)) == v
    assert c2.get(2, (4,), ()) == F(1, 1152)
    o2 = IntersectionOracle(c2)
    assert o2.kappa_psi_number(1, 1, (0,), (1,)) == v
    stats = c2.stats()
    assert stats["entries"] == len(c2.data) > 0
    assert stats["psi_only"] + stats["with_kappa"] == stats["entries"]


def test_cache_version_and_collision(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "nope", "entries": {}}))
    with pytest.raises(ValueError, match="version mismatch"):
        Cache(str(bad))
    c = Cache()
    c.put(1, (0,), (1,), F(1, 24))
    c.put(1, (0,), (1,), F(1, 24))  # idempotent
    with pytest.raises(ValueError, match="collision"):
        c.put(1, (0,), (1,), F(1, 25))
    assert _key_str(1, (0,), (1,)) == "1;0;1"
    c.data[1, (1,), ()] = F(1, 23)  # set past load's lattice check
    with pytest.raises(ValueError, match="1;1; is not a psi number"):
        IntersectionOracle(c).kw_number(1, (1,))


def _cache_file(tmp_path, entries: dict) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": entries}))
    return str(path)


def test_lattice_check_never_forms_a_huge_scale(tmp_path):
    # (2*10^8+1)!! has hundreds of millions of digits: the check may only
    # divide the denominator by its first odd factors
    g, d = 33_333_334, 100_000_000  # on dimension: d = 3g - 2
    on = f"{g};{d};"
    for value in ("1/3", "1/2", "-5/63", "7"):
        assert Cache(_cache_file(tmp_path, {on: value})).data[g, (d,), ()] == F(value)
    # 2^(3 chi + 1) and an odd prime above every 2d_i + 1 divide no scale
    for key, value in (("1;1;", "1/16"), ("1;0,2;", "1/7"), ("2;0,0,6;", "1/17")):
        with pytest.raises(ValueError, match=f"at {key} is not a psi number"):
            Cache(_cache_file(tmp_path, {key: value}))
    # a fraction off the dimension constraint is refused before any scale
    for key in ("0;100000000,0,0;", "1;0,0;"):
        with pytest.raises(ValueError, match=f"at {key} is not a psi number"):
            Cache(_cache_file(tmp_path, {key: "1/3"}))
    assert Cache(_cache_file(tmp_path, {"0;100000000,0,0;": "0"})).data



def test_lattice_check_stops_at_a_factor_still_to_come(tmp_path):
    # the odd q = 10000019 lies in 3..2d+1, so it divides (2d+1)!! without the
    # five million trial divisions below it
    g, d = 33_333_334, 100_000_000
    start = time.perf_counter()
    cache = Cache(_cache_file(tmp_path, {f"{g};{d};": "1/10000019"}))
    assert time.perf_counter() - start < 0.5
    assert cache.data[g, (d,), ()] == F(1, 10000019)
    # on small keys the check is exactly "q divides no _scale"
    from kapparec.toprec import _sorted_tuples

    for g in range(4):
        for n in range(1, 7):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or dim > 6:
                continue
            for psis in _sorted_tuples(n, dim):
                scale = _scale(g, psis)
                for q in [*range(1, 300), scale, scale // 3, 2 * scale]:
                    assert _off_lattice(g, psis, q) == (sum(psis) != dim or scale % q != 0), (g, psis, q)

def test_malformed_cache_keys_are_refused(tmp_path):
    # every key is parsed in _key_str's form, integer values and kappa keys
    # included; a leading zero or a number past int's digit limit is malformed
    for key in ("garbage", "2;", "1;1", "1;1;;", "-1;1;", "1;-1;", "1;a;", "1;1,;",
                "1;1;0", "1;1;2,", " 1;1;", "1;1;x", "01;1;", "1;00;", "0;0,01,2;", "1;1;01",
                "1" * 5000 + ";1;", "1;0;" + "1" * 5000):
        for value in ("1/3", "5/7", "1", "0"):
            with pytest.raises(ValueError, match="corrupted cache file: malformed key"):
                Cache(_cache_file(tmp_path, {key: value}))
    good = {"1;1;": "1/24", "0;0,0,0;": "1", "1;0;1": "1/24", "2;;3": "1/24", "0;;": "5/7"}
    assert Cache(_cache_file(tmp_path, good)).data == {
        (1, (1,), ()): F(1, 24), (0, (0, 0, 0), ()): 1, (1, (0,), (1,)): F(1, 24),
        (2, (), (3,)): F(1, 24), (0, (), ()): F(5, 7),
    }


def test_cache_load_then_save_is_byte_identical(tmp_path):
    # psi-only and kappa keys, whose key-string and tuple orders differ
    entries = {"0;0,0,0;": "1", "1;1;": "1/24", "1;0;1": "1/24", "2;;3": "1/1152",
               "10;;27": "-5/7", "2;0,0,10;": "0", "2;0,0,2;1": "3/4", "0;;": "5/7"}
    src, out = tmp_path / "src.json", tmp_path / "out.json"
    src.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": entries}, indent=0, sort_keys=True))
    Cache(str(src)).save(str(out))
    assert out.read_bytes() == src.read_bytes()


def test_kclass_psi_numeric(oracle):
    # int_{M_{1,1}} exp(s_1 kappa_1) with h_1 = -3, so s_1 = 3: 3 * 1/24
    assert oracle.kclass_psi(1, (0,), {1: F(-3)}) == F(1, 8)


def test_shift_route_equals_set_partition_route():
    # exp(sum s_i kappa_i) = sum_lam Q_lam kappa_lam with
    # Q_lam = prod_v s_v^{a_v} / a_v!, so for numeric h the shift expansion
    # (kclass_psi) equals the kappa monomials (kappa_psi_number) weighted
    # by Q_lam(s(h)); the two routes share only the psi numbers
    o = IntersectionOracle()
    rng = random.Random(6)
    cases = 0
    for g in range(4):
        for n in range(8):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or not 0 < dim <= 7:
                continue
            for psis in _psi_monomials(n, rng.randint(0, dim - 1)):
                _assert_shift_route(o, g, psis, rng)
                cases += 1
    assert cases == 33


def test_shift_route_equals_set_partition_route_deep():
    # dims 8-10 at psi degree <= 2, so kappa monomials up to kappa_1^10
    # (Bell(10) = 115975 set partitions) are summed
    o = IntersectionOracle()
    rng = random.Random(8)
    cases = 0
    for g, n in ((1, 8), (2, 5), (3, 2), (2, 6), (4, 0), (3, 4), (4, 1)):
        for deg in range(3):
            for psis in _psi_monomials(n, deg):
                _assert_shift_route(o, g, psis, rng)
                cases += 1
    assert cases == 24


def _assert_shift_route(o, g, psis, rng):
    from kapparec.coeffs import s_from_h
    from math import factorial

    n = len(psis)
    w = 3 * g - 3 + n - sum(psis)
    h = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(w)]
    s = s_from_h(h)
    want = F(0)
    for lam in partitions(w):
        q = F(1)
        for v, a in multiplicities(lam).items():
            q *= s[v - 1] ** a / factorial(a)
        want += q * o.kappa_psi_number(g, n, psis, lam)
    got = o.kclass_psi(g, psis, {i + 1: h[i] for i in range(w)})
    assert got == want, (g, psis, h)

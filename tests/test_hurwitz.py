from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from math import prod

import pytest

from kapparec.hurwitz import (
    BudgetError,
    _slot_sum,
    brute_force,
    elsv_value,
    expand_at_one,
    hurwitz_three_ways,
    phi_coeffs,
    pvec,
    transposition_count,
    x_coeff,
)
from kapparec.kappapoly import partitions
from kapparec.toprec import Engine, build_curve, required_order


def test_brute_force_goldens():
    assert brute_force(1, (2,)) == F(1, 2)
    assert brute_force(1, (1,)) == 0
    assert brute_force(0, (2, 1)) == 2
    # four monotone pairs in S(3) produce 3-cycles (both a-orders are allowed
    # at equal b), i.e. two factorizations per fixed 3-cycle: 4/3! = 2/3
    assert brute_force(0, (3,)) == F(2, 3)
    assert transposition_count(1, (2,)) == 3


def test_brute_force_refuses_negative_genus():
    with pytest.raises(ValueError, match="genus"):
        brute_force(-1, (1, 1))
    assert brute_force(0, (1,)) == 1


def test_brute_force_budget():
    with pytest.raises(BudgetError, match="d <= 6, m <= 8"):
        brute_force(2, (4, 1))  # m = 9 exceeds the default budget
    assert brute_force(2, (4, 1), m_max=9) == elsv_value_ref((2, (4, 1)))


def test_brute_force_beyond_default_degree():
    assert brute_force(1, (7,), d_max=7) == 1716 == elsv_value_ref((1, (7,)))
    assert brute_force(0, (3, 2, 2), d_max=7) == 720 == elsv_value_ref((0, (3, 2, 2)))


def elsv_value_ref(key):
    from kapparec.intersect import IntersectionOracle

    g, part = key
    return elsv_value(IntersectionOracle(), g, part)


def test_monotone_pruning_soundness():
    # enumerating with the b-chain constraint equals filtering the
    # unconstrained enumeration, at tiny sizes
    def unconstrained_count(d, m, target):
        trans = [(a, b) for b in range(1, d) for a in range(0, b)]
        total = 0
        for tup in itertools.product(trans, repeat=m):
            if any(tup[i][1] > tup[i + 1][1] for i in range(m - 1)):
                continue
            perm = list(range(d))
            for a, b in tup:
                perm[a], perm[b] = perm[b], perm[a]
            # cycle type
            seen = [False] * d
            typ = []
            for s in range(d):
                if seen[s]:
                    continue
                ln, x = 0, s
                while not seen[x]:
                    seen[x] = True
                    x = perm[x]
                    ln += 1
                typ.append(ln)
            if tuple(sorted(typ, reverse=True)) != target:
                continue
            # transitivity via reachability of the transposition graph
            adj = {i: set() for i in range(d)}
            for a, b in tup:
                adj[a].add(b)
                adj[b].add(a)
            stack, seen2 = [0], {0}
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen2:
                        seen2.add(y)
                        stack.append(y)
            if len(seen2) == d:
                total += 1
        return total

    keys = (
        (0, (3,)),
        (1, (2,)),
        (0, (2, 1)),
        (0, (1, 1, 1)),
        (1, (1, 1)),
        (0, (4,)),
        (0, (3, 1)),
        (0, (2, 2)),
    )
    for g, part in keys:
        d = sum(part)
        m = transposition_count(g, part)
        aut = 1
        from kapparec.kappapoly import multiplicities

        for _, mm in multiplicities(part).items():
            for i in range(2, mm + 1):
                aut *= i
        fd = 1
        for i in range(2, d + 1):
            fd *= i
        want = F(unconstrained_count(d, m, tuple(sorted(part, reverse=True))) * aut, fd)
        assert brute_force(g, part) == want, (g, part)


def test_phi_properties():
    assert phi_coeffs(F(0), 3) == [1, 1, 3, 15]
    assert phi_coeffs(F(1), 2) == [1, 3, 15]
    # Phi_{-1/2} = 1
    assert phi_coeffs(F(-1, 2), 5) == [1, 0, 0, 0, 0, 0]
    # Phi_{-(2m+1)/2} has degree m
    for m in range(0, 4):
        cs = phi_coeffs(F(-(2 * m + 1), 2), m + 3)
        assert cs[m] != 0
        assert all(c == 0 for c in cs[m + 1 :])


def test_x_coeff_matches_product_formula():
    # i binom(2i, i) prod_{j=1}^k (2i + 2j - 1)
    assert x_coeff(0, 1) == 2
    assert x_coeff(0, 2) == 12
    assert x_coeff(1, 1) == 6
    assert x_coeff(1, 2) == 60
    assert x_coeff(2, 1) == 30
    assert x_coeff(0, 0) == 0


def test_elsv_examples(oracle):
    assert elsv_value(oracle, 1, (2,)) == F(1, 2)
    assert elsv_value(oracle, 1, (1,)) == 0
    # 6 * int (1 - 3 kappa_1)(1 + 5 psi) = 6 (5/24 - 3/24)
    assert pvec(oracle, 1, [F(2)]) == F(1, 12)


def test_pvec_symmetry(oracle):
    args = [F(1, 2), F(-2, 3), F(3)]
    vals = {pvec(oracle, 1, list(p)) for p in itertools.permutations(args)}
    assert len(vals) == 1


def test_pvec_half_integer_vanishing(oracle):
    for g in (2, 3):
        for n in (1, 2, 3):
            for ms in _tuples(n, g - 2):
                args = [F(-(2 * m + 1), 2) for m in ms]
                assert pvec(oracle, g, args) == 0, (g, ms)


def _tuples(n, total_max):
    if total_max < 0:
        return []
    out = []
    for t in itertools.product(range(total_max + 1), repeat=n):
        if sum(t) <= total_max:
            out.append(t)
    return out


def test_expand_at_one_stability(kstar_engine):
    corr = kstar_engine.correlator(1, 1)
    with pytest.raises(ValueError):
        expand_at_one(corr, (1, 2))


def test_triple_agreement_small(oracle, kstar_engine):
    # every partition of d <= 4 at g <= 2, and of d = 5 and 6 at g <= 1
    cases = [(d, g) for d in range(1, 5) for g in range(3)] + [(d, g) for d in (5, 6) for g in (0, 1)]
    checked = 0
    for d, g in cases:
        for part in partitions(d):
            if 2 * g - 2 + len(part) <= 0:
                continue
            r = hurwitz_three_ways(oracle, kstar_engine, g, part)
            vals = {v for v in r.values() if v is not None}
            assert len(vals) == 1, (g, part, r)
            checked += d >= 5
    assert checked == 29


def _slot_sum_ordered(n, dim, value, factor):
    # the definition: every ordered exponent n-tuple with sum <= dim
    return sum(
        (value(tuple(sorted(e))) * prod(factor(i, x) for i, x in enumerate(e))
         for e in itertools.product(range(dim + 1), repeat=n) if sum(e) <= dim),
        F(0),
    )


def test_slot_sum_matches_the_ordered_tuple_walk():
    rng = random.Random(20211222)
    pool = [F(0), F(0), F(1), F(-1, 2), F(-3, 2), F(2, 3), F(5)]
    for n in range(6):
        for dim in range(7):
            table = [[rng.choice(pool) for _ in range(dim + 1)] for _ in range(n)]
            weights = {}
            reads = []

            def value(key):
                reads.append(key)
                return weights.setdefault(key, F(rng.randint(-9, 9), rng.randint(1, 5)))

            got = _slot_sum(n, dim, value, lambda i, e: table[i][e])
            assert len(reads) == len(set(reads)), (n, dim)
            assert got == _slot_sum_ordered(n, dim, value, lambda i, e: table[i][e]), (n, dim)


def test_routes_past_brute_force(oracle):
    eng = Engine(build_curve("kstar", required_order(2, 8)))
    r = hurwitz_three_ways(oracle, eng, 2, (1,) * 8)
    assert r == {"expand": 5502280734720, "elsv": 5502280734720, "brute": None}
    r = hurwitz_three_ways(oracle, eng, 1, (2, 2, 2, 1, 1))
    assert r == {"expand": 29121984, "elsv": 29121984, "brute": None}

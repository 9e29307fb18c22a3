from __future__ import annotations

import random
from fractions import Fraction as F
from math import factorial

import pytest

from kapparec import coeffs
from kapparec.coeffs import (
    alternating_product_series,
    ell_from_ab,
    ell_via_ode,
    exp_coeffs,
    h_from_s,
    h_star,
    log_coeffs,
    p_sequence,
    s_from_h,
    s_sequence,
    sigma_sequence,
)
from kapparec.rationals import odd_df


def test_named_sequences():
    assert sigma_sequence(4) == (1, F(-3, 2), F(13, 3), F(-71, 4))
    assert s_sequence(4) == (3, F(-21, 2), 69, F(-2529, 4))
    assert p_sequence(2) == (1, F(-5, 2))


def test_defining_series_are_the_double_factorials():
    # the alternating product series specialize to k!, (2k+1)!!, (2k-1)!!
    for (a, b), vals in (
        ((1, 1), [factorial(k) for k in range(6)]),
        ((3, 2), [odd_df(k) for k in range(6)]),
        ((1, 2), [odd_df(k - 1) for k in range(6)]),
    ):
        assert alternating_product_series(F(a), F(b), 6) == [
            F((-1) ** k) * v for k, v in enumerate(vals)
        ]


def test_ode_equals_reciprocal_small_and_random():
    cases = [(F(1), F(1)), (F(3), F(2)), (F(1), F(2)), (F(0), F(0))]
    rng = random.Random(3)
    cases += [
        (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(6)
    ]
    for a, b in cases:
        assert ell_from_ab(a, b, 12) == ell_via_ode(a, b, 12)


def test_ode_first_value_is_a():
    assert ell_via_ode(F(1), F(1), 1) == (1,)
    assert ell_via_ode(F(3), F(2), 1) == (3,)
    assert ell_via_ode(F(0), F(0), 5) == (0, 0, 0, 0, 0)


def test_reexponentiation_recovers_product_series():
    for a, b in ((F(1), F(1)), (F(3), F(2)), (F(5, 2), F(-1, 3))):
        n = 8
        ell = ell_from_ab(a, b, n)
        assert exp_coeffs([0, *(-v for v in ell)]) == alternating_product_series(a, b, n + 1)


def test_exp_log_coeffs_roundtrip_and_examples():
    assert log_coeffs([F(1)] + [F(0)] * 4) == [0] * 5
    assert exp_coeffs([F(0)] * 5) == [1, 0, 0, 0, 0]
    # log(1 - t + 2t^2 - 6t^3) = -t + 3/2 t^2 - 13/3 t^3 + O(t^4)
    assert log_coeffs([F(1), F(-1), F(2), F(-6)]) == [0, -1, F(3, 2), F(-13, 3)]
    # log(1 - 3t + 15t^2 - 105t^3) = -3t + 21/2 t^2 - 69 t^3 + O(t^4)
    logs = log_coeffs([F(1), F(-3), F(15), F(-105)])
    assert logs == [0, -3, F(21, 2), -69]
    assert exp_coeffs(logs) == [1, -3, 15, -105]
    rng = random.Random(5)
    for _ in range(10):
        u = [F(0)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        assert log_coeffs(exp_coeffs(u)) == u
    with pytest.raises(ValueError):
        log_coeffs([F(2), F(1)])
    with pytest.raises(ValueError):
        exp_coeffs([F(1), F(1)])


def test_h_from_s_examples():
    assert h_from_s(s_sequence(4)) == (-3, 15, -105, 945)
    assert h_from_s(sigma_sequence(4)) == (-1, 2, -6, 24)
    assert h_from_s([F(0)] * 5) == (0, 0, 0, 0, 0)
    assert [h_star("k", k) for k in range(5)] == [1, -3, 15, -105, 945]
    assert [h_star("j", k) for k in range(5)] == [1, -1, 2, -6, 24]
    assert [odd_df(k) for k in range(-1, 4)] == [1, 1, 3, 15, 105]
    for bad in (lambda: odd_df(-2), lambda: h_star("k", -2)):
        with pytest.raises(ValueError):
            bad()


def test_h_s_roundtrip_random():
    rng = random.Random(9)
    for _ in range(20):
        s = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        assert list(s_from_h(h_from_s(s))) == s
        h = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        assert list(h_from_s(s_from_h(h))) == h


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_integer_log_equals_the_fraction_series_log(order, monkeypatch):
    # ascending n extends each (a, b)'s integer log by one term a call;
    # descending n builds it to 24 at once and reads prefixes of it after.
    # l_k of log_coeffs reads only c_0..c_k, so the log of the series to
    # t^(n+1) is the first n + 1 values of the one to t^25
    monkeypatch.setattr(coeffs, "_INTEGER_LOGS", {})
    lengths = range(1, 25) if order == "ascending" else range(24, 0, -1)
    for a in (0, 1, 3, -2, F(1, 2), F(5, 3)):
        for b in (0, 1, 2, F(3, 4), F(-1, 6)):
            want = tuple(-v for v in log_coeffs(alternating_product_series(F(a), F(b), 25))[1:])
            for n in lengths:
                assert ell_from_ab(a, b, n) == want[:n], (a, b, n)


def test_bad_input():
    with pytest.raises(ValueError):
        ell_from_ab(F(1), F(1), 0)
    with pytest.raises(ValueError):
        h_star("x", 1)

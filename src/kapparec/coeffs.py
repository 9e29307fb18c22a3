"""Generating-coefficient sequences and the h <-> s coordinate change.

The two-parameter family ell^(a,b) is defined by either of two equivalent
characterizations:

  exp(-sum_j ell_j t^j) = sum_k (-1)^k t^k prod_{m=0}^{k-1} (a + b m)      (reciprocal)
  exp(+sum_j ell_j t^j) = 1 + a t - b t^2 d/dt sum_j ell_j t^j            (ODE)

Specializations: (1,1) -> sigma (factorials), (3,2) -> s (odd double
factorials), (1,2) -> p (even-shifted double factorials, (-1)!! = 1).

The h-coordinates are defined by 1 + h_1 t + h_2 t^2 + ... = exp(-sum s_i t^i)
with the conventions h_0 = 1, h_{-1} = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .parampoly import ParamPoly
from .rationals import fact, odd_df
from .zseries import ZSeries, series_exp, series_log

def alternating_product_series(a: Fraction, b: Fraction, order: int) -> ZSeries:
    """sum_k (-1)^k t^k prod_{m=0}^{k-1}(a+bm), truncated at t^order."""
    coeffs = {}
    prod = Fraction(1)
    for k in range(order):
        coeffs[k] = Fraction((-1) ** k) * prod
        prod *= a + b * k
    return ZSeries(coeffs, order=order)


@lru_cache(maxsize=None)
def ell_from_ab(a: Fraction, b: Fraction, n: int) -> tuple[Fraction, ...]:
    """ell_1..ell_n via the reciprocal characterization (series log)."""
    if n < 1:
        raise ValueError("need n >= 1")
    a, b = Fraction(a), Fraction(b)
    rhs = alternating_product_series(a, b, n + 1)
    logs = series_log(rhs)
    return tuple(-logs.coeff(j).as_fraction() for j in range(1, n + 1))


@lru_cache(maxsize=None)
def ell_via_ode(a: Fraction, b: Fraction, n: int) -> tuple[Fraction, ...]:
    """ell_1..ell_n by solving the defining ODE degree by degree.

    Writing E = exp(sum ell_j t^j), the coefficient of t^k gives
    ell_k = a*[k=1] - b(k-1) ell_{k-1} - (terms of E from ell_{<k}).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a, b = Fraction(a), Fraction(b)
    ell: list[Fraction] = []
    for k in range(1, n + 1):
        partial = ZSeries(
            {j + 1: ell[j] for j in range(len(ell))}, order=k + 1
        )
        e_partial = series_exp(partial)
        rhs_k = (a if k == 1 else Fraction(0)) - (
            b * (k - 1) * ell[k - 2] if k >= 2 else Fraction(0)
        )
        ell.append(rhs_k - e_partial.coeff(k).as_fraction())
    return tuple(ell)


def s_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(3), Fraction(2), n)


def sigma_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(1), Fraction(1), n)


def p_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(1), Fraction(2), n)


def h_from_s(s: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """h_1..h_N from 1 + sum h_k t^k = exp(-sum s_i t^i)."""
    n = len(s)
    exponent = ZSeries({i + 1: -Fraction(s[i]) for i in range(n)}, order=n + 1)
    e = series_exp(exponent)
    return tuple(e.coeff(k).as_fraction() for k in range(1, n + 1))


def s_from_h(h: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Inverse of h_from_s: s_i = -[t^i] log(1 + sum h_k t^k)."""
    n = len(h)
    series = ZSeries(
        {0: Fraction(1), **{k + 1: Fraction(h[k]) for k in range(n)}}, order=n + 1
    )
    logs = series_log(series)
    return tuple(-logs.coeff(i).as_fraction() for i in range(1, n + 1))


def h_star(style: str, k: int) -> Fraction:
    """The h-coordinates of the two distinguished specializations.

    style "k": h_k = (-1)^k (2k+1)!!  (the class built from the s-sequence);
    style "j": h_k = (-1)^k k!        (the sigma-sequence class).
    """
    if style == "k":
        return Fraction((-1) ** k * odd_df(k))
    if style == "j":
        return Fraction((-1) ** k * fact(k))
    raise ValueError(f"unknown specialization style {style!r}")


def htilde_weak(style: str, n_h: int, w_max: int) -> dict[int, ParamPoly]:
    """Shift sequence htilde_0..htilde_{w_max} of the eps-rescaled
    two-parameter family with formal h_1..h_{n_h}:

        htilde_k = sum_{i+j=k, j<=n_h} eps^{-i-1} hstar_i h_j,   h_0 = 1,

    so htilde_0 = 1/eps.  The curve of the family has y-coefficient
    htilde_k/(2k+1)!! at z^{2k+1}; n_h = 0 gives the "k"/"j" curves.
    """
    out = {}
    for k in range(w_max + 1):
        terms = {}
        for j in range(min(k, n_h) + 1):
            hexp = (0,) * (j - 1) + (1,) if j else ()  # the monomial h_j
            terms[(j - k - 1, hexp)] = h_star(style, k - j)
        out[k] = ParamPoly(terms)
    return out

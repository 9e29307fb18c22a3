"""Generating-coefficient sequences and the h <-> s coordinate change.

The two-parameter family ell^(a,b) is defined by either of two equivalent
characterizations:

  exp(-sum_j ell_j t^j) = sum_k (-1)^k t^k prod_{m=0}^{k-1} (a + b m)      (reciprocal)
  exp(+sum_j ell_j t^j) = 1 + a t - b t^2 d/dt sum_j ell_j t^j            (ODE)

The first is read off an integer log, the second solved with the Fraction exp
recurrence exp_coeffs; log_coeffs, its Fraction log, is the reference.

Specializations: (1,1) -> sigma (factorials), (3,2) -> s (odd double
factorials), (1,2) -> p (even-shifted double factorials, (-1)!! = 1).

The h-coordinates are defined by 1 + h_1 t + h_2 t^2 + ... = exp(-sum s_i t^i)
with the conventions h_0 = 1, h_{-1} = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .parampoly import ParamPoly
from .rationals import odd_df


def exp_coeffs(a: Sequence[Fraction]) -> list[Fraction]:
    """e_0..e_{n-1} of exp(sum_j a_j t^j) from a_0..a_{n-1} with a_0 = 0,
    by k e_k = sum_{j<=k} j a_j e_{k-j}."""
    if not a or a[0]:
        raise ValueError("exp requires constant term 0")
    e = [Fraction(1)]
    for k in range(1, len(a)):
        e.append(sum((j * a[j] * e[k - j] for j in range(1, k + 1)), Fraction(0)) / k)
    return e


def log_coeffs(c: Sequence[Fraction]) -> list[Fraction]:
    """l_0..l_{n-1} of log(sum_k c_k t^k) from c_0..c_{n-1} with c_0 = 1,
    by k l_k = k c_k - sum_{j<k} j l_j c_{k-j}."""
    if not c or c[0] != 1:
        raise ValueError("log requires constant term 1")
    ell = [Fraction(0)]
    for k in range(1, len(c)):
        ell.append(c[k] - sum((j * ell[j] * c[k - j] for j in range(1, k)), Fraction(0)) / k)
    return ell


def alternating_product_series(a: Fraction, b: Fraction, order: int) -> list[Fraction | int]:
    """The coefficients of t^0..t^(order-1) in sum_k (-1)^k t^k prod_{m=0}^{k-1}(a+bm),
    integers for integer a and b."""
    out = [1]
    for k in range(1, order):
        out.append(-out[-1] * (a + b * (k - 1)))
    return out[:order]


_INTEGER_LOGS: dict[tuple[Fraction, Fraction], tuple[int, list[int]]] = {}


def integer_log(a: Fraction, b: Fraction, n: int) -> tuple[int, list[int]]:
    """r and [L_1, ..., L_n] with ell^(a,b)_k = -L_k / (k r^k): for a = A/r and b = B/r
    over their common denominator r, C_k = r^k c_k are the integers of
    alternating_product_series(A, B), and L_k = k r^k l_k = k C_k - sum_{0<j<k} L_j C_{k-j}
    those of its log l.  One list per (a, b), extended in place; callers get a copy."""
    r, L = _INTEGER_LOGS.setdefault((a, b), (lcm(a.denominator, b.denominator), []))
    if len(L) < n:
        C = alternating_product_series(int(a * r), int(b * r), n + 1)
        for k in range(len(L) + 1, n + 1):
            L.append(k * C[k] - sum(L[j - 1] * C[k - j] for j in range(1, k)))
    return r, L[:n]


def ell_from_ab(a: Fraction, b: Fraction, n: int) -> tuple[Fraction, ...]:
    """ell_1..ell_n via the reciprocal characterization, read off the integer log."""
    if n < 1:
        raise ValueError("need n >= 1")
    r, L = integer_log(Fraction(a), Fraction(b), n)
    return tuple(Fraction(-v, k * r**k) for k, v in enumerate(L, 1))


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
        rhs_k = a if k == 1 else -b * (k - 1) * ell[-1]
        ell.append(rhs_k - exp_coeffs([Fraction(0), *ell, Fraction(0)])[k])
    return tuple(ell)


def s_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(3), Fraction(2), n)


def sigma_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(1), Fraction(1), n)


def p_sequence(n: int) -> tuple[Fraction, ...]:
    return ell_from_ab(Fraction(1), Fraction(2), n)


def h_from_s(s: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """h_1..h_N from 1 + sum h_k t^k = exp(-sum s_i t^i)."""
    return tuple(exp_coeffs([Fraction(0), *(-Fraction(v) for v in s)])[1:])


def s_from_h(h: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Inverse of h_from_s: s_i = -[t^i] log(1 + sum h_k t^k)."""
    return tuple(-v for v in log_coeffs([Fraction(1), *map(Fraction, h)])[1:])


def h_star(style: str, k: int) -> Fraction:
    """The h-coordinates of the two distinguished specializations.

    style "k": h_k = (-1)^k (2k+1)!!  (the class built from the s-sequence);
    style "j": h_k = (-1)^k k!        (the sigma-sequence class).
    """
    if style == "k":
        return Fraction((-1) ** k * odd_df(k))
    if style == "j":
        return Fraction((-1) ** k * factorial(k))
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

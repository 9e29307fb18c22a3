"""Polynomials in kappa classes and psi classes, the universal families built
from coefficient sequences, and their push-forward / pull-back rules under the
point-forgetting map.

A kappa monomial is stored as its partition in canonical non-increasing form,
e.g. kappa_2^2 * kappa_1 <-> (2, 2, 1), next to its tuple of psi exponents.
Monomial ordering for rendering and serialization is graded lexicographic.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable, Mapping, Sequence

from .coeffs import alternating_product_series, exp_coeffs, integer_log
from .parampoly import ParamPoly, add_terms, mul_terms
from .rationals import rat_str

Partition = tuple[int, ...]
Key = tuple[Partition, tuple[int, ...]]
Split = tuple[tuple[int, ...], tuple[int, ...], int]


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n (non-increasing tuples); partitions(0) = ((),)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out: list[Partition] = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def multiplicities(p: Sequence[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for x in p:
        out[x] = out.get(x, 0) + 1
    return out


def insert_sorted(t: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The sorted tuple t with x inserted: a multiset key without a sort."""
    i = bisect_right(t, x)
    return t[:i] + (x,) + t[i:]


def aut(mu: Sequence[int]) -> int:
    """Order of the automorphism group of the multiset mu: the product of
    its multiplicities' factorials."""
    return prod(map(factorial, multiplicities(mu).values()))


def multiset_splits(mu: Sequence[int]) -> list[Split]:
    """All ordered splits (alpha, beta) of the multiset mu, each with the
    number of ways to split mu's labeled slots into it.

    alpha and beta come out sorted ascending.  Uncached: the recursion
    engine asks once per rest of a level, many distinct keys, and a cache
    for them costs more memory than it saves time.  On the ``tr-ladder``
    benchmark, where these splits are about a fifth of the time spent
    summing W, the memoized form raised a pass's peak RSS by about 0.65 MiB
    (3%), and a per-engine memo by about 0.4 MiB with no time saved in a
    fresh process.  The oracle's DVV recursion, which asks for the same few
    keys again, uses the cached form.
    """
    out = [((), (), 1)]
    for v, m in sorted(multiplicities(mu).items()):
        takes = [((v,) * t, (v,) * (m - t), comb(m, t)) for t in range(m + 1)]
        out = [
            (alpha + a, beta + b, ways * c)
            for alpha, beta, ways in out
            for a, b, c in takes
        ]
    return out


@lru_cache(maxsize=None)
def cached_multiset_splits(mu: tuple[int, ...]) -> tuple[Split, ...]:
    """``multiset_splits`` of a tuple, memoized."""
    return tuple(multiset_splits(mu))


@lru_cache(maxsize=None)
def signed_block_keys(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The set partitions P of the labeled slots of lam (sorted ascending),
    summed by their merged key sorted(b_B + 1 for B in P), b_B the sum of
    block B: each key with its signed count sum (-1)^(len(lam) - |P|), as
    (key, count) pairs.

    A DP on the block holding lam[0]: it takes a sub-multiset alpha of the
    other slots, in ``ways`` labeled choices and with sign (-1)^len(alpha),
    and the rest beta is partitioned recursively.  Zero counts are dropped.
    """
    if not lam:
        return (((), 1),)
    out: dict[tuple[int, ...], int] = {}
    for alpha, beta, ways in cached_multiset_splits(lam[1:]):
        part = lam[0] + sum(alpha) + 1
        signed = -ways if len(alpha) % 2 else ways
        for key, c in signed_block_keys(beta):
            key = insert_sorted(key, part)
            out[key] = out.get(key, 0) + signed * c
    return tuple((key, c) for key, c in out.items() if c)


def _canon(p: Iterable[int]) -> Partition:
    """p non-increasing, its 0 parts kept: kappa_0 is the scalar 2g-2+n."""
    t = tuple(sorted(p, reverse=True))
    if t and t[-1] < 0:
        raise ValueError("partition parts must be non-negative")
    return t


class KappaPoly:
    """Polynomial in kappa_1, kappa_2, ... and psi_1..psi_n with Fraction
    coefficients, for a fixed point count n; n = 0 is the kappa-only ring.

    Keys are (kappa partition, psi exponent tuple of length n).  Sums need
    equal point counts; in a product a kappa-only factor is lifted to the
    other factor's n.
    """

    __slots__ = ("n", "terms")

    def __init__(self, terms: Mapping[Key, Fraction] | None = None, n: int = 0):
        self.n = n
        t: dict[Key, Fraction] = {}
        if terms:
            for (p, a), c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                a = tuple(a)
                if len(a) != n:
                    raise ValueError("psi exponent vector has wrong length")
                t[(_canon(p), a)] = c
        self.terms = t

    @staticmethod
    def _raw(terms: dict[Key, Fraction], n: int) -> "KappaPoly":
        """Wrap a canonical, zero-free term map without copying it."""
        out = KappaPoly.__new__(KappaPoly)
        out.n, out.terms = n, terms
        return out

    @staticmethod
    def one() -> "KappaPoly":
        return KappaPoly({((), ()): Fraction(1)})

    @staticmethod
    def kappa(m: int, coeff: Fraction = Fraction(1)) -> "KappaPoly":
        return KappaPoly({((m,), ()): coeff})

    def with_points(self, n: int) -> "KappaPoly":
        """The same class on n marked points: a kappa-only polynomial gains n
        zero psi exponents; a polynomial already on n points is returned."""
        if n == self.n:
            return self
        if self.n:
            raise ValueError("mixing incompatible point counts")
        zero = (0,) * n
        return KappaPoly._raw({(p, zero): c for (p, _), c in self.terms.items()}, n)

    def degree(self) -> int | None:
        """Common weighted degree, or None if inhomogeneous / zero."""
        degs = {sum(p) + sum(a) for (p, a) in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other: "KappaPoly") -> "KappaPoly":
        if self.n != other.n:
            raise ValueError("mixing incompatible point counts")
        return KappaPoly._raw(add_terms(dict(self.terms), other.terms.items()), self.n)

    def __neg__(self) -> "KappaPoly":
        return KappaPoly._raw({k: -c for k, c in self.terms.items()}, self.n)

    def __sub__(self, other: "KappaPoly") -> "KappaPoly":
        return self + (-other)

    def __mul__(self, other: "KappaPoly | Fraction | int") -> "KappaPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            terms = {k: c * other for k, c in self.terms.items()} if other else {}
            return KappaPoly._raw(terms, self.n)
        n = max(self.n, other.n)
        return KappaPoly._raw(
            mul_terms(self.with_points(n).terms, other.with_points(n).terms, _product_key), n
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KappaPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def render(self) -> str:
        """Human-readable form like "9/2*k1^2 - 21/2*k2" (psi_i is "p<i>")."""
        if not self.terms:
            return "0"
        bits = []
        for p, a in sorted(self.terms, key=lambda k: (sum(k[0]) + sum(k[1]), *k)):
            c = self.terms[(p, a)]
            mono = "*".join(
                [f"k{v}" + (f"^{m}" if m > 1 else "") for v, m in sorted(multiplicities(p).items())]
                + [f"p{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(a) if e]
            )
            cs = rat_str(abs(c))
            head = "- " if c < 0 else ("+ " if bits else "")
            if mono:
                body = mono if abs(c) == 1 else f"{cs}*{mono}"
            else:
                body = cs
            bits.append(head + body)
        return " ".join(bits).lstrip("+ ")

    def to_json(self) -> dict[str, str]:
        return {
            ",".join(map(str, p)): rat_str(c)
            for (p, _), c in sorted(self.terms.items())
        }

    __repr__ = render


def _product_key(k1: Key, k2: Key) -> Key:
    return tuple(sorted(k1[0] + k2[0], reverse=True)), tuple(x + y for x, y in zip(k1[1], k2[1]))


def expand_family(ell: Sequence[Fraction], m_max: int) -> list[KappaPoly]:
    """Graded pieces L_0..L_{m_max} of exp(sum_i ell_i kappa_i): L_m is the sum over
    partitions lam of m of prod_i ell_i^{a_i} / a_i! kappa_lam, a_i the multiplicity
    of i in lam.  It reads only ell_1..ell_m."""
    if len(ell) < m_max:
        raise ValueError("need at least m_max sequence values")
    ell = [Fraction(v) for v in ell[:m_max]]
    nums, dens = [v.numerator for v in ell], [v.denominator for v in ell]
    return [_graded_piece(nums, dens, m) for m in range(m_max + 1)]


def _graded_piece(nums: Sequence[int], dens: Sequence[int], m: int) -> KappaPoly:
    """L_m of exp(sum_i (nums_i / dens_i) kappa_i), each coefficient one Fraction
    of the integer products prod_v nums_v^{a_v} and aut(lam) prod_v dens_v^{a_v}."""
    terms = {}
    for lam in partitions(m):
        num = prod(nums[v - 1] for v in lam)
        if num:
            terms[(lam, ())] = Fraction(num, prod(dens[v - 1] for v in lam) * aut(lam))
    return KappaPoly._raw(terms, 0)


@lru_cache(maxsize=None)
def family_polys(a: Fraction, b: Fraction, m_max: int) -> tuple[KappaPoly, ...]:
    """L^(a,b)_0..L^(a,b)_{m_max}; (3,2) gives the K family, (1,1) the J family.
    Each degree adds one piece to the cached prefix below it, read off the one
    integer log of (a, b): ell_k = -L_k / (k r^k)."""
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    r, L = integer_log(a, b, m_max)
    nums, dens = [-v for v in L], [k * r**k for k in range(1, m_max + 1)]
    head = family_polys(a, b, m_max - 1) if m_max else ()
    return head + (_graded_piece(nums, dens, m_max),)


def k_polys(m_max: int) -> tuple[KappaPoly, ...]:
    return family_polys(Fraction(3), Fraction(2), m_max)


def j_polys(m_max: int) -> tuple[KappaPoly, ...]:
    return family_polys(Fraction(1), Fraction(1), m_max)


def p_polys(m_max: int) -> tuple[KappaPoly, ...]:
    return family_polys(Fraction(1), Fraction(2), m_max)


def pushforward(P: KappaPoly, a: Fraction, b: Fraction, g: int, n: int) -> KappaPoly:
    """pi_* L^(a,b)_{m+1} = (a(2g-2+n) - b m) L^(a,b)_m on the target space.

    P must be the degree-(m+1) family polynomial; the scalar recursion is all
    the content, so the input is validated against the family.
    """
    m1 = P.degree()
    if m1 is None or m1 < 1:
        raise ValueError("expected a homogeneous family polynomial of degree >= 1")
    fam = family_polys(Fraction(a), Fraction(b), m1)
    if P != fam[m1]:
        raise ValueError("input is not the (a,b) family polynomial of its degree")
    m = m1 - 1
    scalar = Fraction(a) * (2 * g - 2 + n) - Fraction(b) * m
    return fam[m] * scalar


def pullback(P: KappaPoly, a: Fraction, b: Fraction) -> KappaPoly:
    """pi^* L^(a,b)_m = sum_{i=0}^m (-1)^i prod_{r<i}(a+rb) psi^i L^(a,b)_{m-i}.

    The psi is the new point's; the result has one psi slot.
    """
    m = P.degree()
    if m is None:
        raise ValueError("expected a homogeneous family polynomial")
    fam = family_polys(Fraction(a), Fraction(b), m)
    if P != fam[m]:
        raise ValueError("input is not the (a,b) family polynomial of its degree")
    signed = alternating_product_series(Fraction(a), Fraction(b), m + 1)
    return KappaPoly(
        {(p, (i,)): c * signed[i] for i in range(m + 1) for (p, _), c in fam[m - i].terms.items()}, 1
    )


def kappa_substitute_pullback(P: KappaPoly) -> KappaPoly:
    """Substitute kappa_j -> kappa_j - psi_new^j, appending a new psi slot
    after P's n slots."""
    nn = P.n + 1
    zero = (0,) * nn
    out = KappaPoly(n=nn)
    for (p, a), c in P.terms.items():
        expansion = KappaPoly({((), a + (0,)): c}, nn)
        for v in p:
            expansion = expansion * KappaPoly({((v,), zero): 1, ((), zero[:-1] + (v,)): -1}, nn)
        out = out + expansion
    return out


def shift_coeffs(style: str, k: int, chi: int, order: int) -> ParamPoly:
    """Scalar shift coefficients of the push-forward-averaged families.

    Iterates the push-forward scalar recursion, sums eps^m/m! (times the
    (1-eps)^{2g-2+n} prefactor in the K case), and cross-checks the closed
    forms d_k = e^{-(k+chi) eps} and c_k = (1-eps)^{2(k+chi)} before returning
    the eps-polynomial truncated below eps^order.  chi = 2 - 2g - n of the
    target space.
    """
    if style not in ("k", "j"):
        raise ValueError("style must be 'k' or 'j'")
    if -chi < 0:
        raise ValueError("need 2g-2+n >= 0")
    a, b = (3, 2) if style == "k" else (1, 1)
    order = max(order, 0)  # the truncation below eps^0 is zero
    size = max(order, 2)
    total = [Fraction(1)]
    for m in range(1, size):
        # m-th forgetful step: target (g, n+m-1), source class L_{k+m}
        total.append(total[-1] * (a * (-chi + m - 1) - b * (k + m - 1)) / m)
    if style == "k":
        # (1-eps)^e = exp(e log(1-eps))
        log1m = [Fraction(0)] + [Fraction(-1, i) for i in range(1, size)]
        pre = exp_coeffs([-chi * c for c in log1m])
        total = [sum(total[i] * pre[m - i] for i in range(m + 1)) for m in range(size)]
        closed = exp_coeffs([2 * (k + chi) * c for c in log1m])
    else:
        closed = exp_coeffs([Fraction(0), Fraction(-(k + chi))] + [Fraction(0)] * (size - 2))
    if total[:order] != closed[:order]:
        raise AssertionError("shift coefficient recursion disagrees with closed form")
    return ParamPoly({(m, ()): c for m, c in enumerate(total[:order])})

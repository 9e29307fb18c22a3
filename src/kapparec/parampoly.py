"""Sparse exact polynomials in formal parameters h1, h2, ... and a Laurent
variable eps (integer exponents of either sign).

A monomial key is ``(eexp, hexp)`` where ``eexp`` is the eps exponent and
``hexp`` is a tuple of non-negative h-exponents, trailing zeros trimmed, so
``hexp[i]`` is the power of ``h_{i+1}``.  The weight of a monomial assigns
``h_j`` weight ``j`` (the cohomological degree it carries); eps carries none.

Instances are immutable after construction and all arithmetic is exact,
so values can be shared across concurrent workers without synchronization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .rationals import rat_str

Key = tuple[int, tuple[int, ...]]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def add_terms(t: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, coeff) pairs into the term map t in place and return it.

    Zero coefficients are skipped and a key whose sum cancels is deleted, so
    no term map ever stores a zero.  This is the one zero-eliminating sum
    behind every sparse term map with Fraction or ParamPoly coefficients
    (ParamPoly, KappaPoly, the ZSeries product and the plain dicts of
    tautools); IntSeries sums plain int maps.
    """
    for k, c in pairs:
        if not c:
            continue
        s = t.get(k)
        if s is None:
            t[k] = c
        else:
            s = s + c
            if s:
                t[k] = s
            else:
                del t[k]
    return t


def mul_terms(a: Mapping, b: Mapping, key: Callable) -> dict:
    """Product of two term maps; key(k1, k2) is the product monomial, or
    None to drop the pair (a degree or weight cap)."""
    return add_terms(
        {},
        (
            (k, c1 * c2)
            for k1, c1 in a.items()
            for k2, c2 in b.items()
            if (k := key(k1, k2)) is not None
        ),
    )


def _trim(h: tuple[int, ...]) -> tuple[int, ...]:
    n = len(h)
    while n and h[n - 1] == 0:
        n -= 1
    return h[:n]


def _hmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def hweight(h: tuple[int, ...]) -> int:
    """The weight sum(i * alpha_i) of the monomial h^alpha."""
    return sum((i + 1) * e for i, e in enumerate(h))


class ParamPoly:
    """Sparse polynomial over Fraction in eps (Laurent) and h1..hM."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        t: dict[Key, Fraction] = {}
        if terms:
            for (e, h), c in terms.items():
                c = Fraction(c)
                if c:
                    t[(e, _trim(tuple(h)))] = c
        self.terms = t

    # -- constructors -------------------------------------------------------

    @staticmethod
    def raw(terms: dict[Key, Fraction]) -> "ParamPoly":
        """Wrap a canonical, zero-free term map without copying it."""
        out = ParamPoly.__new__(ParamPoly)
        out.terms = terms
        return out

    @staticmethod
    def const(c: Scalar) -> "ParamPoly":
        c = Fraction(c)
        return ParamPoly({(0, ()): c}) if c else ParamPoly()

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly()

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly.const(1)

    @staticmethod
    def eps(power: int = 1, coeff: Scalar = 1) -> "ParamPoly":
        return ParamPoly({(power, ()): Fraction(coeff)})

    @staticmethod
    def h(index: int, power: int = 1, coeff: Scalar = 1) -> "ParamPoly":
        """The monomial coeff * h_index^power (index >= 1)."""
        if index < 1:
            raise ValueError("h variables are indexed from 1")
        hexp = [0] * index
        hexp[index - 1] = power
        return ParamPoly({(0, tuple(hexp)): Fraction(coeff)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, ()) in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if self.is_constant():
            return self.terms[(0, ())]
        raise ValueError(f"not a constant: {self}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        other = _coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return ParamPoly.raw(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly.raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: "ParamPoly | Scalar") -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ParamPoly()
            return ParamPoly.raw({k: c * other for k, c in self.terms.items()})
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly.raw(
            mul_terms(self.terms, other.terms, lambda k1, k2: (k1[0] + k2[0], _hmul(k1[1], k2[1])))
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    # -- eps / h structure ---------------------------------------------------

    def eps_valuation(self) -> int:
        """Minimal eps exponent; undefined (raises) on the zero polynomial."""
        if not self.terms:
            raise ValueError("eps valuation of zero is undefined")
        return min(e for e, _ in self.terms)

    def eps_part(self, power: int) -> "ParamPoly":
        """Coefficient of eps^power, as a polynomial in h alone."""
        return ParamPoly({(0, h): c for (e, h), c in self.terms.items() if e == power})

    def subs_eps(self, value: Scalar) -> "ParamPoly":
        """Substitute a rational value for eps (exact; negative powers allowed)."""
        v = Fraction(value)
        if not v and any(e < 0 for e, _ in self.terms):
            raise ZeroDivisionError("eps -> 0 with negative eps powers")
        pairs = (((0, h), c * v**e) for (e, h), c in self.terms.items() if v or not e)
        return ParamPoly(add_terms({}, pairs))

    # -- serialization -------------------------------------------------------

    def to_triples(self) -> list[tuple[int, list[int], str]]:
        """Canonical (eps-exp, h-exp-vector, "p/q") triples, sorted by key."""
        return [
            (e, list(h), rat_str(c))
            for (e, h), c in sorted(self.terms.items())
        ]

    def __repr__(self) -> str:
        return f"ParamPoly({self.to_triples()})"


def _coerce(x: "ParamPoly | Scalar") -> ParamPoly:
    if isinstance(x, ParamPoly):
        return x
    return ParamPoly.const(x)


PP_ZERO = ParamPoly()

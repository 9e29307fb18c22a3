"""eps-regularity verification, eps -> 0 limits, and the weak vanishing checks.

Regularity of the rescaled correlators is the computational content of the
vanishing statements: an entry with negative eps-valuation is exactly a
non-vanishing pairing with a class of degree beyond 2g-2+n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .intersect import IntersectionOracle
from .kappapoly import (
    KappaPoly,
    j_polys,
    k_polys,
    kappa_substitute_pullback,
    partitions,
)
from .parampoly import ParamPoly
from .toprec import Engine, _sorted_tuples, correlators_to_potential, levels


class RegularityReport(NamedTuple):
    family: str
    g: int
    n: int
    entries: int
    min_eps_valuation: int | None  # None when every entry vanishes
    passed: bool

    def row(self) -> str:
        v = "-" if self.min_eps_valuation is None else str(self.min_eps_valuation)
        status = "PASS" if self.passed else "FAIL"
        return f"{self.family:8s} g={self.g} n={self.n} entries={self.entries:4d} min_eps_val={v:>3s} {status}"


def check_regularity(engine: Engine, budget: int) -> list[RegularityReport]:
    """Minimal eps-valuation per correlator within the level budget."""
    out = []
    for g, n in levels(budget):
        corr = engine.correlator(g, n)
        v = corr.min_eps_valuation()
        passed = v is None or v >= 0
        out.append(RegularityReport(engine.curve.family, g, n, len(corr.forms), v, passed))
    return out


def _limits(engine: Engine, gns) -> dict[tuple[int, tuple[int, ...]], ParamPoly]:
    """The nonzero eps^0 parts of the potential pieces F_{g,n} for (g, n) in
    gns, by (g, sorted t-monomial); raises when a negative valuation is
    present (no limit exists)."""
    out: dict[tuple[int, tuple[int, ...]], ParamPoly] = {}
    for g, n in gns:
        corr = engine.correlator(g, n)
        v = corr.min_eps_valuation()
        if v is not None and v < 0:
            raise ValueError(f"not regular, no limit at (g, n) = ({g}, {n})")
        for key, coeff in correlators_to_potential(corr).items():
            if c0 := coeff.eps_part(0):
                out[(g, key)] = c0
    return out


def take_limit(engine: Engine, budget: int) -> dict[tuple[int, tuple[int, ...]], ParamPoly]:
    """eps -> 0 limit of the potential pieces within the budget.

    Raises when a negative valuation is present (no limit exists).
    """
    return _limits(engine, levels(budget))


def take_limit_one_point(engine: Engine, g_max: int) -> dict[int, dict[int, ParamPoly]]:
    """eps -> 0 limit of the one-point potential chain up to genus g_max.

    Returns {g: {k: coefficient of t_k}}; the (g, 1) tables only need the
    anti-diagonal g' + n' <= g + 1 of lower correlators, so they reach much
    deeper than a uniform level budget.  A one-point key has no
    automorphisms, so its potential coefficient is the correlator entry.
    """
    out: dict[int, dict[int, ParamPoly]] = {g: {} for g in range(1, g_max + 1)}
    for (g, (k,)), c0 in _limits(engine, [(g, 1) for g in out]).items():
        out[g][k] = c0
    return out


def complementary_monomials(g: int, n: int, degree: int):
    """All psi-kappa monomials (psis sorted, kappa partition) of given degree."""
    for kw in range(degree + 1):
        for lam in partitions(kw):
            for psis in _sorted_tuples(n, degree - kw):
                if sum(psis) == degree - kw:
                    yield psis, lam


def admissible(style: str, g: int, n: int, m: int) -> bool:
    """Whether the conjecture claims the degree-m polynomial vanishes on (g, n).

    K style: m > 2g-2+n, except (m, n) = (3g-3, 0).  J style: m > 2g-2+n, and
    also m = 2g-2+n when n > 1.
    """
    if style == "k":
        return m > 2 * g - 2 + n and not (n == 0 and m == 3 * g - 3)
    if style == "j":
        return m > 2 * g - 2 + n or (m == 2 * g - 2 + n and n > 1)
    raise ValueError("style must be 'k' or 'j'")


def verify_vanishing(oracle: IntersectionOracle, g: int, n: int, m: int, style: str) -> bool:
    """Weak vanishing of the degree-m family polynomial on (g, n).

    Pairs the polynomial against every psi-kappa monomial of complementary
    degree; (g, n, m) must be admissible for the style.  Each pairing is
    summed as one integer numerator over a running lcm of the term
    denominators, and it vanishes exactly when that numerator is 0.
    """
    if not admissible(style, g, n, m):
        raise ValueError(f"inadmissible (g, n, m) for the {style.upper()}-style claim")
    fam = (k_polys if style == "k" else j_polys)(m)[m]
    dim = 3 * g - 3 + n
    if m > dim:
        return True
    comp = dim - m
    terms = [(p, c.numerator, c.denominator) for (p, _), c in fam.terms.items()]
    for psis, lam in complementary_monomials(g, n, comp):
        num, den = 0, 1
        for p, cn, cd in terms:
            v = oracle.kappa_psi_number(g, n, psis, tuple(sorted(p + lam, reverse=True)))
            if v:
                d = cd * v.denominator
                common = lcm(den, d)
                num = num * (common // den) + cn * v.numerator * (common // d)
                den = common
        if num:
            return False
    return True


def nested_psi_pullback(P: KappaPoly, n: int) -> KappaPoly:
    """The class psi_n pi^*( ... psi_1 pi^*(P) ... ) on n marked points.

    Each pullback step substitutes kappa_j -> kappa_j - psi_new^j and then
    multiplies by psi_new; the psi-correction terms of the forgetful map die
    against these factors, so the formal substitution is exact here.
    """
    cur = P
    for i in range(1, n + 1):
        cur = kappa_substitute_pullback(cur)
        psi_new = KappaPoly({((), (0,) * (i - 1) + (1,)): Fraction(1)}, i)
        cur = cur * psi_new
    return cur


def verify_pullback_identity(oracle: IntersectionOracle, g: int, n: int) -> bool:
    """Check that K_{2g-2+n} - prod(psi_i) pi^* K_{2g-2} pairs to zero on (g, n)."""
    if g < 2 or n < 1:
        raise ValueError("needs g >= 2, n >= 1")
    m = 2 * g - 2 + n
    diff = k_polys(m)[m].with_points(n) - nested_psi_pullback(
        k_polys(2 * g - 2)[2 * g - 2], n
    )
    dim = 3 * g - 3 + n
    comp = dim - m
    if comp < 0:
        return True
    for psis, lam in complementary_monomials(g, n, comp):
        omega = KappaPoly({(lam, psis): Fraction(1)}, n)
        if oracle.integrate(diff * omega, g, n):
            return False
    return True

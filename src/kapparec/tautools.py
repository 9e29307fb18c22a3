"""Tau-function side: potential tables, Virasoro and KdV residual checkers,
the BGW bootstrap, and the genus-1 closed form.

A potential is stored per (g, sorted t-monomial) as the plain monomial
coefficient, so F = sum C[g, mono] hbar^g prod t_mono with the 1/aut factors
already inside C.  Tables are complete for 2g-2+n <= budget, which is what
makes residual rows provably determined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .intersect import IntersectionOracle
from .kappapoly import aut, cached_multiset_splits
from .parampoly import PP_ZERO, ParamPoly, add_terms, mul_terms
from .rationals import fact, odd_df
from .toprec import Engine, _sorted_tuples, correlators_to_potential, levels

Mono = tuple[int, ...]
Entry = tuple[int, Mono]


class Potential:
    """A potential table.  ``memo`` holds the coefficients read off it so far:
    derivatives under (g, mono, ds) (``_dcoeff``) and products under
    (g, mono, da, db) (``_product_coeff``).  Whoever changes ``coeffs`` clears
    it."""

    def __init__(self, coeffs: dict[Entry, ParamPoly], budget: int):
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.budget = budget
        self.memo: dict[tuple, ParamPoly] = {}

    def coeff(self, g: int, mono: Mono) -> ParamPoly:
        return self.coeffs.get((g, tuple(sorted(mono))), PP_ZERO)

    def items(self):
        return sorted(self.coeffs.items())

    def perturbed(self, g: int, mono: Mono, delta: Fraction = Fraction(1)) -> "Potential":
        c = dict(self.coeffs)
        key = (g, tuple(sorted(mono)))
        c[key] = c.get(key, PP_ZERO) + ParamPoly.const(delta)
        return Potential(c, self.budget)

    @staticmethod
    def from_engine(engine: Engine, budget: int) -> "Potential":
        coeffs: dict[Entry, ParamPoly] = {}
        for g, n in levels(budget):
            for mono, c in correlators_to_potential(engine.correlator(g, n)).items():
                coeffs[(g, mono)] = c
        return Potential(coeffs, budget)

    @staticmethod
    def kw_from_oracle(oracle: IntersectionOracle, budget: int) -> "Potential":
        coeffs: dict[Entry, ParamPoly] = {}
        for g, n in levels(budget):
            for mono in _sorted_tuples(n, 3 * g - 3 + n):
                if sum(mono) != 3 * g - 3 + n:
                    continue
                v = oracle.kw_number(g, mono)
                if not v:
                    continue
                coeffs[(g, mono)] = ParamPoly.const(v / aut(mono))
        return Potential(coeffs, budget)


# -- derivative / product coefficient extraction --------------------------------


def _dcoeff(F: Potential, g: int, mono: Mono, ds: Mono) -> ParamPoly:
    """Coefficient of hbar^g t^mono in the derivative of F by t_d for each d in ds.

    Inserting d into a monomial that already holds it c times gives the factor
    c + 1; the factors multiply as each d is inserted in turn.  Memoized on F:
    the rows ask for the same coefficients many times over.
    """
    c = F.memo.get((g, mono, ds))
    if c is None:
        key = mono
        factor = 1
        for d in ds:
            key += (d,)
            factor *= key.count(d)
        c = F.coeffs.get((g, tuple(sorted(key))), PP_ZERO)
        if factor != 1 and c:
            c = c * Fraction(factor)
        F.memo[(g, mono, ds)] = c
    return c


def _product_coeff(F: Potential, g: int, mono: Mono, da: Mono, db: Mono) -> ParamPoly:
    """Coefficient of hbar^g t^mono in (d_{da} F)(d_{db} F).

    Memoized on F under one key for both orders of da and db: the product
    commutes, and the m-th constraint asks for both.
    """
    if db < da:
        da, db = db, da
    total = F.memo.get((g, mono, da, db))
    if total is None:
        total = PP_ZERO
        splits = cached_multiset_splits(mono)
        for g1 in range(0, g + 1):
            for alpha, beta, _ in splits:
                c1 = _dcoeff(F, g1, alpha, da)
                if not c1:
                    continue
                c2 = _dcoeff(F, g - g1, beta, db)
                if c2:
                    total = total + c1 * c2
        F.memo[(g, mono, da, db)] = total
    return total


def _residuals(rows, residual) -> tuple[int, dict[Entry, ParamPoly]]:
    """(rows checked, nonzero residual entries) of residual(g, mono) over rows."""
    checked = 0
    bad: dict[Entry, ParamPoly] = {}
    for g, mono in rows:
        r = residual(g, mono)
        checked += 1
        if r:
            bad[(g, mono)] = r
    return checked, bad


# -- Virasoro ----------------------------------------------------------------------


def constraint_row(
    F: Potential,
    m: int,
    g: int,
    mono: Mono,
    htilde: Mapping[int, ParamPoly | Fraction],
) -> ParamPoly:
    """Coefficient of hbar^g t^mono in the m-th constraint applied to F.

    The constraint is
        1/2 sum_{i+j=m-1} (2i+1)!!(2j+1)!! (hbar F_{t_i t_j} + F_{t_i} F_{t_j})
        + sum_{k-i=m} (t_i - htilde_{i-1}) (2k+1)!!/(2i-1)!! F_{t_k}
        + [m=-1] t_0^2/2 + [m=0] hbar/8,
    with htilde_0 = 1, htilde_{-1} = 0 recovering the unshifted case.
    """
    total = PP_ZERO
    for a in range(0, m):
        b = m - 1 - a
        c = Fraction(odd_df(a) * odd_df(b), 2)
        d2 = _dcoeff(F, g - 1, mono, (a, b))
        if d2:
            total = total + d2 * c
        q = _product_coeff(F, g, mono, (a,), (b,))
        if q:
            total = total + q * c
    for v in set(mono):
        k = m + v
        if k < 0:
            continue
        rest = list(mono)
        rest.remove(v)
        c = _dcoeff(F, g, tuple(rest), (k,))
        if c:
            total = total + c * Fraction(odd_df(k), odd_df(v - 1))
    for i, hv in htilde.items():
        k = m + i + 1
        if k < 0:
            continue
        c = _dcoeff(F, g, mono, (k,))
        if not c:
            continue
        term = c * Fraction(odd_df(k), odd_df(i))
        hv = hv if isinstance(hv, ParamPoly) else ParamPoly.const(hv)
        total = total - hv * term
    if m == -1 and g == 0 and mono == (0, 0):
        total = total + Fraction(1, 2)
    if m == 0 and g == 1 and mono == ():
        total = total + Fraction(1, 8)
    return total


def _determined_rows(budget: int, m: int):
    """Rows (g, mono) of the m-th constraint that a budget-complete table
    determines: 2g-2+len(mono), plus one for h-corrections beyond htilde_0,
    stays within the budget, and sum(mono) <= 3g-2+len(mono)-m (heavier rows
    are off dimension)."""
    for g in range(0, budget + 1):
        for n_out in range(0, budget + 2 - 2 * g):
            smax = 3 * g - 2 + n_out - m
            if smax >= 0:
                for mono in _sorted_tuples(n_out, smax):
                    yield g, mono


def virasoro_rows(
    F: Potential,
    m: int,
    htilde: Mapping[int, ParamPoly | Fraction],
) -> tuple[int, dict[Entry, ParamPoly]]:
    """Evaluate the m-th constraint on every determined row.

    Returns (rows checked, nonzero residual entries); an empty dict means the
    constraint holds to the table's truncation.
    """
    return _residuals(
        _determined_rows(F.budget, m), lambda g, mono: constraint_row(F, m, g, mono, htilde)
    )


def htilde_unshifted() -> dict[int, Fraction]:
    return {0: Fraction(1)}


def virk_rows(F: Potential, m: int, with_eps: bool = True) -> tuple[int, dict[Entry, ParamPoly]]:
    """Residual of (2m+1)!! dF/dt_m = eps G_{m-1}(F) + G_m(F), m >= 0.

    G_m is the connected form of the m-th unshifted constraint operator; at
    eps = 0 (with_eps False) this is the constraint family that pins the
    limit potential.
    """
    if m < 0:
        raise ValueError("virK constraints start at m = 0")
    empty: dict[int, Fraction] = {}

    def residual(g: int, mono: Mono) -> ParamPoly:
        rhs = constraint_row(F, m, g, mono, empty)
        if with_eps:
            rhs = rhs + ParamPoly.eps(1) * constraint_row(F, m - 1, g, mono, empty)
        return _dcoeff(F, g, mono, (m,)) * Fraction(odd_df(m)) - rhs

    return _residuals(_determined_rows(F.budget, m), residual)


def bgw_bootstrap(budget: int) -> Potential:
    """Solve the eps = 0 constraints (2m+1)!! dF/dt_m = G_m(F) from scratch.

    The constraints determine the potential uniquely level by level; entry
    (m, mu) is read off the constraint indexed by its largest exponent.  Each
    level is merged into the table once it is complete, so no row reads a
    half-written level, and the memo is cleared with it.
    """
    F = Potential({}, budget)
    empty: dict[int, Fraction] = {}
    for g, n in levels(budget):
        level: dict[Entry, ParamPoly] = {}
        for key in _sorted_tuples(n, 3 * g - 3 + n):
            m = key[-1]
            rhs = constraint_row(F, m, g, key[:-1], empty)
            if rhs:
                level[(g, key)] = rhs * Fraction(1, odd_df(m) * key.count(m))
        F.coeffs.update(level)
        F.memo.clear()
    return F


# -- KdV ---------------------------------------------------------------------------


def kdv_residual(F: Potential) -> tuple[int, dict[Entry, ParamPoly]]:
    """Residual of U_{t_1} = U U_{t_0} + (hbar/12) U_{t_0 t_0 t_0}, U = d^2F/dt_0^2.

    Rows are evaluated where the table determines them (level <= budget - 3).
    """
    rows = (
        (g, mono)
        for g in range(0, F.budget + 1)
        for n_out in range(0, F.budget - 2 * g)
        for mono in _sorted_tuples(n_out, 3 * g + n_out + 1)
    )
    return _residuals(
        rows,
        lambda g, mono: _dcoeff(F, g, mono, (0, 0, 1))
        - _product_coeff(F, g, mono, (0, 0), (0, 0, 0))
        - _dcoeff(F, g - 1, mono, (0,) * 5) * Fraction(1, 12),
    )


# -- genus 1 closed form ---------------------------------------------------------


class TPoly:
    """Multivariate polynomial in t_0..t_T as {sorted index tuple: Fraction},
    truncated by total degree."""

    __slots__ = ("terms", "deg")

    def __init__(self, terms: dict[Mono, Fraction], deg: int):
        self.terms = {k: v for k, v in terms.items() if v and len(k) <= deg}
        self.deg = deg

    @staticmethod
    def const(c: Fraction, deg: int) -> "TPoly":
        return TPoly({(): Fraction(c)}, deg)

    @staticmethod
    def var(i: int, deg: int) -> "TPoly":
        return TPoly({(i,): Fraction(1)}, deg)

    def __add__(self, other: "TPoly") -> "TPoly":
        return TPoly(add_terms(dict(self.terms), other.terms.items()), min(self.deg, other.deg))

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "TPoly":
        return TPoly({k: v * c for k, v in self.terms.items()}, self.deg)

    def __mul__(self, other: "TPoly") -> "TPoly":
        deg = min(self.deg, other.deg)

        def key(k1: Mono, k2: Mono) -> Mono | None:
            return tuple(sorted(k1 + k2)) if len(k1) + len(k2) <= deg else None

        return TPoly(mul_terms(self.terms, other.terms, key), deg)

    def valuation(self) -> int:
        return min((len(k) for k in self.terms), default=self.deg + 1)


def genus1_closed_form(shift: Mapping[int, Fraction], t_max: int, deg: int) -> dict[Mono, Fraction]:
    """Genus-1 potential from the fixed-point ansatz.

    F_1 = -1/24 log(1 - sum_k q_{k+1} Y^k / k!) with Y the solution of
    Y = sum_k q_k Y^k / k!, where q_i = t_i - shift.get(i, 0) are the shifted
    times (the shift only touches indices >= 2).
    """
    if any(i < 2 for i in shift):
        raise ValueError("shifts apply to t-indices >= 2 only")

    def q(i: int) -> TPoly:
        out = TPoly.var(i, deg) if i <= t_max else TPoly({}, deg)
        s = Fraction(shift.get(i, 0))
        if s:
            out = out - TPoly.const(s, deg)
        return out

    kmax = max(deg, t_max) + 2
    y = TPoly({}, deg)
    for _ in range(deg + 1):
        new = TPoly({}, deg)
        ypow = TPoly.const(Fraction(1), deg)
        for k in range(0, kmax):
            if k:
                ypow = ypow * y
                if not ypow.terms:
                    break
            term = q(k) * ypow
            new = new + term.scale(Fraction(1, fact(k)))
        y = new
    # A = sum_k q_{k+1} Y^k / k!
    a = TPoly({}, deg)
    ypow = TPoly.const(Fraction(1), deg)
    for k in range(0, kmax):
        if k:
            ypow = ypow * y
            if not ypow.terms:
                break
        a = a + (q(k + 1) * ypow).scale(Fraction(1, fact(k)))
    if a.valuation() < 1:
        raise ValueError("shifted ansatz has nonzero constant term")
    # F1 = -1/24 log(1 - A)
    logp = TPoly({}, deg)
    apow = TPoly.const(Fraction(1), deg)
    for j in range(1, deg + 1):
        apow = apow * a
        if not apow.terms:
            break
        logp = logp + apow.scale(Fraction(1, j))
    f1 = logp.scale(Fraction(1, 24))
    return dict(f1.terms)

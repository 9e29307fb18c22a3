"""Tau-function side: potential tables, Virasoro and KdV residual checkers,
the BGW bootstrap, and the genus-1 closed form.

A potential is stored per (g, sorted t-monomial) as the plain monomial
coefficient, so F = sum C[g, mono] hbar^g prod t_mono with the 1/aut factors
already inside C.  Tables are complete for 2g-2+n <= budget, which is what
makes residual rows provably determined.

Constraints are term maps {(g, mono): coefficient} built once per potential:
derivative maps of F, products of two of them over the nonzero pairs whose
levels 2g+len(mono) sum to a row level in range, and shifts.  Rows are read
off the maps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial
from typing import Mapping

from .intersect import IntersectionOracle
from .kappapoly import aut
from .parampoly import PP_ZERO, ParamPoly, add_terms, mul_terms
from .rationals import odd_df
from .toprec import Engine, _sorted_tuples, correlators_to_potential, levels

Mono = tuple[int, ...]
Entry = tuple[int, Mono]
Terms = dict[Entry, ParamPoly]


def _times(k1: Entry, k2: Entry) -> Entry:
    return k1[0] + k2[0], tuple(sorted(k1[1] + k2[1]))


class Potential:
    """A potential table.  ``_maps`` memoizes the derivative and constraint
    maps read off it, shared with every caller, which copies a map
    before changing it; ``merge`` is the one way to change the table."""

    def __init__(self, coeffs: dict[Entry, ParamPoly], budget: int):
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.budget = budget
        self._maps: dict[tuple, Terms] = {}

    def coeff(self, g: int, mono: Mono) -> ParamPoly:
        return self.coeffs.get((g, tuple(sorted(mono))), PP_ZERO)

    def items(self):
        return sorted(self.coeffs.items())

    def merge(self, level: Terms) -> None:
        """Add entries to the table and drop every map derived from it."""
        self.coeffs.update(level)
        self._maps.clear()

    def perturbed(self, g: int, mono: Mono, delta: Fraction = Fraction(1)) -> "Potential":
        c = dict(self.coeffs)
        key = (g, tuple(sorted(mono)))
        c[key] = c.get(key, PP_ZERO) + ParamPoly.const(delta)
        return Potential(c, self.budget)

    def deriv(self, ds: Mono) -> Terms:
        """The map of the derivative of F by t_d for each d in ds: t^key goes
        to key minus d times key.count(d), one d at a time, each prefix of
        the sorted ds memoized."""
        ds = tuple(sorted(ds))
        if not ds:
            return self.coeffs
        out = self._maps.get(ds)
        if out is None:
            out = self._maps[ds] = {}
            for (g, key), c in self.deriv(ds[:-1]).items():
                if n := key.count(ds[-1]):
                    i = key.index(ds[-1])
                    out[(g, key[:i] + key[i + 1 :])] = c * n if n > 1 else c
        return out

    def product(self, da: Mono, db: Mono, lo: int, hi: int) -> Terms:
        """The map of (d_{da} F)(d_{db} F) on the levels lo..hi: the factors
        are grouped by level, and two groups are multiplied only when their
        levels sum into range.  Built on each call and not kept: a product map
        is seldom asked for twice."""
        out: Terms = {}
        ga, gb = ({}, {})
        for group, ds in ((ga, da), (gb, db)):
            for key, c in self.deriv(ds).items():
                group.setdefault(2 * key[0] + len(key[1]), {})[key] = c
        for la, ta in ga.items():
            for lb, tb in gb.items():
                if lo <= la + lb <= hi:
                    add_terms(out, mul_terms(ta, tb, _times).items())
        return out

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
                if sum(mono) == 3 * g - 3 + n and (v := oracle.kw_number(g, mono)):
                    coeffs[(g, mono)] = ParamPoly.const(v / aut(mono))
        return Potential(coeffs, budget)


def _add(out: Terms, terms: Terms, c, lo: int, hi: int, dg: int = 0, v: Mono = ()) -> None:
    """Add terms times c into out, each key (g, mono) moved to (g+dg, mono+v);
    keys that land outside the levels lo..hi are skipped."""
    up = 2 * dg + len(v)
    keep = (item for item in terms.items() if lo <= 2 * item[0][0] + len(item[0][1]) + up <= hi)
    add_terms(out, (((g + dg, tuple(sorted(mono + v))), t * c) for (g, mono), t in keep))


def _residuals(rows, residual: Terms) -> tuple[int, dict[Entry, ParamPoly]]:
    """(rows checked, nonzero residual entries) of the residual map on rows."""
    rows = list(rows)
    return len(rows), {row: residual[row] for row in rows if row in residual}


# -- Virasoro ----------------------------------------------------------------------


def _unshifted(F: Potential, m: int, lo: int, hi: int) -> Terms:
    """The m-th constraint without its htilde terms, memoized on F."""
    out = F._maps.get(("G", m, lo, hi))
    if out is None:
        out = F._maps[("G", m, lo, hi)] = {}
        for a in range(0, (m + 1) // 2):
            # the (a, m-1-a) and (m-1-a, a) terms are equal
            c = Fraction(odd_df(a) * odd_df(m - 1 - a), 1 if 2 * a < m - 1 else 2)
            _add(out, F.deriv((a, m - 1 - a)), c, lo, hi, dg=1)
            _add(out, F.product((a,), (m - 1 - a,), lo, hi), c, lo, hi)
        for k in {d for _, mono in F.coeffs for d in mono}:
            if k >= m:
                _add(out, F.deriv((k,)), Fraction(odd_df(k), odd_df(k - m - 1)), lo, hi, v=(k - m,))
        if m in (-1, 0):  # t_0^2/2 and hbar/8
            row = (0, (0, 0)) if m else (1, ())
            _add(out, {row: ParamPoly.const(1)}, Fraction(1, 2 if m else 8), lo, hi)
    return out


def constraint_map(
    F: Potential,
    m: int,
    htilde: Mapping[int, ParamPoly | Fraction],
    lo: int = 0,
    hi: int | None = None,
) -> Terms:
    """The m-th constraint applied to F, on the rows (g, mono) whose level
    2g+len(mono) lies in lo..hi (hi defaults to budget + 1).

    The constraint is
        1/2 sum_{i+j=m-1} (2i+1)!!(2j+1)!! (hbar F_{t_i t_j} + F_{t_i} F_{t_j})
        + sum_{k-i=m} (t_i - htilde_{i-1}) (2k+1)!!/(2i-1)!! F_{t_k}
        + [m=-1] t_0^2/2 + [m=0] hbar/8,
    with htilde_0 = 1, htilde_{-1} = 0 recovering the unshifted case.
    """
    hi = F.budget + 1 if hi is None else hi
    out = dict(_unshifted(F, m, lo, hi))
    for i, hv in htilde.items():
        if m + i + 1 >= 0:
            _add(out, F.deriv((m + i + 1,)), hv * Fraction(-odd_df(m + i + 1), odd_df(i)), lo, hi)
    return out


def constraint_row(
    F: Potential,
    m: int,
    g: int,
    mono: Mono,
    htilde: Mapping[int, ParamPoly | Fraction],
) -> ParamPoly:
    """Coefficient of hbar^g t^mono in the m-th constraint applied to F."""
    lvl = 2 * g + len(mono)
    return constraint_map(F, m, htilde, lvl, lvl).get((g, tuple(sorted(mono))), PP_ZERO)


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
    return _residuals(_determined_rows(F.budget, m), constraint_map(F, m, htilde))


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
    residual = {k: v * odd_df(m) for k, v in F.deriv((m,)).items()}
    _add(residual, _unshifted(F, m, 0, F.budget + 1), -1, 0, F.budget + 1)
    if with_eps:
        _add(residual, _unshifted(F, m - 1, 0, F.budget + 1), ParamPoly.eps(1, -1), 0, F.budget + 1)
    return _residuals(_determined_rows(F.budget, m), residual)


def bgw_bootstrap(budget: int) -> Potential:
    """Solve the eps = 0 constraints (2m+1)!! dF/dt_m = G_m(F) from scratch.

    The constraints determine the potential uniquely level by level; entry
    (m, mu) is read off the constraint indexed by its largest exponent, on
    the row (g, mu) one below the entry's level 2g+n.  Those rows read only
    lower levels, so each level's constraint maps are computed at that level
    alone, and the level is merged into the table once it is complete.
    """
    F = Potential({}, budget)
    for lvl, gns in groupby(levels(budget), lambda gn: 2 * gn[0] + gn[1]):
        level: Terms = {}
        for g, n in gns:
            for key in _sorted_tuples(n, 3 * g - 3 + n):
                m = key[-1]
                rhs = _unshifted(F, m, lvl - 1, lvl - 1).get((g, key[:-1]))
                if rhs:
                    level[(g, key)] = rhs * Fraction(1, odd_df(m) * key.count(m))
        F.merge(level)
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
    residual = dict(F.deriv((0, 0, 1)))
    _add(residual, F.product((0, 0), (0, 0, 0), 0, F.budget - 1), -1, 0, F.budget - 1)
    _add(residual, F.deriv((0,) * 5), Fraction(-1, 12), 0, F.budget - 1, dg=1)
    return _residuals(rows, residual)


# -- genus 1 closed form ---------------------------------------------------------


def genus1_closed_form(shift: Mapping[int, Fraction], t_max: int, deg: int) -> dict[Mono, Fraction]:
    """Genus-1 potential from the fixed-point ansatz, as {sorted t-index
    tuple: coefficient} truncated at total degree deg.

    F_1 = -1/24 log(1 - sum_k q_{k+1} Y^k / k!) with Y the solution of
    Y = sum_k q_k Y^k / k!, where q_i = t_i - shift.get(i, 0) are the shifted
    times (the shift only touches indices >= 2).
    """
    if any(i < 2 for i in shift):
        raise ValueError("shifts apply to t-indices >= 2 only")

    def times(a: dict, b: dict) -> dict:
        return mul_terms(a, b, lambda k1, k2: tuple(sorted(k1 + k2)) if len(k1) + len(k2) <= deg else None)

    def q(i: int) -> dict:
        t = {(i,): Fraction(1)} if i <= t_max and deg > 0 else {}
        return add_terms(t, [((), -Fraction(shift.get(i, 0)))])

    kmax = max(deg, t_max) + 2

    def series(coeff, y: dict) -> dict:
        """sum_k coeff(k) y^k / k!"""
        out, ypow = {}, {(): Fraction(1)}
        for k in range(0, kmax):
            add_terms(out, ((key, c / factorial(k)) for key, c in times(coeff(k), ypow).items()))
            ypow = times(ypow, y)
            if not ypow:
                break
        return out

    y: dict = {}
    for _ in range(deg + 1):
        y = series(q, y)
    a = series(lambda k: q(k + 1), y)
    if () in a:
        raise ValueError("shifted ansatz has nonzero constant term")
    # F1 = -1/24 log(1 - A) = 1/24 sum_j A^j / j
    f1: dict = {}
    apow = {(): Fraction(1)}
    for j in range(1, deg + 1):
        apow = times(apow, a)
        if not apow:
            break
        add_terms(f1, ((key, c / (24 * j)) for key, c in apow.items()))
    return f1

"""Topological recursion engine for spectral curves x = z^2/2 with an odd
y-series (a simple pole at z=0 is allowed).

Correlators are stored in the basis prod (2k_i+1)!! dz_i / z_i^{2k_i+2}; the
entry at (k_1..k_n) of the curve with y = z + sum h_k z^{2k+1}/(2k+1)!! equals
the pairing of exp(sum s_i(h) kappa_i) with prod psi_i^{k_i}.

The recursion computes, one active variable at a time,

    w_{g,n}(z, rest) = principal part of  W_{g,n}(z, rest) / (2 eta(z)),

where eta/dz = z y(z) and W is the diagonal term w_{g-1,n+1}(z,z,rest) plus
all ordered pair products; the unstable conventions are w_{0,1} = 0, the
mixed w_{0,2}(z, z_j) expanding as (2k_j+1) z^{2k_j} dz, and the (0,2)
diagonal replaced by dz^2/(4 z^2) (it only arises for (g,n) = (1,1)).

Each sorted entry (k_1 <= ... <= k_n) is read off once, with k_n in the
active slot: w_{g,n} is symmetric (Eynard-Orantin 2007, "Invariants of
algebraic curves and topological expansion"), so the other slots would
repeat it.  Engine.all_slots_agree rebuilds every entry from each of its
slots and compares the copies exactly.

Two coefficient rings run under one recursion, picked from the curve by
SpectralCurve.eps_weight:

- the integer core (kw, k, j, bgw, kstar): slices, W and 1/(2 eta) are
  IntSeries, integer numerators over one shared denominator, at eps = 1.
  No gcd is taken until read-off, where an entry becomes
  Fraction(num, den * (2k_1+1)!!).  eps comes back from a grading: the y of
  k and j is quasi-homogeneous of degree -1 under z -> l z, eps -> l^2 eps,
  so every entry at k of w_{g,n} is a rational times eps^(sum(k)-g+1); kw,
  bgw and kstar have no eps and their entries are rationals;
- ZSeries of ParamPoly (weak-k, weak-j): the coefficients carry formal h_i
  as well as eps, and products drop monomials over the h-weight cap.

Correlator entries are ParamPoly in both cases.

Computed correlators are immutable and the per-engine table is append-only
with deterministic, schedule-independent entries; the slices built from it
are memoized on the engine for the same reason.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffs import htilde_weak
from .intseries import IntSeries
from .kappapoly import aut, multiset_splits
from .parampoly import PP_ZERO, ParamPoly, add_terms
from .rationals import odd_df
from .zseries import ZSeries, series_invert

FAMILIES = ("kw", "k", "j", "weak-k", "weak-j", "bgw", "kstar")


class InsufficientOrderError(Exception):
    """The curve series is not truncated deep enough for the requested (g, n)."""


class SpectralCurve:
    """Odd y-series together with the derived inverse of 2*eta."""

    def __init__(self, family: str, y: ZSeries, order: int, n_h: int = 0,
                 h_weight_cap: int | None = None):
        if y.parity != 1:
            raise ValueError("y must be odd in z")
        low = y.low()
        if low is None or low < -1:
            raise ValueError("y may have at most a simple pole at z = 0")
        self.family = family
        self.y = y
        self.order = order
        self.n_h = n_h
        self.h_weight_cap = h_weight_cap
        self._inv2eta: ZSeries | None = None

    def eps_weight(self) -> int | None:
        """0 when every coefficient of y is a rational; 1 when the coefficient
        of z^j is a rational times eps^(-(j+1)/2); None otherwise (formal h_i
        or another eps pattern).

        With weight 1, y is quasi-homogeneous of degree -1 under z -> lz,
        eps -> l^2 eps, so the entry at k of w_{g,n} is a rational times
        eps^(sum(k)-g+1).  In both cases the engine runs at eps = 1 and the
        weight times that exponent restores eps.
        """
        keys = [(j, key) for j, c in self.y.coeffs.items() for key in c.terms]
        if all(key == (0, ()) for _, key in keys):
            return 0
        if all(key == (-(j + 1) // 2, ()) for j, key in keys):
            return 1
        return None

    def eta_over_dz(self) -> ZSeries:
        return self.y.shift(1)

    def inv2eta(self) -> ZSeries:
        """1/(2 eta/dz), not cut at h_weight_cap: every product that uses it
        drops the terms over the cap, and h-weights are non-negative and add."""
        if self._inv2eta is None:
            two_eta = self.eta_over_dz().scale(2)
            if two_eta.order is None:
                self._inv2eta = series_invert(two_eta, out_order=self.order)
            else:
                self._inv2eta = series_invert(two_eta)
        return self._inv2eta


def required_order(g: int, n: int) -> int:
    """Truncation order of y needed to assemble w_{g,n}: all poles of the
    first slot have order <= 2(3g-2+n)+2."""
    return 2 * (3 * g - 2 + n) + 2


def build_curve(family: str, order: int, n_h: int = 0,
                h_weight_cap: int | None = None) -> SpectralCurve:
    """Construct a named curve with y truncated at the given order.

    Families: "kw" y=z; "k" y=z/(z^2+eps); "j" the arcsinh-series curve;
    "weak-k"/"weak-j" the two-parameter curves with formal h_1..h_{n_h};
    "bgw" y=1/z; "kstar" y=z/(1-z^2).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if order < 2:
        raise ValueError("curve order must be at least 2")
    if family == "kw":
        y = ZSeries({1: 1}, order=None, parity=1)
    elif family == "bgw":
        y = ZSeries({-1: 1}, order=None, parity=1)
    elif family == "kstar":
        y = ZSeries({2 * k + 1: 1 for k in range(order // 2 + 1) if 2 * k + 1 < order},
                    order=order, parity=1)
    else:
        # "k"/"j" are the two-parameter curves without formal h-parameters
        htilde = htilde_weak(family[-1], n_h if family.startswith("weak") else 0, (order - 2) // 2)
        y = ZSeries(
            {2 * k + 1: c * Fraction(1, odd_df(k)) for k, c in htilde.items()},
            order=order,
            parity=1,
        )
    return SpectralCurve(family, y, order, n_h=n_h, h_weight_cap=h_weight_cap)


class Correlator:
    """Finite symmetric table (k_1..k_n) -> ParamPoly for fixed (g, n)."""

    __slots__ = ("g", "n", "entries")

    def __init__(self, g: int, n: int, entries: dict[tuple[int, ...], ParamPoly]):
        self.g = g
        self.n = n
        self.entries = entries

    def value(self, key: tuple[int, ...]) -> ParamPoly:
        return self.entries.get(tuple(sorted(key)), PP_ZERO)

    def items(self):
        return sorted(self.entries.items())

    def min_eps_valuation(self) -> int | None:
        vals = [c.eps_valuation() for c in self.entries.values() if c]
        return min(vals) if vals else None

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "basis": "doublefactorial",
            "entries": [
                {"k": list(k), "coeff": c.to_triples()} for k, c in self.items()
            ],
        }


@lru_cache(maxsize=None)
def _sorted_tuples(n: int, total_max: int) -> tuple[tuple[int, ...], ...]:
    """Non-decreasing n-tuples of non-negative ints with sum <= total_max."""
    if n == 0:
        return ((),)
    out = []

    def rec(prefix: list[int], minv: int, rem: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(minv, rem + 1):
            prefix.append(v)
            rec(prefix, v, rem - v)
            prefix.pop()

    rec([], 0, total_max)
    return tuple(out)


def levels(budget: int) -> list[tuple[int, int]]:
    """Stable (g, n) with n >= 1 and 2g-2+n <= budget, by increasing level
    and, within a level, increasing genus."""
    return [
        (g, lvl + 2 - 2 * g)
        for lvl in range(1, budget + 1)
        for g in range(0, (lvl + 1) // 2 + 1)
    ]


class _PolyRing:
    """ZSeries of ParamPoly: the ring of curves whose coefficients carry
    formal h_i (the weak families), with products cut at the h-weight cap.

    A ring gives the engine: ``series`` (the exact even series sum v*f*z^e
    over (e, ParamPoly v, int f) triples, None when zero), ``w_sum`` (a
    series plus the (s1, s2, ways) pair products), ``product`` (W times
    1/(2 eta) up to z^hi), ``entries`` (its poles as ParamPoly entries) and
    ``two_eta`` for the loop-equation check.
    """

    def __init__(self, curve: SpectralCurve):
        self.curve = curve

    def series(self, terms) -> ZSeries | None:
        cs = add_terms({}, ((e, v * f) for e, v, f in terms))
        return ZSeries(cs, order=None, parity=0) if cs else None

    def w_sum(self, base: ZSeries | None, products) -> ZSeries:
        cap = self.curve.h_weight_cap
        w = dict(base.coeffs) if base is not None else {}
        for s1, s2, ways in products:
            terms = s1.mul(s2, max_h_weight=cap).coeffs.items()
            add_terms(w, terms if ways == 1 else ((j, c * ways) for j, c in terms))
        return ZSeries(w, order=None, parity=0)

    def product(self, w: ZSeries, hi: int) -> ZSeries:
        return w.mul(self.curve.inv2eta(), hi=hi, max_h_weight=self.curve.h_weight_cap)

    def entries(self, prod: ZSeries, g: int, rest: tuple[int, ...]) -> dict[int, ParamPoly]:
        return {(-e - 2) // 2: c * Fraction(1, odd_df((-e - 2) // 2)) for e, c in prod.coeffs.items()}

    def two_eta(self) -> ZSeries:
        return self.curve.eta_over_dz().scale(2)


def _at_eps_one(p: ParamPoly) -> Fraction:
    """The value of an h-free ParamPoly at eps = 1."""
    vals = p.terms.values()
    return next(iter(vals)) if len(vals) == 1 else sum(vals, Fraction(0))


class _IntRing:
    """IntSeries at eps = 1: the ring of the scalar curves (kw, k, j, bgw,
    kstar).  Entries get eps back from the grading at read-off."""

    def __init__(self, curve: SpectralCurve, weight: int):
        self.curve = curve
        self.weight = weight
        self._inv: IntSeries | None = None

    def lower(self, s: ZSeries) -> IntSeries:
        return IntSeries.from_terms(((j, _at_eps_one(c), 1) for j, c in s.coeffs.items()), s.order)

    def series(self, terms) -> IntSeries | None:
        s = IntSeries.from_terms((e, _at_eps_one(v), f) for e, v, f in terms)
        return s if s.coeffs else None

    def w_sum(self, base: IntSeries | None, products) -> IntSeries:
        return IntSeries.sum_of_products(base, products)

    def product(self, w: IntSeries, hi: int) -> IntSeries:
        if self._inv is None:
            self._inv = self.lower(self.curve.inv2eta())
        return w.mul(self._inv, hi=hi)

    def entries(self, prod: IntSeries, g: int, rest: tuple[int, ...]) -> dict[int, ParamPoly]:
        # eps^(weight*(sum(k)-g+1)): the grading of SpectralCurve.eps_weight
        shift = sum(rest) - g + 1
        out = {}
        for e, c in prod.coeffs.items():
            k1 = (-e - 2) // 2
            out[k1] = ParamPoly.eps(self.weight * (shift + k1), Fraction(c, prod.den * odd_df(k1)))
        return out

    def two_eta(self) -> IntSeries:
        return self.lower(self.curve.eta_over_dz().scale(2))


_QUARTER = ParamPoly.const(Fraction(1, 4))


class Engine:
    """Memoizing recursion bound to one spectral curve.

    The recursion itself (which entries to read off, the dimension bound,
    the order guards) is shared; slices, W and the product with 1/(2 eta) live in a
    coefficient ring picked from the curve: the integer core when
    ``curve.eps_weight()`` is not None, ZSeries of ParamPoly otherwise.
    """

    def __init__(self, curve: SpectralCurve):
        self.curve = curve
        weight = curve.eps_weight()
        self._ring = _PolyRing(curve) if weight is None else _IntRing(curve, weight)
        self.table: dict[tuple[int, int], Correlator] = {}
        # (g', alpha) -> slice; pure in the append-only table, so it lives
        # exactly as long as the engine
        self._slices: dict[tuple[int, tuple[int, ...]], ZSeries | IntSeries | None] = {}

    def correlator(self, g: int, n: int) -> Correlator:
        if n < 1 or g < 0 or 2 * g - 2 + n <= 0:
            raise ValueError(f"unstable or invalid (g, n) = ({g}, {n})")
        key = (g, n)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        if self.curve.order is not None and self.curve.y.order is not None:
            if self.curve.order < required_order(g, n):
                raise InsufficientOrderError(
                    f"curve order {self.curve.order} < required "
                    f"{required_order(g, n)} for (g, n) = ({g}, {n})"
                )
        corr = self._compute(g, n)
        self.table[key] = corr
        return corr

    # -- assembly -------------------------------------------------------------

    def _slice_series(self, gp: int, alpha: tuple[int, ...]) -> ZSeries | IntSeries | None:
        """w'-factor with active variable z and remaining slots frozen at alpha."""
        key = (gp, alpha)
        try:
            return self._slices[key]
        except KeyError:
            s = self._slices[key] = self._build_slice(gp, alpha)
            return s

    def _build_slice(self, gp: int, alpha: tuple[int, ...]) -> ZSeries | IntSeries | None:
        if gp == 0 and len(alpha) == 0:
            return None  # w_{0,1} = 0
        if gp == 0 and len(alpha) == 1:
            # mixed w_{0,2}(z, z_j) against the (2k+1)!! basis: z^{2k}/(2k-1)!!
            k = alpha[0]
            return self._ring.series([(2 * k, ParamPoly.const(Fraction(2 * k + 1, odd_df(k))), 1)])
        corr = self.correlator(gp, len(alpha) + 1)
        smax = 3 * gp - 3 + len(alpha) + 1 - sum(alpha)
        if smax < 0:
            return None
        return self._ring.series(
            (-2 * k - 2, v, odd_df(k))
            for k in range(smax + 1)
            if (v := corr.value((k,) + alpha))
        )

    def _assemble_w(self, g: int, n: int, rest: tuple[int, ...]) -> ZSeries | IntSeries:
        # diagonal part w_{g-1, n+1}(z, z, rest)
        diag = []
        if g >= 1:
            if 2 * (g - 1) - 2 + (n + 1) > 0:
                lower = self.correlator(g - 1, n + 1)
                smax = 3 * (g - 1) - 3 + (n + 1) - sum(rest)
                diag = [
                    (-2 * (k + kp) - 4, v, (1 if k == kp else 2) * odd_df(k) * odd_df(kp))
                    for k in range(smax + 1)
                    for kp in range(k, smax - k + 1)
                    if (v := lower.value((k, kp) + rest))
                ]
            elif (g, n) == (1, 1):
                diag = [(-2, _QUARTER, 1)]
        # ordered pair products, each computed once together with its mirror
        # (g2, beta, g1, alpha), which has the same ways; w_{0,1} factors
        # vanish and must be skipped before any recursive lookup (they would
        # otherwise self-recurse)
        products = []
        splits = multiset_splits(rest)
        for g1 in range(0, g + 1):
            g2 = g - g1
            for alpha, beta, ways in splits:
                if (g1, alpha) > (g2, beta) or (g1 == 0 and not alpha):
                    continue
                s1 = self._slice_series(g1, alpha)
                if s1 is None:
                    continue
                s2 = self._slice_series(g2, beta)
                if s2 is None:
                    continue
                products.append((s1, s2, ways if (g1, alpha) == (g2, beta) else 2 * ways))
        # every diagonal and slice exponent is even
        return self._ring.w_sum(self._ring.series(diag), products)

    def _read_off(self, g: int, n: int, rest: tuple[int, ...], hi: int) -> dict[int, ParamPoly]:
        """k1 -> entry at (k1,) + rest, for every k1 with -2*k1-2 <= hi: the
        poles of the principal part of W_{g,n}(z, rest)/(2 eta(z)) up to z^hi."""
        w = self._assemble_w(g, n, rest)
        if w.is_zero():
            return {}
        prod = self._ring.product(w, hi)
        if prod.order < hi + 1:
            raise InsufficientOrderError(
                f"product order {prod.order} < required {hi + 1} at (g, n) = ({g}, {n})"
            )
        return self._ring.entries(prod, g, rest)

    def _compute(self, g: int, n: int) -> Correlator:
        # Each sorted entry is read off once, from its largest slot: the active
        # variable takes k1 >= max(rest), so only the poles z^{-2k1-2} with
        # exponent <= -2*max(rest)-2 are needed, and a rest with
        # max(rest) + sum(rest) > dim holds no entry.  That the other slots
        # would give the same values is the symmetry of w_{g,n} (a theorem of
        # Eynard-Orantin); all_slots_agree re-reads every slot to check it.
        dim = 3 * g - 3 + n
        entries: dict[tuple[int, ...], ParamPoly] = {}
        for rest in _sorted_tuples(n - 1, dim):
            top = rest[-1] if rest else 0
            room = dim - sum(rest)
            if top > room:
                continue
            for k1, val in self._read_off(g, n, rest, -2 * top - 2).items():
                if k1 > room:
                    raise AssertionError(
                        f"dimension bound violated at ({g}, {n}): k = {rest + (k1,)}"
                    )
                entries[rest + (k1,)] = val
        return Correlator(g, n, entries)

    # -- diagnostics ------------------------------------------------------------

    def all_slots_agree(self, g: int, n: int) -> bool:
        """Rebuild every entry of w_{g,n} from each of its slots and compare.

        True when, for every rest and every k1, the full read-off (all poles,
        not only those from the largest slot on) equals the stored entry at
        (k1,) + rest, and no pole lies beyond the dimension bound.  This is
        the symmetry check that ``_compute`` leaves out of the hot path.
        """
        corr = self.correlator(g, n)
        dim = 3 * g - 3 + n
        for rest in _sorted_tuples(n - 1, dim):
            room = dim - sum(rest)
            got = self._read_off(g, n, rest, -1)
            if any(k1 > room for k1 in got):
                return False
            for k1 in range(room + 1):
                if got.get(k1, PP_ZERO) != corr.value((k1,) + rest):
                    return False
        return True

    def loop_equation_negative_residual(self, g: int, n: int) -> bool:
        """Recombine 2*eta*w - W independently and verify the pole part cancels.

        True when, for every slice, all provably-known negative-exponent
        coefficients of 2*eta*w_{g,n} - W_{g,n} vanish.
        """
        self.correlator(g, n)
        two_eta = self._ring.two_eta()
        dim = 3 * g - 3 + n
        for rest in _sorted_tuples(n - 1, dim):
            sw = self._slice_series(g, rest)
            rhs = self._assemble_w(g, n, rest)
            diff = rhs if sw is None else two_eta.mul(sw) - rhs
            for e, c in diff.items():
                if e < 0 and c:
                    return False
        return True


def correlators_to_potential(corr: Correlator) -> dict[tuple[int, ...], ParamPoly]:
    """Coefficients of the potential piece F_{g,n} on monomials in t.

    The coefficient of prod t_{k_i} (sorted key) is the correlator entry
    divided by the order of its automorphism group.
    """
    return {key: c * Fraction(1, aut(key)) for key, c in corr.entries.items()}

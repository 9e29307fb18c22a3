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

Slices, W and 1/(2 eta) live in an integer core at eps = 1 (IntSeries):
integer numerators over one shared denominator, with no gcd taken until
read-off, where an entry becomes Fraction(num, den * (2k_1+1)!!).  A key
packs the z-exponent with an h-monomial, and products drop the monomials
over the h-weight cap; on a curve whose y has no h (kw, k, j, bgw, kstar)
the packing is empty and a key is just the exponent, while weak-k and
weak-j carry formal h_i.  eps comes back from a grading
(SpectralCurve.eps_weight): y is quasi-homogeneous of degree -1 under
z -> l z, eps -> l^2 eps, h_i -> l^(-2i) h_i, so the term h^alpha of the
entry at k of w_{g,n} carries eps^(sum(k)-g+1+hweight(alpha)); kw, bgw and
kstar have no eps.  Correlator entries are ParamPoly.

Computed correlators are immutable and the per-engine table is append-only
with deterministic, schedule-independent entries; the slices built from it
are memoized on the engine for the same reason.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeffs import htilde_weak
from .intseries import HPacking, IntSeries
from .kappapoly import aut, multiset_splits
from .parampoly import PP_ZERO, ParamPoly, hweight
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

    def eps_weight(self) -> int:
        """0 when no term of y carries eps; 1 when every term h^alpha at z^j
        carries eps^(-(j+1)/2 + hweight(alpha)), the grading under which the
        term h^alpha of the entry at k of w_{g,n} carries
        eps^(sum(k)-g+1+hweight(alpha)).  The engine runs at eps = 1, and the
        weight times that exponent restores eps.  Any other y raises ValueError.
        """
        keys = [(j, e, h) for j, c in self.y.coeffs.items() for e, h in c.terms]
        if all(e == 0 for _, e, _ in keys):
            return 0
        if all(e == -(j + 1) // 2 + hweight(h) for j, e, h in keys):
            return 1
        raise ValueError("y fits no eps grading: its terms z^j h^alpha must all carry "
                         "eps^0 or all carry eps^(-(j+1)/2 + hweight(alpha))")

    def eta_over_dz(self) -> ZSeries:
        return self.y.shift(1)

    def inv2eta(self) -> ZSeries:
        """1/(2 eta/dz), not cut at h_weight_cap: the integer core drops the
        terms over the cap when it lowers it, and h-weights are non-negative
        and add."""
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
    """Non-decreasing n-tuples of non-negative ints with sum <= total_max,
    in lexicographic order."""

    def rec(k: int, low: int, rem: int):
        if not k:
            yield ()
        for v in range(low, rem // k + 1 if k else 0):
            yield from ((v,) + t for t in rec(k - 1, v, rem - v))

    return tuple(rec(n, 0, total_max))


def levels(budget: int) -> list[tuple[int, int]]:
    """Stable (g, n) with n >= 1 and 2g-2+n <= budget, by increasing level
    and, within a level, increasing genus."""
    return [
        (g, lvl + 2 - 2 * g)
        for lvl in range(1, budget + 1)
        for g in range(0, (lvl + 1) // 2 + 1)
    ]


class _IntRing:
    """The integer core at eps = 1: IntSeries whose keys pack the z-exponent
    with an h-monomial (HPacking).  On a curve whose y has no h (kw, k, j,
    bgw, kstar) the packing is empty and a key is its exponent.  Monomials
    over the h-weight cap are dropped when a series is lowered and after
    every product; an uncapped curve packs under twice its order, a bound
    its weights do not reach (they stay below about half the order).

    A ring gives the engine ``series`` (the exact even series sum v*f*z^e
    over (e, ParamPoly v, int f) triples, None when zero), ``w_sum`` (a
    series plus the (s1, s2, ways) pair products), ``product`` (W times
    1/(2 eta) up to z^hi), ``entries`` (its poles as ParamPoly entries, eps
    restored from the grading) and ``two_eta`` for the loop-equation check.
    """

    def __init__(self, curve: SpectralCurve, weight: int, n: int):
        self.curve = curve
        self.weight = weight
        cap = curve.h_weight_cap if n else 0  # no h: the empty packing
        self.pack = HPacking(n, 2 * curve.order if cap is None else cap, cap is not None)
        self._inv: IntSeries | None = None

    def lower(self, s: ZSeries) -> IntSeries | None:
        return self.series(((j, c, 1) for j, c in s.coeffs.items()), s.order)

    def series(self, terms, order: int | None = None) -> IntSeries | None:
        pack = self.pack
        flat = (((e << pack.zshift) | key, c, f)
                for e, v, f in terms
                for (_, h), c in v.terms.items()
                if (key := pack.pack(h)) is not None)
        s = IntSeries.from_terms(flat, pack, order)
        return s if s.coeffs else None

    def w_sum(self, base: IntSeries | None, products) -> IntSeries:
        return IntSeries.sum_of_products(base, products, self.pack)

    def product(self, w: IntSeries, hi: int) -> IntSeries:
        if self._inv is None:
            self._inv = self.lower(self.curve.inv2eta())
        return self._inv.mul(w, hi=hi)

    def entries(self, prod: IntSeries, g: int, rest: tuple[int, ...]) -> dict[int, ParamPoly]:
        # the term h^alpha carries eps^(weight*(sum(k)-g+1+hweight(alpha))):
        # the grading of SpectralCurve.eps_weight
        pack, shift = self.pack, sum(rest) - g + 1
        hmask = (1 << pack.zshift) - 1
        terms: dict[int, dict] = {}
        for key, c in prod.coeffs.items():
            k1, h = (-(key >> pack.zshift) - 2) // 2, key & hmask
            e = self.weight * (shift + k1 + (h >> pack.wshift))
            terms.setdefault(k1, {})[(e, pack.unpack(h))] = Fraction(c, prod.den * odd_df(k1))
        return {k1: ParamPoly.raw(t) for k1, t in terms.items()}

    def two_eta(self) -> IntSeries:
        return self.lower(self.curve.eta_over_dz().scale(2))


_QUARTER = ParamPoly.const(Fraction(1, 4))


class Engine:
    """Memoizing recursion bound to one spectral curve.

    The recursion itself (which entries to read off, the dimension bound,
    the order guards) is shared; slices, W and the product with 1/(2 eta)
    live in the integer core, _IntRing.
    """

    def __init__(self, curve: SpectralCurve):
        self.curve = curve
        weight = curve.eps_weight()
        n = max((len(h) for c in curve.y.coeffs.values() for _, h in c.terms), default=0)
        self._ring = _IntRing(curve, weight, n)
        self.table: dict[tuple[int, int], Correlator] = {}
        # (g', alpha) -> slice; pure in the append-only table, so it lives
        # exactly as long as the engine
        self._slices: dict[tuple[int, tuple[int, ...]], IntSeries | None] = {}

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

    def _slice_series(self, gp: int, alpha: tuple[int, ...]) -> IntSeries | None:
        """w'-factor with active variable z and remaining slots frozen at alpha."""
        key = (gp, alpha)
        try:
            return self._slices[key]
        except KeyError:
            s = self._slices[key] = self._build_slice(gp, alpha)
            return s

    def _build_slice(self, gp: int, alpha: tuple[int, ...]) -> IntSeries | None:
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

    def _assemble_w(self, g: int, n: int, rest: tuple[int, ...]) -> IntSeries:
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
        for g1 in range(g // 2 + 1):
            g2 = g - g1
            for alpha, beta, ways in splits:
                if (g1 == g2 and alpha > beta) or (g1 == 0 and not alpha):
                    continue
                s1 = self._slice_series(g1, alpha)
                if s1 is None:
                    continue
                s2 = self._slice_series(g2, beta)
                if s2 is None:
                    continue
                products.append((s1, s2, ways if g1 == g2 and alpha == beta else 2 * ways))
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
            lhs = two_eta.mul(sw) if sw is not None else None
            top = 0 if lhs is None or lhs.order is None else min(0, lhs.order)
            top <<= self._ring.pack.zshift  # as a key
            poles = [{k: c for k, c in s.items() if k < top} if s is not None else {}
                     for s in (lhs, self._assemble_w(g, n, rest))]
            if poles[0] != poles[1]:
                return False
        return True


def correlators_to_potential(corr: Correlator) -> dict[tuple[int, ...], ParamPoly]:
    """Coefficients of the potential piece F_{g,n} on monomials in t.

    The coefficient of prod t_{k_i} (sorted key) is the correlator entry
    divided by the order of its automorphism group.
    """
    return {key: c * Fraction(1, aut(key)) for key, c in corr.entries.items()}

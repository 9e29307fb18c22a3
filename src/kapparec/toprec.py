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

The curve's y is the one ZSeries the engine reads.  The recursion runs in
an integer core at eps = 1 (IntSeries), from the lowered y to the
read-off: slices, W and 1/(2 eta) are integer numerators over one shared
denominator, and every product among them is IntSeries.mul or
sum_of_products.  A key packs the z-exponent with an h-monomial (the
curve's HPacking), and products drop the monomials over the h-weight cap;
on a curve whose y has no h (kw, k, j, bgw, kstar) the packing is empty
and a key is just the exponent, while weak-k and weak-j carry formal h_i.
eps comes back from a grading (SpectralCurve.eps_weight): y is
quasi-homogeneous of degree -1 under z -> l z, eps -> l^2 eps,
h_i -> l^(-2i) h_i, so the term h^alpha of the entry at k of w_{g,n}
carries eps^(sum(k)-g+1+hweight(alpha)); kw, bgw and kstar have no eps.

A Correlator stores each entry only in that integer form (a Form): a
positive denominator and (packed h-key, numerator) pairs sorted by key,
reduced to gcd(den, numerators) = 1, so equal entries have equal forms.
Slices and diagonals are pushed from these forms, with no key probed: one
pass over a table's entries gives all of its slices, and one pass over
w_{g-1,n+1} all the diagonals of the level (g, n); the lowered y is built
by the same lcm sum (_series).  The read-off is IntSeries.mul of W by
1/(2 eta) up to the poles it needs, grouped straight into Forms.  The ParamPoly of an entry (eps restored, Fraction coefficients) is
a view, built whenever a caller reads it and never kept.

Computed correlators are immutable and the per-engine table is append-only
with deterministic, schedule-independent entries; each table's slices are
kept on the engine for the same reason, while a level's diagonals are
dropped when the level is done.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .coeffs import htilde_weak
from .intseries import HPacking, IntSeries
from .kappapoly import aut, multiset_splits
from .parampoly import PP_ZERO, ParamPoly, hweight
from .rationals import odd_df
from .zseries import ZSeries

FAMILIES = ("kw", "k", "j", "weak-k", "weak-j", "bgw", "kstar")


class InsufficientOrderError(Exception):
    """The curve series is not truncated deep enough for the requested (g, n)."""


class SpectralCurve:
    """Odd y-series together with its h-packing and the derived inverse of
    2*eta in the integer core."""

    def __init__(self, family: str, y: ZSeries, order: int, h_weight_cap: int | None = None):
        if y.is_zero():  # zero below its order too: 2 eta has no inverse
            raise ValueError("y must not be zero")
        if any(j % 2 == 0 for j in y.coeffs):
            raise ValueError("y must be odd in z")
        if y.low() < -1:
            raise ValueError("y may have at most a simple pole at z = 0")
        self.family = family
        self.y = y
        self.order = order
        # n_h is the number of formal h in y.  An uncapped curve packs under
        # twice its order, a bound its weights do not reach (they stay below
        # about half the order)
        n = self.n_h = max((len(h) for c in y.coeffs.values() for _, h in c.terms), default=0)
        cap = h_weight_cap if n else 0  # no h: the empty packing
        self.pack = HPacking(n, 2 * order if cap is None else cap, cap is not None)
        self._inv2eta: IntSeries | None = None

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

    def lower(self, s: ZSeries, f: int = 1) -> IntSeries:
        """f*s at eps = 1 in the integer core, without its terms over the
        h-weight cap."""
        pack = self.pack
        out = _series(pack, [(j, (c.denominator, ((key, c.numerator),)), f)
                             for j, v in s.coeffs.items()
                             for (_, h), c in v.terms.items()
                             if (key := pack.pack(h)) is not None]) or IntSeries({}, 1, pack)
        out.order = s.order
        return out

    def two_eta(self) -> IntSeries:
        return self.lower(self.y.shift(1), 2)  # eta/dz = z y

    def inv2eta(self) -> IntSeries:
        """1/(2 eta/dz) in the integer core, its terms by increasing key: the
        lowered 2 eta/dz inverted on IntSeries, with the terms over h_weight_cap
        dropped at each step; an exactly-known eta is inverted up to z^(order-1)."""
        if self._inv2eta is None:
            two_eta = self.two_eta()
            inv = self._inv2eta = two_eta.invert(self.order if two_eta.order is None else None)
            inv.coeffs = dict(sorted(inv.coeffs.items()))
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
        y = ZSeries({1: 1}, order=None)
    elif family == "bgw":
        y = ZSeries({-1: 1}, order=None)
    elif family == "kstar":
        y = ZSeries({2 * k + 1: 1 for k in range(order // 2 + 1) if 2 * k + 1 < order},
                    order=order)
    else:
        # "k"/"j" are the two-parameter curves without formal h-parameters
        htilde = htilde_weak(family[-1], n_h if family.startswith("weak") else 0, (order - 2) // 2)
        y = ZSeries({2 * k + 1: c * Fraction(1, odd_df(k)) for k, c in htilde.items()}, order=order)
    return SpectralCurve(family, y, order, h_weight_cap)


# an entry in integer form: (den, ((packed h-key, numerator), ...)), and a
# term f*value*z^e of a slice or diagonal: (e, Form, int f)
Form = tuple[int, tuple[tuple[int, int], ...]]
Term = tuple[int, Form, int]


class Correlator:
    """Finite symmetric table for fixed (g, n): each sorted key (k_1..k_n)
    holds its entry's Form, whose h-keys are packed by ``pack``;
    ``entries``, ``value``, ``items`` and ``to_json`` read ParamPoly views
    of them, with eps restored by the curve's eps ``weight``."""

    __slots__ = ("g", "n", "forms", "pack", "weight")

    def __init__(self, g: int, n: int, forms: dict[tuple[int, ...], Form], pack: HPacking,
                 weight: int):
        self.g = g
        self.n = n
        self.forms = forms
        self.pack = pack
        self.weight = weight

    def form(self, key: tuple[int, ...]) -> Form | None:
        return self.forms.get(tuple(sorted(key)))

    def view(self, key: tuple[int, ...], form: Form) -> ParamPoly:
        """The Form at key as a ParamPoly: the term h^alpha of the entry at k
        carries eps^(weight*(sum(k)-g+1+hweight(alpha))), the grading of
        SpectralCurve.eps_weight."""
        den, pairs = form
        pack, w, shift = self.pack, self.weight, sum(key) - self.g + 1
        return ParamPoly.raw({
            (w * (shift + (h >> pack.wshift)), pack.unpack(h)): Fraction(c, den) for h, c in pairs
        })

    @property
    def entries(self) -> dict[tuple[int, ...], ParamPoly]:
        """Every entry's view, in a dict built on each read and never kept."""
        return {key: self.view(key, f) for key, f in self.forms.items()}

    def value(self, key: tuple[int, ...]) -> ParamPoly:
        f = self.form(key)
        return PP_ZERO if f is None else self.view(key, f)

    def items(self):
        return sorted(self.entries.items())

    def min_eps_valuation(self) -> int | None:
        if not self.forms:
            return None
        # pairs are sorted by h-key, whose top field is the h-weight
        ws = self.pack.wshift
        low = min(sum(key) + (pairs[0][0] >> ws) for key, (_, pairs) in self.forms.items())
        return self.weight * (low - self.g + 1)

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


def _series(pack: HPacking, terms: list[Term]) -> IntSeries | None:
    """The series sum f*value*z^e over the terms, over the lcm of the Forms'
    denominators; None when it is zero."""
    den = lcm(*(d for _, (d, _), _ in terms))
    zs = pack.zshift
    out: dict[int, int] = {}
    get = out.get
    for e, (d, pairs), f in terms:
        f *= den // d
        e <<= zs
        for h, c in pairs:
            out[e | h] = get(e | h, 0) + c * f
    out = {j: c for j, c in out.items() if c}
    return IntSeries(out, den, pack) if out else None


class Engine:
    """Memoizing recursion bound to one spectral curve.

    Slices, W and the stored entries are IntSeries and Forms keyed by the
    curve's HPacking; ``weight`` is the curve's eps_weight, which the
    Correlators' views restore eps by.  A table's slices are built together
    when a level first reads the table and are kept; a level's diagonals
    are dropped with the level.
    """

    def __init__(self, curve: SpectralCurve):
        self.curve = curve
        self.weight = curve.eps_weight()
        self.table: dict[tuple[int, int], Correlator] = {}
        # (g', m) -> alpha -> the nonzero slice of w_{g',m} at alpha; pure in
        # the append-only table, so it lives exactly as long as the engine
        self._slices: dict[tuple[int, int], dict[tuple[int, ...], IntSeries]] = {}

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

    def _table_slices(self, gp: int, m: int) -> dict[tuple[int, ...], IntSeries]:
        """alpha -> the nonzero slice of w_{g',m} with the other slots frozen
        at alpha, all built in one pass over its entries: the entry at K is
        the pole z^(-2v-2) of the slice at K less one v, once for each
        distinct value v of K."""
        slices = self._slices.get((gp, m))
        if slices is None:
            terms: dict[tuple[int, ...], list[Term]] = {}
            for key, f in self.correlator(gp, m).forms.items():
                for i, v in enumerate(key):
                    if not i or key[i - 1] != v:
                        terms.setdefault(key[:i] + key[i + 1:], []).append((-2 * v - 2, f, odd_df(v)))
            pack = self.curve.pack
            slices = self._slices[gp, m] = {alpha: _series(pack, t) for alpha, t in terms.items()}
        return slices

    def _level(self, g: int, n: int):
        """What the level (g, n) reads: rest -> the terms of the diagonal
        w_{g-1,n+1}(z, z, rest), and g' -> [a -> the slices of w_{g',a+1}].
        The entry at K of w_{g-1,n+1} is the pole z^(-2(k+k')-4) of the
        diagonal at K less k and k', once for each distinct pair k <= k' of
        values of K (twice when k < k').  w_{0,1} = 0 has no slice, the mixed
        w_{0,2}(z, z_j) is z^{2k}/(2k-1)!! against the (2k+1)!! basis, and no
        product reads w_{g,n} itself (None)."""
        diags: dict[tuple[int, ...], list[Term]] = {}
        if (g, n) == (1, 1):
            diags[()] = [(-2, (4, ((0, 1),)), 1)]  # the (0,2) diagonal dz^2/(4 z^2)
        elif g:
            for key, f in self.correlator(g - 1, n + 1).forms.items():
                for i, k in enumerate(key):
                    for j in range(i + 1, n + 1) if not i or key[i - 1] != k else ():
                        kp = key[j]
                        if j == i + 1 or key[j - 1] != kp:
                            diags.setdefault(key[:i] + key[i + 1:j] + key[j + 1:], []).append(
                                (-2 * (k + kp) - 4, f, (1 if k == kp else 2) * odd_df(k) * odd_df(kp)))
        pack = self.curve.pack
        mixed = {(k,): IntSeries({2 * k << pack.zshift: 1}, odd_df(k - 1), pack)
                 for k in range(3 * g - 2 + n)}
        return diags, [[{} if (gp, m) == (0, 1) else mixed if (gp, m) == (0, 2)
                        else None if (gp, m) == (g, n) else self._table_slices(gp, m)
                        for m in range(1, n + 1)] for gp in range(g + 1)]

    def _assemble_w(self, g: int, n: int, rest: tuple[int, ...], level) -> IntSeries:
        """W_{g,n}(z, rest): the diagonal plus all ordered pair products of
        slices, both read from ``level`` (what ``_level`` returns)."""
        diags, slices = level
        # ordered pair products, each computed once together with its mirror
        # (g2, beta, g1, alpha), which has the same ways; w_{0,1} factors
        # vanish and are skipped, and so is the (g2, beta) = (g, rest) factor
        products = []
        splits = multiset_splits(rest)
        for g1 in range(g // 2 + 1):
            g2 = g - g1
            left, right = slices[g1], slices[g2]
            for alpha, beta, ways in splits:
                if (g1 == g2 and alpha > beta) or (g1 == 0 and not alpha):
                    continue
                s1 = left[len(alpha)].get(alpha)
                if s1 is None:
                    continue
                s2 = right[len(beta)].get(beta)
                if s2 is not None:
                    products.append((s1, s2, ways if g1 == g2 and alpha == beta else 2 * ways))
        # every diagonal and slice exponent is even
        pack = self.curve.pack
        return IntSeries.sum_of_products(_series(pack, diags.get(rest, [])), products, pack)

    def _read_off(self, g: int, n: int, rest: tuple[int, ...], hi: int, level) -> dict[int, Form]:
        """k1 -> entry at (k1,) + rest, for every k1 with -2*k1-2 <= hi: the
        poles of W_{g,n}(z, rest)/(2 eta(z)), multiplied out only up to z^hi,
        as reduced Forms in the (2k1+1)!! basis."""
        w = self._assemble_w(g, n, rest, level)
        if w.is_zero():
            return {}
        prod = w.mul(self.curve.inv2eta(), hi)  # W is exact: the order is 1/(2 eta)'s
        if prod.order <= hi:
            raise InsufficientOrderError(f"product order {prod.order} < required {hi + 1} at (g, n) = ({g}, {n})")
        zs = self.curve.pack.zshift
        poles: dict[int, list[tuple[int, int]]] = {}
        hmask, den = (1 << zs) - 1, prod.den
        for key, c in prod.coeffs.items():
            poles.setdefault(-(key >> zs) // 2 - 1, []).append((key & hmask, c))
        forms = {}
        for k1, pairs in poles.items():
            d = gcd(den * odd_df(k1), *(c for _, c in pairs))
            forms[k1] = (den * odd_df(k1) // d, tuple(sorted((h, c // d) for h, c in pairs)))
        return forms

    def _compute(self, g: int, n: int) -> Correlator:
        # Each sorted entry is read off once, from its largest slot: the active
        # variable takes k1 >= max(rest), so only the poles z^{-2k1-2} with
        # exponent <= -2*max(rest)-2 are needed, and a rest with
        # max(rest) + sum(rest) > dim holds no entry.  That the other slots
        # would give the same values is the symmetry of w_{g,n} (a theorem of
        # Eynard-Orantin); all_slots_agree re-reads every slot to check it.
        dim = 3 * g - 3 + n
        forms: dict[tuple[int, ...], Form] = {}
        level = self._level(g, n)  # dropped with this frame
        for rest in _sorted_tuples(n - 1, dim):
            top = rest[-1] if rest else 0
            room = dim - sum(rest)
            if top > room:
                continue
            for k1, f in self._read_off(g, n, rest, -2 * top - 2, level).items():
                if k1 > room:
                    raise AssertionError(
                        f"dimension bound violated at ({g}, {n}): k = {rest + (k1,)}"
                    )
                forms[rest + (k1,)] = f
        return Correlator(g, n, forms, self.curve.pack, self.weight)

    # -- diagnostics ------------------------------------------------------------

    def all_slots_agree(self, g: int, n: int) -> bool:
        """Rebuild every entry of w_{g,n} from each of its slots and compare.

        True when, for every rest and every k1, the full read-off (all poles,
        not only those from the largest slot on) equals the stored entry at
        (k1,) + rest as a reduced Form, and no pole lies beyond the dimension
        bound.  This is the symmetry check that ``_compute`` leaves out of
        the hot path.
        """
        corr = self.correlator(g, n)
        dim = 3 * g - 3 + n
        level = self._level(g, n)
        for rest in _sorted_tuples(n - 1, dim):
            room = dim - sum(rest)
            got = self._read_off(g, n, rest, -1, level)
            if any(k1 > room for k1 in got):
                return False
            for k1 in range(room + 1):
                if got.get(k1) != corr.form((k1,) + rest):
                    return False
        return True

    def loop_equation_negative_residual(self, g: int, n: int) -> bool:
        """Recombine 2*eta*w - W independently and verify the pole part cancels.

        True when, for every slice, all provably-known negative-exponent
        coefficients of 2*eta*w_{g,n} - W_{g,n} vanish.
        """
        self.correlator(g, n)
        two_eta = self.curve.two_eta()
        dim = 3 * g - 3 + n
        level, own = self._level(g, n), self._table_slices(g, n)
        for rest in _sorted_tuples(n - 1, dim):
            sw = own.get(rest)
            lhs = two_eta.mul(sw) if sw is not None else None
            top = 0 if lhs is None or lhs.order is None else min(0, lhs.order)
            top <<= self.curve.pack.zshift  # as a key
            poles = [{k: c for k, c in s.items() if k < top} if s is not None else {}
                     for s in (lhs, self._assemble_w(g, n, rest, level))]
            if poles[0] != poles[1]:
                return False
        return True


def correlators_to_potential(corr: Correlator) -> dict[tuple[int, ...], ParamPoly]:
    """Coefficients of the potential piece F_{g,n} on monomials in t.

    The coefficient of prod t_{k_i} (sorted key) is the correlator entry
    divided by the order of its automorphism group.
    """
    return {key: corr.view(key, (den * aut(key), pairs)) for key, (den, pairs) in corr.forms.items()}

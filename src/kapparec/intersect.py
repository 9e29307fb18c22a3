"""Independent computation of psi and kappa-psi intersection numbers.

Pure psi numbers <tau_{d_1} ... tau_{d_n}>_g are reduced in two steps.  A
key whose smallest exponent is 0 or 1 on a stable (g, n-1) goes through the
string or the dilaton equation, which remove that point.  Every other key is
solved by the DVV (Virasoro) recursion on its largest exponent; in its
quadratic term the genus of each factor is fixed by the dimension
constraint, so each split of the remaining points is evaluated once.  The
base cases are <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.

Kappa insertions are reduced through the time-shift formalism: the class
exp(sum s_i kappa_i) paired with psi^k expands into psi-only numbers with
extra points,

    I(h) = sum_{partitions b of W} (-1)^{len(b)} / prod(mult!)
           * prod h_{b_i} * < tau_k, tau_{b_1+1}, ..., tau_{b_m+1} >_g

with W the complementary weight forced by the dimension, and single kappa
monomials are extracted from I(h) by solving the triangular change of basis
between h-monomials and s-monomials.  All values are cached, optionally on
disk; results are pure functions of the key, so concurrent readers only need
writes to the cache serialized.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .coeffs import s_from_h_formal
from .kappapoly import (
    KappaPoly,
    MixedPoly,
    Partition,
    aut,
    multiplicities,
    multiset_splits,
    partition_weight,
    partitions,
)
from .parampoly import ParamPoly, _trim
from .rationals import fact, odd_df, rat_parse, rat_str

CACHE_VERSION = "kapparec-cache-v1"
CACHE_ENV = "KAPPAREC_CACHE"

Zero = Fraction(0)


def _key_str(g: int, psis: Sequence[int], lam: Sequence[int]) -> str:
    return f"{g};{','.join(map(str, psis))};{','.join(map(str, lam))}"


def parse_key(key: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Inverse of :func:`_key_str`; raises ValueError on a malformed key."""
    parts = key.split(";")
    if len(parts) != 3:
        raise ValueError(f"malformed cache key {key!r}")
    try:
        g, psis, lam = (tuple(int(x) for x in p.split(",")) if p else () for p in parts)
    except ValueError:
        raise ValueError(f"malformed cache key {key!r}") from None
    if len(g) != 1 or min(g + psis) < 0 or any(x < 1 for x in lam):
        raise ValueError(f"malformed cache key {key!r}")
    return g[0], psis, lam


class Cache:
    """Versioned persistent store for intersection numbers.

    Keys are canonical strings "g;d1,...,dn;l1,l2,..." (psi exponents sorted
    ascending, kappa partition non-increasing); values are "p/q".
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[str, str] = {}
        self.dirty = False
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != CACHE_VERSION:
            raise ValueError(
                f"cache version mismatch: {payload.get('version')!r} != {CACHE_VERSION!r}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise ValueError("corrupted cache file: no entries map")
        for k, v in entries.items():
            try:
                rat_parse(v)
            except (AttributeError, ValueError, ZeroDivisionError):
                raise ValueError(f"corrupted cache file: bad value {v!r} at {k}") from None
            self.data[k] = v
        self.path = path

    def save(self, path: str | None = None) -> str:
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        payload = {"version": CACHE_VERSION, "entries": dict(sorted(self.data.items()))}
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
        self.path = path
        self.dirty = False
        return path

    def get(self, g: int, psis: Sequence[int], lam: Sequence[int]) -> Fraction | None:
        v = self.data.get(_key_str(g, psis, lam))
        return rat_parse(v) if v is not None else None

    def put(self, g: int, psis: Sequence[int], lam: Sequence[int], value: Fraction) -> None:
        k = _key_str(g, psis, lam)
        old = self.data.get(k)
        new = rat_str(value)
        if old is not None and old != new:
            raise ValueError(f"cache collision at {k}: {old} vs {new}")
        if old is None:
            self.data[k] = new
            self.dirty = True

    def stats(self) -> dict[str, int]:
        pure = sum(1 for k in self.data if k.endswith(";"))
        return {"entries": len(self.data), "psi_only": pure, "with_kappa": len(self.data) - pure}


def default_cache_path() -> str | None:
    return os.environ.get(CACHE_ENV)


class IntersectionOracle:
    def __init__(self, cache: Cache | None = None):
        self.cache = cache
        self._kw: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._kpsi: dict[tuple[int, tuple[int, ...], Partition], Fraction] = {}

    # -- pure psi numbers ----------------------------------------------------

    def kw_number(self, g: int, ds: Sequence[int]) -> Fraction:
        """<tau_{d_1} ... tau_{d_n}>_g, zero off the dimension constraint."""
        ds = tuple(sorted(ds))
        n = len(ds)
        if g < 0 or n < 1 or any(d < 0 for d in ds):
            return Zero
        if 2 * g - 2 + n <= 0:
            return Zero
        if sum(ds) != 3 * g - 3 + n:
            return Zero
        key = (g, ds)
        hit = self._kw.get(key)
        if hit is not None:
            return hit
        if self.cache is not None:
            c = self.cache.get(g, ds, ())
            if c is not None:
                self._kw[key] = c
                return c
        if ds[0] <= 1 and 2 * g - 3 + n > 0:
            val = self._string_dilaton(g, ds)
        else:
            val = self._kw_recurse(g, ds)
        self._kw[key] = val
        if self.cache is not None:
            self.cache.put(g, ds, (), val)
        return val

    def _string_dilaton(self, g: int, ds: tuple[int, ...]) -> Fraction:
        """Remove the tau_0 (string) or tau_1 (dilaton) point ds[0]; (g, n-1) is stable."""
        rest = ds[1:]
        if ds[0] == 1:
            return (2 * g - 2 + len(rest)) * self.kw_number(g, rest)
        total = Zero
        for v, m in multiplicities(rest).items():
            if v:
                lowered = list(rest)
                lowered[lowered.index(v)] = v - 1
                total += m * self.kw_number(g, lowered)
        return total

    def _kw_recurse(self, g: int, ds: tuple[int, ...]) -> Fraction:
        """DVV recursion on the largest exponent ds[-1] of the sorted key."""
        k1 = ds[-1]
        mu = ds[:-1]
        rhs = Zero
        # string-type merge terms
        mult = multiplicities(mu)
        for v, m in mult.items():
            idx = k1 + v - 1
            if idx < 0:
                continue
            rest = list(mu)
            rest.remove(v)
            rhs += (
                m
                * Fraction(odd_df(idx), odd_df(v - 1))
                * self.kw_number(g, (idx, *rest))
            )
        # quadratic terms
        for a in range(0, k1 - 1):
            b = k1 - 2 - a
            coeff = Fraction(odd_df(a) * odd_df(b), 2)
            rhs += coeff * self.kw_number(g - 1, (a, b, *mu))
            for alpha, beta, ways in _multiset_splits(mu):
                # <tau_a alpha>_{g1} is off dimension unless this divides exactly
                g1, r = divmod(a + sum(alpha) + 2 - len(alpha), 3)
                if r or g1 < 0 or g1 > g:
                    continue
                v1 = self.kw_number(g1, (a, *alpha))
                if v1:
                    rhs += coeff * ways * v1 * self.kw_number(g - g1, (b, *beta))
        # constraint constants
        if g == 0 and k1 == 0 and mu == (0, 0):
            rhs += 1
        if g == 1 and k1 == 1 and not mu:
            rhs += Fraction(1, 8)
        return rhs / odd_df(k1)

    # -- kappa via the shift -------------------------------------------------

    def kclass_psi(self, g: int, psis: Sequence[int], hvals: Mapping[int, Fraction | ParamPoly]):
        """Integral of exp(sum s_i(h) kappa_i) * prod psi^k against given h-values.

        The h-values may be Fractions or ParamPolys (formal parameters ride
        along).  Only the dimension-forced weight contributes.
        """
        psis = tuple(sorted(psis))
        n = len(psis)
        w = 3 * g - 3 + n - sum(psis)
        if w < 0:
            return Zero
        if w == 0:
            return self.kw_number(g, psis)
        symbolic = any(isinstance(hvals.get(i), ParamPoly) for i in range(1, w + 1))
        total: Fraction | ParamPoly = ParamPoly.zero() if symbolic else Zero
        for b in partitions(w):
            extra = tuple(x + 1 for x in b)
            base = self.kw_number(g, psis + extra)
            if not base:
                continue
            term = base * Fraction((-1) ** len(b), aut(b))
            for part in b:
                hv = hvals.get(part, Zero)
                if isinstance(hv, ParamPoly):
                    term = hv * term
                else:
                    term = term * hv
                if not term:
                    break
            if isinstance(term, ParamPoly) and not symbolic:
                raise TypeError("mixed symbolic/numeric h-values")
            if not term:
                continue
            total = term + total
        return total

    def kappa_psi_number(self, g: int, n: int, psis: Sequence[int], lam: Sequence[int]) -> Fraction:
        """Integral of the kappa monomial kappa_lam times prod psi_i^{k_i}."""
        psis = tuple(sorted(psis))
        lam = tuple(sorted(lam, reverse=True))
        if len(psis) != n:
            raise ValueError("psi exponent count must equal n")
        if 2 * g - 2 + n <= 0:
            raise ValueError("unstable (g, n)")
        if not lam:
            return self.kw_number(g, psis)
        w = partition_weight(lam)
        if w + sum(psis) != 3 * g - 3 + n:
            return Zero
        key = (g, psis, lam)
        hit = self._kpsi.get(key)
        if hit is not None:
            return hit
        if self.cache is not None:
            c = self.cache.get(g, psis, lam)
            if c is not None:
                self._kpsi[key] = c
                return c
        self._solve_kappa_family(g, psis, w)
        return self._kpsi[key]

    def _solve_kappa_family(self, g: int, psis: tuple[int, ...], w: int) -> None:
        """Solve for all kappa-monomial integrals of weight w at once.

        The shift gives the h-polynomial I(h); expanding exp(sum s_i kappa_i)
        in h gives I(h) = sum_lam Q_lam(h) * I_lam with Q_lam = prod
        s_i(h)^{a_i}/a_i!, a triangular linear system over the h-monomials of
        weight w.
        """
        lams = partitions(w)
        basis = {lam: i for i, lam in enumerate(lams)}
        s_formal = s_from_h_formal(w)
        svals = {i + 1: s_formal[i] for i in range(w)}
        # I(h) from the shift expansion
        ih = self.kclass_psi(g, psis, {i: ParamPoly.h(i) for i in range(1, w + 1)})
        if not isinstance(ih, ParamPoly):
            ih = ParamPoly.const(ih)
        # matrix rows indexed by h-monomials (also partitions of w)
        m = len(lams)
        mat = [[Zero] * m for _ in range(m)]
        rhs = [Zero] * m
        hkey = {}
        for i, mu in enumerate(lams):
            mm = multiplicities(mu)
            hexp = [0] * w
            for v, e in mm.items():
                hexp[v - 1] = e
            hkey[(0, _trim(tuple(hexp)))] = i
        for kterm, c in ih.terms.items():
            if kterm not in hkey:
                raise AssertionError(f"unexpected monomial in shift expansion: {kterm}")
            rhs[hkey[kterm]] = c
        for j, lam in enumerate(lams):
            q = ParamPoly.one()
            for v, e in multiplicities(lam).items():
                q = q * svals[v] ** e * Fraction(1, fact(e))
            for kterm, c in q.terms.items():
                row = hkey.get(kterm)
                if row is None:
                    raise AssertionError("Q_lam monomial outside weight basis")
                mat[row][j] += c
        sol = _solve_exact(mat, rhs)
        for lam, x in zip(lams, sol):
            self._kpsi[(g, psis, lam)] = x
            if self.cache is not None:
                self.cache.put(g, psis, lam, x)

    # -- linear extension ------------------------------------------------------

    def integrate(self, P: KappaPoly | MixedPoly, g: int, n: int) -> Fraction:
        """Pairing of a kappa or kappa-psi polynomial on the (g, n) space.

        Off-dimension terms contribute zero.
        """
        dim = 3 * g - 3 + n
        total = Zero
        if isinstance(P, KappaPoly):
            zeros = (0,) * n
            for lam, c in P.terms.items():
                if partition_weight(lam) == dim:
                    total += c * self.kappa_psi_number(g, n, zeros, lam)
            return total
        if P.n != n:
            raise ValueError("point count mismatch")
        for (lam, a), c in P.terms.items():
            if partition_weight(lam) + sum(a) == dim:
                total += c * self.kappa_psi_number(g, n, tuple(sorted(a)), lam)
        return total


# the DVV recursion splits the same few multisets many times over
_multiset_splits = lru_cache(maxsize=None)(multiset_splits)


def _solve_exact(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fractions; raises on a singular system."""
    m = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular system in kappa-basis solve")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]

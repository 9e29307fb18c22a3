"""Independent computation of psi and kappa-psi intersection numbers.

Pure psi numbers are computed as the integers

    N(g; d) = 8^chi prod (2d_i+1)!! <tau_{d_1} ... tau_{d_n}>_g,   chi = 2g-2+n,

after the normalized DVV (Dijkgraaf-Verlinde-Verlinde 1991) of Liu-Xu 2007.
A key whose smallest exponent is 0 or 1 on a stable (g, n-1) goes through the
string or the dilaton equation, N(g; 0, mu) = 8 sum_v m_v (2v+1) N(g; mu with
one v lowered) or N(g; 1, mu) = 24 (2g-3+n) N(g; mu), with m_v the
multiplicity of v in mu.  Every other key is solved by DVV on its smallest
exponent k, plus N(0; 0,0,0) = 8 and N(1; 1) = 1:

    N(g; k, mu) = 8 sum_v m_v (2v+1) N(g; k+v-1, mu minus v) + 4 sum_{a+b=k-2}
        [N(g-1; a, b, mu) + sum_{alpha+beta=mu} N(g1; a, alpha) N(g-g1; b, beta)].

The bracket is unchanged by the mirror (a, alpha, g1) <-> (b, beta, g - g1),
so a <= b is summed and a < b counts twice; the dimension fixes
3 g1 = a + sum(alpha) + 2 - len(alpha), so a steps by 3 in one residue class per
split while 0 <= g1 <= g.  DVV holds at any point; the smallest k keeps the
sum over a + b = k - 2 shortest, so the recursion reaches fewer keys (272 for
the one-point ladder to g = 10, 779 on the largest k).  N is an integer by
induction on chi: the string,
dilaton and merge terms have chi - 1 and integer coefficients, so 8^chi gives
them a factor 8; the other terms carry DVV's one 1/2 and chi's summing to
chi - 1, so they get 8/2 = 4.

Kappa insertions are reduced by the set-partition formula of
Arbarello-Cornalba and Kaufmann-Manin-Zagier, which inverts the push-forward
of psi classes along the maps forgetting points:

    < prod tau_{d_i} kappa_{b_1} ... kappa_{b_m} >_g
        = sum_{set partitions P of [m]} (-1)^{m - |P|}
          < prod tau_{d_i} prod_{B in P} tau_{b_B + 1} >_g,   b_B = sum_{j in B} b_j.

The partitions are not listed: ``signed_block_keys`` counts them by their
merged key sorted(b_B + 1) with a DP on the block holding the first kappa.
Each merged key is stable and on dimension, and its scale is _scale(g, d)
times f = 8^|P| prod (2 b_B + 3)!!, so one denominator D = lcm(f) per kappa
monomial turns the sum into sum count * (D / f) * N(g; d, merged) over
integers, divided once by _scale(g, d) * D.

The exponential class exp(sum s_i kappa_i), with its shift coordinates
h_i given numerically, is paired with psi^k through the time-shift
expansion (kclass_psi)

    I(h) = sum_{partitions b of W} (-1)^{len(b)} / prod(mult!)
           * prod h_{b_i} * < tau_k, tau_{b_1+1}, ..., tau_{b_m+1} >_g

with W the complementary weight forced by the dimension; the two routes
share only the psi numbers.  All values are cached, optionally on disk;
results are pure functions of the key, so concurrent readers only need
writes to the cache serialized.  The memo of the N is keyed by the sorted
exponent tuple alone: every key the recursion asks for is on dimension, and
sum(d) = 3g-3+n fixes g.  Disk-cache keys still carry g.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .kappapoly import (
    KappaPoly,
    Partition,
    aut,
    cached_multiset_splits,
    insert_sorted,
    partitions,
    signed_block_keys,
)
from .rationals import odd_df, rat_parse, rat_str

CACHE_VERSION = "kapparec-cache-v1"
CACHE_ENV = "KAPPAREC_CACHE"

Zero = Fraction(0)


def _scale(g: int, ds: Sequence[int]) -> int:
    """8^(2g-2+n) prod (2d_i+1)!!, the factor taking <tau_ds>_g to the integer N(g, ds)."""
    return 8 ** (2 * g - 2 + len(ds)) * prod(map(odd_df, ds))


@lru_cache(maxsize=None)
def _block_terms(lam: Partition) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """signed_block_keys of the non-increasing lam over one denominator D:
    pairs (key, count * D / f) and D = lcm of the f = 8^len(key) prod (2s+1)!!,
    the factor by which _scale(g, psis + key) exceeds _scale(g, psis)."""
    keys = signed_block_keys(lam[::-1])
    factors = [8 ** len(key) * prod(map(odd_df, key)) for key, _ in keys]
    d = lcm(*factors)
    return tuple((key, c * (d // f)) for (key, c), f in zip(keys, factors)), d


def _key_str(g: int, psis: Sequence[int], lam: Sequence[int]) -> str:
    return f"{g};{','.join(map(str, psis))};{','.join(map(str, lam))}"


# a key as _key_str writes it, with no leading zeros, so that each loaded key
# saves back as the same string; groups: the genus, the psis and the kappa parts
_NUM = "(?:0|[1-9][0-9]*)"
_KEY = re.compile(rf"({_NUM});((?:{_NUM},)*{_NUM})?;((?:[1-9][0-9]*,)*[1-9][0-9]*)?")


def _off_lattice(g: int, psis: tuple[int, ...], q: int) -> bool:
    """Whether no psi number at the psi-only key (g, psis) has denominator q,
    on a stable (g, n): off dimension, or q not dividing _scale, tested
    without forming _scale (a key may hold a huge exponent) by dividing out
    odd factors until 1, or until q is itself one of the factors to come."""
    chi = 2 * g - 2 + len(psis)
    if chi <= 0:
        return False
    if sum(psis) != 3 * g - 3 + len(psis):
        return True
    twos = (q & -q).bit_length() - 1
    q >>= twos
    for d in psis:
        j, top = 3, 2 * d + 1
        while q != 1 and j <= top:
            q = 1 if j <= q <= top else q // gcd(q, j)  # a q still to come divides
            j += 2
    return q != 1 or twos > 3 * chi


class _Numbers(dict):
    """Digit string -> int, each distinct string converted once: keys repeat
    the same small numbers, and a dict hit costs less than int()."""

    def __missing__(self, s: str) -> int:
        self[s] = n = int(s)
        return n


class Cache:
    """Versioned persistent store for intersection numbers.

    ``data`` maps (g, psis, lam) (psi exponents sorted ascending, kappa partition
    non-increasing) to a Fraction; on disk, keys are _key_str's "g;d1,...,dn;l1,l2,..."
    and values are "p/q"."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[tuple[int, tuple[int, ...], tuple[int, ...]], Fraction] = {}
        self.dirty = False
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("corrupted cache file: not a JSON object")
        if payload.get("version") != CACHE_VERSION:
            raise ValueError(
                f"cache version mismatch: {payload.get('version')!r} != {CACHE_VERSION!r}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise ValueError("corrupted cache file: no entries map")
        num = _Numbers().__getitem__
        for k, v in entries.items():
            try:
                value = rat_parse(v)
            except (AttributeError, ValueError, ZeroDivisionError):
                raise ValueError(f"corrupted cache file: bad value {v!r} at {k}") from None
            try:
                sg, sp, sl = _KEY.fullmatch(k).groups()
                g = num(sg)
                psis = tuple(map(num, sp.split(","))) if sp else ()
                lam = tuple(map(num, sl.split(","))) if sl else ()
            except (AttributeError, ValueError):  # no match, or a number past int's digit limit
                raise ValueError(f"corrupted cache file: malformed key {k!r}") from None
            if value.denominator != 1 and not lam and _off_lattice(g, psis, value.denominator):
                raise ValueError(f"corrupted cache file: {v} at {k} is not a psi number")
            self.data[g, psis, lam] = value
        self.path = path

    def save(self, path: str | None = None) -> str:
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        entries = {_key_str(*k): rat_str(v) for k, v in self.data.items()}
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"version": CACHE_VERSION, "entries": entries}, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
        self.path = path
        self.dirty = False
        return path

    def get(self, g: int, psis: Sequence[int], lam: Sequence[int]) -> Fraction | None:
        return self.data.get((g, tuple(psis), tuple(lam)))

    def put(self, g: int, psis: Sequence[int], lam: Sequence[int], value: Fraction) -> None:
        key = (g, tuple(psis), tuple(lam))
        old = self.data.get(key)
        if old is None:
            self.data[key] = value
            self.dirty = True
        elif old != value:
            raise ValueError(f"cache collision at {_key_str(*key)}: {old} vs {value}")

    def stats(self) -> dict[str, int]:
        pure = sum(1 for _, _, lam in self.data if not lam)
        return {"entries": len(self.data), "psi_only": pure, "with_kappa": len(self.data) - pure}


class IntersectionOracle:
    def __init__(self, cache: Cache | None = None):
        self.cache = cache
        self._kw: dict[tuple[int, ...], int] = {}  # N by sorted on-dimension key
        self._kpsi: dict[tuple[int, tuple[int, ...], Partition], Fraction] = {}

    # -- pure psi numbers ----------------------------------------------------

    def kw_number(self, g: int, ds: Sequence[int]) -> Fraction:
        """<tau_{d_1} ... tau_{d_n}>_g, zero off the dimension constraint."""
        ds = tuple(sorted(ds))
        n = len(ds)
        if g < 0 or n < 1 or ds[0] < 0 or 2 * g - 2 + n <= 0 or sum(ds) != 3 * g - 3 + n:
            return Zero
        return Fraction(self._normalized(g, ds), _scale(g, ds))

    def _normalized(self, g: int, ds: tuple[int, ...]) -> int:
        """N(g, ds) of a sorted on-dimension key; 0 when (g, n) is unstable.

        The memo is keyed by ds alone: on dimension, sum(ds) = 3g-3+n fixes
        g, so no lookup builds a (g, ds) pair.  The cache keys carry g."""
        n = len(ds)
        if g < 0 or 2 * g - 2 + n <= 0:
            return 0
        hit = self._kw.get(ds)
        if hit is not None:
            return hit
        if self.cache is not None:
            c = self.cache.get(g, ds, ())
            if c is not None:
                c *= _scale(g, ds)
                if c.denominator != 1:
                    raise ValueError(f"cache entry {_key_str(g, ds, ())} is not a psi number")
                self._kw[ds] = c.numerator
                return c.numerator
        rest = ds[1:]
        if ds[0] == 1 and 2 * g - 3 + n > 0:  # dilaton
            val = 24 * (2 * g - 3 + n) * self._normalized(g, rest)
        elif ds[0] == 0 and 2 * g - 3 + n > 0:  # string
            # each distinct v > 0 of rest, at its first slot i and multiplicity j - i;
            # lowering that slot keeps the key sorted
            val = 0
            i, end = bisect_right(rest, 0), len(rest)
            while i < end:
                v = rest[i]
                j = bisect_right(rest, v, i)
                val += (j - i) * (2 * v + 1) * self._normalized(g, rest[:i] + (v - 1,) + rest[i + 1 :])
                i = j
            val *= 8
        else:
            val = self._dvv(g, ds)
        self._kw[ds] = val
        if self.cache is not None:
            self.cache.put(g, ds, (), Fraction(val, _scale(g, ds)))
        return val

    def _dvv(self, g: int, ds: tuple[int, ...]) -> int:
        """DVV recursion for N on the smallest exponent ds[0] of the sorted key,
        at least 2 but at the two bases (string and dilaton take 0 and 1)."""
        k1, mu = ds[0], ds[1:]
        kw = self._kw
        merged = 0
        # each distinct v of mu, at its first slot i and multiplicity j - i
        i, end = 0, len(mu)
        while i < end:
            v = mu[i]
            j = bisect_right(mu, v, i)
            if k1 + v:
                merged += (j - i) * (2 * v + 1) * self._normalized(g, insert_sorted(mu[:i] + mu[i + 1 :], k1 + v - 1))
            i = j
        half = (k1 - 2) // 2
        quadratic = 0
        # a <= b < k1 <= every part of mu, so the keys below are sorted as built;
        # memo hits are read without the call; `or` falls through on a miss (or a stored 0)
        for a in range(half + 1):
            b = k1 - 2 - a
            key = (a, b) + mu
            v = kw.get(key) or self._normalized(g - 1, key)
            quadratic += v if a == b else 2 * v
        for alpha, beta, ways in cached_multiset_splits(mu):
            # N(g1; a, alpha) is on dimension at a = 3 g1 - s, and 0 <= g1 <= g
            s = sum(alpha) + 2 - len(alpha)
            for a in range(max(-s, -s % 3), min(half, 3 * g - s) + 1, 3):
                g1 = (a + s) // 3
                key = (a,) + alpha
                v1 = kw.get(key) or self._normalized(g1, key)
                if v1:
                    b = k1 - 2 - a
                    key = (b,) + beta
                    v2 = kw.get(key) or self._normalized(g - g1, key)
                    quadratic += (ways if a == b else 2 * ways) * v1 * v2
        base = 8 if (g, ds) == (0, (0, 0, 0)) else 1 if (g, ds) == (1, (1,)) else 0
        return 8 * merged + 4 * quadratic + base

    # -- kappa classes ---------------------------------------------------------

    def kclass_psi(self, g: int, psis: Sequence[int], hvals: Mapping[int, Fraction]) -> Fraction:
        """Integral of exp(sum s_i(h) kappa_i) * prod psi^k at the given
        h-values; only the dimension-forced weight contributes.

        The h-values are numbers.  Ring elements that multiply and add with
        Fractions from either side pass through unchanged (the weak-curve
        checks give eps-polynomials), but no formal h is solved for.
        """
        psis = tuple(sorted(psis))
        n = len(psis)
        w = 3 * g - 3 + n - sum(psis)
        if w < 0:
            return Zero
        if w == 0:
            return self.kw_number(g, psis)
        total = Zero
        for b in partitions(w):
            term = self.kw_number(g, psis + tuple(x + 1 for x in b))
            if not term:
                continue
            term *= Fraction((-1) ** len(b), aut(b))
            for part in b:
                term *= hvals.get(part, Zero)
            total += term
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
        if lam[-1] < 0:
            raise ValueError("kappa indices must be non-negative")
        if not lam[-1]:  # each kappa_0 is the scalar 2g-2+n, and no key holds one
            z = lam.count(0)
            return (2 * g - 2 + n) ** z * self.kappa_psi_number(g, n, psis, lam[:-z])
        if sum(lam) + sum(psis) != 3 * g - 3 + n or (psis and psis[0] < 0):
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
        terms, d = _block_terms(lam)
        num = 0
        for merged, c in terms:
            ds = tuple(sorted(psis + merged))
            num += c * (self._kw.get(ds) or self._normalized(g, ds))
        val = Fraction(num, _scale(g, psis) * d)
        self._kpsi[key] = val
        if self.cache is not None:
            self.cache.put(g, psis, lam, val)
        return val

    # -- linear extension ------------------------------------------------------

    def integrate(self, P: KappaPoly, g: int, n: int) -> Fraction:
        """Pairing of a kappa-psi polynomial on the (g, n) space; a kappa-only
        polynomial is lifted to n points.

        Off-dimension terms contribute zero.
        """
        dim = 3 * g - 3 + n
        total = Zero
        for (lam, a), c in P.with_points(n).terms.items():
            if sum(lam) + sum(a) == dim:
                total += c * self.kappa_psi_number(g, n, tuple(sorted(a)), lam)
        return total



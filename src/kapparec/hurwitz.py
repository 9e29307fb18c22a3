"""Monotone Hurwitz numbers three ways.

A monotone factorization of length m in S(d) is a tuple of transpositions
(a_1,b_1)...(a_m,b_m), a_i < b_i, with b_1 <= ... <= b_m, whose product has a
prescribed cycle type and whose entries generate a transitive subgroup; m is
tied to the genus by m = 2g - 2 + n + d.  The brute-force route counts them
directly in S(d), by a dynamic program over the states (last b, product
permutation, components).  The reported number is the raw count times
prod(mult_j!) over d!, the normalization under which all three routes agree.

The other two routes go through the curve y = z/(1-z^2):  re-expanding its
correlators at z = 1 in the coordinate X with z = -sqrt(1-4X), and the
ELSV-type pairing against exp(sum (-1)^i s_i kappa_i) with Phi-factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Sequence

from .intersect import IntersectionOracle
from .kappapoly import aut, insert_sorted
from .rationals import odd_df
from .toprec import Correlator, Engine


class BudgetError(Exception):
    """Enumeration would exceed the configured search budget."""


DEFAULT_D_MAX = 6
DEFAULT_M_MAX = 8


def transposition_count(g: int, partition: Sequence[int]) -> int:
    """m = 2g - 2 + n + d."""
    return 2 * g - 2 + len(partition) + sum(partition)


def brute_force(
    g: int,
    partition: Sequence[int],
    d_max: int = DEFAULT_D_MAX,
    m_max: int = DEFAULT_M_MAX,
) -> Fraction:
    """Count monotone transitive factorizations directly in S(d).

    A dynamic program over the states (smallest allowed next b, product
    permutation, component labels): each step extends every state by each
    transposition (a, b) with b >= the state's bound and a < b, merging the
    components of a and b, and adds the number of prefixes reaching a state.
    A state is dropped once its components cannot be joined in the steps left.
    The raw count of transitive tuples whose product has the target cycle
    type is normalized by prod(mult_j!) / d!; the automorphism factor is
    forced by matching the two generating-function routes on repeated-part
    partitions (any repetition-free key, e.g. (2) at genus 1, fixes only the
    1/d!).
    """
    partition = tuple(sorted(partition, reverse=True))
    d = sum(partition)
    m = transposition_count(g, partition)
    if d < 1 or any(k < 1 for k in partition):
        raise ValueError("partition parts must be positive")
    if g < 0:
        raise ValueError("genus must be non-negative")
    if d > d_max or m > m_max:
        raise BudgetError(
            f"need d <= {d}, m <= {m}; configured budget is d <= {d_max}, m <= {m_max}"
        )

    # a component is labelled by its smallest point, so one component reads (0,) * d
    states = {(1, tuple(range(d)), tuple(range(d))): 1}
    for step in range(m):
        left = m - step - 1
        nxt: dict[tuple, int] = {}
        for (min_b, perm, labels), count in states.items():
            comps = len(set(labels))
            for b in range(min_b, d):
                for a in range(b):
                    lo, hi = sorted((labels[a], labels[b]))
                    if comps - (lo != hi) - 1 > left:
                        continue  # cannot become transitive in the remaining steps
                    merged = labels
                    if lo != hi:
                        merged = tuple(lo if lab == hi else lab for lab in labels)
                    new = list(perm)
                    new[a], new[b] = new[b], new[a]
                    key = (b, tuple(new), merged)
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    connected = (0,) * d
    count = sum(
        c
        for (_, perm, labels), c in states.items()
        if labels == connected and _cycle_type(perm) == partition
    )
    return Fraction(count * aut(partition), factorial(d))


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    cycles = []
    for x in range(len(perm)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


# -- ELSV-type route ---------------------------------------------------------------


def phi_coeffs(k: Fraction, deg: int) -> list[Fraction]:
    """Coefficients of Phi_k(psi) = sum_i prod_{j=1}^i (2(j+k)-1) psi^i."""
    out = [Fraction(1)]
    for i in range(1, deg + 1):
        out.append(out[-1] * (2 * (Fraction(k) + i) - 1))
    return out


def kstar_hvals(w: int) -> dict[int, Fraction]:
    """h-coordinates of exp(sum (-1)^i s_i kappa_i): h_k = (2k+1)!!."""
    return {k: Fraction(odd_df(k)) for k in range(1, w + 1)}


def pvec(oracle: IntersectionOracle, g: int, args: Sequence[Fraction]) -> Fraction:
    """The symmetric polynomial P(k_1..k_n): pairing of the K* class with
    prod Phi_{k_i}(psi_i); defined for arbitrary rational arguments."""
    n = len(args)
    if 2 * g - 2 + n <= 0:
        raise ValueError("outside stable range")
    dim = 3 * g - 3 + n
    phis = [phi_coeffs(Fraction(k), dim) for k in args]
    hv = kstar_hvals(dim)
    return _slot_sum(n, dim, lambda key: oracle.kclass_psi(g, key, hv), lambda i, e: phis[i][e])


def _slot_sum(n: int, dim: int, value: Callable[[tuple[int, ...]], Fraction],
              factor: Callable[[int, int], Fraction]) -> Fraction:
    """sum of value(sorted(e)) * prod_i factor(i, e_i) over the n-tuples e of
    non-negative ints with sum(e) <= dim.  A dynamic program over sorted keys:
    slot by slot, each key's summed factor product is extended by every
    exponent with a nonzero factor that still fits under dim.  value is read
    once per key whose summed product is nonzero."""
    acc: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for i in range(n):
        row = [(e, f) for e in range(dim + 1) if (f := factor(i, e))]
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, c in acc.items():
            room = dim - sum(key)
            for e, f in row:
                if e > room:
                    break
                k = insert_sorted(key, e)
                nxt[k] = nxt.get(k, 0) + c * f
        acc = nxt
    return sum((c * value(key) for key, c in acc.items() if c), Fraction(0))


def elsv_value(oracle: IntersectionOracle, g: int, partition: Sequence[int]) -> Fraction:
    """Monotone Hurwitz number as prod binom(2k_i, k_i) times the P-pairing."""
    partition = tuple(partition)
    return prod(comb(2 * k, k) for k in partition) * pvec(oracle, g, [Fraction(k) for k in partition])


# -- re-expansion of correlators at z = 1 ------------------------------------------


def x_coeff(k: int, i: int) -> Fraction:
    """Coefficient of X^{i-1} dX in (2k+1)!! dz/z^{2k+2} under z = -sqrt(1-4X):
    i * binom(2i, i) * prod_{j=1}^k (2i + 2j - 1)."""
    if i < 1:
        return Fraction(0)
    run = Fraction(i * comb(2 * i, i))
    for j in range(1, k + 1):
        run *= 2 * i + 2 * j - 1
    return run


def expand_at_one(corr: Correlator, partition: Sequence[int]) -> Fraction:
    """Read the monotone Hurwitz number off a K*-curve correlator.

    The number is the coefficient of prod k_i X_i^{k_i-1} dX_i in the
    re-expanded form, i.e. sum over exponent tuples of entry * prod
    x_coeff(e_i, k_i) / prod k_i.
    """
    partition = tuple(partition)
    n = len(partition)
    if corr.n != n:
        raise ValueError("correlator has wrong point count")
    if 2 * corr.g - 2 + n <= 0:
        raise ValueError("outside stable range")
    dim = 3 * corr.g - 3 + n
    total = _slot_sum(n, dim, lambda key: corr.value(key).as_fraction(), lambda i, e: x_coeff(e, partition[i]))
    return total / prod(partition)


def hurwitz_three_ways(
    oracle: IntersectionOracle,
    engine: Engine,
    g: int,
    partition: Sequence[int],
) -> dict[str, Fraction | None]:
    """All available routes; brute force is skipped (None) beyond its budget."""
    partition = tuple(sorted(partition, reverse=True))
    corr = engine.correlator(g, len(partition))
    out: dict[str, Fraction | None] = {
        "expand": expand_at_one(corr, partition),
        "elsv": elsv_value(oracle, g, partition),
    }
    try:
        out["brute"] = brute_force(g, partition)
    except BudgetError:
        out["brute"] = None
    return out

"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
infeasible budget.  All emitted artifacts are byte-deterministic for a given
invocation (sorted keys, canonical "p/q" strings).

A verify suite is a generator ``suite(args, budget, oracle)`` of
``(row, passed, checks)``: the report line (None for checks that print no
line), whether its check held, and how many checks it ran.  ``cmd_verify``
alone turns the rows into a verdict: it computes the effective budget, notes
a capped one, settles the cache, and reports PASS, FAIL, or "nothing
checked" when the checks sum to zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .epsilonlab import admissible, check_regularity, verify_vanishing
from .hurwitz import BudgetError, hurwitz_three_ways
from .intersect import CACHE_ENV, Cache, IntersectionOracle, _key_str
from .kappapoly import j_polys, k_polys, p_polys, partitions
from .rationals import rat_str
from .tautools import (
    Potential,
    bgw_bootstrap,
    htilde_unshifted,
    kdv_residual,
    virasoro_rows,
    virk_rows,
)
from .toprec import FAMILIES, Engine, InsufficientOrderError, build_curve, required_order

USAGE_ERROR = 2
CHECK_FAILED = 1

_FAMILY_POLYS = {"k": k_polys, "j": j_polys, "p": p_polys}


def _emit(args, payload) -> None:
    """Write a pretty string as is, anything else as sorted, indented JSON."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class UsageError(Exception):
    """Bad input found after argument parsing; main() prints it and exits 2."""


def _open_cache(path: str) -> Cache:
    try:
        return Cache(path)
    except (ValueError, OSError) as exc:
        raise UsageError(f"cannot open cache: {exc}") from exc


def _oracle(args) -> IntersectionOracle:
    """The oracle on the --cache file, or on $KAPPAREC_CACHE."""
    path = args.cache or os.environ.get(CACHE_ENV)
    return IntersectionOracle(_open_cache(path) if path else None)


def _settle_cache(oracle: IntersectionOracle | None, ok: bool) -> bool:
    """Save the oracle's cache file after a run, unless a failure is its fault.

    After a failed check, each entry of the file the oracle read that a
    cacheless oracle does not reproduce is named on stderr; if there is one,
    the file is left unchanged and True is returned.
    """
    cache = oracle and oracle.cache
    if cache is None:
        return False
    if not ok:
        bad = _bad_entries(_open_cache(cache.path))
        for key, what in bad.items():
            print(f"bad cache entry {key}: {what}", file=sys.stderr)
        if bad:
            return True
    if cache.dirty:
        cache.save()
    return False


def _check_family(family: str, allowed) -> None:
    if family not in allowed:
        raise UsageError(f"--family must be one of {sorted(allowed)}")


def _top(budget: int) -> tuple[int, int]:
    """The deepest (g, n) of a level budget: the top level at its largest genus."""
    g = (budget + 1) // 2
    return g, budget + 2 - 2 * g


def _engine(family: str, g: int, n: int) -> Engine:
    """An engine deep enough for every correlator up to (g, n).

    The two-parameter families carry formal h_1..h_{3g-3+n} and drop
    monomials of higher h-weight.  The unstable (g, n) a budget below level 1
    gives is never asked for a correlator, so its curve order and h count
    are only kept buildable (no h count below 0, which would zero y).
    """
    cap = max(3 * g - 3 + n, 0) if family.startswith("weak") else None
    curve = build_curve(family, max(required_order(g, n), 2), n_h=cap or 0, h_weight_cap=cap)
    return Engine(curve)


def cmd_kappa_polys(args) -> int:
    _check_family(args.family, _FAMILY_POLYS)
    if args.m_max < 0:
        raise UsageError("--m-max must be non-negative")
    polys = _FAMILY_POLYS[args.family](args.m_max)
    name = args.family.upper()
    if args.format == "json":
        _emit(args, {f"{name}{m}": polys[m].to_json() for m in range(args.m_max + 1)})
    else:
        lines = [f"{name}{m} = {polys[m].render()}" for m in range(args.m_max + 1)]
        _emit(args, "\n".join(lines))
    return 0


def cmd_correlators(args) -> int:
    _check_family(args.family, FAMILIES)
    g, n = args.g, args.n
    if n < 1 or 2 * g - 2 + n <= 0:
        raise UsageError("need a stable (g, n) with n >= 1")
    if 2 * g - 2 + n > args.epsilon_budget:
        raise UsageError(f"(g, n) level {2*g-2+n} above --epsilon-budget {args.epsilon_budget}")
    if g < 0:
        raise UsageError("--g must be non-negative")
    _emit(args, _engine(args.family, g, n).correlator(g, n).to_json())
    return 0


def cmd_potentials(args) -> int:
    _check_family(args.family, FAMILIES)
    budget = args.epsilon_budget
    if budget < 0:
        raise UsageError("--epsilon-budget must be non-negative")
    t_max = args.t_max
    if t_max < 0:
        raise UsageError("--t-max must be non-negative")
    pot = Potential.from_engine(_engine(args.family, *_top(budget)), budget)
    payload = {
        "family": args.family,
        "budget": budget,
        "t_max": t_max,
        "coefficients": {
            f"g={g};t={','.join(map(str, mono))}": c.to_triples()
            for (g, mono), c in pot.items()
            if all(i <= t_max for i in mono)
        },
    }
    _emit(args, payload)
    return 0


def _suite_regularity(args, budget, oracle):
    for fam in [args.family] if args.family else ["k", "j", "weak-k", "weak-j"]:
        for rep in check_regularity(_engine(fam, *_top(budget)), budget):
            yield rep.row(), rep.passed, rep.entries
            if not rep.passed:
                # theorem for the K family, conjectural finding otherwise
                yield f"  ^ FAIL ({'build error' if fam == 'k' else 'finding'})", False, 0


def _suite_conjecture(args, budget, oracle):
    # dim = 3g - 3 + n <= budget reaches genus (budget + 3) // 3 at n = 0
    for g in range(0, (budget + 3) // 3 + 1):
        for n in range(0, budget + 4):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > budget or 2 * g - 2 + n <= 0:
                continue
            for m in range(1, dim + 1):
                for style in ("k", "j"):
                    if not admissible(style, g, n, m):
                        continue
                    good = verify_vanishing(oracle, g, n, m, style)
                    yield f"{style.upper()}_{m} on (g,n)=({g},{n}): {'PASS' if good else 'FAIL'}", good, 1


def _suite_virasoro(args, budget, oracle):
    fkw = Potential.kw_from_oracle(oracle, budget + 2)
    for m in range(-1, 4):
        n, bad = virasoro_rows(fkw, m, htilde_unshifted())
        yield f"KW m={m}: rows={n} nonzero={len(bad)}", not bad, n
    fb = bgw_bootstrap(budget + 2)
    for m in range(0, 4):
        n, bad = virk_rows(fb, m, with_eps=False)
        yield f"BGW m={m}: rows={n} nonzero={len(bad)}", not bad, n
    fk = Potential.from_engine(_engine("k", *_top(budget)), budget)
    for m in range(0, 4):
        n, bad = virk_rows(fk, m, with_eps=True)
        yield f"K(eps) m={m}: rows={n} nonzero={len(bad)}", not bad, n


def _suite_kdv(args, budget, oracle):
    for label, pot in (
        ("KW", Potential.kw_from_oracle(oracle, budget)),
        ("BGW", bgw_bootstrap(budget)),
    ):
        n, bad = kdv_residual(pot)
        yield f"{label}: rows={n} nonzero={len(bad)}", not bad, n


def _suite_bgw(args, budget, oracle):
    # the displayed log Z goldens reach hbar^2, i.e. level 6; the bootstrap is cheap
    fb = bgw_bootstrap(max(budget, 6))
    direct = Potential.from_engine(_engine("bgw", *_top(budget)), budget)
    fk = Potential.from_engine(_engine("k", *_top(budget)), budget)
    for (g, mono), c in direct.items():
        if fb.coeff(g, mono) != c:
            yield f"direct != bootstrap at {(g, mono)}", False, 0
    for (g, mono), c in fk.items():
        if c.eps_valuation() < 0:
            yield f"K-family potential irregular at {(g, mono)}", False, 0
        if c.eps_part(0) != fb.coeff(g, mono):
            yield f"eps->0 limit != bootstrap at {(g, mono)}", False, 0
    # the comparisons above print a row only when they fail; count them all here
    yield None, True, len(direct.coeffs) + 2 * len(fk.coeffs)
    goldens = {
        (1, (0,)): Fraction(1, 8),
        (1, (0, 0)): Fraction(1, 16),
        (1, (0, 0, 0)): Fraction(1, 24),
        (2, (1,)): Fraction(3, 128),
        (2, (0, 1)): Fraction(9, 128),
        (3, (2,)): Fraction(15, 1024),
        (3, (1, 1)): Fraction(63, 1024),
    }
    for key, val in goldens.items():
        got = fb.coeff(*key).as_fraction()
        yield f"logZ[{key}] = {rat_str(got)} (want {rat_str(val)})", got == val, 1


def _suite_hurwitz(args, budget, oracle):
    g_max = 2
    eng = _engine("kstar", g_max, budget)
    for d in range(1, budget + 1):
        for part in partitions(d):
            for g in range(0, g_max + 1):
                if 2 * g - 2 + len(part) <= 0:
                    continue
                r = hurwitz_three_ways(oracle, eng, g, part)
                good = len({v for v in r.values() if v is not None}) == 1
                routes = {k: (rat_str(v) if v is not None else "skipped") for k, v in r.items()}
                yield f"g={g} mu={part}: {routes} {'PASS' if good else 'FAIL'}", good, 1


# suite -> (rows generator, budget offset, budget cap, reads the oracle);
# the conjecture cap 14 is the largest budget whose rows take under 1 s in
# process (0.55 s, 151 rows, on a 2-vCPU host; 15 takes 1.06 s)
_SUITES = {
    "regularity": (_suite_regularity, 0, None, False),
    "conjecture": (_suite_conjecture, 2, 14, True),
    "virasoro": (_suite_virasoro, 1, 6, True),
    "kdv": (_suite_kdv, 3, 8, True),
    "bgw": (_suite_bgw, 0, 5, False),
    "hurwitz": (_suite_hurwitz, 0, 4, True),
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        raise UsageError(f"--suite must be one of {sorted(_SUITES)}")
    if args.epsilon_budget < 0:
        raise UsageError("--epsilon-budget must be non-negative")
    if args.family:
        if args.suite != "regularity":
            raise UsageError("--family applies only to --suite regularity")
        _check_family(args.family, FAMILIES)
    suite, offset, cap, reads_oracle = _SUITES[args.suite]
    want = args.epsilon_budget + offset
    budget = want if cap is None else min(want, cap)
    oracle = _oracle(args) if reads_oracle else None
    rows, ok, checks = [], True, 0
    try:
        for row, passed, n in suite(args, budget, oracle):
            if row is not None:
                rows.append(row)
            ok = ok and passed
            checks += n
    except (BudgetError, InsufficientOrderError) as exc:
        raise UsageError(f"infeasible budget: {exc}") from exc
    # a clamped request goes to stderr, so the pretty report stays the same;
    # both numbers are in --epsilon-budget units (every cap is at least its offset)
    if budget < want and args.format == "pretty":
        print(
            f"note: suite {args.suite} caps --epsilon-budget at {budget - offset}"
            f" (requested {args.epsilon_budget})",
            file=sys.stderr,
        )
    if _settle_cache(oracle, ok):
        return USAGE_ERROR
    if not checks:
        raise UsageError(f"nothing checked: suite {args.suite} produced no rows")
    status = "PASS" if ok else "FAIL"
    if args.format == "json":
        _emit(args, {"suite": args.suite, "effective_budget": budget, "rows": rows, "status": status})
    else:
        _emit(args, "\n".join(rows + [f"status: {status}"]))
    return 0 if ok else CHECK_FAILED


def cmd_hurwitz(args) -> int:
    try:
        part = tuple(int(x) for x in args.partition.split(","))
    except ValueError:
        raise UsageError("--partition must be comma-separated integers")
    if not part or any(x < 1 for x in part):
        raise UsageError("partition parts must be positive")
    g = args.g
    if 2 * g - 2 + len(part) <= 0:
        raise UsageError("outside stable range")
    if g < 0:
        raise UsageError("--g must be non-negative")
    oracle = _oracle(args)
    try:
        r = hurwitz_three_ways(oracle, _engine("kstar", g, len(part)), g, part)
    except BudgetError as exc:
        raise UsageError(f"infeasible: {exc}") from exc
    vals = {v for v in r.values() if v is not None}
    if _settle_cache(oracle, len(vals) == 1):
        return USAGE_ERROR
    payload = {
        "g": g,
        "partition": list(part),
        "routes": {k: (rat_str(v) if v is not None else None) for k, v in r.items()},
        "agree": len(vals) == 1,
    }
    if args.format == "pretty":
        routes = ", ".join(f"{k}={v if v else 'skipped'}" for k, v in payload["routes"].items())
        head = rat_str(next(iter(vals))) if payload["agree"] else "DISAGREEMENT"
        _emit(args, f"h(g={g}, mu={list(part)}) = {head}  [{routes}]")
    else:
        _emit(args, payload)
    return 0 if payload["agree"] else CHECK_FAILED


def cmd_cache(args) -> int:
    path = args.cache or os.environ.get(CACHE_ENV)
    if not path:
        raise UsageError("no cache path: pass --cache or set KAPPAREC_CACHE")
    if args.action != "import" and not os.path.exists(path):
        raise UsageError(f"no such cache file {path}")
    cache = _open_cache(path)
    if args.action == "stats":
        _emit(args, cache.stats())
        return 0
    if args.action == "export":
        if not args.out:
            raise UsageError("export needs --out")
        cache.save(args.out)
        print(f"exported {len(cache.data)} entries to {args.out}")
        return 0
    if args.action == "import":
        if not args.infile:
            raise UsageError("import needs --in")
        if not os.path.exists(args.infile):
            raise UsageError(f"refusing import: no such file {args.infile}")
        try:
            incoming = Cache(args.infile)
        except (ValueError, OSError) as exc:
            raise UsageError(f"refusing import: {exc}") from exc
        for k, v in incoming.data.items():
            if cache.data.get(k, v) != v:
                raise UsageError(f"refusing import: conflicting value at {_key_str(*k)}")
            cache.data[k] = v
        cache.save(path)
        print(f"imported {len(incoming.data)} entries into {path}")
        return 0
    if args.action == "verify":
        return _verify_cache(args, cache)
    raise UsageError("--action must be stats, export, import, or verify")


def _bad_entries(cache: Cache) -> dict[str, str]:
    """Recompute every entry with a cacheless oracle; key -> what is wrong."""
    oracle = IntersectionOracle()
    bad = {}
    for key, (g, psis, lam), stored in sorted((_key_str(*k), k, v) for k, v in cache.data.items()):
        try:
            got = oracle.kappa_psi_number(g, len(psis), psis, lam)
        except ValueError as exc:
            bad[key] = f"stored {stored}, cannot recompute: {exc}"
            continue
        if got != stored:
            bad[key] = f"stored {stored}, recomputed {got}"
    return bad


def _verify_cache(args, cache: Cache) -> int:
    """Exit 2 naming each entry a cacheless oracle does not reproduce."""
    bad = _bad_entries(cache)
    if args.format == "json":
        _emit(args, {"entries": len(cache.data), "bad": bad})
    else:
        lines = [f"bad entry {k}: {v}" for k, v in bad.items()]
        _emit(args, "\n".join(lines + [f"verified {len(cache.data)} entries, {len(bad)} bad"]))
    return USAGE_ERROR if bad else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kapparec",
        description="Exact kappa-class recursion toolkit: correlators, potentials, "
        "vanishing checks, BGW coefficients, monotone Hurwitz numbers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "pretty"), default="pretty")
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--cache", default=None, help="intersection-number cache file")

    sp = sub.add_parser("kappa-polys", help="render the K/J/P polynomial families")
    sp.add_argument("--family", default="k", help="k, j, or p")
    sp.add_argument("--m-max", type=int, default=4)
    common(sp)
    sp.set_defaults(func=cmd_kappa_polys)

    sp = sub.add_parser("correlators", help="emit one correlator table as JSON")
    sp.add_argument("--family", default="kw")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon-budget", type=int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_correlators)

    sp = sub.add_parser("potentials", help="emit potential coefficients")
    sp.add_argument("--family", default="k")
    sp.add_argument("--epsilon-budget", type=int, default=4)
    sp.add_argument("--t-max", type=int, default=8, help="emit monomials with t-indices <= this")
    common(sp)
    sp.set_defaults(func=cmd_potentials)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, help="|".join(sorted(_SUITES)))
    sp.add_argument("--family", default=None)
    sp.add_argument("--epsilon-budget", type=int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hurwitz", help="monotone Hurwitz number, three routes")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--partition", required=True, help="comma-separated parts")
    common(sp)
    sp.set_defaults(func=cmd_hurwitz)

    sp = sub.add_parser("cache", help="cache maintenance")
    sp.add_argument("--action", required=True, help="stats|export|import|verify")
    sp.add_argument("--in", dest="infile", default=None)
    common(sp)
    sp.set_defaults(func=cmd_cache)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

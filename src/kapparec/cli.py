"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
infeasible budget.  All emitted artifacts are byte-deterministic for a given
invocation (sorted keys, canonical "p/q" strings).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .epsilonlab import check_regularity, verify_vanishing
from .hurwitz import BudgetError, hurwitz_three_ways
from .intersect import Cache, IntersectionOracle, default_cache_path, parse_key
from .kappapoly import j_polys, k_polys, p_polys, partitions
from .rationals import rat_parse, rat_str
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
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
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
    path = args.cache or default_cache_path()
    return IntersectionOracle(_open_cache(path) if path else None)


def _save_cache(oracle: IntersectionOracle) -> None:
    if oracle.cache is not None and oracle.cache.path and oracle.cache.dirty:
        oracle.cache.save()


def _bad_family(family: str, allowed) -> bool:
    if family in allowed:
        return False
    print(f"--family must be one of {sorted(allowed)}", file=sys.stderr)
    return True


def cmd_kappa_polys(args) -> int:
    if _bad_family(args.family, _FAMILY_POLYS):
        return USAGE_ERROR
    if args.m_max < 0:
        print("--m-max must be non-negative", file=sys.stderr)
        return USAGE_ERROR
    polys = _FAMILY_POLYS[args.family](args.m_max)
    name = args.family.upper()
    if args.format == "json":
        _emit(args, {f"{name}{m}": polys[m].to_json() for m in range(args.m_max + 1)})
    else:
        lines = [f"{name}{m} = {polys[m].render()}" for m in range(args.m_max + 1)]
        _emit(args, "\n".join(lines))
    return 0


def _weak_params(budget: int) -> int:
    """Largest 3g-3+n over the level budget: formal-h count and weight cap."""
    return max(
        3 * g - 3 + n
        for g in range(0, budget // 2 + 2)
        for n in (budget + 2 - 2 * g,)
        if n >= 1
    )


def _engine_for(family: str, g: int, n: int, n_h: int = 0) -> Engine:
    cap = 3 * g - 3 + n if family.startswith("weak") else None
    return Engine(build_curve(family, required_order(g, n), n_h=n_h, h_weight_cap=cap))


def cmd_correlators(args) -> int:
    if _bad_family(args.family, FAMILIES):
        return USAGE_ERROR
    g, n = args.g, args.n
    if n < 1 or 2 * g - 2 + n <= 0:
        print("need a stable (g, n) with n >= 1", file=sys.stderr)
        return USAGE_ERROR
    if 2 * g - 2 + n > args.epsilon_budget:
        print(
            f"(g, n) level {2*g-2+n} above --epsilon-budget {args.epsilon_budget}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    n_h = 3 * g - 3 + n if args.family.startswith("weak") else 0
    eng = _engine_for(args.family, g, n, n_h=n_h)
    corr = eng.correlator(g, n)
    _emit(args, corr.to_json())
    return 0


def cmd_potentials(args) -> int:
    if _bad_family(args.family, FAMILIES):
        return USAGE_ERROR
    budget = args.epsilon_budget
    if budget < 0:
        print("--epsilon-budget must be non-negative", file=sys.stderr)
        return USAGE_ERROR
    t_max = args.t_max
    if args.family == "bgw":
        pot = bgw_bootstrap(budget)
    else:
        gtop = (budget + 1) // 2
        n_h = _weak_params(budget) if args.family.startswith("weak") else 0
        eng = Engine(
            build_curve(
                args.family,
                required_order(gtop, budget + 2 - 2 * gtop),
                n_h=n_h,
                h_weight_cap=(n_h or None),
            )
        )
        pot = Potential.from_engine(eng, budget, args.family)
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


def _budget(args, report: dict, offset: int = 0, cap: int | None = None) -> int:
    """The suite's effective budget: the request plus offset, at most cap.

    It is stored in the report; a clamped request is noted on stderr, so the
    pretty report on stdout stays the same.
    """
    want = args.epsilon_budget + offset
    budget = want if cap is None else min(want, cap)
    report["effective_budget"] = budget
    if budget < want and args.format == "pretty":
        print(
            f"note: suite {args.suite} uses budget {budget} (requested {args.epsilon_budget})",
            file=sys.stderr,
        )
    return budget


def _suite_regularity(args, report: dict) -> bool:
    budget = _budget(args, report)
    ok = True
    rows = []
    fams = [args.family] if args.family else ["k", "j", "weak-k", "weak-j"]
    for fam in fams:
        gtop = (budget + 1) // 2
        n_h = _weak_params(budget) if fam.startswith("weak") else 0
        eng = Engine(
            build_curve(
                fam,
                required_order(gtop, budget + 2 - 2 * gtop),
                n_h=n_h,
                h_weight_cap=(n_h or None),
            )
        )
        for rep in check_regularity(eng, budget):
            rows.append(rep.row())
            if not rep.passed:
                ok = False
                # theorem for the K family, conjectural finding otherwise
                rows.append(f"  ^ FAIL ({'build error' if fam == 'k' else 'finding'})")
    report["rows"] = rows
    return ok


def _suite_conjecture(args, report: dict) -> bool:
    oracle = _oracle(args)
    ok = True
    rows = []
    dim_max = _budget(args, report, 2, 7)
    for g in range(0, 4):
        for n in range(0, dim_max + 4):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > dim_max or 2 * g - 2 + n <= 0:
                continue
            for m in range(1, dim + 1):
                for style in ("k", "j"):
                    kadm = style == "k" and m > 2 * g - 2 + n and not (n == 0 and m == 3 * g - 3)
                    jadm = style == "j" and (
                        m > 2 * g - 2 + n or (m == 2 * g - 2 + n and n > 1)
                    )
                    if not (kadm or jadm):
                        continue
                    good = verify_vanishing(oracle, g, n, m, style)
                    rows.append(f"{style.upper()}_{m} on (g,n)=({g},{n}): {'PASS' if good else 'FAIL'}")
                    ok = ok and good
    _save_cache(oracle)
    report["rows"] = rows
    return ok


def _suite_virasoro(args, report: dict) -> bool:
    oracle = _oracle(args)
    rows = []
    ok = True
    budget = _budget(args, report, 1, 6)
    fkw = Potential.kw_from_oracle(oracle, budget + 2)
    for m in range(-1, 4):
        n, bad = virasoro_rows(fkw, m, htilde_unshifted())
        rows.append(f"KW m={m}: rows={n} nonzero={len(bad)}")
        ok = ok and not bad
    fb = bgw_bootstrap(budget + 2)
    for m in range(0, 4):
        n, bad = virk_rows(fb, m, with_eps=False)
        rows.append(f"BGW m={m}: rows={n} nonzero={len(bad)}")
        ok = ok and not bad
    engk = Engine(build_curve("k", required_order((budget + 1) // 2, 2)))
    fk = Potential.from_engine(engk, budget, "k")
    for m in range(0, 4):
        n, bad = virk_rows(fk, m, with_eps=True)
        rows.append(f"K(eps) m={m}: rows={n} nonzero={len(bad)}")
        ok = ok and not bad
    _save_cache(oracle)
    report["rows"] = rows
    return ok


def _suite_kdv(args, report: dict) -> bool:
    oracle = _oracle(args)
    rows = []
    ok = True
    budget = _budget(args, report, 3, 8)
    for label, pot in (
        ("KW", Potential.kw_from_oracle(oracle, budget)),
        ("BGW", bgw_bootstrap(budget)),
    ):
        n, bad = kdv_residual(pot)
        rows.append(f"{label}: rows={n} nonzero={len(bad)}")
        ok = ok and not bad
    _save_cache(oracle)
    report["rows"] = rows
    return ok


def _suite_bgw(args, report: dict) -> bool:
    rows = []
    budget = _budget(args, report, 0, 5)
    # the displayed log Z goldens reach hbar^2, i.e. level 6; the bootstrap is cheap
    fb = bgw_bootstrap(max(budget, 6))
    engb = Engine(build_curve("bgw", required_order((budget + 1) // 2, 2)))
    direct = Potential.from_engine(engb, budget, "bgw")
    engk = Engine(build_curve("k", required_order((budget + 1) // 2, 2)))
    fk = Potential.from_engine(engk, budget, "k")
    ok = True
    for (g, mono), c in direct.items():
        if fb.coeff(g, mono) != c:
            ok = False
            rows.append(f"direct != bootstrap at {(g, mono)}")
    for (g, mono), c in fk.items():
        v = c.eps_valuation()
        if v < 0:
            ok = False
            rows.append(f"K-family potential irregular at {(g, mono)}")
        if c.eps_part(0) != fb.coeff(g, mono):
            ok = False
            rows.append(f"eps->0 limit != bootstrap at {(g, mono)}")
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
        rows.append(f"logZ[{key}] = {rat_str(got)} (want {rat_str(val)})")
        ok = ok and got == val
    report["rows"] = rows
    return ok


def _suite_hurwitz(args, report: dict) -> bool:
    oracle = _oracle(args)
    rows = []
    ok = True
    d_max = _budget(args, report, 0, 4)
    g_max = 2
    eng = Engine(build_curve("kstar", required_order(g_max, d_max)))
    for d in range(1, d_max + 1):
        for part in partitions(d):
            for g in range(0, g_max + 1):
                if 2 * g - 2 + len(part) <= 0:
                    continue
                r = hurwitz_three_ways(oracle, eng, g, part)
                vals = {v for v in r.values() if v is not None}
                good = len(vals) == 1
                ok = ok and good
                routes = {k: (rat_str(v) if v is not None else "skipped") for k, v in r.items()}
                rows.append(f"g={g} mu={part}: {routes} {'PASS' if good else 'FAIL'}")
    _save_cache(oracle)
    report["rows"] = rows
    return ok


_SUITES = {
    "regularity": _suite_regularity,
    "conjecture": _suite_conjecture,
    "virasoro": _suite_virasoro,
    "kdv": _suite_kdv,
    "bgw": _suite_bgw,
    "hurwitz": _suite_hurwitz,
}


def cmd_verify(args) -> int:
    suite = _SUITES.get(args.suite)
    if suite is None:
        print(f"--suite must be one of {sorted(_SUITES)}", file=sys.stderr)
        return USAGE_ERROR
    report: dict = {"suite": args.suite}
    try:
        ok = suite(args, report)
    except (BudgetError, InsufficientOrderError) as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if not report["rows"]:
        print(f"nothing checked: suite {args.suite} produced no rows", file=sys.stderr)
        return USAGE_ERROR
    report["status"] = "PASS" if ok else "FAIL"
    if args.format == "json":
        _emit(args, report)
    else:
        _emit(args, "\n".join(report["rows"] + [f"status: {report['status']}"]))
    return 0 if ok else CHECK_FAILED


def cmd_hurwitz(args) -> int:
    try:
        part = tuple(int(x) for x in args.partition.split(","))
    except ValueError:
        print("--partition must be comma-separated integers", file=sys.stderr)
        return USAGE_ERROR
    if not part or any(x < 1 for x in part):
        print("partition parts must be positive", file=sys.stderr)
        return USAGE_ERROR
    g = args.g
    if 2 * g - 2 + len(part) <= 0:
        print("outside stable range", file=sys.stderr)
        return USAGE_ERROR
    oracle = _oracle(args)
    try:
        eng = Engine(build_curve("kstar", required_order(g, len(part))))
        r = hurwitz_three_ways(oracle, eng, g, part)
    except BudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _save_cache(oracle)
    vals = {v for v in r.values() if v is not None}
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
    path = args.cache or default_cache_path()
    if not path:
        print("no cache path: pass --cache or set KAPPAREC_CACHE", file=sys.stderr)
        return USAGE_ERROR
    cache = _open_cache(path)
    if args.action == "stats":
        _emit(args, cache.stats())
        return 0
    if args.action == "export":
        if not args.out:
            print("export needs --out", file=sys.stderr)
            return USAGE_ERROR
        cache.save(args.out)
        print(f"exported {len(cache.data)} entries to {args.out}")
        return 0
    if args.action == "import":
        if not args.infile:
            print("import needs --in", file=sys.stderr)
            return USAGE_ERROR
        try:
            incoming = Cache(args.infile)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"refusing import: {exc}", file=sys.stderr)
            return USAGE_ERROR
        for k, v in incoming.data.items():
            if cache.data.get(k, v) != v:
                print(f"refusing import: conflicting value at {k}", file=sys.stderr)
                return USAGE_ERROR
            cache.data[k] = v
        cache.save(path)
        print(f"imported {len(incoming.data)} entries into {path}")
        return 0
    if args.action == "verify":
        return _verify_cache(args, cache)
    print("--action must be stats, export, import, or verify", file=sys.stderr)
    return USAGE_ERROR


def _verify_cache(args, cache: Cache) -> int:
    """Recompute every entry with a cacheless oracle; exit 2 naming each mismatch."""
    oracle = IntersectionOracle()
    bad = {}
    for key, stored in sorted(cache.data.items()):
        try:
            g, psis, lam = parse_key(key)
            got = oracle.kappa_psi_number(g, len(psis), psis, lam)
        except ValueError as exc:
            bad[key] = f"stored {stored}, cannot recompute: {exc}"
            continue
        if got != rat_parse(stored):
            bad[key] = f"stored {stored}, recomputed {rat_str(got)}"
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
    sp.add_argument("--t-max", type=int, default=6)
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

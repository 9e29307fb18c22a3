"""The benchmark's workloads: what one pass computes, and how each value it
produces is serialized for the exactness gate.

Every workload is a closed loop with a single caller.  A pass is the fixed
ladder of the workload plus a variable part that the seed draws from a fixed
pool at a fixed count, so that a different seed changes the inputs but
hardly the amount of work.  Every item of every pool has a committed digest
(``expected.json``), so a run on any seed is gated item by item.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

DEFAULT_SEED = 0
WORKLOADS = ("tr-ladder", "oracle-cold", "cli-e2e")

# -- seed pools ------------------------------------------------------------------
# Items in one pool cost about the same, so the seed moves the inputs and not
# the run time.  Brute-force Hurwitz cost depends only on (d, m): every key
# below has d = 6 and m = 2g - 2 + n + d = 7, the top of the default budget.

TR_EXTRA_POOL = (("kw", 3, 3), ("kw", 4, 2), ("k", 2, 4), ("j", 2, 4), ("k", 4, 1))
TR_EXTRA_COUNT = 3
KW_POOL = (
    (5, (4, 10)), (5, (6, 8)), (5, (7, 7)), (5, (2, 6, 7)), (5, (3, 5, 7)),
    (5, (5, 5, 5)), (6, (5, 12)), (6, (8, 9)), (6, (4, 6, 8)), (6, (6, 6, 6)),
    (7, (9, 11)), (7, (3, 17)),
)
KW_COUNT = 4
KAPPA_POOL = (
    (2, 2, (1, 2), (2,)), (2, 3, (0, 1, 2), (3,)), (3, 1, (4,), (2, 1)),
    (3, 2, (1, 3), (2, 2)), (3, 3, (0, 2, 2), (3, 2)), (2, 4, (0, 0, 1, 1), (5,)),
    (4, 1, (6,), (2, 1, 1)), (4, 1, (2,), (3, 3, 2)),
)
KAPPA_COUNT = 4
HURWITZ_POOL = ((0, "4,1,1"), (0, "3,2,1"), (0, "2,2,2"), (1, "6"))
CORRELATOR_POOL = (
    ("j", 2, 2), ("k", 2, 2), ("j", 3, 1), ("k", 3, 1), ("kw", 3, 2), ("bgw", 2, 3),
)
SUITES = ("regularity", "conjecture", "virasoro", "kdv", "bgw", "hurwitz")


def plan(workload: str, seed: int) -> dict:
    """The seed's choice of the variable part (the fixed ladders never change)."""
    rng = random.Random(seed)
    if workload == "tr-ladder":
        return {"extra": rng.sample(TR_EXTRA_POOL, TR_EXTRA_COUNT)}
    if workload == "oracle-cold":
        return {"kw": rng.sample(KW_POOL, KW_COUNT), "kappa": rng.sample(KAPPA_POOL, KAPPA_COUNT)}
    if workload == "cli-e2e":
        return {"hurwitz": rng.choice(HURWITZ_POOL), "correlators": rng.choice(CORRELATOR_POOL)}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def full_plan(workload: str) -> dict:
    """Every pool item at once, for recording the committed digests."""
    if workload == "tr-ladder":
        return {"extra": list(TR_EXTRA_POOL)}
    if workload == "oracle-cold":
        return {"kw": list(KW_POOL), "kappa": list(KAPPA_POOL)}
    raise ValueError(f"{workload!r} has no in-process plan")


# -- host-speed reference ------------------------------------------------------------
# A fixed pure-Python Fraction loop, timed between operations (never during
# one).  Reported times are scaled to the nominal speed, at which one sample
# takes REF_NOMINAL_S; NOTES.md says why.

REF_ITERATIONS = 2000
REF_NOMINAL_S = 0.0135
REF_EDGE_SAMPLES = 5  # at the start and the end of a pass
REF_STEP_SAMPLES = 2  # between operations, at most every REF_EVERY_S of work
REF_EVERY_S = 0.2
REF_WINDOW = 3  # batches on each side of an operation that scale its time


def reference_samples(count: int) -> list[float]:
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, REF_ITERATIONS):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
        out.append(time.perf_counter() - t0)
    return out


def kw_closed_form(g: int) -> Fraction:
    """<tau_{3g-2}>_g = 1 / (24^g g!)."""
    return Fraction(1, 24**g * factorial(g))


# -- in-process workloads -----------------------------------------------------------


@dataclass
class Op:
    """One gated operation: a named value and, where one exists, its closed form.

    ``entry`` picks the correlator entry the closed form applies to.  A
    workload yields each operation as soon as its value exists, so the time
    between two yields is that operation's time.
    """

    name: str
    value: object
    closed: Fraction | None = None
    entry: tuple[int, ...] | None = None


def _regularity_engine(family: str, budget: int):
    """The engine the regularity suite builds: formal h_i and an h-weight cap
    for the two-parameter families."""
    from kapparec import Engine, build_curve, required_order

    gtop = (budget + 1) // 2
    n_h = 0
    if family.startswith("weak"):
        n_h = max(3 * g - 3 + budget + 2 - 2 * g for g in range(budget // 2 + 2) if budget + 2 - 2 * g >= 1)
    curve = build_curve(family, required_order(gtop, budget + 2 - 2 * gtop), n_h=n_h, h_weight_cap=(n_h or None))
    return Engine(curve)


def tr_ladder(p: dict) -> Iterator[Op]:
    from kapparec import Engine, build_curve, required_order
    from kapparec.epsilonlab import check_regularity

    eng = Engine(build_curve("k", required_order(7, 1)))
    for g in range(1, 8):
        yield Op(f"k-chain g={g}", eng.correlator(g, 1))
    eng = Engine(build_curve("kw", required_order(8, 1)))
    for g in range(1, 9):
        yield Op(f"kw-chain g={g}", eng.correlator(g, 1), kw_closed_form(g), (3 * g - 2,))
    for family, budget in (("k", 8), ("weak-k", 6)):
        eng = _regularity_engine(family, budget)
        yield Op(f"regularity {family} budget={budget}", (check_regularity(eng, budget), eng))
    for family, g, n in p["extra"]:
        eng = Engine(build_curve(family, required_order(g, n)))
        yield Op(f"extra {family} g={g} n={n}", eng.correlator(g, n))


def kappa_range():
    """Stable (g, n) with g <= 3 and 3g - 3 + n <= 7, n >= 0."""
    for g in range(4):
        for n in range(11):
            dim = 3 * g - 3 + n
            if 0 <= dim <= 7 and 2 * g - 2 + n > 0:
                yield g, n, dim


def oracle_cold(p: dict) -> Iterator[Op]:
    from kapparec import IntersectionOracle
    from kapparec.epsilonlab import verify_vanishing
    from kapparec.kappapoly import partitions

    oracle = IntersectionOracle()
    for g in range(6, 11):
        yield Op(f"kw-ladder g={g}", oracle.kw_number(g, (3 * g - 2,)), kw_closed_form(g))
    for g, n, dim in kappa_range():
        for lam in partitions(dim):
            yield Op(f"kappa-psi g={g} n={n} lam={lam}", oracle.kappa_psi_number(g, n, (0,) * n, lam))
    for g, n, dim in kappa_range():
        for m in range(2 * g - 1 + n, dim + 1):
            for style in ("k", "j"):
                if not (style == "k" and n == 0 and m == 3 * g - 3):
                    yield Op(f"vanishing {style} g={g} n={n} m={m}", verify_vanishing(oracle, g, n, m, style))
    for g, ds in p["kw"]:
        yield Op(f"kw g={g} ds={ds}", oracle.kw_number(g, ds))
    for g, n, psis, lam in p["kappa"]:
        yield Op(f"kappa-psi g={g} n={n} psis={psis} lam={lam}", oracle.kappa_psi_number(g, n, psis, lam))


IN_PROCESS = {"tr-ladder": tr_ladder, "oracle-cold": oracle_cold}


# -- serialization and gating ----------------------------------------------------------


def canonical(value) -> str:
    """Canonical text of a produced value: rationals as "p/q", correlators as
    their sorted JSON table, regularity runs as their rows and tables."""
    from kapparec import Correlator
    from kapparec.rationals import rat_str

    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, Correlator):
        return json.dumps(value.to_json(), sort_keys=True, separators=(",", ":"))
    if isinstance(value, tuple) and len(value) == 2:
        reports, engine = value
        rows = [
            [r.g, r.n, r.entries, r.min_eps_valuation, r.passed, canonical(engine.correlator(r.g, r.n))]
            for r in reports
        ]
        return json.dumps(rows, separators=(",", ":"))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def closed_form_ok(op: Op) -> bool | None:
    """None when the op has no closed form, else whether it matches exactly."""
    if op.closed is None:
        return None
    got = op.value if op.entry is None else op.value.value(op.entry)
    return got == op.closed


def workload_digest(items: list[tuple[str, str]]) -> str:
    """One digest over a pass: its (operation, value digest) pairs in order."""
    return sha256("\n".join(f"{name}={digest}" for name, digest in items))


# -- the CLI workload -------------------------------------------------------------------


def cli_commands(p: dict) -> list[list[str]]:
    """The user's command list, without the per-run ``--cache`` argument."""
    g, part = p["hurwitz"]
    family, cg, cn = p["correlators"]
    return (
        [["verify", "--suite", s] for s in SUITES]
        + [["hurwitz", "--g", str(g), "--partition", part]]
        + [["correlators", "--family", family, "--g", str(cg), "--n", str(cn)]]
        + [["potentials", "--family", "weak-k", "--epsilon-budget", "4"]]
    )


def all_cli_commands() -> list[list[str]]:
    """Every command any seed can run, for recording the committed digests."""
    seen: dict[str, list[str]] = {}
    for h in HURWITZ_POOL:
        for c in CORRELATOR_POOL:
            for cmd in cli_commands({"hurwitz": h, "correlators": c}):
                seen.setdefault(" ".join(cmd), cmd)
    return list(seen.values())

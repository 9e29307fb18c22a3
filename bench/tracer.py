"""Span and counter tracing around kapparec's public entry points.

The tracer patches each target function (a class attribute or a module
function, in every loaded ``kapparec`` module that holds it) with a wrapper
that keeps, per metric prefix:

- ``<prefix>.calls``: number of calls;
- ``<prefix>.s``: time inside outermost calls, so recursion is not counted
  twice;
- ``<prefix>.self_s``: time inside calls minus the time their wrapped child
  calls cover.

Hot arithmetic entry points are counted and timed only.  The coarse ones
(suites, solves, computed correlators) also record a span (``SPAN_FIELDS``)
in memory; :meth:`Tracer.dump` writes the spans when the traced pass ends.
:meth:`Tracer.uninstall` puts every original object back, so untraced
passes never run a wrapper.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

SPAN_FIELDS = ("id", "name", "label", "start", "end", "self_s", "parent", "run")

# -- per-target hooks -----------------------------------------------------------
# pre(tracer, args) returns a span label (None: no span); post(tracer, args,
# result, label) adds counters.  They see only public arguments and results.


def _always(tracer, args):
    return ""


def _mul_post(tracer, args, result, label):
    t = tracer.totals
    t["parampoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    t["parampoly.mul.terms_out"] += len(result.terms)


def _zmul_post(tracer, args, result, label):
    tracer.totals["zseries.mul.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _corr_pre(tracer, args):
    engine, g, n = args[0], args[1], args[2]
    return None if (g, n) in engine.table else f"g={g} n={n}"


def _corr_post(tracer, args, result, label):
    if label is not None:
        tracer.totals["toprec.correlator.computed"] += 1
        tracer.totals["toprec.correlator.entries"] += len(result.entries)


def _kw_pre(tracer, args):
    oracle, g, ds = args[0], args[1], tuple(sorted(args[2]))
    n = len(ds)
    if g >= 0 and n >= 1 and min(ds) >= 0 and 2 * g - 2 + n > 0 and sum(ds) == 3 * g - 3 + n:
        tracer.distinct.add((id(oracle), g, ds))
    return None


def _get_post(tracer, args, result, label):
    if result is not None:
        tracer.totals["intersect.cache.get.hits"] += 1


def _rows_post(tracer, args, result, label):
    tracer.totals["tautools.rows"] += result[0]


# (module, attribute path, metric prefix, pre, post); pre None marks a hot
# target that is counted and timed but records no spans.
TARGETS = [
    ("kapparec.parampoly", "ParamPoly.mul", "parampoly.mul", None, _mul_post),
    ("kapparec.parampoly", "ParamPoly.__add__", "parampoly.add", None, None),
    ("kapparec.parampoly", "ParamPoly.__radd__", "parampoly.add", None, None),
    ("kapparec.zseries", "ZSeries.mul", "zseries.mul", None, _zmul_post),
    ("kapparec.zseries", "series_invert", "zseries.series_invert", _always, None),
    ("kapparec.toprec", "SpectralCurve.inv2eta", "toprec.inv2eta", None, None),
    ("kapparec.toprec", "Engine.correlator", "toprec.correlator", _corr_pre, _corr_post),
    ("kapparec.intersect", "IntersectionOracle.kw_number", "intersect.kw_number", _kw_pre, None),
    ("kapparec.intersect", "IntersectionOracle.kappa_psi_number", "intersect.kappa_psi_number", _always, None),
    ("kapparec.intersect", "IntersectionOracle.kclass_psi", "intersect.kclass_psi", _always, None),
    ("kapparec.intersect", "Cache.load", "intersect.cache.load", _always, None),
    ("kapparec.intersect", "Cache.save", "intersect.cache.save", _always, None),
    ("kapparec.intersect", "Cache.get", "intersect.cache.get", None, _get_post),
    ("kapparec.intersect", "Cache.put", "intersect.cache.put", None, None),
    ("kapparec.hurwitz", "brute_force", "hurwitz.brute_force", _always, None),
    ("kapparec.hurwitz", "expand_at_one", "hurwitz.expand_at_one", _always, None),
    ("kapparec.hurwitz", "elsv_value", "hurwitz.elsv_value", _always, None),
    ("kapparec.tautools", "Potential.from_engine", "tautools.from_engine", _always, None),
    ("kapparec.tautools", "Potential.kw_from_oracle", "tautools.kw_from_oracle", _always, None),
    ("kapparec.tautools", "virasoro_rows", "tautools.virasoro_rows", _always, _rows_post),
    ("kapparec.tautools", "virk_rows", "tautools.virk_rows", _always, _rows_post),
    ("kapparec.tautools", "kdv_residual", "tautools.kdv_residual", _always, _rows_post),
    ("kapparec.tautools", "bgw_bootstrap", "tautools.bgw_bootstrap", _always, None),
    ("kapparec.epsilonlab", "check_regularity", "epsilonlab.check_regularity", _always, None),
    ("kapparec.epsilonlab", "verify_vanishing", "epsilonlab.verify_vanishing", _always, None),
] + [
    ("kapparec.kappapoly", name, "kappapoly", None, None)
    for name in (
        "k_polys", "j_polys", "p_polys", "expand_family", "pushforward",
        "pullback", "kappa_substitute_pullback", "shift_coeffs",
    )
]


def _owner_and_attr(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def _places(module_name: str, path: str):
    """The target's original object and every (owner, attribute) binding it.

    A class attribute is bound once; a module function is bound in each
    loaded ``kapparec`` module that imported it by name.
    """
    owner, attr = _owner_and_attr(module_name, path)
    if isinstance(owner, type):
        return owner.__dict__[attr], [(owner, attr)]
    orig = getattr(owner, attr)
    places = [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "kapparec" or mod_name.startswith("kapparec.")
        for name, value in sorted(vars(mod).items())
        if value is orig
    ]
    return orig, places


def target_bindings() -> list[tuple[object, str, object]]:
    """Every (owner, attribute, original object) the tracer replaces."""
    out = []
    for module_name, path, *_ in TARGETS:
        orig, places = _places(module_name, path)
        out.extend((owner, attr, orig) for owner, attr in places)
    return out


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.distinct: set = set()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[list[float]] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        depth: dict[str, list[int]] = {}
        try:
            for module_name, path, prefix, pre, post in TARGETS:
                orig, places = _places(module_name, path)
                static = isinstance(orig, staticmethod)
                w = self._wrap(
                    orig.__func__ if static else orig, prefix, pre, post,
                    depth.setdefault(prefix, [0]),
                )
                for owner, attr in places:
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, staticmethod(w) if static else w)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, prefix, pre, post, depth):
        clock = time.perf_counter
        stack, open_spans, spans, ids = self._stack, self._open, self.spans, self._ids
        totals = self.totals
        calls_k, s_k, self_k = prefix + ".calls", prefix + ".s", prefix + ".self_s"
        tracer = self

        def wrapper(*args, **kwargs):
            label = pre(tracer, args) if pre is not None else None
            frame = [0.0]
            stack.append(frame)
            if label is not None:
                sid = next(ids)
                open_spans.append(sid)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[0] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                totals[calls_k] += 1
                totals[self_k] += dur - frame[0]
                if not depth[0]:
                    totals[s_k] += dur
                if label is not None:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else None
                    spans.append(
                        (sid, prefix, label, t0, t1, dur - frame[0], parent, tracer.run_id)
                    )
            if post is not None:
                post(tracer, args, result, label)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------------

    def raw(self) -> dict[str, float]:
        """Additive totals: sums over several traced processes stay meaningful."""
        out = dict(self.totals)
        out["intersect.kw_number.distinct"] = len(self.distinct)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"raw": self.raw(), "span_fields": SPAN_FIELDS, "spans": sorted(self.spans)},
                fh,
                sort_keys=True,
            )

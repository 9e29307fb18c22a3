"""Tests of the benchmark itself: its gate, its plans and its tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kapparec import Engine, IntersectionOracle, build_curve, required_order  # noqa: E402
from kapparec.intersect import Cache  # noqa: E402
from kapparec import tautools  # noqa: E402


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(run.EXPECTED.read_text())


def _item(op: workloads.Op) -> list:
    return [op.name, workloads.sha256(workloads.canonical(op.value)), workloads.closed_form_ok(op)]


def test_recorded_value_passes_the_gate(expected):
    op = workloads.Op("kw-ladder g=6", workloads.kw_closed_form(6), workloads.kw_closed_form(6))
    assert expected["ops"]["oracle-cold"]["kw-ladder g=6"] == _item(op)[1]
    assert run.gate("oracle-cold", [_item(op)], expected)[:2] == (1, 0)


def test_wrong_value_is_a_failed_operation(expected):
    wrong = workloads.Op("kw-ladder g=6", workloads.kw_closed_form(6) * 2, workloads.kw_closed_form(6))
    item = _item(wrong)
    assert item[2] is False
    attempted, failed, reasons = run.gate("oracle-cold", [item], expected)
    assert (attempted, failed) == (1, 1) and reasons


def test_wrong_digest_or_missed_closed_form_fails(expected):
    name = "kw-ladder g=7"
    good = expected["ops"]["oracle-cold"][name]
    assert run.gate("oracle-cold", [[name, "0" * 64, True]], expected)[1] == 1
    assert run.gate("oracle-cold", [[name, good, False]], expected)[1] == 1
    assert run.gate("oracle-cold", [["never recorded", good, None]], expected)[1] == 1
    assert run.gate("cli-e2e", [["verify --suite kdv", "exit 1", None]], expected)[1] == 1
    assert run.gate("cli-e2e", [["cache --action stats", "exit 2", None]], expected)[1] == 1


def test_a_pass_that_checks_nothing_fails(expected):
    attempted, failed, reasons = run.gate("tr-ladder", [], expected)
    assert attempted == 1 and failed == 1 and reasons


def test_closed_form_on_a_correlator_entry():
    eng = Engine(build_curve("kw", required_order(2, 1)))
    op = workloads.Op("kw-chain g=2", eng.correlator(2, 1), workloads.kw_closed_form(2), (4,))
    assert workloads.closed_form_ok(op) is True
    op.closed = Fraction(1, 1153)  # the closed form is 1/1152
    assert workloads.closed_form_ok(op) is False


def test_times_are_scaled_to_the_nominal_host_speed():
    nominal = workloads.REF_NOMINAL_S
    items = [["a", "d", None, 1.0, 0.9], ["b", "d", None, 3.0, 3.0]]
    quiet = run.Pass(refs=[[0, [nominal]], [1, [nominal]], [2, [nominal]]], items=items)
    busy = run.Pass(refs=[[0, [2 * nominal]], [2, [2 * nominal]]],
                    items=[[n, d, c, 2 * w, 2 * cpu] for n, d, c, w, cpu in items])
    assert busy.speed == pytest.approx(0.5) and busy.op_speeds() == pytest.approx([0.5, 0.5])
    # the same work on a host half as fast reads the same
    assert run.per_op_median_sum([quiet, busy, busy], 3) == pytest.approx(4.0)
    assert run.per_op_median_sum([quiet, busy, busy], 4) == pytest.approx(3.9)
    # an operation is scaled by the reference batches around it, not the pass's
    slowed = run.Pass(refs=[[i, [nominal if i < 4 else 2 * nominal]] for i in range(9)],
                      items=[[str(i), "d", None, 1.0, 1.0] for i in range(8)])
    assert workloads.REF_WINDOW == 3
    assert slowed.op_speeds()[0] == pytest.approx(1.0) and slowed.op_speeds()[7] == pytest.approx(0.5)


def test_plans_are_seeded_with_fixed_counts():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 5) == workloads.plan(w, 5)
    assert any(workloads.plan("oracle-cold", s) != workloads.plan("oracle-cold", 0) for s in range(1, 5))
    for s in range(10):
        assert len(workloads.plan("tr-ladder", s)["extra"]) == workloads.TR_EXTRA_COUNT
        p = workloads.plan("oracle-cold", s)
        assert (len(p["kw"]), len(p["kappa"])) == (workloads.KW_COUNT, workloads.KAPPA_COUNT)


def test_pool_items_satisfy_the_dimension_constraint():
    for g, ds in workloads.KW_POOL:
        assert sum(ds) == 3 * g - 3 + len(ds)
    for g, n, psis, lam in workloads.KAPPA_POOL:
        assert len(psis) == n and sum(psis) + sum(lam) == 3 * g - 3 + n
    for g, part in workloads.HURWITZ_POOL:
        parts = [int(x) for x in part.split(",")]
        assert sum(parts) == 6 and 2 * g - 2 + len(parts) + 6 == 7


def test_every_cli_command_has_a_recorded_digest(expected):
    names = {" ".join(c) for c in workloads.all_cli_commands()}
    assert names == set(expected["ops"]["cli-e2e"])


def test_every_declared_layer_metric_has_a_source():
    produced = {"trace.spans", "trace.overhead_ratio", "fail_ratio", "intersect.cache.file_bytes",
                "intersect.kw_number.distinct", "intersect.cache.get.hits", "tautools.rows",
                "parampoly.mul.term_pairs", "parampoly.mul.terms_out", "zseries.mul.coeff_pairs",
                "toprec.correlator.computed", "toprec.correlator.entries"}
    for _, _, prefix, _, _ in tracer.TARGETS:
        produced |= {f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s"}
    units = run.declared(BENCH.parent, "per_layer")
    assert set(units) - set(run.DERIVED) <= produced
    assert set(run.declared(BENCH.parent, "end_to_end")) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mib"}


def _exercise(tmp_path: Path) -> Engine:
    eng = Engine(build_curve("kw", required_order(3, 1)))
    eng.correlator(3, 1)
    eng.correlator(3, 1)
    cache = Cache(str(tmp_path / "c.json"))
    oracle = IntersectionOracle(cache)
    oracle.kw_number(3, (7,))
    oracle.kappa_psi_number(1, 1, (0,), (1,))
    cache.save()
    # through the module: a name imported into this file is not a kapparec binding
    tautools.kdv_residual(tautools.bgw_bootstrap(4))
    return eng


def test_tracer_counts_and_restores_every_original(tmp_path):
    before = tracer.target_bindings()
    assert len(before) > len(tracer.TARGETS)  # module functions are bound in several modules
    t = tracer.Tracer()
    with t:
        for owner, attr, orig in before:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not orig
        eng = _exercise(tmp_path)
    for owner, attr, orig in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is orig, f"{owner!r}.{attr} was not restored"
    raw = t.raw()
    # the second correlator(3, 1) is a memo hit: called, not computed
    assert raw["toprec.correlator.computed"] == len(eng.table)
    assert raw["toprec.correlator.calls"] > raw["toprec.correlator.computed"]
    # recursion: many calls, each key counted once, outermost time counted once
    assert raw["intersect.kw_number.calls"] > raw["intersect.kw_number.distinct"] > 0
    assert raw["intersect.kw_number.self_s"] <= raw["intersect.kw_number.s"] + 1e-9
    assert raw["intersect.cache.put.calls"] > 0 and raw["intersect.cache.save.calls"] == 1
    assert raw["tautools.rows"] > 0 and raw["parampoly.mul.term_pairs"] >= raw["parampoly.mul.terms_out"]
    assert raw["trace.spans"] == len(t.spans) > 0
    ids = {s[0] for s in t.spans}
    assert all(s[6] is None or s[6] in ids for s in t.spans)
    assert all(0 <= s[5] <= s[4] - s[3] + 1e-9 for s in t.spans)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tr-ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""

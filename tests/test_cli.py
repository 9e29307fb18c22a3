from __future__ import annotations

import json

from kapparec.cli import main


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kappa_polys_pretty(capsys):
    code, out, _ = run(capsys, ["kappa-polys", "--family", "k", "--m-max", "2"])
    assert code == 0
    assert "K1 = 3*k1" in out
    assert "K2 = 9/2*k1^2 - 21/2*k2" in out
    code, out, _ = run(capsys, ["kappa-polys", "--family", "j", "--m-max", "0"])
    assert code == 0 and "J0 = 1" in out
    code, out, _ = run(capsys, ["kappa-polys", "--family", "p", "--m-max", "2", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["P2"] == {"1,1": "1/2", "2": "-5/2"}


def test_kappa_polys_bad_family(capsys):
    code, _, err = run(capsys, ["kappa-polys", "--family", "zz"])
    assert code == 2


def test_correlators_json_and_budget(capsys):
    code, out, _ = run(capsys, ["correlators", "--family", "j", "--g", "1", "--n", "1", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["basis"] == "doublefactorial"
    assert {tuple(e["k"]): e["coeff"] for e in blob["entries"]} == {
        (0,): [[0, [], "1/24"]],
        (1,): [[1, [], "1/24"]],
    }
    code, _, err = run(capsys, ["correlators", "--family", "kw", "--g", "4", "--n", "4", "--epsilon-budget", "5"])
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, ["correlators", "--family", "kw", "--g", "0", "--n", "2"])
    assert code == 2


def test_correlators_off_dimension_empty(capsys):
    # BGW has no stable genus-0 output: entry set is empty
    code, out, _ = run(capsys, ["correlators", "--family", "bgw", "--g", "0", "--n", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            ["potentials", "--family", "k", "--epsilon-budget", "3", "--format", "json", "--out", str(path)],
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_suites_pass(capsys):
    for suite, budget in (("regularity", 3), ("bgw", 4), ("kdv", 3), ("virasoro", 3)):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--epsilon-budget", str(budget)])
        assert code == 0, (suite, out)
        assert "status: PASS" in out
    code, out, _ = run(capsys, ["verify", "--suite", "hurwitz", "--epsilon-budget", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_verify_regularity_extended_budget(capsys):
    # the extended 2g-2+n <= 7 mode stays exact and fast enough for tests
    code, out, _ = run(capsys, ["verify", "--suite", "regularity", "--family", "weak-j", "--epsilon-budget", "7"])
    assert code == 0
    assert "g=4 n=1" in out and "status: PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2


def test_hurwitz_command(capsys):
    code, out, _ = run(capsys, ["hurwitz", "--g", "1", "--partition", "2"])
    assert code == 0 and "1/2" in out
    code, _, err = run(capsys, ["hurwitz", "--g", "0", "--partition", "2"])
    assert code == 2 and "stable" in err
    code, _, err = run(capsys, ["hurwitz", "--g", "1", "--partition", "x"])
    assert code == 2


def test_cache_commands(capsys, tmp_path):
    cpath = tmp_path / "cache.json"
    code, _, _ = run(
        capsys,
        ["verify", "--suite", "conjecture", "--epsilon-budget", "2", "--cache", str(cpath)],
    )
    assert code == 0
    code, out, _ = run(capsys, ["cache", "--action", "stats", "--cache", str(cpath), "--format", "json"])
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] > 0
    exp = tmp_path / "exp.json"
    code, out, _ = run(capsys, ["cache", "--action", "export", "--cache", str(cpath), "--out", str(exp)])
    assert code == 0
    # export -> import round-trips losslessly
    code, out, _ = run(capsys, ["cache", "--action", "import", "--cache", str(cpath), "--in", str(exp)])
    assert code == 0
    assert json.loads(exp.read_text()) == json.loads(cpath.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "other", "entries": {}}))
    code, _, err = run(capsys, ["cache", "--action", "import", "--cache", str(cpath), "--in", str(bad)])
    assert code == 2 and "version mismatch" in err
    code, _, err = run(capsys, ["cache", "--action", "stats"])
    assert code == 2


def test_env_var_cache(capsys, tmp_path, monkeypatch):
    cpath = tmp_path / "envcache.json"
    monkeypatch.setenv("KAPPAREC_CACHE", str(cpath))
    code, _, _ = run(capsys, ["hurwitz", "--g", "1", "--partition", "1,1"])
    assert code == 0
    assert cpath.exists()


def test_bad_cache_value_is_usage_error(capsys, tmp_path):
    for value in ("1/0", "x"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"0;0,0,0;": value}}))
        for args in (
            ["cache", "--action", "stats"],
            ["verify", "--suite", "kdv", "--epsilon-budget", "1"],
            ["hurwitz", "--g", "1", "--partition", "2"],
        ):
            code, out, err = run(capsys, args + ["--cache", str(bad)])
            assert code == 2 and out == "", (value, args)
            assert "cannot open cache" in err and "0;0,0,0;" in err, (value, args)


def test_bad_arguments_are_usage_errors(capsys):
    for args, msg in (
        (["correlators", "--family", "nope", "--g", "1", "--n", "1"], "--family"),
        (["potentials", "--family", "nope"], "--family"),
        (["kappa-polys", "--m-max", "-1"], "--m-max"),
        (["potentials", "--epsilon-budget", "-2"], "--epsilon-budget"),
    ):
        code, out, err = run(capsys, args)
        assert code == 2 and out == "" and msg in err, args


def test_verify_nothing_checked(capsys):
    for suite, budget in (("regularity", "0"), ("hurwitz", "0"), ("conjecture", "-3")):
        code, out, err = run(capsys, ["verify", "--suite", suite, "--epsilon-budget", budget])
        assert code == 2 and "PASS" not in out and "nothing checked" in err, suite


def test_cache_verify_names_a_wrong_value(capsys, tmp_path):
    cpath = tmp_path / "cache.json"
    code, _, _ = run(capsys, ["verify", "--suite", "kdv", "--epsilon-budget", "1", "--cache", str(cpath)])
    assert code == 0
    code, out, _ = run(capsys, ["cache", "--action", "verify", "--cache", str(cpath)])
    assert code == 0 and out.endswith(" 0 bad\n")
    blob = json.loads(cpath.read_text())
    assert blob["entries"]["0;0,0,0;"] == "1"
    blob["entries"]["0;0,0,0;"] = "7"
    cpath.write_text(json.dumps(blob))
    code, out, _ = run(capsys, ["cache", "--action", "verify", "--cache", str(cpath)])
    assert code == 2
    assert "bad entry 0;0,0,0;: stored 7, recomputed 1" in out and out.endswith(" 1 bad\n")
    code, out, _ = run(capsys, ["cache", "--action", "verify", "--cache", str(cpath), "--format", "json"])
    assert code == 2
    assert json.loads(out)["bad"] == {"0;0,0,0;": "stored 7, recomputed 1"}
    code, _, err = run(capsys, ["cache", "--action", "nope", "--cache", str(cpath)])
    assert code == 2 and "verify" in err


def test_verify_reports_effective_budget(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "kdv", "--epsilon-budget", "20"])
    assert code == 0 and "note: suite kdv uses budget 8 (requested 20)" in err
    code, default_out, err = run(capsys, ["verify", "--suite", "kdv"])
    assert code == 0 and out == default_out and "note" not in err
    code, out, err = run(capsys, ["verify", "--suite", "kdv", "--epsilon-budget", "20", "--format", "json"])
    assert code == 0 and json.loads(out)["effective_budget"] == 8 and err == ""

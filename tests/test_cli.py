from __future__ import annotations

import json

from kapparec.cli import _suite_bgw, main


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
    for suite, budget, rows in (("regularity", 3, 28), ("bgw", 4, 7), ("kdv", 3, 2), ("virasoro", 3, 13)):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--epsilon-budget", str(budget)])
        assert code == 0, (suite, out)
        lines = out.splitlines()
        assert lines[-1] == "status: PASS" and len(lines) == rows + 1, (suite, out)
        if suite == "kdv":
            assert lines[:2] == ["KW: rows=132 nonzero=0", "BGW: rows=132 nonzero=0"]
    code, out, _ = run(capsys, ["verify", "--suite", "hurwitz", "--epsilon-budget", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "PASS" and len(report["rows"]) == 13


def test_bgw_suite_counts_its_coefficient_comparisons():
    # budget 4: 7 golden rows, 6 direct-vs-bootstrap comparisons, and 54
    # K-family coefficients each checked for regularity and for the eps -> 0
    # limit; only the goldens print a row
    rows = list(_suite_bgw(None, 4, None))
    assert all(passed for _, passed, _ in rows)
    assert sum(row is not None for row, _, _ in rows) == 7
    assert sum(checks for _, _, checks in rows) == 7 + 6 + 2 * 54


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
    code, out, _ = run(
        capsys,
        ["verify", "--suite", "conjecture", "--epsilon-budget", "2", "--cache", str(cpath)],
    )
    assert code == 0 and len(out.splitlines()) == 6 + 1
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


def test_cache_import_of_a_missing_file_is_usage_error(capsys, tmp_path):
    cpath = tmp_path / "cache.json"
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, ["cache", "--action", "import", "--in", str(missing), "--cache", str(cpath)])
    assert code == 2 and out == "" and str(missing) in err
    assert not cpath.exists()


def test_cache_import_accepts_an_equal_value_in_another_form(capsys, tmp_path):
    cpath, inp = tmp_path / "cache.json", tmp_path / "in.json"
    for path, value in ((cpath, "1/24"), (inp, "2/48")):
        path.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"1;0,0,0,4;": value}}))
    code, _, err = run(capsys, ["cache", "--action", "import", "--in", str(inp), "--cache", str(cpath)])
    assert code == 0, err
    assert json.loads(cpath.read_text())["entries"] == {"1;0,0,0,4;": "1/24"}


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


def test_off_lattice_cache_value_is_refused(capsys, tmp_path):
    # 8^(2g-2+n) prod (2d_i+1)!! <tau_1>_1 = 24 * 1/23 is not an integer, so
    # no psi number can be 1/23 there; the file must not be read or rewritten
    bad, cpath = tmp_path / "bad.json", tmp_path / "cache.json"
    bad.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"1;1;": "1/23"}}))
    before = bad.read_bytes()
    for args in (["cache", "--action", "stats"], ["verify", "--suite", "kdv", "--epsilon-budget", "1"]):
        code, out, err = run(capsys, args + ["--cache", str(bad)])
        assert code == 2 and out == "", args
        assert "cannot open cache" in err and "1;1;" in err, args
    assert bad.read_bytes() == before
    cpath.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"1;1;": "1/24"}}))
    kept = cpath.read_bytes()
    code, out, err = run(capsys, ["cache", "--action", "import", "--in", str(bad), "--cache", str(cpath)])
    assert code == 2 and out == "" and "refusing import" in err and "1;1;" in err
    assert cpath.read_bytes() == kept and bad.read_bytes() == before


def test_malformed_cache_keys_are_refused(capsys, tmp_path):
    bad, cpath = tmp_path / "bad.json", tmp_path / "cache.json"
    cpath.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"1;1;": "1/24"}}))
    kept = cpath.read_bytes()
    # leading zeros would not save back as the same key; 5,000 digits pass int's limit
    for key, value in (("garbage", "1/3"), ("2;", "5/7"), ("01;1;", "1/24"), ("1" * 5000 + ";1;", "1/3")):
        bad.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {key: value}}))
        code, out, err = run(capsys, ["cache", "--action", "stats", "--cache", str(bad)])
        assert code == 2 and out == "" and f"malformed key {key!r}" in err, key
        code, out, err = run(capsys, ["cache", "--action", "import", "--in", str(bad), "--cache", str(cpath)])
        assert code == 2 and out == "" and "refusing import" in err and f"malformed key {key!r}" in err
        assert cpath.read_bytes() == kept


def test_cache_import_conflict_leaves_the_target_unchanged(capsys, tmp_path):
    cpath, inp = tmp_path / "cache.json", tmp_path / "in.json"
    cpath.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"0;0,0,0;": "1", "1;1;": "1/24"}}))
    inp.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {"1;0;1": "1/24", "0;0,0,0;": "2"}}))
    kept = cpath.read_bytes()
    code, out, err = run(capsys, ["cache", "--action", "import", "--in", str(inp), "--cache", str(cpath)])
    assert (code, out, err) == (2, "", "refusing import: conflicting value at 0;0,0,0;\n")
    assert cpath.read_bytes() == kept


def test_cache_verify_names_an_unstable_key(capsys, tmp_path):
    # the report runs in key-string order: "0;0,0,0;" before "0;;"
    cpath = tmp_path / "cache.json"
    entries = {"0;;": "5/7", "1;1;": "1/24", "0;0,0,0;": "7"}
    cpath.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": entries}))
    code, out, err = run(capsys, ["cache", "--action", "verify", "--cache", str(cpath)])
    assert code == 2 and err == ""
    assert out == (
        "bad entry 0;0,0,0;: stored 7, recomputed 1\n"
        "bad entry 0;;: stored 5/7, cannot recompute: unstable (g, n)\n"
        "verified 3 entries, 2 bad\n"
    )


def test_cache_file_not_a_json_object_is_usage_error(capsys, tmp_path):
    for payload in ([1, 2], "x"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        for args in (
            ["cache", "--action", "stats"],
            ["verify", "--suite", "conjecture", "--epsilon-budget", "0"],
        ):
            code, out, err = run(capsys, args + ["--cache", str(bad)])
            assert code == 2 and out == "", (payload, args)
            assert "cannot open cache: corrupted cache file: not a JSON object" in err, (payload, args)
        assert json.loads(bad.read_text()) == payload


def test_bad_arguments_are_usage_errors(capsys):
    for args, msg in (
        (["correlators", "--family", "nope", "--g", "1", "--n", "1"], "--family"),
        (["potentials", "--family", "nope"], "--family"),
        (["kappa-polys", "--m-max", "-1"], "--m-max"),
        (["potentials", "--epsilon-budget", "-2"], "--epsilon-budget"),
        (["verify", "--suite", "regularity", "--family", "nope"], "--family"),
        (["verify", "--suite", "conjecture", "--family", "j", "--epsilon-budget", "0"], "--family"),
        (["correlators", "--g", "-1", "--n", "5"], "--g"),
        (["hurwitz", "--g", "-1", "--partition", "1,1,1,1,1"], "--g"),
        (["potentials", "--t-max", "-1"], "--t-max"),
    ) + tuple(
        # a negative budget is refused before any suite runs, also where the
        # suite's offset would leave something to check
        (["verify", "--suite", suite, "--epsilon-budget", budget], "--epsilon-budget must be non-negative")
        for suite, budget in (("regularity", "-1"), ("hurwitz", "-5"), ("conjecture", "-3"),
                              ("virasoro", "-5"), ("virasoro", "-2"), ("kdv", "-10"), ("bgw", "-1"))
    ):
        code, out, err = run(capsys, args)
        assert code == 2 and out == "" and msg in err, args


def test_verify_nothing_checked(capsys):
    for suite, budget in (
        ("regularity", "0"),
        ("hurwitz", "0"),
    ):
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


def test_verify_names_a_poisoned_cache_entry(capsys, tmp_path):
    cpath = tmp_path / "cache.json"
    args = ["verify", "--suite", "kdv", "--epsilon-budget", "1", "--cache", str(cpath)]
    code, _, _ = run(capsys, args)
    assert code == 0
    blob = json.loads(cpath.read_text())
    blob["entries"]["0;0,0,0;"] = "7"
    cpath.write_text(json.dumps(blob))
    before = cpath.read_bytes()
    code, out, err = run(capsys, args)
    assert code == 2 and "status" not in out
    assert err == "bad cache entry 0;0,0,0;: stored 7, recomputed 1\n"
    assert cpath.read_bytes() == before
    code, _, err = run(capsys, ["hurwitz", "--g", "0", "--partition", "1,1,1", "--cache", str(cpath)])
    assert code == 2 and "bad cache entry 0;0,0,0;" in err
    assert cpath.read_bytes() == before


def test_verify_reports_effective_budget(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "kdv", "--epsilon-budget", "20"])
    assert code == 0 and "note: suite kdv uses budget 8 (requested 20)" in err
    code, default_out, err = run(capsys, ["verify", "--suite", "kdv"])
    assert code == 0 and out == default_out and "note" not in err
    code, out, err = run(capsys, ["verify", "--suite", "kdv", "--epsilon-budget", "20", "--format", "json"])
    assert code == 0 and json.loads(out)["effective_budget"] == 8 and err == ""


def test_conjecture_genus_range_follows_the_budget(capsys):
    # dim 3g - 3 + n <= 9 reaches g = 4 at n = 0
    code, out, err = run(capsys, ["verify", "--suite", "conjecture", "--epsilon-budget", "7", "--format", "json"])
    blob = json.loads(out)
    assert code == 0 and err == "" and blob["effective_budget"] == 9
    assert len(blob["rows"]) == 48
    assert any("(g,n)=(4,0)" in row for row in blob["rows"])

from __future__ import annotations

import hashlib
import json

import pytest

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


def test_cache_actions_on_a_missing_file_are_usage_errors(capsys, tmp_path):
    missing, out = tmp_path / "missing.json", tmp_path / "out.json"
    for action in ("verify", "stats", "export"):
        code, stdout, err = run(capsys, ["cache", "--action", action, "--cache", str(missing), "--out", str(out)])
        assert code == 2 and stdout == "" and str(missing) in err, action
    assert not missing.exists() and not out.exists()


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
        # --g is checked before the level, the budget and the stable range read it
        (["correlators", "--g", "-1", "--n", "10", "--epsilon-budget", "5"], "--g"),
        (["hurwitz", "--g", "-3", "--partition", "1"], "--g"),
        (["correlators", "--g", "-2", "--n", "1"], "--g"),
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


def test_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    # a path under a regular file cannot be written: exit 2 naming it as not
    # a directory, not a traceback under exit 1, which means that a check
    # failed; verify prints its report before the cache save fails
    blocker = tmp_path / "F"
    blocker.write_text("")
    cache = tmp_path / "C.json"
    cache.write_text(json.dumps({"version": "kapparec-cache-v1", "entries": {}}))
    kdv = ["verify", "--suite", "kdv", "--epsilon-budget", "1"]
    code, report, _ = run(capsys, kdv)
    assert code == 0 and report.endswith("status: PASS\n")
    for args, want in (
        (["kappa-polys", "--out", str(blocker / "x.txt")], ""),
        (kdv + ["--cache", str(blocker / "c.json")], report),
        (["cache", "--action", "export", "--cache", str(cache), "--out", str(blocker / "x.json")], ""),
    ):
        code, out, err = run(capsys, args)
        assert code == 2 and out == want and str(blocker) in err, args
        assert "File exists" not in err, args


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
    # both numbers in --epsilon-budget units: the kdv cap 8 less its offset 3
    assert code == 0 and err == "note: suite kdv caps --epsilon-budget at 5 (requested 20)\n"
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


# sha256 of json.dumps([exit code, stdout, stderr]) for each command: every
# verify suite at budgets 0 and 3, each kappa-polys family, potentials and a
# correlator table for every family, and two Hurwitz keys; a refactor that
# moves one byte the CLI prints, or one exit code, fails here
CLI_DIGESTS = {
    "verify --suite bgw --epsilon-budget 0 --format pretty": "15cc01e7971c725bb498c4eba79dbdf65afe0ec7a2f7781f15f86ffc3891cce6",
    "verify --suite bgw --epsilon-budget 0 --format json": "c41e7a762fd63f0e3f75e57e3153d5abef7ea15cddf2cedfaa6f05fe14998618",
    "verify --suite bgw --epsilon-budget 3 --format pretty": "15cc01e7971c725bb498c4eba79dbdf65afe0ec7a2f7781f15f86ffc3891cce6",
    "verify --suite bgw --epsilon-budget 3 --format json": "ed74842fd23ac15a561efcdb2ee8e5ff784c0ca4a28e7487fc3148f0c7522766",
    "verify --suite conjecture --epsilon-budget 0 --format pretty": "0a9f21b461414781a474a2f009c030b62a5d4eda30e9ec20a96e1db6211b9b32",
    "verify --suite conjecture --epsilon-budget 0 --format json": "3deea6aed5a6124688b15f884198b89d9637c85121ea22e580ae17c2475c54d8",
    "verify --suite conjecture --epsilon-budget 3 --format pretty": "f8e4e1a7b1d58c37b8a24ddaf6e248c909d2aa0a68e0cb37be24268e976aac24",
    "verify --suite conjecture --epsilon-budget 3 --format json": "d69def7171be153e0c2250b8172432cd03511cef9c9d3531a0f80582b0ac7f86",
    "verify --suite hurwitz --epsilon-budget 0 --format pretty": "cb66321a491da29203c11c865a59833aa36efcb4721730eb4f098c7c6df19159",
    "verify --suite hurwitz --epsilon-budget 0 --format json": "cb66321a491da29203c11c865a59833aa36efcb4721730eb4f098c7c6df19159",
    "verify --suite hurwitz --epsilon-budget 3 --format pretty": "3b16c0955c55d0be600f98627621cce9d24c0907cf95d5a2a0f29670e98036f9",
    "verify --suite hurwitz --epsilon-budget 3 --format json": "d8e131c5f5551a8e3b04675505a7bec31f1eff6dd0de45fb8f3c9d7e0d0a436c",
    "verify --suite kdv --epsilon-budget 0 --format pretty": "a72b8430f2d4f8955ee710b4f325a99747f7d81f586e96cd88d1549d4586d11f",
    "verify --suite kdv --epsilon-budget 0 --format json": "31217a955c282dc2076934775cd3384edb873ca995da7dedf52d78cc5fef2b3e",
    "verify --suite kdv --epsilon-budget 3 --format pretty": "229c1258ba0a00c685a6e5d96b1d54833bcbe55eba1173518c8abf6d914ef985",
    "verify --suite kdv --epsilon-budget 3 --format json": "362befa8495750b3ec511771bda9ba90fedacf84d946318bd108cf02d167c1b1",
    "verify --suite regularity --epsilon-budget 0 --format pretty": "3cd5f0f64af6c5ae55d97e19411e8d749e8171b4234d1e820068c522ea89bb8e",
    "verify --suite regularity --epsilon-budget 0 --format json": "3cd5f0f64af6c5ae55d97e19411e8d749e8171b4234d1e820068c522ea89bb8e",
    "verify --suite regularity --epsilon-budget 3 --format pretty": "c4a19cf902e37f42fd8d17be2889fcee0fdf200c2cdf6ade7412750c97150c5c",
    "verify --suite regularity --epsilon-budget 3 --format json": "4bc4a9c810359577dae80984bd0221a00c978d227639e36473f8cb515fb976c8",
    "verify --suite virasoro --epsilon-budget 0 --format pretty": "a72cdf5baa202a612f7aa7f706678b2d1b0a0c025cd262c6a15e50f858e5f22e",
    "verify --suite virasoro --epsilon-budget 0 --format json": "3f65446978b1e6e32541210c521bb1e1b5d674c3d6df63459cbfe539b40f727e",
    "verify --suite virasoro --epsilon-budget 3 --format pretty": "5ffc1209405373ad2b71aba7148d13823f628e18ea196de542db9e5a86bc95bf",
    "verify --suite virasoro --epsilon-budget 3 --format json": "ac6735bfeb0c96b42098d90717f008e7c1522404dce9ff44f11fc838d22e59f6",
    "kappa-polys --family k --m-max 6 --format pretty": "7d94ffcc6178feeed28e182f47b7ef366214e26eeff4d7e23990f410a8b362eb",
    "kappa-polys --family k --m-max 6 --format json": "b38b928998cf69521f31f2a53df7e3bd7e1790dcc94e92b3d01dff6f99a47ffa",
    "kappa-polys --family j --m-max 6 --format pretty": "216cdd8c01b6e8e1a2ac650e598bb874b1a00794ff04cb26040a07cd0ab88d68",
    "kappa-polys --family j --m-max 6 --format json": "9b353aef028c1a72703e7f3a6b759bb9594ad704928c4ce7327d776f0a845790",
    "kappa-polys --family p --m-max 6 --format pretty": "f84c9fabc73d796706039143f51b59b9e7a4928f8875286c9f7a46855bc3bea7",
    "kappa-polys --family p --m-max 6 --format json": "e38aa259d75c56d01d5b3213584bac7328d59c986ddd11d8c7e22c3bef5e417c",
    "potentials --family bgw --format json": "b0582a81d642ab73b3734423a6d88fba1414948c4a61048946eff02c2654be82",
    "correlators --family bgw --g 1 --n 2": "b04a5479f45830f1f6278a9dc3179fc3a3bef60dd79d24534126773a94e1c6c2",
    "potentials --family j --format json": "479eaed62fb9ee3e7d64277544e3d7f7f5cfea692a9c15cf985248dfd09ce6eb",
    "correlators --family j --g 1 --n 2": "51653ec272991f5c4d54305242d7dda7a7bce250e9cb8e61835559ba13054360",
    "potentials --family k --format json": "6c8388e9fbd522d921a4553916e4e5b2dbce28210ed778145749247fa1a9e05d",
    "correlators --family k --g 1 --n 2": "3ed9449197313a1c47021953e4daaa6120684b8c0a31f525238c360b2a5b00c6",
    "potentials --family kstar --format json": "27ec7985b0e3cb9717248f8222d4148f8ea2b5dbf65474bbb5ee182b0364e8db",
    "correlators --family kstar --g 1 --n 2": "305c238833e6b865bbacb11786c7c236826e3e0118136eaacdf0fccdcda0d732",
    "potentials --family kw --format json": "561fe38b49298d3993ea895525eabc4245e77e605791e69a95ab0ffb5eca3f7b",
    "correlators --family kw --g 1 --n 2": "a53d072f92910977d5a6834b68f41d2a1759b79573cd513451fde10228874b39",
    "potentials --family weak-j --format json": "db71fd9fa54e420be96e603deee9caed78734a46b8ac604c5d97063130d68b9d",
    "correlators --family weak-j --g 1 --n 2": "e77a0519eccb7f7d39a8b0dfec3c0439126bd1d197e623134d318a7fe485ba6c",
    "potentials --family weak-k --format json": "e66a1f2c64db854bc965ede9a92e0e9e8a67d3e0a1ca8c79602a536ede1288dd",
    "correlators --family weak-k --g 1 --n 2": "02381f7ed2bfd97bb256733b6bf4b42e91a65aa9da6293b532186edcee726102",
    "hurwitz --g 1 --partition 2,1": "a197e3f9edc08fe177452ce70ba623f8bb4e0a872833e1009a62491f6b88fa0b",
    "hurwitz --g 0 --partition 2,1,1 --format json": "2194910aea9a83d985b5af7de93fde6bccccf29ea870830d8632e71525e7f288",
}


def test_cli_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.delenv("KAPPAREC_CACHE", raising=False)
    got = {}
    for cmd in CLI_DIGESTS:
        blob = json.dumps(list(run(capsys, cmd.split())))
        got[cmd] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == CLI_DIGESTS



def kappa_m_plus_one(monkeypatch):
    # K_m as the conjecture suite reads it, its kappa_m coefficient moved by 1
    from kapparec import epsilonlab
    from kapparec.kappapoly import KappaPoly, k_polys

    def moved(m_max):
        polys = k_polys(m_max)
        return polys[:-1] + (polys[-1] + KappaPoly.kappa(m_max),) if m_max else polys

    monkeypatch.setattr(epsilonlab, "k_polys", moved)


def elsv_plus_one(monkeypatch):
    # the ELSV route at one stable key, moved by 1
    from kapparec import hurwitz

    elsv_value = hurwitz.elsv_value

    def moved(oracle, g, partition):
        value = elsv_value(oracle, g, partition)
        return value + 1 if (g, tuple(partition)) == (1, (2, 1)) else value

    monkeypatch.setattr(hurwitz, "elsv_value", moved)


def cache_entry_plus_one(monkeypatch):
    # the cache file as the unmutated run wrote it, read back with one entry moved by 1
    from kapparec.intersect import Cache

    load = Cache.load

    def moved(self, path):
        load(self, path)
        self.data[0, (0, 0, 0), ()] += 1

    monkeypatch.setattr(Cache, "load", moved)


# mutant -> (the command that catches it, its exit code, a line it prints);
# the table records which suite holds which check
MUTANTS = {
    "k-coefficient": (kappa_m_plus_one, "verify --suite conjecture", 1, "status: FAIL"),
    "elsv-key": (elsv_plus_one, "verify --suite hurwitz", 1, "status: FAIL"),
    "cache-entry": (
        cache_entry_plus_one, "verify --suite kdv --epsilon-budget 1 --cache c.json", 2,
        "bad cache entry 0;0,0,0;: stored 2, recomputed 1",
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_suite_catches_each_mutant(mutant, capsys, tmp_path, monkeypatch):
    # each mutant is applied in process, after the same command passes without it
    monkeypatch.delenv("KAPPAREC_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    mutate, cmd, want, line = MUTANTS[mutant]
    assert run(capsys, cmd.split())[0] == 0
    mutate(monkeypatch)
    code, out, err = run(capsys, cmd.split())
    assert code == want and line in (out + err).splitlines(), (mutant, out, err)

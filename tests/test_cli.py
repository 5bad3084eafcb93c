"""End-to-end command-line behavior: output formats, exit codes, the scan
cache, and JSON input handling."""

import json
import os

import pytest

from equigen import cache, cli, groebner
from equigen.cli import main
from equigen.groebner import InternalConsistencyError

GOLDEN_F1_46 = "F_-1 = -3/16*c2^2*c3 + 3/4*c3*c4"
GOLDEN_JACBAR_46 = ("jacbar = 27/16384*c2^6*c3 + 27/2048*c2^3*c3^3"
                    " - 81/4096*c2^4*c3*c4 + 27/1024*c3^5 - 27/512*c2*c3^3*c4"
                    " + 81/1024*c2^2*c3*c4^2 - 27/256*c3*c4^3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen


def test_gen_f_golden(capsys):
    code, out, _ = run(capsys, "gen", "F", "--a", "4", "--b", "6", "--n", "1")
    assert code == 0
    assert out.strip() == GOLDEN_F1_46


def test_gen_f_all_indices_default(capsys):
    code, out, _ = run(capsys, "gen", "F", "--a", "4", "--b", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == ["F_-1", "F_-2", "F_-3"]


def test_gen_jacbar_golden(capsys):
    code, out, _ = run(capsys, "gen", "jacbar", "--a", "4", "--b", "6")
    assert code == 0
    assert out.strip() == GOLDEN_JACBAR_46


def test_gen_json_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "F", "--a", "4", "--b", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == {"a": 4, "b": 6}
    names = [p["name"] for p in doc["polynomials"]]
    assert names == ["F_-1", "F_-2", "F_-3"]
    for p in doc["polynomials"]:
        assert p["variables"] and p["terms"]


def test_gen_small_f_range(capsys):
    code, out, _ = run(capsys, "gen", "f", "--a", "2", "--b", "3", "--m", "3..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("f_3 = ")
    assert lines[1] == "f_4 = 3/8*c2^2"


def test_gen_theta(capsys):
    code, out, _ = run(capsys, "gen", "theta", "--a", "3", "--b", "4", "--m", "2")
    assert code == 0
    assert out.strip() == "theta_2 = -1/3*c2"


def test_gen_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "f", "--a", "2", "--b", "3")
    assert code == 2 and "--m" in err
    code, _, err = run(capsys, "gen", "F", "--a", "2", "--b", "4")
    assert code == 2 and "multiple" in err
    code, _, err = run(capsys, "gen", "F", "--a", "4", "--b", "6", "--n", "5")
    assert code == 2 and "1..3" in err
    code, out, err = run(capsys, "gen", "theta", "--a", "3", "--b", "4", "--m", "1")
    assert code == 2 and not out and "--m must be at least 2 for theta" in err
    code, out, err = run(capsys, "gen", "F", "--a", "4", "--b", "6", "--n", "3..1")
    assert code == 2 and not out and "3..1" in err
    code, out, err = run(capsys, "gen", "f", "--a", "2", "--b", "3", "--m", "5..3")
    assert code == 2 and not out and "5..3" in err


# ---------------------------------------------------------------------------
# check


def test_check_t_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "T", "--a", "2", "--b", "3", "--point", "1")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "check", "T", "--a", "2", "--b", "3", "--point", "0")
    assert code == 1 and "fails" in out
    code, _, err = run(capsys, "check", "T", "--a", "4", "--b", "6", "--point", "1,2")
    assert code == 2 and "3" in err


def test_check_g_holds(capsys):
    code, out, _ = run(capsys, "check", "G", "--a", "3", "--b", "4")
    assert code == 0
    assert "aggregate: holds" in out


def test_check_g_fails_and_json(capsys):
    code, out, _ = run(capsys, "check", "G", "--a", "4", "--b", "6", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fails"
    assert [(r["i"], r["status"]) for r in doc["indices"]] == [
        (1, "holds"), (2, "fails"), (3, "holds")]


def test_check_g_single_index(capsys):
    code, out, _ = run(capsys, "check", "G", "--a", "4", "--b", "6", "--index", "2")
    assert code == 1
    assert "i=2: fails" in out


def test_check_g_timeout_exit(capsys):
    code, out, _ = run(capsys, "check", "G", "--a", "4", "--b", "7", "--max-pairs", "1")
    assert code == 2
    assert "timeout" in out


def test_check_g_engine_fault_is_not_a_verdict(capsys, monkeypatch):
    # Exit 1 means "fails"; an engine fault must exit 2 instead.
    def disagree(model, i, *args, **kwargs):
        raise InternalConsistencyError(f"presentations disagree at i={i}")

    monkeypatch.setattr(cli, "check_g_index", disagree)
    monkeypatch.setattr(groebner, "check_g_index", disagree)
    for extra in ((), ("--index", "2")):
        code, out, err = run(capsys, "check", "G", "--a", "4", "--b", "6", *extra)
        assert code == 2
        assert "internal error" in err and "disagree" in err
        assert out == ""


# ---------------------------------------------------------------------------
# scan


def test_scan_csv_shape(capsys):
    code, out, _ = run(capsys, "scan", "--a-min", "3", "--a-max", "3", "--b-max", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,verdict,detail,seconds"
    assert all(len(ln.split(",")) == 5 for ln in lines)
    assert lines[1].startswith("3,4,holds,1:holds;2:holds,")
    assert lines[2].startswith("3,5,holds,")


def test_scan_md_highlights_non_holds(capsys):
    code, out, _ = run(capsys, "scan", "--a-min", "4", "--a-max", "4", "--b-max", "6",
                       "--format", "md")
    assert code == 0
    row = [ln for ln in out.splitlines() if "| 6 |" in ln]
    assert row and "**fails**" in row[0]


def test_scan_text_marks_non_holds(capsys):
    code, out, _ = run(capsys, "scan", "--a-min", "4", "--a-max", "4", "--b-max", "6")
    assert code == 0
    assert "a=4 b=5: holds [" in out
    assert "a=4 b=6: fails ! [" in out


def test_scan_empty_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "scan", "--a-min", "3", "--a-max", "3", "--b-max", "3")
    assert code == 2 and "empty" in err


def test_scan_cache_round_trip(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = ["scan", "--a-min", "3", "--a-max", "3", "--b-max", "5",
            "--cache-dir", cache_dir, "--format", "json"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    doc1 = json.loads(out1)
    assert all(not e["cached"] for r in doc1["rows"] for e in r["indices"])
    assert len(os.listdir(cache_dir)) == 4  # (3,4) and (3,5), two indices each

    code, out2, _ = run(capsys, *argv)
    assert code == 0
    doc2 = json.loads(out2)
    assert all(e["cached"] for r in doc2["rows"] for e in r["indices"])
    for r1, r2 in zip(doc1["rows"], doc2["rows"]):
        assert (r1["a"], r1["b"], r1["verdict"]) == (r2["a"], r2["b"], r2["verdict"])
        for e1, e2 in zip(r1["indices"], r2["indices"]):
            assert e1["poly_hashes"] == e2["poly_hashes"]
            assert e1["verdict"] == e2["verdict"]


def test_scan_cache_stale_poly_hashes_recomputed(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    argv = ["scan", "--a-min", "3", "--a-max", "3", "--b-max", "4",
            "--cache-dir", str(cache_dir), "--format", "json"]
    run(capsys, *argv)
    key = cache.cache_key(3, 4, 2, cli.__version__, "grevlex")
    victim = cache_dir / f"{key}.json"
    stored = json.loads(victim.read_text())
    fresh_hashes = stored["poly_hashes"]
    stored["poly_hashes"] = dict(fresh_hashes, candidate="0" * 64)
    victim.write_text(json.dumps(stored))

    code, out, _ = run(capsys, *argv)
    assert code == 0
    by_index = {e["i"]: e for e in json.loads(out)["rows"][0]["indices"]}
    assert by_index[1]["cached"] is True
    assert by_index[2]["cached"] is False
    assert by_index[2]["poly_hashes"] == fresh_hashes
    assert json.loads(victim.read_text())["poly_hashes"] == fresh_hashes


def test_scan_cache_unstorable_verdict_recomputed(capsys, tmp_path):
    # timeouts are never stored, so a cached one is corrupt, not a verdict
    cache_dir = tmp_path / "cache"
    argv = ["scan", "--a-min", "3", "--a-max", "3", "--b-max", "4",
            "--cache-dir", str(cache_dir), "--format", "json"]
    run(capsys, *argv)
    victim = cache_dir / f"{cache.cache_key(3, 4, 1, cli.__version__, 'grevlex')}.json"
    victim.write_text(json.dumps(dict(json.loads(victim.read_text()), verdict="timeout")))

    code, out, _ = run(capsys, *argv)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["verdict"] == "holds" and row["indices"][0]["cached"] is False
    assert json.loads(victim.read_text())["verdict"] == "holds"


def test_scan_cache_env_var(capsys, tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv(cache.ENV_VAR, cache_dir)
    code, _, _ = run(capsys, "scan", "--a-min", "3", "--a-max", "3", "--b-max", "4")
    assert code == 0
    assert os.listdir(cache_dir)


@pytest.mark.parametrize("content", [b"{ not json", b"[]", b"3", b"\xff\xfe"],
                         ids=["not-json", "list", "number", "not-utf8"])
def test_scan_corrupt_cache_entry_ignored(capsys, tmp_path, content):
    cache_dir = tmp_path / "cache"
    argv = ["scan", "--a-min", "3", "--a-max", "3", "--b-max", "4",
            "--cache-dir", str(cache_dir), "--format", "json"]
    run(capsys, *argv)
    victim = sorted(cache_dir.iterdir())[0]
    victim.write_bytes(content)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["verdict"] == "holds"
    assert json.loads(victim.read_text())["a"] == 3


def test_scan_parallel_matches_serial(capsys):
    argv = ["scan", "--a-min", "3", "--a-max", "4", "--b-max", "7", "--format", "csv"]
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0

    def strip_secs(text):
        return [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()]

    assert strip_secs(out1) == strip_secs(out2)


# ---------------------------------------------------------------------------
# reparam


def test_reparam_worked_example(capsys):
    code, out, _ = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                       "--smax", "8", "--modulus", "10", "--pm")
    assert code == 0
    assert "substitution identity: ok" in out
    assert "audit: ok" in out
    assert "matching identity: true" in out


def test_reparam_json(capsys):
    code, out, _ = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                       "--smax", "8", "--modulus", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["substitution_identity"] is True
    assert doc["audit_ok"] is True
    assert doc["delta_prime"]["2"] == ["0", "0", "0", "1"]


def test_reparam_pm_inconclusive_exit(capsys):
    # window too small to cover the decisive band
    code, out, _ = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                       "--smax", "3", "--modulus", "10", "--pm")
    assert code == 2
    assert "inconclusive" in out


def test_reparam_usage_error(capsys):
    code, _, err = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "not json",
                       "--smax", "8", "--modulus", "10")
    assert code == 2 and "JSON" in err


# ---------------------------------------------------------------------------
# star


@pytest.fixture
def star_input(tmp_path):
    doc = {
        "points": [{"a": 2, "b": 3}, {"a": 2, "b": 5}],
        "sections": [{"id": "eta", "residues": [
            {"j": 1, "m": 1, "r": "3/2"},
            {"j": 2, "m": 1, "r": "-1/2"}]}],
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_star_build(capsys, star_input):
    code, out, _ = run(capsys, "star", "build", "--input", star_input)
    assert code == 0
    assert "star[eta] ord=12" in out
    assert "-5/16*c2_2^3 + 9/8*c2_1^2 = 0" in out


def test_star_check(capsys, star_input):
    code, out, _ = run(capsys, "star", "check", "--input", star_input,
                       "--at", "[[\"50/3\"], [10]]")
    assert code == 0 and "satisfied" in out
    code, out, _ = run(capsys, "star", "check", "--input", star_input,
                       "--at", "[[1], [1]]")
    assert code == 1 and "not satisfied" in out
    code, _, err = run(capsys, "star", "check", "--input", star_input,
                       "--at", "[[1]]")
    assert code == 2


# ---------------------------------------------------------------------------
# lift


def test_lift_single_point_text(capsys):
    code, out, _ = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1",
                       "--modulus", "10")
    assert code == 0
    assert "audit ok" in out
    assert "point 1: c2 = " in out


def test_lift_random_deterministic(capsys):
    argv = ["lift", "--a", "2", "--b", "3", "--witness", "1", "--modulus", "10",
            "--perturb", "random", "--seed", "7", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["audit_ok"] is True
    assert all(r["ord"] >= 10 for r in doc["residual_orders"])


def test_lift_two_point_input_file(capsys, tmp_path):
    doc = {"points": [{"a": 2, "b": 3}, {"a": 2, "b": 5}],
           "witnesses": [["1"], ["2"]]}
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "lift", "--input", str(path), "--modulus", "15",
                       "--perturb", "random")
    assert code == 0
    assert "point 2: c2 = " in out


def test_lift_failed_self_check_is_not_a_verdict(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("inverse verification failed")

    monkeypatch.setattr(cli, "lift_run", broken)
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1",
                       "--modulus", "10")
    assert code == 2
    assert "internal error: inverse verification failed" in err


def test_lift_usage_errors(capsys):
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1")
    assert code == 2 and "--modulus" in err
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--modulus", "10")
    assert code == 2 and "--witness" in err
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "0",
                       "--modulus", "10")
    assert code == 2 and "transversality" in err


# ---------------------------------------------------------------------------
# verdict


def write_input(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verdict_uncovered_deforms(capsys, tmp_path):
    path = write_input(tmp_path, {
        "points": [{"a": 2, "b": 3}, {"a": 2, "b": 5}],
        "sections": [{"id": "s", "residues": [{"j": 1, "m": 1, "r": 1}]}],
    })
    code, out, _ = run(capsys, "verdict", "--input", path)
    assert code == 0
    assert "verdict: deforms" in out


def test_verdict_covered_does_not_deform(capsys, tmp_path):
    path = write_input(tmp_path, {
        "points": [{"a": 2, "b": 3}, {"a": 2, "b": 5}],
        "sections": [
            {"id": "s1", "residues": [{"j": 1, "m": 1, "r": 1}]},
            {"id": "s2", "residues": [{"j": 2, "m": 1, "r": 1}]}],
    })
    code, out, _ = run(capsys, "verdict", "--input", path)
    assert code == 1
    assert "verdict: does_not_deform" in out


def test_verdict_general_deforms(capsys, tmp_path):
    path = write_input(tmp_path, {
        "points": [{"a": 3, "b": 4}],
        "dims": [{"j": 1, "twisted": 3, "plain": 2}],
    })
    code, out, _ = run(capsys, "verdict", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "deforms"


def test_verdict_integer_strings_accepted(capsys, tmp_path):
    path = write_input(tmp_path, {
        "points": [{"a": "3", "b": "4"}],
        "dims": [{"j": "1", "twisted": "3", "plain": "2"}],
    })
    code, out, _ = run(capsys, "verdict", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "deforms"


def test_verdict_budget_is_one_clock(capsys, tmp_path, monkeypatch):
    # --budget-secs bounds the whole command: every model's check runs on
    # the same started budget.
    seen = []
    real_check_g = cli.check_g

    def spy(model, budget=None, *args):
        seen.append(budget)
        return real_check_g(model, budget, *args)

    monkeypatch.setattr(cli, "check_g", spy)
    path = write_input(tmp_path, {
        "points": [{"a": 3, "b": 4}, {"a": 3, "b": 5}],
        "dims": [{"j": 1, "twisted": 3, "plain": 2}, {"j": 2, "twisted": 3, "plain": 2}],
    })
    run(capsys, "verdict", "--input", path, "--budget-secs", "60")
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].seconds == 60 and seen[0].started_at is not None


def test_verdict_unknown_exit(capsys, tmp_path):
    path = write_input(tmp_path, {
        "points": [{"a": 3, "b": 4}],
        "dims": [{"j": 1, "twisted": 9, "plain": 2}],
    })
    code, out, _ = run(capsys, "verdict", "--input", path)
    assert code == 2
    assert "verdict: unknown" in out


def test_verdict_missing_input_file(capsys):
    code, _, err = run(capsys, "verdict", "--input", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


INPUT_COMMANDS = {"star": ["star", "build"], "lift": ["lift", "--modulus", "10"],
                  "verdict": ["verdict"]}
MALFORMED_INPUTS = {
    "star-list": ("star", [1, 2]),
    "lift-list": ("lift", [1, 2]),
    "verdict-list": ("verdict", [1, 2]),
    "star-section-number": ("star", {"points": [{"a": 2, "b": 3}], "sections": [5]}),
    "verdict-section-string": ("verdict", {"points": [{"a": 2, "b": 3}], "sections": ["s"]}),
    "verdict-sections-object": ("verdict", {"points": [{"a": 2, "b": 3}],
                                            "sections": {"id": "s"}}),
    "verdict-flags-list": ("verdict", {"points": [{"a": 2, "b": 3}], "flags": [1]}),
    "verdict-dims-number": ("verdict", {"points": [{"a": 3, "b": 4}], "dims": 3}),
    "lift-witnesses-number": ("lift", {"points": [{"a": 2, "b": 3}], "witnesses": 3}),
    "verdict-fractional-numbers": ("verdict", {
        "points": [{"a": 2.9, "b": 3.7}],
        "sections": [{"id": "s", "residues": [{"j": 1.5, "m": 1, "r": "1"}]}]}),
    "verdict-fractional-residue-index": ("verdict", {
        "points": [{"a": 2, "b": 3}],
        "sections": [{"id": "s", "residues": [{"j": 1.5, "m": 1, "r": "1"}]}]}),
    "verdict-fractional-dims": ("verdict", {
        "points": [{"a": 3, "b": 4}], "dims": [{"j": 1, "twisted": 1.5, "plain": 2.7}]}),
    "verdict-boolean-residue-index": ("verdict", {
        "points": [{"a": 2, "b": 3}],
        "sections": [{"id": "s", "residues": [{"j": True, "m": 1, "r": "1"}]}]}),
    "star-non-numeric-string": ("star", {"points": [{"a": "two", "b": 3}]}),
    "star-zero-denominator-residue": ("star", {
        "points": [{"a": 2, "b": 3}],
        "sections": [{"id": "s", "residues": [{"j": 1, "m": 1, "r": "1/0"}]}]}),
    "lift-zero-denominator-witness": ("lift", {"points": [{"a": 2, "b": 3}],
                                               "witnesses": [["1/0"]]}),
}


@pytest.mark.parametrize("command, doc", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_file_is_usage_error(capsys, tmp_path, command, doc):
    # Exit 1 is a verdict ("does not deform"); a bad file must never reach it.
    path = write_input(tmp_path, doc)
    code, _, err = run(capsys, *INPUT_COMMANDS[command], "--input", path)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


ZERO_DENOMINATORS = {
    "check-point": ["check", "T", "--a", "3", "--b", "4", "--point", "1/0,2"],
    "lift-witness": ["lift", "--a", "2", "--b", "3", "--witness", "1/0", "--modulus", "6"],
    "reparam-c-now": ["reparam", "--a", "2", "--b", "3", "--c-now", '[[0,0,"1/0"]]',
                      "--c-next", "[[0,0,1,1]]", "--smax", "8", "--modulus", "10"],
    "reparam-g0": ["reparam", "--a", "2", "--b", "3", "--c-now", "[[0,0,1]]",
                   "--c-next", "[[0,0,1,1]]", "--smax", "8", "--modulus", "10",
                   "--pm", "--g0", '["1/0"]'],
}


@pytest.mark.parametrize("argv", ZERO_DENOMINATORS.values(), ids=ZERO_DENOMINATORS.keys())
def test_zero_denominator_is_usage_error(capsys, argv):
    # ZeroDivisionError used to escape with exit 1, the code for "fails".
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error:") and "1/0" in err


def test_star_check_zero_denominator_is_usage_error(capsys, star_input):
    code, out, err = run(capsys, "star", "check", "--input", star_input,
                         "--at", '[["1/0"], [10]]')
    assert code == 2 and not out and err.startswith("error:")


def test_unforeseen_engine_exception_is_not_a_verdict(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("engine broke")

    monkeypatch.setattr(cli, "check_t", broken)
    code, out, err = run(capsys, "check", "T", "--a", "3", "--b", "4", "--point", "1,2")
    assert code == 2 and not out
    assert err == "internal error: engine broke\n"


# ---------------------------------------------------------------------------
# selftest


def test_selftest_all_pass(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(ln.startswith("PASS") for ln in lines)
    assert "all passed" in out

"""End-to-end command-line behavior: output formats, exit codes, the scan
cache, and JSON input handling."""

import json
import os

import pytest

from equigen import cache, cli, groebner, lifting
from equigen.cli import main
from equigen.expansion import LocalModel
from equigen.groebner import InternalConsistencyError

GOLDEN_F1_46 = "F_-1 = -3/16*c2^2*c3 + 3/4*c3*c4"
GOLDEN_JACBAR_46 = ("jacbar = 27/16384*c2^6*c3 + 27/2048*c2^3*c3^3"
                    " - 81/4096*c2^4*c3*c4 + 27/1024*c3^5 - 27/512*c2*c3^3*c4"
                    " + 81/1024*c2^2*c3*c4^2 - 27/256*c3*c4^3")
M34 = LocalModel(3, 4)


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


@pytest.mark.parametrize("argv, flag, text", [
    (["gen", "f", "--a", "2", "--b", "3", "--m", "x"], "--m", "x"),
    (["gen", "f", "--a", "2", "--b", "3", "--m", "3..4.5"], "--m", "3..4.5"),
    (["gen", "theta", "--a", "3", "--b", "4", "--m", "2..x"], "--m", "2..x"),
    (["gen", "F", "--a", "4", "--b", "6", "--n", "1..x"], "--n", "1..x"),
    (["gen", "F", "--a", "4", "--b", "6", "--n", "1..2..3"], "--n", "1..2..3"),
])
def test_gen_non_integer_index_names_the_flag(capsys, argv, flag, text):
    # int() alone used to report only "invalid literal for int() with base 10".
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f'error: {flag} must be an integer or a range lo..hi, got "{text}"\n'


# ---------------------------------------------------------------------------
# check


def test_check_t_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "T", "--a", "2", "--b", "3", "--point", "1")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "check", "T", "--a", "2", "--b", "3", "--point", "0")
    assert code == 1 and "fails" in out
    code, _, err = run(capsys, "check", "T", "--a", "4", "--b", "6", "--point", "1,2")
    assert code == 2 and "3" in err


def test_check_t_index_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "T", "--a", "4", "--b", "6", "--point", "2,6,-5",
                         "--index", "2")
    assert code == 2 and not out
    assert err == "error: --index is read only by check G: use check G or drop --index\n"


def test_check_g_point_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "G", "--a", "3", "--b", "4", "--point", "1,2")
    assert code == 2 and not out
    assert err == "error: --point is read only by check T: use check T or drop --point\n"


FLAG_OF_OTHER_KIND = {
    "check-T-budget-secs": (["check", "T", "--point", "1", "--budget-secs", "5"],
                            "--budget-secs is read only by check G: "
                            "use check G or drop --budget-secs"),
    "check-T-max-pairs": (["check", "T", "--point", "1", "--max-pairs", "5"],
                          "--max-pairs is read only by check G: use check G or drop --max-pairs"),
    "gen-theta-n": (["gen", "theta", "--m", "2", "--n", "2"],
                    "--n is read only by gen F: use gen F or drop --n"),
    "gen-f-n": (["gen", "f", "--m", "3", "--n", "2"],
                "--n is read only by gen F: use gen F or drop --n"),
    "gen-F-m": (["gen", "F", "--m", "5"],
                "--m is read only by gen f and gen theta: use gen f or gen theta or drop --m"),
    "gen-jacbar-m": (["gen", "jacbar", "--m", "5"],
                     "--m is read only by gen f and gen theta: use gen f or gen theta or drop --m"),
}


@pytest.mark.parametrize("argv, message", FLAG_OF_OTHER_KIND.values(),
                         ids=FLAG_OF_OTHER_KIND.keys())
def test_flag_of_other_kind_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--a", "2", "--b", "3")
    assert code == 2 and not out
    assert err == f"error: {message}\n"


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


def test_check_g_zero_pair_budget_reports_no_pairs(capsys):
    code, out, _ = run(capsys, "check", "G", "--a", "3", "--b", "4", "--max-pairs", "0")
    assert code == 2
    assert out.splitlines()[:2] == ["i=1: timeout (pairs=0, 0.00s)",
                                    "i=2: timeout (pairs=0, 0.00s)"]


BUDGET_COMMANDS = {
    "check": ["check", "G", "--a", "3", "--b", "4"],
    "scan": ["scan", "--a-max", "3", "--b-max", "4"],
    "verdict": ["verdict", "--input"],
}


def _budget_argv(command, tmp_path):
    argv = list(BUDGET_COMMANDS[command])
    if command == "verdict":
        argv.append(write_input(tmp_path, {"points": [{"a": 3, "b": 4}],
                                           "dims": [{"j": 1, "twisted": 3, "plain": 2}]}))
    return argv


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
@pytest.mark.parametrize("secs, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"),
                                         ("-1", "-1.0")])
def test_budget_secs_must_be_finite_and_positive(capsys, tmp_path, command, secs, shown):
    # nan and inf never expire, 0 and -1 have expired before any work: none
    # of them bounds what the user waits for.
    code, out, err = run(capsys, *_budget_argv(command, tmp_path), "--budget-secs", secs)
    assert code == 2 and not out
    assert err == f"error: --budget-secs must be a finite number of seconds > 0, got {shown}\n"


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_max_pairs_below_zero_is_usage_error(capsys, tmp_path, command):
    code, out, err = run(capsys, *_budget_argv(command, tmp_path), "--max-pairs", "-1")
    assert code == 2 and not out
    assert err == "error: --max-pairs must be at least 0, got -1\n"


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
    key = cache.cache_key(3, 4, 2, cli.__version__)
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
    victim = cache_dir / f"{cache.cache_key(3, 4, 1, cli.__version__)}.json"
    victim.write_text(json.dumps(dict(json.loads(victim.read_text()), verdict="timeout")))

    code, out, _ = run(capsys, *argv)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["verdict"] == "holds" and row["indices"][0]["cached"] is False
    assert json.loads(victim.read_text())["verdict"] == "holds"


def test_scan_cache_other_engine_recomputed(capsys, tmp_path, monkeypatch):
    # an entry written by an engine with other sources is a miss: recomputed
    # and overwritten under the current fingerprint
    cache_dir = tmp_path / "cache"
    argv = ["scan", "--a-min", "3", "--a-max", "3", "--b-max", "4",
            "--cache-dir", str(cache_dir), "--format", "json"]
    run(capsys, *argv)
    victim = cache_dir / f"{cache.cache_key(3, 4, 1, cli.__version__)}.json"
    assert json.loads(victim.read_text())["engine_fingerprint"] == cache.engine_fingerprint()
    _, out, _ = run(capsys, *argv)
    assert all(e["cached"] for e in json.loads(out)["rows"][0]["indices"])

    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "f" * 64)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["verdict"] == "holds"
    assert [e["cached"] for e in row["indices"]] == [False, False]
    assert all("engine_fingerprint" not in e for e in row["indices"])
    assert json.loads(victim.read_text())["engine_fingerprint"] == "f" * 64
    _, out, _ = run(capsys, *argv)
    assert all(e["cached"] for e in json.loads(out)["rows"][0]["indices"])


@pytest.mark.parametrize("use_cache", [False, True])
def test_scan_builds_each_obstruction_presentation_once(capsys, tmp_path, monkeypatch, use_cache):
    # The hashes and the check share one build per index; a warm cache
    # builds it once too, for the hashes.
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    built = []
    real = groebner._presentation_obstruction

    def spy(model, i):
        built.append((model.a, model.b, i))
        return real(model, i)

    monkeypatch.setattr(groebner, "_presentation_obstruction", spy)
    monkeypatch.setattr(cli, "_presentation_obstruction", spy)
    argv = ["scan", "--a-min", "3", "--a-max", "4", "--b-max", "5"]
    if use_cache:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    every_index = [(3, 4, 1), (3, 4, 2), (3, 5, 1), (3, 5, 2), (4, 5, 1), (4, 5, 2), (4, 5, 3)]
    for _ in range(2 if use_cache else 1):
        built.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert built == every_index


def test_scan_without_cache_reads_no_fingerprint(capsys, monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    cache.engine_fingerprint.cache_clear()
    code, _, _ = run(capsys, "scan", "--a-min", "3", "--a-max", "3", "--b-max", "4")
    assert code == 0
    assert cache.engine_fingerprint.cache_info().misses == 0


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "scan", "--a-max", "3", "--b-max", "4", "--jobs", jobs)
    assert code == 2 and not out
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("a_min, a_max", [("0", "0"), ("-3", "-2")])
def test_scan_rejects_a_min_below_two(capsys, a_min, a_max):
    code, out, err = run(capsys, "scan", "--a-min", a_min, "--a-max", a_max, "--b-max", "3")
    assert code == 2 and not out
    assert err == f"error: --a-min must be at least 2, got {a_min}\n"


def test_scan_pool_is_capped_at_grid_size(capsys, monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    # (3,4), (3,5) and (3,7): three cells, so at most three workers.
    code, out, _ = run(capsys, "scan", "--a-max", "3", "--b-max", "7", "--jobs", "64",
                       "--format", "csv")
    assert code == 0 and seen == [3]
    assert len(out.strip().splitlines()) == 4


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
    assert "matching identity: inconclusive (needs --smax >= 7, got 3)" in out
    code, out, _ = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                       "--smax", "3", "--modulus", "10", "--pm", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["pm_identity"] == "inconclusive" and doc["pm_smax_needed"] == 7


def test_reparam_json_names_the_pm_window_bound(capsys):
    args = ("reparam", "--a", "2", "--b", "3", "--c-now", "[[0,0,1]]",
            "--c-next", "[[0,0,1,1]]", "--smax", "8", "--modulus", "10", "--format", "json")
    code, out, _ = run(capsys, *args, "--pm")
    assert code == 0
    doc = json.loads(out)
    assert doc["pm_identity"] == "true" and doc["pm_smax_needed"] == 7
    code, out, _ = run(capsys, *args)
    assert code == 0 and "pm_smax_needed" not in json.loads(out)


def test_reparam_usage_error(capsys):
    code, _, err = run(capsys, "reparam", "--a", "2", "--b", "3",
                       "--c-now", "[[0,0,1]]", "--c-next", "not json",
                       "--smax", "8", "--modulus", "10")
    assert code == 2 and "JSON" in err


def test_reparam_bad_g0_json_names_the_flag(capsys):
    code, out, err = run(capsys, "reparam", "--a", "2", "--b", "3",
                         "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                         "--smax", "8", "--modulus", "10", "--pm", "--g0", "nope")
    assert code == 2 and not out
    assert err.startswith("error: --g0 is not valid JSON: ")


def test_reparam_g0_without_pm_is_usage_error(capsys):
    code, out, err = run(capsys, "reparam", "--a", "2", "--b", "3",
                         "--c-now", "[[0,0,1]]", "--c-next", "[[0,0,1,1]]",
                         "--smax", "8", "--modulus", "10", "--g0", "[1]")
    assert code == 2 and not out
    assert err == "error: --g0 is read only by --pm: add --pm or drop --g0\n"


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


def test_star_build_at_is_usage_error(capsys, star_input):
    code, out, err = run(capsys, "star", "build", "--input", star_input, "--at", "[[1], [1]]")
    assert code == 2 and not out
    assert err == "error: --at is read only by star check: use star check or drop --at\n"


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


def test_lift_failed_audit_is_not_a_verdict(capsys, monkeypatch):
    # a failed non-interference audit is a fault of the engine: exit 2, not 1
    real_lift_run = lifting.lift_run

    def audit_fails(*args, **kwargs):
        report = real_lift_run(*args, **kwargs)
        report.audit = [lifting.LiftAuditEntry(1, 1, 2, 1, 13, False)]
        return report

    monkeypatch.setattr(cli, "lift_run", audit_fails)
    code, out, _ = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1",
                       "--modulus", "10")
    assert code == 2
    assert out.startswith("lift to t^10: 5 steps, audit FAILED\n")


def test_lift_seed_without_random_perturbation_is_usage_error(capsys):
    code, out, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1",
                         "--modulus", "10", "--seed", "5")
    assert code == 2 and not out
    assert err == ("error: --seed is read only by --perturb random: "
                   "add --perturb random or drop --seed\n")


def test_lift_input_with_model_flags_is_usage_error(capsys, tmp_path):
    doc = {"points": [{"a": 2, "b": 3}], "witnesses": [["1"]]}
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lift", "--input", str(path), "--a", "3", "--b", "4",
                         "--witness", "5,6", "--modulus", "8")
    assert code == 2 and not out
    assert err == ("error: --input gives the points and witnesses: "
                   "drop --a, --b, --witness or drop --input\n")
    code, out, err = run(capsys, "lift", "--input", str(path), "--witness", "1",
                         "--modulus", "8")
    assert code == 2 and not out
    assert err == ("error: --input gives the points and witnesses: "
                   "drop --witness or drop --input\n")


def test_lift_usage_errors(capsys):
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "1")
    assert code == 2 and "--modulus" in err
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--modulus", "10")
    assert code == 2 and "--witness" in err
    code, _, err = run(capsys, "lift", "--a", "2", "--b", "3", "--witness", "0",
                       "--modulus", "10")
    assert code == 2 and "transversality" in err


def test_lift_transversality_error_prints_the_point(capsys):
    code, out, err = run(capsys, "lift", "--a", "3", "--b", "4", "--witness", "0,0",
                         "--modulus", "10")
    assert code == 2 and not out
    assert err == "error: transversality fails at (0, 0): no dual kernel basis\n"


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


def test_verdict_checks_each_point_type_once(capsys, tmp_path, monkeypatch):
    # (G) depends on (a, b) alone: two (3,4) points make one check, on the
    # one started budget, and print what two checks did.
    path = write_input(tmp_path, {
        "points": [{"a": 3, "b": 4}, {"a": 3, "b": 4}],
        "dims": [{"j": 1, "twisted": 3, "plain": 2}, {"j": 2, "twisted": 3, "plain": 2}],
    })
    # The verdict of one check per point.
    g_table = {j: groebner.check_g(M34).status for j in (1, 2)}
    expected = lifting.deform_verdict(lifting.SingularConfig((M34, M34)), [],
                                      {1: (3, 2), 2: (3, 2)}, g_table)
    seen = []
    real_check_g = cli.check_g

    def spy(model, budget=None, *args):
        seen.append((model, budget))
        return real_check_g(model, budget, *args)

    monkeypatch.setattr(cli, "check_g", spy)
    code, out, _ = run(capsys, "verdict", "--input", path, "--format", "json")
    assert [model for model, _ in seen] == [M34]
    assert seen[0][1].started_at is not None
    assert code == 0
    assert json.loads(out) == {"status": expected.status, "reason": expected.reason,
                               "certificate": expected.certificate}


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
    "verdict-flag-string": ("verdict", {
        "points": [{"a": 2, "b": 3}],
        "sections": [{"id": "s", "residues": [{"j": 1, "m": 1, "r": "1"}]}],
        "flags": {"nbar_nonzero": "false"}}),
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
    # A string row is not a coordinate list; read by character it would be (1, 1).
    "lift-witness-row-string": ("lift", {"points": [{"a": 3, "b": 4}], "witnesses": ["11"]}),
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


@pytest.mark.parametrize("at", ['"12"', '["1", [10]]'], ids=["string", "string-row"])
def test_star_check_string_at_is_usage_error(capsys, star_input, at):
    # A string is not a list of rows; read by character "12" would be [[1], [2]].
    code, out, err = run(capsys, "star", "check", "--input", star_input, "--at", at)
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

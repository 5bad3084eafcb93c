"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import LAYER_UNITS, Tracer  # noqa: E402
from worker import E2E_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# A few cheap ops per workload, enough to cross every traced layer.
CHEAP = {
    "genericity": ["3,4,1", "4,6,2", "4,7,3"],
    "generate": ["5,6", "5,7"],
    "lift": ["zero:60", "random:0:44"],
    "reparam": ["case:0", "case:1", "case:2"],
}


def goldens(name: str) -> dict:
    return json.loads((BENCH / "goldens" / f"{name}.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]] + list(LAYER_UNITS) + list(E2E_UNITS))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))


def test_declared_metrics_match_what_the_runs_report():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {**E2E_UNITS, "setup_s": "s"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_goldens_cover_every_plan(name):
    wl = WORKLOADS[name]()
    gold = goldens(name)
    assert sorted(gold) == sorted(wl.pool())
    for seed in range(20):
        assert set(wl.plan(seed)) <= set(gold)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_ops_match_the_goldens(name):
    wl = WORKLOADS[name]()
    gold = goldens(name)

    def records():
        wl.start_pass()
        out = {}
        for key in CHEAP[name]:
            inp = wl.prepare(key)
            wl.before_op(inp)
            out[key] = wl.record(inp, wl.execute(inp))
        return out

    plain = records()
    tracer = Tracer()
    tracer.install()
    try:
        traced = records()
    finally:
        tracer.uninstall()
    assert plain == traced == {k: gold[k] for k in CHEAP[name]}
    assert tracer.spans
    layers = tracer.layer_metrics(1)
    assert set(layers) | {"trace.overhead_s"} == set(LAYER_UNITS)


def test_seed_changes_lift_and_reparam_inputs_only():
    for name in ("lift", "reparam"):
        wl = WORKLOADS[name]()
        assert wl.plan(1) != wl.plan(2)
        assert wl.plan(1) == wl.plan(1)
    for name in ("genericity", "generate"):
        wl = WORKLOADS[name]()
        gold = goldens(name)
        assert [gold[k] for k in wl.plan(1)] == [gold[k] for k in wl.plan(2)]


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reparam",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout

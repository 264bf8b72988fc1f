"""Checks of the benchmark itself: counters repeat, outputs are checked.

    python3 -m pytest perfbench/test_bench.py -q

Each test serves small requests through real worker processes, so they
exercise the same path as `run.py`.
"""

from __future__ import annotations

import json
import shutil

import run

SMALL_SWEEP = run.verify_argv(2, 16, "all")
SMALL_CLASSIFY = [
    ["classify", "--p", "2", "--partition", "1,1,1,1"],
    ["classify", "--p", "3", "--partition", "1,2"],
]


def _counters(requests) -> dict:
    doc = run.run_pass(requests, trace=True, timeout=120)
    layers = run.layer_metrics(doc)
    return {name: layers[name] for name in run.COUNTERS if not name.startswith("setup.")}


def test_counters_repeat_exactly():
    requests = [SMALL_SWEEP] + SMALL_CLASSIFY
    first = _counters(requests)
    assert first == _counters(requests)
    assert first["lattice.subgroups"] > 0
    assert first["endos.endos_scanned"] > 0


def test_cached_sweep_reads_and_never_enumerates():
    cache = str(run.WORK / "test-cache")
    shutil.rmtree(cache, ignore_errors=True)
    try:
        fill = run.run_pass([run.verify_argv(3, 27, "defs-implications", cache)], True, 120)
        sweep = run.run_pass([run.verify_argv(3, 27, "all", cache)], True, 120)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    filled, swept = run.layer_metrics(fill), run.layer_metrics(sweep)
    assert filled["cache.misses"] == swept["cache.hits"] == 6  # shapes of order <= 27
    assert swept["lattice.subgroups"] == 0 and swept["lattice.enumerate_s"] == 0


def test_classify_runs_no_oracles():
    layers = run.layer_metrics(run.run_pass(SMALL_CLASSIFY, trace=True, timeout=120))
    assert layers["invariance.char_tests_per_subgroup"] > 0
    assert layers["endos.aut_closure_s"] == layers["endos.endo_scan_s"] == 0


def test_changed_outputs_are_caught():
    expected = {"classify": {"2:1,1,1,1": {"shape": "2:1,1,1,1"}}, "verify": {}}
    doc = run.run_pass(SMALL_CLASSIFY[:1], trace=False, timeout=120)
    assert run.check_request(doc["requests"][0], expected) is not None
    bad = dict(doc["requests"][0], rc=3)
    assert run.check_request(bad, json.loads(run.EXPECTED.read_text())).startswith("exit code 3")

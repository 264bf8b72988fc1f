"""Acceptance gate: the eleven shipping criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The full `verify --p 2 --max-order 256 --claims all` sweep is executed once
through the real CLI in a subprocess and its reports are shared by every
criterion that reads sweep output; corpus-specific criteria run their claims
directly.
"""

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from pgroups.core import element, make_shape
from pgroups.harness import build_corpus, run_claims
from pgroups.invariance import is_characteristic, is_fully_invariant
from pgroups.lattice import span

CLI = [sys.executable, "-m", "pgroups.cli"]
SWEEP_LIMIT_S = 900


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"criterion {num}: {desc}"


@dataclass
class SweepResult:
    reports: dict
    elapsed: float
    returncode: int


@pytest.fixture(scope="module")
def sweep(tmp_path_factory) -> SweepResult:
    args = CLI + ["verify", "--p", "2", "--max-order", "256", "--claims", "all"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, f"sweep failed: {proc.stderr[-2000:]}"
    reports = {}
    for line in proc.stdout.strip().splitlines():
        doc = json.loads(line)
        reports[doc["claim_id"]] = doc
    return SweepResult(reports, elapsed, proc.returncode)


def test_criterion_1_char_eq_fi_equivalence(sweep):
    r = sweep.reports["prop-2.26"]
    ok = (
        r["status"] == "pass"
        and r["total_violations"] == 0
        and r["shapes_checked"] == 66
        and r["runtime_ms"] <= 600_000
    )
    _line(1, ok, f"char-eq-fi equivalence on all 66 2-shapes <= 2^8 "
                 f"({r['runtime_ms']} ms)")


def test_criterion_2_pinned_witness_set():
    s = make_shape(2, [1, 3])
    h = span(s, [element(s, (1, 2))])
    members = {tuple(m.coords) for m in h.elements()}
    expected = {(0, 0), (1, 2), (1, 6), (0, 4)}
    ok = (
        members == expected
        and is_characteristic(h)
        and not is_fully_invariant(h)
    )
    _line(2, ok, "span{(1,2)} in 2:1,3 is exactly {0, a+2b, a+6b, 4b}, "
                 "characteristic, not fully invariant")


@pytest.fixture(scope="module")
def classify_sweeps():
    out = {}
    for p in (2, 3):
        corpus = build_corpus(p, p ** 6)
        reports = run_claims(["thm-2.5-i", "thm-2.5-ii"], corpus)
        out[p] = {r.claim_id: r for r in reports}
    return out


def test_criterion_3_ifi_criterion(classify_sweeps):
    ok = True
    checked = []
    for p in (2, 3):
        r = classify_sweeps[p]["thm-2.5-i"]
        ok = ok and r.status == "pass" and r.total_violations == 0
        ok = ok and r.shapes_checked == 29  # partitions of 1..6
        checked.append(f"p={p}: {r.shapes_checked} shapes")
    _line(3, ok, "classify_ifi matches the closed-form criterion on all "
                 f"shapes of order <= p^6 ({'; '.join(checked)})")


def test_criterion_4_strongly_ifi_is_elementary(classify_sweeps):
    ok = True
    for p in (2, 3):
        r = classify_sweeps[p]["thm-2.5-ii"]
        ok = ok and r.status == "pass" and r.total_violations == 0
        ok = ok and r.shapes_checked == 29
    _line(4, ok, "strongly-IFI holds exactly on all-ones partitions for "
                 "p in {2,3}, order <= p^6")


def test_criterion_5_doubling(sweep):
    r = sweep.reports["thm-2.1"]
    ok = r["status"] == "pass" and r["total_violations"] == 0
    # the classify route must have covered every lambda whose double fits 2^10
    for p, bound, expected in ((2, 32, 18), (3, 27, 6)):
        direct = run_claims(["thm-2.1"], build_corpus(p, bound))[0]
        ok = (ok and direct.status == "pass" and direct.total_violations == 0
              and direct.shapes_checked == expected)
    _line(5, ok, "doubled-shape IFI verdict equals the IC verdict of the "
                 "base shape for every base whose double has order <= 2^10 "
                 "(p in {2,3})")


def test_criterion_6_profile_conditions(sweep):
    r = sweep.reports["lemma-2.25"]
    sparse_notes = [n for n in r["notes"] if "adapted" in n]
    ok = (
        r["status"] == "adapted"
        and r["total_violations"] == 0
        and r["shapes_checked"] == 66
        and sparse_notes
    )
    _line(6, ok, "projection profiles of all characteristic subgroups satisfy "
                 f"the four conditions; {len(sparse_notes)} sparse shapes "
                 "flagged adapted, 0 hard violations")


def test_criterion_7_split_suites(sweep):
    r14 = sweep.reports["lemma-2.14"]
    r17 = sweep.reports["lemma-2.17"]
    ok = all(
        r["status"] == "pass" and r["total_violations"] == 0
        and r["shapes_checked"] == 58  # every shape with a nontrivial split
        for r in (r14, r17)
    )
    _line(7, ok, "split stability and slice-sum suites clean on all splits "
                 "of all 2-shapes <= 2^8")


def _closure_skip_shapes(report) -> list:
    for n in report.notes:
        if n.startswith("closure-vs-filtered-endos"):
            tail = n.split("(oracle caps): ", 1)[1]
            return re.split(r",\s+(?=\d+:)", tail)
    return []


def test_criterion_8_oracle_crosschecks():
    ok = True
    details = []
    for p in (2, 3):
        r = run_claims(["oracle-crosscheck"], build_corpus(p, 64))[0]
        ok = ok and r.status == "pass" and r.total_violations == 0
        skips = _closure_skip_shapes(r)
        if p == 2:
            # the three shapes whose endomorphism count tops the oracle cap
            ok = ok and skips == ["2:1,1,1,1,1", "2:1,1,1,1,2", "2:1,1,1,1,1,1"]
            details.append(f"p=2: {r.shapes_checked} shapes, "
                           f"{len(skips)} closure skips (cap)")
        else:
            ok = ok and skips == []
            details.append(f"p=3: {r.shapes_checked} shapes, no skips")
    _line(8, ok, "closure equals filtered endo enumeration and profile route "
                 f"equals brute force, order <= 2^6 ({'; '.join(details)})")


def test_criterion_9_witness_family(sweep):
    r = sweep.reports["example-2.18"]
    ok = (
        r["status"] == "pass"
        and r["total_violations"] == 0
        and r["shapes_checked"] == 4
    )
    _line(9, ok, "pinned characteristic-not-fully-invariant witness family "
                 "verified 4/4")


def test_criterion_10_no_weakly_ic(sweep):
    r = sweep.reports["prop-2.16"]
    ok = (
        r["status"] == "pass"
        and r["total_violations"] == 0
        and r["shapes_checked"] == 66
        and any("bounded" in n for n in r["notes"])
    )
    _line(10, ok, "weakly-IC false on every corpus shape, report labels the "
                  "bounded-case instance")


def test_criterion_11_performance(sweep):
    ok = sweep.elapsed <= SWEEP_LIMIT_S
    _line(11, ok, f"full sweep single-threaded in {sweep.elapsed:.1f}s "
                  f"(limit {SWEEP_LIMIT_S}s)")
    cpus = os.cpu_count() or 1
    if cpus < 8:
        print(f"[criterion 11] SKIP parallel clause: host exposes {cpus} "
              "CPU(s); the 3x-with-8-jobs measurement needs 8")
        pytest.skip("parallel speedup clause needs >= 8 CPUs")
    args = CLI + ["verify", "--p", "2", "--max-order", "256",
                  "--claims", "all", "--jobs", "8"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed8 = time.perf_counter() - t0
    ok = proc.returncode == 0 and sweep.elapsed / elapsed8 >= 3.0
    _line(11, ok, f"8-job sweep in {elapsed8:.1f}s, "
                  f"speedup {sweep.elapsed / elapsed8:.2f}x (needs >= 3x)")

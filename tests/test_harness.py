"""Corpus construction, claim execution, parallel determinism, negative controls."""

import json

import numpy as np
import pytest

import pgroups.endos as endos_mod
import pgroups.harness as harness_mod
from pgroups.core import format_shape, make_shape, parse_shape
from pgroups.harness import (
    CheckContext,
    CheckOutcome,
    ClaimSpec,
    LatticeStore,
    UnknownClaimError,
    _check_char_eq_fi_holds,
    all_claim_ids,
    build_corpus,
    compute_shape_lattice,
    registry,
    run_claims,
    runnable_claim_ids,
    verify_claim,
)


def test_corpus_contents_and_order():
    c = build_corpus(2, 8)
    assert [format_shape(s) for s in c.shapes] == [
        "2:1", "2:2", "2:3", "2:1,1", "2:1,2", "2:1,1,1",
    ]
    # partition counts: p(1..6) = 1,2,3,5,7,11
    assert len(build_corpus(2, 64).shapes) == 29
    assert len(build_corpus(3, 729).shapes) == 29
    assert len(build_corpus(2, 256).shapes) == 66
    assert build_corpus(2, 1).shapes == ()


def test_corpus_rejects_bad_input():
    with pytest.raises(ValueError):
        build_corpus(4, 16)
    with pytest.raises(ValueError):
        build_corpus(2, 0)


def test_registry_is_stable():
    ids = all_claim_ids()
    assert ids == list(registry())
    assert set(runnable_claim_ids()) <= set(ids)
    stubs = set(ids) - set(runnable_claim_ids())
    assert stubs  # out-of-scope entries keep the coverage gap explicit
    for cid in stubs:
        assert registry()[cid].reason


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaimError):
        run_claims(["thm-2.5-i", "nope"], build_corpus(2, 4))


EXPECTED_STATUS = {cid: "pass" for cid in runnable_claim_ids()}
EXPECTED_STATUS["lemma-2.25"] = "adapted"  # sparse partitions in every corpus


def test_full_registry_on_small_corpus():
    corpus = build_corpus(2, 32)
    reports = run_claims(all_claim_ids(), corpus)
    assert [r.claim_id for r in reports] == all_claim_ids()
    for r in reports:
        assert r.total_violations == 0, (r.claim_id, r.violations)
        expected = EXPECTED_STATUS.get(r.claim_id, "out-of-scope")
        assert r.status == expected, (r.claim_id, r.status)
        assert r.prime == 2 and r.max_order == 32


def test_out_of_scope_reports():
    r = verify_claim("thm-2.1-ipi", build_corpus(2, 8))
    assert r.status == "out-of-scope"
    assert r.shapes_checked == 0
    assert any("untestable" in n for n in r.notes)


def test_inapplicable_claim_is_noted():
    r = verify_claim("prop-2.26", build_corpus(3, 27))  # claim is about p = 2
    assert r.status == "pass" and r.shapes_checked == 0
    assert any("applicability" in n for n in r.notes)


def _stripped(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("runtime_ms")
        out.append(d)
    return out


def test_parallel_runs_are_identical(tmp_path):
    corpus = build_corpus(2, 16)
    ids = ["thm-2.1", "prop-2.26", "lemma-2.25", "oracle-crosscheck"]
    seq = _stripped(run_claims(ids, corpus, jobs=1))
    par = _stripped(run_claims(ids, corpus, jobs=3))
    cached = _stripped(run_claims(ids, corpus, jobs=2, cache_dir=tmp_path))
    recached = _stripped(run_claims(ids, corpus, jobs=1, cache_dir=tmp_path))
    assert seq == par == cached == recached


def test_report_json_is_sorted_and_schema_stable():
    r = verify_claim("thm-2.5-i", build_corpus(2, 8))
    doc = json.loads(r.to_json())
    assert list(doc) == sorted(doc)
    assert set(doc) == {
        "claim_id", "prime", "max_order", "shapes_checked", "status",
        "violations", "total_violations", "runtime_ms", "notes",
    }


def test_harness_detects_planted_violations(monkeypatch):
    # flip the closed-form predicate; the kaplansky check must start failing
    monkeypatch.setattr(
        harness_mod, "kaplansky_2group_predicate", lambda shape: False
    )
    corpus = build_corpus(2, 64)
    r = verify_claim("prop-2.26", corpus)
    assert r.status == "fail"
    assert r.total_violations > harness_mod.MAX_STORED_VIOLATIONS
    assert len(r.violations) == harness_mod.MAX_STORED_VIOLATIONS
    for v in r.violations:
        assert set(v) == {"shape", "witness"}


def test_violation_reports_carry_witnesses():
    # run the char-eq-fi checker on a shape where the equality genuinely fails
    out = _check_char_eq_fi_holds(CheckContext(LatticeStore()), make_shape(2, [1, 3]))
    assert len(out.violations) == 1
    w = out.violations[0]["witness"]["subgroup"]
    assert w["order"] == 4 and w["iso_type"] == "2:2"  # span{(1,2)} is cyclic


def test_family_claim_off_prime():
    r = verify_claim("example-2.18", build_corpus(3, 27))
    assert r.shapes_checked == 0
    assert any("p = 2" in n for n in r.notes)


def test_oracle_skip_notes_name_shapes():
    r = verify_claim("oracle-crosscheck", build_corpus(2, 32))
    skip_notes = [n for n in r.notes if n.startswith("closure-vs-filtered-endos")]
    assert len(skip_notes) == 1
    assert "2:1,1,1,1,1" in skip_notes[0]


def test_closure_oracle_catches_a_missing_automorphism(monkeypatch):
    closure = harness_mod.aut_closure_tables
    monkeypatch.setattr(harness_mod, "aut_closure_tables", lambda s: closure(s)[1:])
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = verify_claim("oracle-crosscheck", corpus)
    assert r.status == "fail"
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": 7,
            "repeated_rows": 0,
            "filtered_size": 8,
            "detail": "generator closure and filtered enumeration differ",
        }
    ]


@pytest.mark.parametrize(
    "mangle, closure_size",
    [
        # one automorphism replaced by a copy of another: one is missing
        (lambda rows: np.concatenate([rows[:-1], rows[:1]]), 8),
        # every automorphism present, one of them twice
        (lambda rows: np.concatenate([rows, rows[-1:]]), 9),
    ],
    ids=["replaced", "appended"],
)
def test_closure_oracle_catches_a_repeated_automorphism(monkeypatch, mangle, closure_size):
    closure = harness_mod.aut_closure_tables
    monkeypatch.setattr(harness_mod, "aut_closure_tables", lambda s: mangle(closure(s)))
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = verify_claim("oracle-crosscheck", corpus)
    assert r.status == "fail"
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": closure_size,
            "repeated_rows": 1,
            "filtered_size": 8,
            "detail": "generator closure and filtered enumeration differ",
        }
    ]


def test_block_test_oracle_catches_a_flipped_table_entry(monkeypatch):
    real = endos_mod._nonsingular_blocks
    singular = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    code = int(np.dot(np.ravel(singular), endos_mod._block_places(2, 3)))
    assert not real(2, 3)[code]

    def flipped(p, r):
        table = real(p, r)
        if (p, r) == (2, 3):
            table = table.copy()
            table[code] = True
        return table

    monkeypatch.setattr(endos_mod, "_nonsingular_blocks", flipped)
    # only 2:1,1,1 has a 3x3 run mod 2; its one map with that block is the
    # block itself, so exactly one violation, and none on the other shapes
    shapes = ("2:1,1", "2:1,2", "2:2,2", "2:1,1,1", "2:1,1,2")
    corpus = harness_mod.Corpus(2, 16, tuple(parse_shape(s) for s in shapes))
    r = verify_claim("oracle-crosscheck", corpus)
    assert r.status == "fail"
    assert [(v["shape"], v["witness"]) for v in r.violations] == [
        (
            "2:1,1,1",
            {
                "check": "fast-aut-vs-bijective-table",
                "entries": singular,
                "fast": True,
                "bijective": False,
            },
        )
    ]


def test_custom_claim_runs_through_registry(monkeypatch):
    seen = []

    def check(ctx, shape):
        seen.append(format_shape(shape))
        out = CheckOutcome()
        if shape.order == 8:
            out.violations.append({"shape": format_shape(shape), "witness": {}})
        return out

    spec = ClaimSpec("tmp-claim", "test-only", "per-shape",
                     applies=lambda s: s.rank == 1, check=check)
    monkeypatch.setitem(harness_mod._REGISTRY, "tmp-claim", spec)
    r = verify_claim("tmp-claim", build_corpus(2, 8))
    # units are scheduled cost-first, so only the set of visits is stable
    assert sorted(seen) == ["2:1", "2:2", "2:3"]
    assert r.status == "fail" and r.total_violations == 1


def test_shape_lattice_flag_views():
    lat = compute_shape_lattice(make_shape(2, [1, 3]))
    assert len(lat.characteristic()) == 7
    assert len(lat.fully_invariant()) == 6
    assert {h.mask for h in lat.fully_invariant()} <= {
        h.mask for h in lat.characteristic()
    }
